package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"riscvsim/internal/core"
	"riscvsim/internal/seeds"
	"riscvsim/internal/workload"
	"riscvsim/sim"
)

// goldenDir is where the corpus's checked-in metric rows live, relative
// to the repository root.
const goldenDir = "internal/workload/testdata/golden"

// corpusTracePasses is how many corpus passes the traced replay records
// at the reference run length (scaled with -seconds), per engine:
// detailed, fast-forward.
var corpusTracePasses = map[bool]float64{false: 8, true: 64}

// archRef is the architectural outcome of a detailed run, which the
// fast-forward engine must reproduce exactly.
type archRef struct {
	hash      uint64
	committed uint64
}

// corpusBench runs the 13-program corpus in-process on the default
// 2-wide core, one goroutine, the HPC / -suite shape: each op builds a
// machine from source, runs it to completion and takes its report.
type corpusBench struct {
	ff     bool
	cfg    *sim.Config
	order  []workload.Workload
	golden map[string]workload.Metrics
	ref    map[string]archRef
}

func newCorpus(ff bool) setupFunc {
	return func(seed int64, root string) (bench, error) {
		b := &corpusBench{
			ff:     ff,
			cfg:    sim.DefaultConfig(),
			order:  workload.Corpus(),
			golden: make(map[string]workload.Metrics),
			ref:    make(map[string]archRef),
		}
		// The corpus is fixed; the seed decides the order of a pass.
		rng := rand.New(rand.NewSource(seeds.Mix(seed)))
		rng.Shuffle(len(b.order), func(i, j int) { b.order[i], b.order[j] = b.order[j], b.order[i] })

		fp, err := b.cfg.Fingerprint()
		if err != nil {
			return nil, err
		}
		for _, w := range b.order {
			if ff {
				// Reference for the fast-forward check: the detailed
				// run's architectural outcome.
				m, err := sim.NewFromAsm(b.cfg, w.Source, w.Entry)
				if err != nil {
					return nil, err
				}
				m.Run(w.MaxCycles)
				b.ref[w.Name] = archRef{hash: m.ArchStateHash(), committed: m.Committed()}
				continue
			}
			g, err := workload.ReadGolden(filepath.Join(root, goldenDir), w.Name)
			if err != nil {
				return nil, fmt.Errorf("corpus: golden row: %w", err)
			}
			if g.ConfigFingerprint != fp {
				return nil, fmt.Errorf("corpus: golden %s was generated for config %s, default is %s",
					w.Name, g.ConfigFingerprint, fp)
			}
			b.golden[w.Name] = g.Metrics
		}
		// Warm-up: one untimed pass, checked like any other.
		for _, w := range b.order {
			if _, err := b.op(w); err != nil {
				return nil, fmt.Errorf("corpus warm-up: %w", err)
			}
		}
		return b, nil
	}
}

func (b *corpusBench) close() {}

// op is one benchmark operation and its check. It returns the simulated
// cycles the run advanced; only build -> run -> report is inside dur.
func (b *corpusBench) op(w workload.Workload) (res opResult, err error) {
	start := time.Now()
	m, err := sim.NewFromAsm(b.cfg, w.Source, w.Entry)
	if err != nil {
		return res, err
	}
	if b.ff {
		m.SetEngineMode(sim.EngineFastForward)
	}
	m.Run(w.MaxCycles)
	rep := m.Report()
	res = opResult{dur: time.Since(start), cycles: m.Cycle()}
	if b.ff {
		return res, b.checkArch(w.Name, m.ArchStateHash(), m.Committed())
	}
	return res, b.checkGolden(w, rep)
}

type opResult struct {
	dur    time.Duration
	cycles uint64
}

// checkGolden holds a detailed run to its checked-in metrics row.
func (b *corpusBench) checkGolden(w workload.Workload, rep *sim.Report) error {
	if diffs := workload.DiffMetrics(b.golden[w.Name], workload.FromReport(w, rep)); len(diffs) > 0 {
		return fmt.Errorf("%s drifted from its golden row: %s want %s got %s (+%d more)",
			w.Name, diffs[0].Field, diffs[0].Want, diffs[0].Got, len(diffs)-1)
	}
	return nil
}

// checkArch holds a fast-forward run to the detailed run's outcome.
func (b *corpusBench) checkArch(name string, hash, committed uint64) error {
	ref := b.ref[name]
	if err := wantEqual(name+" committed", committed, ref.committed); err != nil {
		return err
	}
	return wantEqual(name+" ArchStateHash", hash, ref.hash)
}

// measure runs whole passes until d has elapsed. The loop is a single
// goroutine, so the window it reports is busy time: the summed op
// durations, with the checker's own time between ops left out rather
// than billed to the simulator.
func (b *corpusBench) measure(d time.Duration) *tally {
	rec := newRecorder(time.Now())
	host0 := snapHost()
	var busy time.Duration
	for pass := 0; pass == 0 || time.Since(rec.t0) < d; pass++ {
		for _, w := range b.order {
			res, err := b.op(w)
			rec.attempted++
			if err != nil {
				rec.fail(err)
				continue
			}
			busy += res.dur
			rec.samples = append(rec.samples, sample{end: busy, dur: res.dur, cycles: res.cycles, kind: kindOp})
		}
	}
	return mergeRecorders([]*recorder{rec}, busy, host0.until(snapHost()))
}

func (b *corpusBench) endToEnd(t *tally) map[string]float64 { return t.endToEnd(kindOp) }

// trace runs the untraced reference window and then replays a fixed
// number of passes through the layers' public entry points with spans.
func (b *corpusBench) trace(d time.Duration, tr *tracer) (map[string]float64, outcome) {
	layers, untracedRate, ref := referenceWindow(b, d)

	passes := max(int(corpusTracePasses[b.ff]*d.Seconds()/refSeconds), 1)
	counts := &replayCounts{}
	start := time.Now()
	for p := 0; p < passes; p++ {
		for i, w := range b.order {
			b.replayOp(tr, p*len(b.order)+i+1, w, counts)
		}
	}
	tracedRate := float64(counts.attempted) / time.Since(start).Seconds()
	for k, v := range spanLayers(tr.spans, counts) {
		layers[k] = v
	}
	layers["host.trace_overhead_pct"] = overheadPct(untracedRate, tracedRate)
	counts.absorb(ref)
	return layers, counts.outcome
}

// replayOp is op() taken apart: the same work through core's public
// entry points, one span per layer.
func (b *corpusBench) replayOp(tr *tracer, req int, w workload.Workload, c *replayCounts) {
	tr.request(req)
	tr.begin("op")
	c.attempted++
	s, instrs, err := buildCore(tr, b.cfg, w.Source, false, 0, w.Entry)
	if err != nil {
		tr.end()
		c.fail(err)
		return
	}
	if b.ff {
		s.SetEngineMode(core.EngineFastForward)
	}
	tr.begin("core.Run")
	s.Run(w.MaxCycles)
	tr.end()
	tr.begin("stats.Report")
	rep := s.Report()
	tr.end()
	tr.end()
	c.instrs += instrs
	c.cycles += s.Cycle()
	c.committed += s.Committed()
	if b.ff {
		err = b.checkArch(w.Name, s.ArchHash(), s.Committed())
	} else {
		err = b.checkGolden(w, rep)
	}
	if err != nil {
		c.fail(err)
	}
}
