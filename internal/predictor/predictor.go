// Package predictor implements the simulator's branch prediction: a branch
// target buffer (BTB), a pattern history table (PHT) of zero-, one- or
// two-bit counters with a configurable default state, and a choice of
// local or global history shift registers — the complete option set of the
// paper's Branch prediction settings tab (§II-C).
//
// The predictor is trained in program order when branches resolve, so no
// speculative-history rollback is required.
package predictor

import "fmt"

// Type selects the counter automaton in the PHT. Its value is the
// counter's width in bits: an n-bit counter saturates at 1<<n - 1.
type Type int

// Predictor types from the paper's settings window.
const (
	// ZeroBit is a static predictor: it always predicts the configured
	// default direction and never learns.
	ZeroBit Type = iota
	// OneBit remembers the last outcome per PHT entry.
	OneBit
	// TwoBit is the classic saturating counter (strongly/weakly
	// not-taken, weakly/strongly taken).
	TwoBit
)

var typeNames = [...]string{"zero-bit", "one-bit", "two-bit"}

// String returns the display name of the predictor type.
func (t Type) String() string {
	if uint(t) < uint(len(typeNames)) {
		return typeNames[t]
	}
	return fmt.Sprintf("predictorType(%d)", int(t))
}

// Config holds the Branch prediction tab parameters.
type Config struct {
	// BTBSize is the number of branch target buffer entries.
	BTBSize int
	// PHTSize is the number of pattern history table entries.
	PHTSize int
	// Kind selects the counter automaton.
	Kind Type
	// DefaultState is the initial counter value of every PHT entry:
	// 0..1 for one-bit, 0..3 for two-bit; for zero-bit 0 = always
	// not-taken, anything else = always taken.
	DefaultState int
	// GlobalHistory selects a single global history shift register
	// (gshare-style indexing) instead of per-branch local histories.
	GlobalHistory bool
	// HistoryBits is the shift register length.
	HistoryBits int
}

// DefaultConfig returns the predictor used by the preset architectures:
// 128-entry BTB, 256-entry PHT of two-bit counters initialized weakly
// taken, global history.
func DefaultConfig() Config {
	return Config{
		BTBSize:       128,
		PHTSize:       256,
		Kind:          TwoBit,
		DefaultState:  2,
		GlobalHistory: true,
		HistoryBits:   8,
	}
}

// btbEntry is one direct-mapped, tagged BTB slot.
type btbEntry struct {
	valid  bool
	pc     int
	target int
}

// Stats counts prediction outcomes for the statistics window.
type Stats struct {
	Predictions uint64 `json:"predictions"`
	Correct     uint64 `json:"correct"`
	Mispredicts uint64 `json:"mispredicts"`
	BTBHits     uint64 `json:"btbHits"`
	BTBMisses   uint64 `json:"btbMisses"`
}

// Accuracy returns correct/predictions in [0,1].
func (s Stats) Accuracy() float64 {
	if s.Predictions == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Predictions)
}

// Predictor is the combined direction predictor + BTB.
type Predictor struct {
	cfg        Config
	btb        []btbEntry
	pht        []uint8
	globalHist uint32
	localHist  []uint32
	histMask   uint32
	// stats is the predictor's slot of its simulation's statistics ledger.
	stats *Stats
}

// New builds a predictor that counts into st. The configuration must be
// valid (config.CPU.Validate checks it).
func New(cfg Config, st *Stats) *Predictor {
	p := &Predictor{
		cfg:      cfg,
		btb:      make([]btbEntry, cfg.BTBSize),
		pht:      make([]uint8, cfg.PHTSize),
		histMask: (uint32(1) << cfg.HistoryBits) - 1,
		stats:    st,
	}
	for i := range p.pht {
		p.pht[i] = uint8(cfg.DefaultState)
	}
	if !cfg.GlobalHistory {
		p.localHist = make([]uint32, cfg.PHTSize)
	}
	return p
}

// phtIndex combines the branch PC with the active history register.
func (p *Predictor) phtIndex(pc int) int {
	var hist uint32
	if p.cfg.GlobalHistory {
		hist = p.globalHist & p.histMask
	} else {
		hist = p.localHist[pc%p.cfg.PHTSize] & p.histMask
	}
	return int((uint32(pc) ^ hist) % uint32(p.cfg.PHTSize))
}

// Prediction is the fetch-time answer for one branch.
type Prediction struct {
	// Taken is the predicted direction.
	Taken bool
	// Target is the predicted target when BTBHit (otherwise meaningless;
	// the fetch unit falls through until the branch resolves).
	Target int
	// BTBHit reports whether the BTB held a target for the PC.
	BTBHit bool
}

// Predict returns the direction and target prediction for the branch at pc.
// Unconditional jumps should pass conditional=false: their direction is
// always taken and only the BTB matters.
func (p *Predictor) Predict(pc int, conditional bool) Prediction {
	pred := Prediction{Taken: true}
	e := &p.btb[pc%p.cfg.BTBSize]
	if e.valid && e.pc == pc {
		pred.BTBHit = true
		pred.Target = e.target
		p.stats.BTBHits++
	} else {
		p.stats.BTBMisses++
	}
	if conditional {
		idx := p.phtIndex(pc)
		if p.cfg.Kind == ZeroBit {
			pred.Taken = p.cfg.DefaultState != 0
		} else { // the counter's upper half predicts taken
			pred.Taken = p.pht[idx] >= 1<<(p.cfg.Kind-1)
		}
	}
	return pred
}

// Update trains the predictor with the resolved outcome of the branch at
// pc and records whether the prediction was correct.
func (p *Predictor) Update(pc int, conditional, taken bool, target int, predictedCorrectly bool) {
	p.stats.Predictions++
	if predictedCorrectly {
		p.stats.Correct++
	} else {
		p.stats.Mispredicts++
	}

	if conditional && p.cfg.Kind != ZeroBit {
		idx := p.phtIndex(pc)
		c := p.pht[idx]
		max := uint8(1)<<p.cfg.Kind - 1
		if taken {
			if c < max {
				c++
			}
		} else if c > 0 {
			c--
		}
		p.pht[idx] = c
	}

	// History shift registers record the outcome after indexing.
	if conditional {
		bit := uint32(0)
		if taken {
			bit = 1
		}
		if p.cfg.GlobalHistory {
			p.globalHist = (p.globalHist<<1 | bit) & p.histMask
		} else {
			h := &p.localHist[pc%p.cfg.PHTSize]
			*h = (*h<<1 | bit) & p.histMask
		}
	}

	// Taken branches (and all jumps) deposit their target in the BTB.
	if taken {
		p.btb[pc%p.cfg.BTBSize] = btbEntry{valid: true, pc: pc, target: target}
	}
}
