package predictor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"riscvsim/internal/ckpt"
)

func mustNew(t *testing.T, cfg Config) *Predictor {
	t.Helper()
	return New(cfg, new(Stats))
}

func twoBitCfg() Config {
	return Config{BTBSize: 16, PHTSize: 64, Kind: TwoBit, DefaultState: 2, GlobalHistory: true, HistoryBits: 4}
}

func TestZeroBitIsStatic(t *testing.T) {
	for _, def := range []int{0, 1} {
		cfg := twoBitCfg()
		cfg.Kind = ZeroBit
		cfg.DefaultState = def
		p := mustNew(t, cfg)
		want := def != 0
		// Train hard against the static direction; it must not budge.
		for i := 0; i < 20; i++ {
			p.Update(4, true, !want, 8, false)
		}
		if got := p.Predict(4, true).Taken; got != want {
			t.Errorf("zero-bit(default=%d) predicts %v after training, want %v", def, got, want)
		}
	}
}

func TestOneBitFollowsLastOutcome(t *testing.T) {
	cfg := twoBitCfg()
	cfg.Kind = OneBit
	cfg.DefaultState = 0
	cfg.HistoryBits = 0 // isolate the counter behaviour from history indexing
	p := mustNew(t, cfg)
	pc := 4
	if p.Predict(pc, true).Taken {
		t.Error("initial prediction should be not-taken (default 0)")
	}
	p.Update(pc, true, true, 8, false)
	if !p.Predict(pc, true).Taken {
		t.Error("after a taken outcome, one-bit must predict taken")
	}
	p.Update(pc, true, false, 8, false)
	if p.Predict(pc, true).Taken {
		t.Error("after a not-taken outcome, one-bit must predict not-taken")
	}
}

func TestTwoBitHysteresis(t *testing.T) {
	cfg := twoBitCfg()
	cfg.DefaultState = 3 // strongly taken
	cfg.HistoryBits = 0
	p := mustNew(t, cfg)
	pc := 4
	// One not-taken outcome: still predicts taken (weakly).
	p.Update(pc, true, false, 8, false)
	if !p.Predict(pc, true).Taken {
		t.Error("two-bit must survive one contrary outcome")
	}
	// Second not-taken outcome: flips.
	p.Update(pc, true, false, 8, false)
	if p.Predict(pc, true).Taken {
		t.Error("two-bit must flip after two contrary outcomes")
	}
}

func TestCounterSaturation(t *testing.T) {
	cfg := twoBitCfg()
	cfg.HistoryBits = 0
	p := mustNew(t, cfg)
	pc := 4
	for i := 0; i < 10; i++ {
		p.Update(pc, true, true, 8, true)
	}
	if got := p.pht[p.phtIndex(pc)]; got != 3 {
		t.Errorf("counter = %d after saturating taken, want 3", got)
	}
	for i := 0; i < 10; i++ {
		p.Update(pc, true, false, 8, false)
	}
	if got := p.pht[p.phtIndex(pc)]; got != 0 {
		t.Errorf("counter = %d after saturating not-taken, want 0", got)
	}
}

func TestBTBStoresTargets(t *testing.T) {
	p := mustNew(t, twoBitCfg())
	if p.Predict(4, false).BTBHit {
		t.Error("empty BTB must miss")
	}
	p.Update(4, false, true, 42, false)
	pred := p.Predict(4, false)
	if !pred.BTBHit || pred.Target != 42 {
		t.Errorf("after update, prediction = %+v, want BTB hit with target 42", pred)
	}
}

func TestBTBTagging(t *testing.T) {
	cfg := twoBitCfg()
	cfg.BTBSize = 16
	p := mustNew(t, cfg)
	p.Update(4, false, true, 42, false)
	// PC 20 maps to the same slot (20 % 16 == 4) but has a different tag.
	pred := p.Predict(20, false)
	if pred.BTBHit {
		t.Error("BTB must not alias PCs with different tags")
	}
	// The new branch evicts the old entry.
	p.Update(20, false, true, 99, false)
	if p.Predict(4, false).BTBHit {
		t.Error("evicted BTB entry must not hit")
	}
	if got := p.Predict(20, false); !got.BTBHit || got.Target != 99 {
		t.Errorf("new entry = %+v, want hit with target 99", got)
	}
}

func TestNotTakenBranchesDoNotEnterBTB(t *testing.T) {
	p := mustNew(t, twoBitCfg())
	p.Update(4, true, false, 42, true)
	if p.Predict(4, true).BTBHit {
		t.Error("not-taken branches must not allocate BTB entries")
	}
}

func TestGlobalHistoryDistinguishesPatterns(t *testing.T) {
	// A branch alternating T,N,T,N is mispredicted by a plain two-bit
	// counter but learned perfectly with history bits: after warmup the
	// history register disambiguates the two contexts.
	cfg := Config{BTBSize: 16, PHTSize: 256, Kind: TwoBit, DefaultState: 0, GlobalHistory: true, HistoryBits: 4}
	p := mustNew(t, cfg)
	pc := 8
	outcome := func(i int) bool { return i%2 == 0 }
	correct := 0
	const rounds = 200
	for i := 0; i < rounds; i++ {
		pred := p.Predict(pc, true)
		want := outcome(i)
		if pred.Taken == want {
			correct++
		}
		p.Update(pc, true, want, 16, pred.Taken == want)
	}
	// Skip the warmup; the steady state must be near-perfect.
	if correct < rounds*3/4 {
		t.Errorf("history predictor got %d/%d on alternating pattern, want >= %d",
			correct, rounds, rounds*3/4)
	}
}

func TestLocalHistoryIsolation(t *testing.T) {
	// With local histories, an erratic branch must not pollute the
	// history of a well-behaved branch mapping to a different entry.
	cfg := Config{BTBSize: 16, PHTSize: 64, Kind: TwoBit, DefaultState: 2, GlobalHistory: false, HistoryBits: 4}
	p := mustNew(t, cfg)
	steady, noisy := 3, 4
	correct := 0
	const rounds = 100
	for i := 0; i < rounds; i++ {
		pred := p.Predict(steady, true)
		if pred.Taken {
			correct++
		}
		p.Update(steady, true, true, 10, pred.Taken)
		p.Update(noisy, true, i%3 == 0, 20, false)
	}
	if correct < rounds-5 {
		t.Errorf("steady branch with local history: %d/%d correct", correct, rounds)
	}
}

func TestStatsAccounting(t *testing.T) {
	p := mustNew(t, twoBitCfg())
	p.Update(4, true, true, 8, true)
	p.Update(4, true, false, 8, false)
	st := *p.stats
	if st.Predictions != 2 || st.Correct != 1 || st.Mispredicts != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Accuracy() != 0.5 {
		t.Errorf("accuracy = %v, want 0.5", st.Accuracy())
	}
}

func TestPropertyTwoBitConvergence(t *testing.T) {
	f := func(pcRaw uint16, def uint8, dir bool) bool {
		cfg := Config{BTBSize: 32, PHTSize: 128, Kind: TwoBit,
			DefaultState: int(def % 4), GlobalHistory: true, HistoryBits: 0}
		p := New(cfg, new(Stats))
		pc := int(pcRaw)
		for i := 0; i < 3; i++ {
			pred := p.Predict(pc, true)
			p.Update(pc, true, dir, pc+1, pred.Taken == dir)
		}
		return p.Predict(pc, true).Taken == dir
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: prediction accuracy statistics never exceed prediction count.
func TestPropertyStatsConsistent(t *testing.T) {
	f := func(outcomes []bool) bool {
		var st Stats
		p := New(DefaultConfig(), &st)
		for i, o := range outcomes {
			pred := p.Predict(i%50, true)
			p.Update(i%50, true, o, i+1, pred.Taken == o)
		}
		return st.Correct+st.Mispredicts == st.Predictions &&
			st.Predictions == uint64(len(outcomes))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDecodeRejectsWideHistory: a history register holds HistoryBits bits,
// so a stream with a wider one is corrupt. Read into a uint32 it used to
// decode, and one past 32 bits re-encoded to other bytes.
func TestDecodeRejectsWideHistory(t *testing.T) {
	for _, global := range []bool{true, false} {
		cfg := twoBitCfg()
		cfg.GlobalHistory = global
		var buf bytes.Buffer
		mustNew(t, cfg).EncodeState(ckpt.NewWriter(&buf))
		front := 1 + cfg.BTBSize + cfg.PHTSize // tag, invalid BTB entries, PHT
		for _, h := range []uint64{1 << cfg.HistoryBits, 1<<40 | 3} {
			stream := append(binary.AppendUvarint(bytes.Clone(buf.Bytes()[:front]), h), buf.Bytes()[front+1:]...)
			r := ckpt.NewReader(bytes.NewReader(stream))
			mustNew(t, cfg).DecodeState(r)
			if !errors.Is(r.Err(), ckpt.ErrCorrupt) {
				t.Errorf("global %v, history %#x: err = %v, want ErrCorrupt", global, h, r.Err())
			}
		}
	}
}
