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

// Type selects the counter automaton in the PHT.
type Type uint8

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
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("predictorType(%d)", uint8(t))
}

// ParseType is the inverse of String.
func ParseType(s string) (Type, error) {
	for i, n := range typeNames {
		if n == s {
			return Type(i), nil
		}
	}
	return TwoBit, fmt.Errorf("predictor: unknown type %q", s)
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

// Upper bounds on the tables, each 8x the presets' value (128 BTB and 256
// PHT entries): both are allocated whole when the predictor is built
// (docs/api.md lists every bound).
const (
	MaxBTBSize = 1024
	MaxPHTSize = 2048
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BTBSize <= 0 || c.BTBSize > MaxBTBSize {
		return fmt.Errorf("predictor: BTBSize must be in [1, %d], got %d", MaxBTBSize, c.BTBSize)
	}
	if c.PHTSize <= 0 || c.PHTSize > MaxPHTSize {
		return fmt.Errorf("predictor: PHTSize must be in [1, %d], got %d", MaxPHTSize, c.PHTSize)
	}
	max := c.maxCounter()
	if c.DefaultState < 0 || (c.Kind != ZeroBit && c.DefaultState > max) {
		return fmt.Errorf("predictor: DefaultState %d out of range [0,%d] for %s",
			c.DefaultState, max, c.Kind)
	}
	if c.HistoryBits < 0 || c.HistoryBits > 30 {
		return fmt.Errorf("predictor: HistoryBits %d out of range [0,30]", c.HistoryBits)
	}
	return nil
}

func (c Config) maxCounter() int {
	switch c.Kind {
	case OneBit:
		return 1
	case TwoBit:
		return 3
	default:
		return 1
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
	stats      Stats
}

// New builds a predictor. The configuration must be valid.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Predictor{
		cfg:      cfg,
		btb:      make([]btbEntry, cfg.BTBSize),
		pht:      make([]uint8, cfg.PHTSize),
		histMask: (uint32(1) << cfg.HistoryBits) - 1,
	}
	for i := range p.pht {
		p.pht[i] = uint8(cfg.DefaultState)
	}
	if !cfg.GlobalHistory {
		p.localHist = make([]uint32, cfg.PHTSize)
	}
	return p, nil
}

// Config returns the predictor configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Stats returns the collected statistics.
func (p *Predictor) Stats() Stats { return p.stats }

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
	// PHTIndex records which counter produced the direction (for the
	// GUI's predictor state display).
	PHTIndex int
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
		pred.PHTIndex = idx
		switch p.cfg.Kind {
		case ZeroBit:
			pred.Taken = p.cfg.DefaultState != 0
		case OneBit:
			pred.Taken = p.pht[idx] >= 1
		default:
			pred.Taken = p.pht[idx] >= 2
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
		max := uint8(p.cfg.maxCounter())
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

// CounterState returns the PHT counter for a PC (GUI display of "the state
// of the branch predictor", paper Fig. 1).
func (p *Predictor) CounterState(pc int) uint8 { return p.pht[p.phtIndex(pc)] }

// StateName renders a counter value as the classic two-bit state name.
func StateName(kind Type, c uint8) string {
	switch kind {
	case ZeroBit:
		if c != 0 {
			return "always-taken"
		}
		return "always-not-taken"
	case OneBit:
		if c != 0 {
			return "taken"
		}
		return "not-taken"
	default:
		switch c {
		case 0:
			return "strongly-not-taken"
		case 1:
			return "weakly-not-taken"
		case 2:
			return "weakly-taken"
		default:
			return "strongly-taken"
		}
	}
}
