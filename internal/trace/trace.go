// Package trace is the structured pipeline-trace subsystem: a typed,
// machine-readable record of every stage transition a dynamic instruction
// makes while flowing through the superscalar pipeline. It is the seam the
// web visualization, verification diffing (à la ISS-driven RTL checking)
// and profiling tooling plug into — where the debug log carries free-form
// prose, a trace carries StageEvents.
//
// The core emits events through the Tracer interface. The default is no
// tracer at all: the hot loop guards every emission with a nil check, so a
// simulation that nobody watches pays nothing (BenchmarkSimTraceOff in the
// repo root pins this). The bundled Ring collector keeps a bounded window
// of events and can reconstruct Konata/Chronograph-style instruction
// lifetimes and a textual pipeline diagram from it.
package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Stage identifies one pipeline stage transition. The values are wire
// format (JSON marshals the lowercase name) — append only.
type Stage uint8

// Pipeline stages, in the order a healthy instruction visits them.
const (
	StageFetch Stage = iota
	StageDecode
	StageRename
	StageDispatch
	StageIssue
	StageExecute
	StageWriteback
	StageCommit
	StageSquash
	numStages
)

// NumStages is the number of defined stages.
const NumStages = int(numStages)

var stageNames = [...]string{
	"fetch", "decode", "rename", "dispatch", "issue",
	"execute", "writeback", "commit", "squash",
}

// String names the stage.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Letter is the single-character mark used in pipeline diagrams.
func (s Stage) Letter() byte {
	const letters = "FDRPIEWCX"
	if int(s) < len(letters) {
		return letters[s]
	}
	return '?'
}

// ParseStage resolves a stage name.
func ParseStage(name string) (Stage, error) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown stage %q (want one of %s)",
		name, strings.Join(stageNames[:], ", "))
}

// MarshalJSON writes the stage name, keeping the wire format readable.
func (s Stage) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, s.String()), nil
}

// UnmarshalJSON reads a stage name.
func (s *Stage) UnmarshalJSON(data []byte) error {
	name, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("trace: bad stage %s", data)
	}
	st, err := ParseStage(name)
	if err != nil {
		return err
	}
	*s = st
	return nil
}

// StageEvent is one stage transition of one dynamic instruction. Events
// are emitted in deterministic simulation order: ascending cycle, and
// within a cycle in pipeline-walk order (commit first, like the core's
// block schedule).
type StageEvent struct {
	// Cycle is the clock cycle the transition happened in.
	Cycle uint64 `json:"cycle"`
	// InstrID is the dynamic instruction number (fetch order, 1-based).
	InstrID uint64 `json:"instrId"`
	// PC is the code index the instruction was fetched from.
	PC int `json:"pc"`
	// Disasm is the instruction's disassembly text.
	Disasm string `json:"disasm"`
	// Stage is the transition's pipeline stage.
	Stage Stage `json:"stage"`
	// Detail carries stage-specific context (rename tag, FU name,
	// resolved branch target, effective address, squash cause).
	Detail string `json:"detail,omitempty"`
}

// Tracer receives stage events from the core. Implementations must not
// retain the event past the call (the core may reuse buffers); the Ring
// collector copies. A nil Tracer is the documented "off" state — the core
// nil-checks before every emission.
type Tracer interface {
	Trace(ev StageEvent)
}

// ---------------------------------------------------------------------------
// Filters
// ---------------------------------------------------------------------------

// StageMask is a bit set of stages.
type StageMask uint16

// AllStages has every stage enabled.
const AllStages = StageMask(1<<numStages - 1)

// Has reports whether the stage is in the set.
func (m StageMask) Has(s Stage) bool { return m&(1<<s) != 0 }

// With adds a stage to the set.
func (m StageMask) With(s Stage) StageMask { return m | 1<<s }

// String renders the mask in the filter grammar (comma-separated names,
// or "all").
func (m StageMask) String() string {
	if m == AllStages {
		return "all"
	}
	var names []string
	for s := Stage(0); s < numStages; s++ {
		if m.Has(s) {
			names = append(names, s.String())
		}
	}
	return strings.Join(names, ",")
}

// ParseStages parses the stage-filter grammar: a comma-separated list of
// stage names; "" and "all" mean every stage.
func ParseStages(spec string) (StageMask, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "all" {
		return AllStages, nil
	}
	var m StageMask
	for _, part := range strings.Split(spec, ",") {
		s, err := ParseStage(strings.TrimSpace(part))
		if err != nil {
			return 0, err
		}
		m = m.With(s)
	}
	return m, nil
}

// Filter selects which events a collector keeps.
type Filter struct {
	// Stages is the stage set to keep (zero value keeps nothing; use
	// AllStages for everything).
	Stages StageMask
	// PCMin/PCMax bound the instruction PC, inclusive. PCMax < 0 means
	// no upper bound.
	PCMin, PCMax int
}

// NoFilter keeps every event.
var NoFilter = Filter{Stages: AllStages, PCMin: 0, PCMax: -1}

// Match reports whether the event passes the filter.
func (f Filter) Match(ev *StageEvent) bool {
	if !f.Stages.Has(ev.Stage) {
		return false
	}
	if ev.PC < f.PCMin {
		return false
	}
	if f.PCMax >= 0 && ev.PC > f.PCMax {
		return false
	}
	return true
}

// ParsePCRange parses the PC-range filter grammar "lo:hi" (inclusive code
// indices); either side may be empty ("" or ":" means unbounded).
func ParsePCRange(spec string) (lo, hi int, err error) {
	lo, hi = 0, -1
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return lo, hi, nil
	}
	loStr, hiStr, found := strings.Cut(spec, ":")
	if !found {
		return 0, 0, fmt.Errorf("trace: bad pc range %q (want \"lo:hi\")", spec)
	}
	if loStr = strings.TrimSpace(loStr); loStr != "" {
		if lo, err = strconv.Atoi(loStr); err != nil || lo < 0 {
			return 0, 0, fmt.Errorf("trace: bad pc range lower bound %q", loStr)
		}
	}
	if hiStr = strings.TrimSpace(hiStr); hiStr != "" {
		if hi, err = strconv.Atoi(hiStr); err != nil || hi < lo {
			return 0, 0, fmt.Errorf("trace: bad pc range upper bound %q", hiStr)
		}
	}
	return lo, hi, nil
}

// ParseFilter combines the stage and PC grammars into a Filter.
func ParseFilter(stages, pcRange string) (Filter, error) {
	m, err := ParseStages(stages)
	if err != nil {
		return Filter{}, err
	}
	lo, hi, err := ParsePCRange(pcRange)
	if err != nil {
		return Filter{}, err
	}
	return Filter{Stages: m, PCMin: lo, PCMax: hi}, nil
}

// ---------------------------------------------------------------------------
// Ring collector
// ---------------------------------------------------------------------------

// Ring is a bounded ring-buffer Tracer: it keeps the newest capacity
// events that pass its filter, counting what it saw and what it dropped.
// The zero value is not usable; build with NewRing.
type Ring struct {
	buf     []StageEvent
	start   int // oldest element when full
	n       int // occupied
	filter  Filter
	total   uint64 // matched events offered
	dropped uint64 // matched events evicted by the bound
}

// NewRing builds a ring collector keeping at most capacity events that
// pass the filter.
func NewRing(capacity int, f Filter) *Ring {
	if capacity <= 0 {
		capacity = 1
	}
	return &Ring{buf: make([]StageEvent, capacity), filter: f}
}

// Filter returns the ring's filter. The core queries it (via the
// optional Filterer interface) to skip building events for unwanted
// stages at the emission site.
func (r *Ring) Filter() Filter { return r.filter }

// Filterer is the optional Tracer extension that lets the emitter skip
// stages the sink will discard anyway.
type Filterer interface {
	Filter() Filter
}

// WantedStages returns the stage set a tracer cares about: its filter's
// mask when it exposes one, otherwise every stage.
func WantedStages(t Tracer) StageMask {
	if f, ok := t.(Filterer); ok {
		return f.Filter().Stages
	}
	return AllStages
}

// Trace implements Tracer.
func (r *Ring) Trace(ev StageEvent) {
	if !r.filter.Match(&ev) {
		return
	}
	r.total++
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = ev
		r.n++
		return
	}
	r.buf[r.start] = ev
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

// Total returns how many events matched the filter overall.
func (r *Ring) Total() uint64 { return r.total }

// Dropped returns how many matched events the bound evicted.
func (r *Ring) Dropped() uint64 { return r.dropped }

// Events returns the buffered events oldest-first (a copy).
func (r *Ring) Events() []StageEvent {
	out := make([]StageEvent, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}

// ---------------------------------------------------------------------------
// Lifetimes and occupancy reconstruction
// ---------------------------------------------------------------------------

// Lifetime is one instruction's reconstructed pipeline timeline: for each
// stage, the cycle it was reached (0 = not observed). This is the
// Konata/Chronograph instruction-lifetime model.
type Lifetime struct {
	InstrID  uint64            `json:"instrId"`
	PC       int               `json:"pc"`
	Disasm   string            `json:"disasm"`
	Stages   [NumStages]uint64 `json:"stages"`
	Squashed bool              `json:"squashed"`
}

// First returns the earliest observed cycle (0 when none).
func (l *Lifetime) First() uint64 {
	var min uint64
	for _, c := range l.Stages {
		if c != 0 && (min == 0 || c < min) {
			min = c
		}
	}
	return min
}

// Last returns the latest observed cycle.
func (l *Lifetime) Last() uint64 {
	var max uint64
	for _, c := range l.Stages {
		if c > max {
			max = c
		}
	}
	return max
}

// StageAt returns the newest stage reached at or before the cycle, and
// whether any stage was reached by then.
func (l *Lifetime) StageAt(cycle uint64) (Stage, bool) {
	best, found := Stage(0), false
	var bestCycle uint64
	for s := Stage(0); s < numStages; s++ {
		c := l.Stages[s]
		if c != 0 && c <= cycle && c >= bestCycle {
			best, bestCycle, found = s, c, true
		}
	}
	return best, found
}

// Lifetimes folds a stream of events into per-instruction timelines,
// sorted by dynamic instruction ID. When the event window saw a stage
// more than once for the same instruction (cannot happen in a single
// run), the last event wins.
func Lifetimes(events []StageEvent) []Lifetime {
	byID := make(map[uint64]*Lifetime)
	order := make([]uint64, 0, 16)
	for i := range events {
		ev := &events[i]
		lt, ok := byID[ev.InstrID]
		if !ok {
			lt = &Lifetime{InstrID: ev.InstrID, PC: ev.PC, Disasm: ev.Disasm}
			byID[ev.InstrID] = lt
			order = append(order, ev.InstrID)
		}
		lt.Stages[ev.Stage] = ev.Cycle
		if ev.Stage == StageSquash {
			lt.Squashed = true
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]Lifetime, len(order))
	for i, id := range order {
		out[i] = *byID[id]
	}
	return out
}

// Occupancy reconstructs the per-cycle pipeline snapshot at the given
// cycle: every instruction in flight (first observed stage ≤ cycle ≤ last
// observed stage) with the newest stage it had reached. IDs ascend.
type Occupant struct {
	InstrID uint64 `json:"instrId"`
	PC      int    `json:"pc"`
	Disasm  string `json:"disasm"`
	Stage   Stage  `json:"stage"`
}

// Occupancy computes the snapshot from reconstructed lifetimes.
func Occupancy(lifetimes []Lifetime, cycle uint64) []Occupant {
	var out []Occupant
	for i := range lifetimes {
		lt := &lifetimes[i]
		first, last := lt.First(), lt.Last()
		if first == 0 || cycle < first || cycle > last {
			continue
		}
		st, ok := lt.StageAt(cycle)
		if !ok {
			continue
		}
		out = append(out, Occupant{InstrID: lt.InstrID, PC: lt.PC, Disasm: lt.Disasm, Stage: st})
	}
	return out
}
