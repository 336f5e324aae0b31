package core

import (
	"riscvsim/internal/cache"
	"riscvsim/internal/isa"
	"riscvsim/internal/memory"
	"riscvsim/internal/rename"
	"riscvsim/internal/stats"
)

// InstrView is the JSON-friendly projection of a dynamic instruction for
// the web client: its text, phase, flags and the timestamps of every
// completed pipeline phase (paper Fig. 3).
type InstrView struct {
	ID          uint64 `json:"id"`
	PC          int    `json:"pc"`
	Text        string `json:"text"`
	Phase       string `json:"phase"`
	FetchedAt   uint64 `json:"fetchedAt,omitempty"`
	DecodedAt   uint64 `json:"decodedAt,omitempty"`
	IssuedAt    uint64 `json:"issuedAt,omitempty"`
	ExecutedAt  uint64 `json:"executedAt,omitempty"`
	MemoryAt    uint64 `json:"memoryAt,omitempty"`
	CommittedAt uint64 `json:"committedAt,omitempty"`
	Speculative bool   `json:"speculative,omitempty"`
	Squashed    bool   `json:"squashed,omitempty"`
	Exception   string `json:"exception,omitempty"`
	DestTag     string `json:"destTag,omitempty"`
	Mispredict  bool   `json:"mispredict,omitempty"`
}

func viewOf(si *SimInstr) InstrView {
	v := InstrView{
		ID:          si.ID,
		PC:          si.PC,
		Text:        si.Static.String(),
		Phase:       si.Phase.String(),
		FetchedAt:   si.FetchedAt,
		DecodedAt:   si.DecodedAt,
		IssuedAt:    si.IssuedAt,
		ExecutedAt:  si.ExecutedAt,
		MemoryAt:    si.MemoryAt,
		CommittedAt: si.CommittedAt,
		Squashed:    si.Squashed,
		Mispredict:  si.mispredict,
	}
	if si.Exc.Occurred() {
		v.Exception = si.Exc.Error()
	}
	if si.hasDest {
		v.DestTag = rename.TagName(si.destTag)
	}
	return v
}

// RegView is one architectural register with its committed value and, when
// renamed, the tag of its newest speculative copy.
type RegView struct {
	Name    string `json:"name"`
	Alias   string `json:"alias,omitempty"`
	Value   string `json:"value"`
	Renamed string `json:"renamed,omitempty"`
}

// FUView is one functional unit's display state.
type FUView struct {
	Name     string     `json:"name"`
	Class    string     `json:"class"`
	Busy     bool       `json:"busy"`
	InFlight int        `json:"inFlight,omitempty"`
	Instr    *InstrView `json:"instr,omitempty"`
	DoneAt   uint64     `json:"doneAt,omitempty"`
}

// State is a complete snapshot of the processor for the schematic view
// (paper Fig. 12): every block's contents, both register files, the cache
// lines, the memory pointer registry and the headline statistics.
type State struct {
	Cycle      uint64 `json:"cycle"`
	PC         int    `json:"pc"`
	Halted     bool   `json:"halted"`
	HaltReason string `json:"haltReason,omitempty"`

	DecodeBuffer []InstrView            `json:"decodeBuffer"`
	ROB          []InstrView            `json:"rob"`
	Windows      map[string][]InstrView `json:"issueWindows"`
	FUs          []FUView               `json:"functionalUnits"`
	LoadBuffer   []InstrView            `json:"loadBuffer"`
	StoreBuffer  []InstrView            `json:"storeBuffer"`

	IntRegs   []RegView         `json:"intRegisters"`
	FloatRegs []RegView         `json:"floatRegisters"`
	SpecRegs  []rename.SpecView `json:"speculativeRegisters"`

	CacheLines []cache.LineView `json:"cacheLines,omitempty"`
	Pointers   []memory.Pointer `json:"memoryPointers"`

	Stats *stats.Report `json:"stats"`
	Log   []LogEntry    `json:"log,omitempty"`
}

// State captures the current snapshot. includeLog controls whether the
// debug log rides along (it can be large).
func (s *Simulation) State(includeLog bool) *State {
	st := &State{
		Cycle:      s.cycle,
		PC:         s.fetch.pc,
		Halted:     s.halted,
		HaltReason: s.haltReason,
		Windows:    make(map[string][]InstrView, 4),
		Stats:      s.Report(),
		Pointers:   s.mem.Pointers(),
		SpecRegs:   s.rf.LiveView(s.prog.regs),
		CacheLines: s.l1.Lines(),
	}
	for _, si := range s.pendingDecode() {
		st.DecodeBuffer = append(st.DecodeBuffer, viewOf(si))
	}
	s.rob.Walk(func(si *SimInstr, done bool) {
		st.ROB = append(st.ROB, viewOf(si))
	})
	for class, w := range s.windows {
		var views []InstrView
		for _, si := range w.Snapshot() {
			views = append(views, viewOf(si))
		}
		st.Windows[isa.FUClass(class).String()] = views
	}
	for _, fu := range s.fus {
		fv := FUView{Name: fu.Name(), Class: fu.Class().String(), Busy: fu.Busy(), InFlight: fu.InFlight()}
		if fu.Busy() {
			iv := viewOf(fu.Current())
			fv.Instr = &iv
			fv.DoneAt = fu.nextDone()
		}
		st.FUs = append(st.FUs, fv)
	}
	for _, si := range s.lsu.Loads() {
		st.LoadBuffer = append(st.LoadBuffer, viewOf(si))
	}
	for _, si := range s.lsu.Stores() {
		st.StoreBuffer = append(st.StoreBuffer, viewOf(si))
	}
	for i := 0; i < isa.NumRegs; i++ {
		st.IntRegs = append(st.IntRegs, s.regView(isa.RegInt, i))
		st.FloatRegs = append(st.FloatRegs, s.regView(isa.RegFloat, i))
	}
	if includeLog {
		st.Log = s.log
	}
	return st
}

func (s *Simulation) regView(class isa.RegClass, idx int) RegView {
	var desc *isa.RegisterDesc
	if class == isa.RegInt {
		desc = s.prog.regs.Int(idx)
	} else {
		desc = s.prog.regs.Float(idx)
	}
	rv := RegView{Name: desc.Name, Value: s.rf.ArchValue(class, idx).String()}
	if len(desc.Aliases) > 0 {
		rv.Alias = desc.Aliases[0]
	}
	if tags := s.rf.RenamedCopies(class, idx); len(tags) > 0 {
		rv.Renamed = rename.TagName(tags[len(tags)-1])
	}
	return rv
}
