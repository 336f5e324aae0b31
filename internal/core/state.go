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

func (s *Simulation) viewOf(si *SimInstr) InstrView {
	v := InstrView{
		ID:          si.ID,
		PC:          si.PC,
		Text:        s.prog.display().text[si.PC],
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

	// head is the encoded view up to Alias, shared by every view of this
	// register of the Program; a view built by hand has none.
	head string
}

// FUView is one functional unit's display state.
type FUView struct {
	Name     string     `json:"name"`
	Class    string     `json:"class"`
	Busy     bool       `json:"busy"`
	InFlight int        `json:"inFlight,omitempty"`
	Instr    *InstrView `json:"instr,omitempty"`
	DoneAt   uint64     `json:"doneAt,omitempty"`

	// head is the encoded view up to Class, built once per unit.
	head string
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

	// pointersEnc is Pointers encoded, shared by every state of the Program.
	pointersEnc []byte
}

// display is what State shows of a Program whatever the simulation is
// doing, built on the first State call of any of its simulations: the
// text of every instruction, the encoded head of every register view and
// the encoded pointer table.
type display struct {
	text     []string
	regHeads [2][isa.NumRegs]string // by isa.RegClass
	pointers []byte
}

func (p *Program) display() *display {
	p.dispOnce.Do(func() {
		d := &display{text: make([]string, len(p.instrs))}
		for i, in := range p.instrs {
			d.text[i] = in.String()
		}
		for i := 0; i < isa.NumRegs; i++ {
			for class, desc := range [...]*isa.RegisterDesc{isa.RegInt: p.regs.Int(i), isa.RegFloat: p.regs.Float(i)} {
				d.regHeads[class][i] = string(regHead(nil, desc.Name, firstAlias(desc)))
			}
		}
		d.pointers = appendPointers(nil, p.image.Pointers())
		p.disp = d
	})
	return p.disp
}

func firstAlias(desc *isa.RegisterDesc) string {
	if len(desc.Aliases) > 0 {
		return desc.Aliases[0]
	}
	return ""
}

// views projects the instructions of one pipeline structure; an empty one
// stays nil, which is how the reply has always shown it.
func (s *Simulation) views(sis []*SimInstr) []InstrView {
	if len(sis) == 0 {
		return nil
	}
	out := make([]InstrView, len(sis))
	for i, si := range sis {
		out[i] = s.viewOf(si)
	}
	return out
}

// State captures the current snapshot. includeLog controls whether the
// debug log rides along (it can be large).
func (s *Simulation) State(includeLog bool) *State {
	st := &State{
		Cycle:       s.ledger.Cycles,
		PC:          s.fetch.pc,
		Halted:      s.halted,
		HaltReason:  s.haltReason,
		Windows:     make(map[string][]InstrView, 4),
		Stats:       s.Report(),
		Pointers:    s.mem.Pointers(),
		pointersEnc: s.prog.display().pointers,
		SpecRegs:    s.rf.LiveView(s.prog.regs),
		CacheLines:  s.l1.Lines(),
	}
	st.DecodeBuffer = s.views(s.pendingDecode())
	if n := s.rob.Len(); n > 0 {
		st.ROB = make([]InstrView, 0, n)
		s.rob.Walk(func(si *SimInstr, done bool) {
			st.ROB = append(st.ROB, s.viewOf(si))
		})
	}
	for class, w := range s.windows {
		st.Windows[isa.FUClass(class).String()] = s.views(s.windowEntries(w, nil))
	}
	if len(s.fus) > 0 {
		st.FUs = make([]FUView, 0, len(s.fus))
	}
	for _, fu := range s.fus {
		fv := FUView{Name: fu.Name(), Class: fu.Class().String(), Busy: fu.Busy(), InFlight: fu.InFlight(), head: fu.viewHead()}
		if fu.Busy() {
			iv := s.viewOf(fu.Current())
			fv.Instr = &iv
			fv.DoneAt = fu.minDone
		}
		st.FUs = append(st.FUs, fv)
	}
	st.LoadBuffer = s.views(s.lsu.loads)
	st.StoreBuffer = s.views(s.lsu.stores)
	st.IntRegs = make([]RegView, isa.NumRegs)
	st.FloatRegs = make([]RegView, isa.NumRegs)
	for i := 0; i < isa.NumRegs; i++ {
		st.IntRegs[i] = s.regView(isa.RegInt, i)
		st.FloatRegs[i] = s.regView(isa.RegFloat, i)
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
	rv := RegView{
		Name: desc.Name, Alias: firstAlias(desc), Value: s.rf.ArchValue(class, idx).String(),
		head: s.prog.display().regHeads[class][idx],
	}
	if tags := s.rf.RenamedCopies(class, idx); len(tags) > 0 {
		rv.Renamed = rename.TagName(tags[len(tags)-1])
	}
	return rv
}
