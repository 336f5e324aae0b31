// Package rename implements register renaming: a speculative register file
// of configurable size, a rename map from architectural registers to their
// newest speculative copy, and reference counting, mirroring the paper's
// register representation (§III-B): "architectural registers use a list of
// all renamed copies, while renamed (speculative) registers hold a pointer
// to the corresponding architectural register".
package rename

import (
	"fmt"
	"strconv"

	"riscvsim/internal/expr"
	"riscvsim/internal/isa"
)

// NoTag marks the absence of a speculative register.
const NoTag = -1

// specReg is one speculative (renamed) register.
type specReg struct {
	inUse bool
	// value holds the computed result once valid is true.
	value expr.Value
	valid bool
	// archClass/archIndex point back to the architectural register
	// (the paper's "pointer to the corresponding architectural
	// register").
	archClass isa.RegClass
	archIndex int
	// refs counts in-flight consumers that still hold the tag.
	refs int
	// committed is set when the value has been copied to the
	// architectural file; squashed when the producing instruction was
	// flushed.
	committed bool
	squashed  bool
}

// File combines the architectural register files with the speculative
// rename file.
type File struct {
	archInt   [isa.NumRegs]expr.Value
	archFloat [isa.NumRegs]expr.Value

	spec []specReg
	free []int

	// mapInt/mapFloat give the newest speculative copy of each
	// architectural register, or NoTag.
	mapInt   [isa.NumRegs]int
	mapFloat [isa.NumRegs]int

	// stats is the file's slot of its simulation's statistics ledger.
	stats *Counters
}

// NewFile builds a rename file with size speculative registers (the
// "register rename file size" setting of the paper's Memory tab) that
// counts into st.
func NewFile(size int, st *Counters) *File {
	f := &File{spec: make([]specReg, size), free: make([]int, 0, size), stats: st}
	for i := size - 1; i >= 0; i-- {
		f.free = append(f.free, i)
	}
	for i := range f.mapInt {
		f.mapInt[i] = NoTag
		f.mapFloat[i] = NoTag
	}
	for i := range f.archInt {
		f.archInt[i] = expr.NewInt(0)
		f.archFloat[i] = expr.NewFloat(0)
	}
	return f
}

// Size returns the speculative file capacity.
func (f *File) Size() int { return len(f.spec) }

// FreeCount returns the number of unallocated speculative registers.
func (f *File) FreeCount() int { return len(f.free) }

// TagName renders a speculative tag for display ("tg7"), matching the
// GUI's renamed-register tags.
func TagName(tag int) string { return "tg" + strconv.Itoa(tag) }

func (f *File) mapFor(class isa.RegClass) *[isa.NumRegs]int {
	if class == isa.RegInt {
		return &f.mapInt
	}
	return &f.mapFloat
}

func (f *File) archFor(class isa.RegClass) *[isa.NumRegs]expr.Value {
	if class == isa.RegInt {
		return &f.archInt
	}
	return &f.archFloat
}

// Alloc renames the destination register (class, idx): it allocates a
// speculative register, records the previous mapping (needed to undo on a
// flush) and installs the new mapping. ok is false when the rename file is
// exhausted, in which case decode must stall.
func (f *File) Alloc(class isa.RegClass, idx int) (tag, prev int, ok bool) {
	if len(f.free) == 0 {
		f.stats.StallsEmpty++
		return NoTag, NoTag, false
	}
	tag = f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	m := f.mapFor(class)
	prev = m[idx]
	m[idx] = tag
	f.spec[tag] = specReg{
		inUse:     true,
		archClass: class,
		archIndex: idx,
		// The rename map itself holds one reference.
		refs: 1,
	}
	f.stats.Allocations++
	return tag, prev, true
}

// SrcRef is the result of a source-operand lookup: either an immediate
// architectural value or a speculative tag (whose value may not be ready).
type SrcRef struct {
	// Tag is the speculative register, or NoTag when the architectural
	// value is current.
	Tag int
	// Value is the operand value; meaningful when Valid.
	Value expr.Value
	// Valid reports whether Value is available now.
	Valid bool
}

// LookupSrc resolves a source operand. If a speculative copy exists, the
// returned SrcRef carries its tag and a reference is taken (the consumer
// must eventually call Release). Otherwise the committed architectural
// value is returned directly.
func (f *File) LookupSrc(class isa.RegClass, idx int) SrcRef {
	m := f.mapFor(class)
	if tag := m[idx]; tag != NoTag {
		s := &f.spec[tag]
		s.refs++
		return SrcRef{Tag: tag, Value: s.value, Valid: s.valid}
	}
	return SrcRef{Tag: NoTag, Value: f.archFor(class)[idx], Valid: true}
}

// Release drops one consumer reference on a speculative register and frees
// it if it has become dead.
func (f *File) Release(tag int) {
	if tag == NoTag {
		return
	}
	s := &f.spec[tag]
	if !s.inUse || s.refs <= 0 {
		panic(fmt.Sprintf("rename: Release(%d) on dead or unreferenced register", tag))
	}
	s.refs--
	f.maybeFree(tag)
}

// Value returns the current value/validity of a speculative register.
func (f *File) Value(tag int) (expr.Value, bool) {
	s := &f.spec[tag]
	return s.value, s.valid
}

// SetValue writes a computed result into a speculative register
// (functional-unit writeback) and marks it valid.
func (f *File) SetValue(tag int, v expr.Value) {
	s := &f.spec[tag]
	if !s.inUse {
		panic(fmt.Sprintf("rename: SetValue(%d) on free register", tag))
	}
	s.value = v
	s.valid = true
}

// Commit copies the speculative value into the architectural register,
// clears the rename-map entry if it still points at tag, and releases the
// map's reference. The register stays allocated until all consumer
// references are released.
func (f *File) Commit(tag int) {
	s := &f.spec[tag]
	if !s.inUse {
		panic(fmt.Sprintf("rename: Commit(%d) on free register", tag))
	}
	if !s.valid {
		panic(fmt.Sprintf("rename: Commit(%d) before its value is ready", tag))
	}
	if !(s.archClass == isa.RegInt && s.archIndex == isa.RegZero) {
		arch := f.archFor(s.archClass)
		arch[s.archIndex] = s.value
	}
	s.committed = true
	m := f.mapFor(s.archClass)
	if m[s.archIndex] == tag {
		m[s.archIndex] = NoTag
	}
	s.refs-- // the map reference
	f.maybeFree(tag)
}

// Squash undoes a rename after a pipeline flush: the mapping is restored
// to prev and the register is marked dead. Squashes must proceed youngest
// to oldest so prev mappings nest correctly.
//
// The previous copy may have committed (or died) after this rename was
// made; its value then lives in the architectural file, so the mapping
// falls back to NoTag rather than pointing at a dead speculative register.
func (f *File) Squash(tag, prev int) {
	s := &f.spec[tag]
	if !s.inUse {
		panic(fmt.Sprintf("rename: Squash(%d) on free register", tag))
	}
	m := f.mapFor(s.archClass)
	if m[s.archIndex] == tag {
		restored := prev
		if prev != NoTag {
			p := &f.spec[prev]
			if !p.inUse || p.committed || p.squashed ||
				p.archClass != s.archClass || p.archIndex != s.archIndex {
				restored = NoTag
			}
		}
		m[s.archIndex] = restored
	}
	s.squashed = true
	s.refs-- // the map reference
	f.maybeFree(tag)
}

// maybeFree returns the register to the free list once it is dead: no
// references remain and it has either committed or been squashed.
func (f *File) maybeFree(tag int) {
	s := &f.spec[tag]
	if s.inUse && s.refs == 0 && (s.committed || s.squashed) {
		*s = specReg{} // a free register keeps nothing of its last use
		f.free = append(f.free, tag)
	}
}

// ArchValue reads a committed architectural register.
func (f *File) ArchValue(class isa.RegClass, idx int) expr.Value {
	return f.archFor(class)[idx]
}

// SetArchValue initializes an architectural register (simulation setup:
// stack pointer, entry arguments...).
func (f *File) SetArchValue(class isa.RegClass, idx int, v expr.Value) {
	if class == isa.RegInt && idx == isa.RegZero {
		return // x0 is hardwired
	}
	f.archFor(class)[idx] = v
}

// Counters are the rename file's additive statistics.
type Counters struct {
	Allocations uint64
	StallsEmpty uint64
}

// Stats is what the statistics document reports of the rename file: its
// counters and the occupancy it ended with.
type Stats struct {
	Allocations uint64 `json:"allocations"`
	StallsEmpty uint64 `json:"stallsEmpty"`
	InUse       int    `json:"inUse"`
	Free        int    `json:"free"`
}

// SpecView describes one speculative register for the GUI (renamed tag,
// architectural target, value, validity, references — paper Fig. 3).
type SpecView struct {
	Tag       string `json:"tag"`
	Arch      string `json:"arch"`
	Value     string `json:"value"`
	Valid     bool   `json:"valid"`
	Refs      int    `json:"refs"`
	Committed bool   `json:"committed"`
}

// LiveView lists the in-use speculative registers for display.
func (f *File) LiveView(regs *isa.RegisterFile) []SpecView {
	var out []SpecView
	for tag := range f.spec {
		s := &f.spec[tag]
		if !s.inUse {
			continue
		}
		var archName string
		if s.archClass == isa.RegInt {
			archName = regs.Int(s.archIndex).Name
		} else {
			archName = regs.Float(s.archIndex).Name
		}
		v := SpecView{
			Tag: TagName(tag), Arch: archName,
			Valid: s.valid, Refs: s.refs, Committed: s.committed,
		}
		if s.valid {
			v.Value = s.value.String()
		}
		out = append(out, v)
	}
	return out
}

// RenamedCopies returns the tags of all live speculative copies of one
// architectural register, oldest allocation order not guaranteed (GUI
// display of "a list of all renamed copies").
func (f *File) RenamedCopies(class isa.RegClass, idx int) []int {
	var tags []int
	for tag := range f.spec {
		s := &f.spec[tag]
		if s.inUse && s.archClass == class && s.archIndex == idx && !s.committed && !s.squashed {
			tags = append(tags, tag)
		}
	}
	return tags
}
