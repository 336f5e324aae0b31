package rename

import (
	"riscvsim/internal/ckpt"
	"riscvsim/internal/isa"
)

// EncodeState writes the rename state: both architectural files, every
// speculative register in use (value, validity, back-pointer, lifecycle
// flag), the free list in its order and both rename maps. Tags are plain
// indices into the speculative file, so the encoding carries no pointer
// identity. The file's size is the configuration's, the free list's
// length the registers not in use, and each reference count the
// references the live instructions hold (CountHolders), so none travels.
func (f *File) EncodeState(w *ckpt.Writer) {
	w.Section(ckpt.SecRename)
	for i := range f.archInt {
		w.Value(f.archInt[i])
	}
	for i := range f.archFloat {
		w.Value(f.archFloat[i])
	}
	for i := range f.spec {
		s := &f.spec[i]
		w.Bool(s.inUse)
		if !s.inUse {
			continue
		}
		w.Value(s.value)
		w.Bool(s.valid)
		w.Byte(byte(s.archClass))
		w.Int(s.archIndex)
		w.Bool(s.committed)
	}
	for _, tag := range f.free {
		w.Int(tag)
	}
	for i := range f.mapInt {
		w.Int(f.mapInt[i])
	}
	for i := range f.mapFloat {
		w.Int(f.mapFloat[i])
	}
}

// DecodeState applies an encoded rename state onto f, which must be
// freshly built from the same configuration. The reference counts stay
// zero until CountHolders sets them.
func (f *File) DecodeState(r *ckpt.Reader) {
	r.Section(ckpt.SecRename)
	for i := range f.archInt {
		f.archInt[i] = r.Value()
	}
	for i := range f.archFloat {
		f.archFloat[i] = r.Value()
	}
	live := 0
	for i := range f.spec {
		s := &f.spec[i]
		*s = specReg{inUse: r.Bool()}
		if !s.inUse {
			continue
		}
		live++
		s.value = r.Value()
		s.valid = r.Bool()
		s.archClass = isa.RegClass(r.Byte())
		s.archIndex = r.Int()
		s.committed = r.Bool()
		if r.Err() == nil && (s.archClass > isa.RegFloat || s.archIndex < 0 || s.archIndex >= isa.NumRegs) {
			r.Corrupt("speculative register %d: class %d / arch index %d", i, s.archClass, s.archIndex)
		}
	}
	// The free list holds the registers not in use, once each.
	f.free = f.free[:0]
	listed := make([]bool, len(f.spec))
	for range len(f.spec) - live {
		tag := r.Int()
		if r.Err() != nil {
			return
		}
		if tag < 0 || tag >= len(f.spec) || f.spec[tag].inUse || listed[tag] {
			r.Corrupt("free-list tag %d out of range, in use or listed twice", tag)
			return
		}
		listed[tag] = true
		f.free = append(f.free, tag)
	}
	// A map entry names the newest copy of its register: live, not yet
	// committed, renaming that register.
	readMap := func(class isa.RegClass) {
		m := f.mapFor(class)
		for i := range m {
			tag := r.Int()
			if r.Err() != nil {
				return
			}
			if tag != NoTag && (tag < 0 || tag >= len(f.spec) || !f.renames(tag, class, i)) {
				r.Corrupt("rename map tag %d for %s%d is not a live copy of it", tag, class, i)
				return
			}
			m[i] = tag
		}
	}
	readMap(isa.RegInt)
	readMap(isa.RegFloat)
}

// renames reports whether tag is a live, uncommitted copy of (class, idx).
func (f *File) renames(tag int, class isa.RegClass, idx int) bool {
	s := &f.spec[tag]
	return s.inUse && !s.committed && s.archClass == class && s.archIndex == idx
}

// Dest is one live renamed instruction's destination: the register it
// allocated and whether it has completed (so its value must be written).
type Dest struct {
	Tag   int
	Class isa.RegClass
	Index int
	Done  bool
}

// CountHolders sets a decoded file's reference counts from the live
// instructions that hold its registers, and checks the file against
// them: dests are the destinations of the renamed, uncommitted
// instructions, srcs the tags their not yet captured source operands
// reference. Every live uncommitted register must be the destination of
// exactly one of them, a completed instruction's value must be written,
// and a register's count is the references held: the producer's while it
// is uncommitted, plus one per source. A live register with none would
// have been freed. State that breaks any of these would trip Commit,
// Release, SetValue or Squash. A machine halted on an exception (faulted)
// may keep one live register that no instruction produces: the faulting
// instruction's destination, which left the ROB without committing and
// keeps its producer's reference. A halted machine never steps again.
func (f *File) CountHolders(r *ckpt.Reader, dests []Dest, srcs []int, faulted bool) {
	if r.Err() != nil {
		return
	}
	produced := make([]bool, len(f.spec))
	for _, d := range dests {
		if d.Tag < 0 || d.Tag >= len(f.spec) || !f.renames(d.Tag, d.Class, d.Index) || produced[d.Tag] {
			r.Corrupt("destination tag %d of %s%d is not a live copy of it, or is shared", d.Tag, d.Class, d.Index)
			return
		}
		if d.Done && !f.spec[d.Tag].valid {
			r.Corrupt("completed instruction's destination tag %d has no value", d.Tag)
			return
		}
		produced[d.Tag] = true
		f.spec[d.Tag].refs++
	}
	for _, tag := range srcs {
		if tag < 0 || tag >= len(f.spec) || !f.spec[tag].inUse {
			r.Corrupt("source references register %d, which is not in use", tag)
			return
		}
		f.spec[tag].refs++
	}
	for tag := range f.spec {
		s := &f.spec[tag]
		if faulted && s.inUse && !s.committed && !produced[tag] {
			faulted = false // one faulting instruction
			s.refs++
			continue
		}
		if s.inUse && (s.committed == produced[tag] || s.refs == 0) {
			r.Corrupt("register %d: committed %v, produced %v, %d references held",
				tag, s.committed, produced[tag], s.refs)
			return
		}
	}
}
