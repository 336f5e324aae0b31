package memory

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"riscvsim/internal/ckpt"
	"riscvsim/internal/fault"
)

// readWord and writeWord move one 32-bit little-endian word, bypassing
// timing.
func (m *Main) readWord(addr int) (uint32, *fault.Exception) {
	v, exc := m.ReadRaw(addr, 4)
	return uint32(v), exc
}

func (m *Main) writeWord(addr int, v uint32) *fault.Exception { return m.WriteRaw(addr, 4, uint64(v)) }

// TestCloneWritesStayPrivate: a memory and its clones share pages until one
// of them writes, and a write on any side is invisible to every other —
// source to clone, clone to source, sibling to sibling, clone of a clone
// to its ancestors.
func TestCloneWritesStayPrivate(t *testing.T) {
	src := newMem(t)
	src.writeWord(1000, 7)
	a, b := src.Clone(), src.Clone()
	grand := a.Clone()
	mems := []*Main{src, a, b, grand}
	for i, m := range mems {
		// Same page as the image's word, and a page nobody wrote yet.
		m.writeWord(1004, uint32(100+i))
		m.writeWord(3000, uint32(200+i))
	}
	for i, m := range mems {
		if v, _ := m.readWord(1000); v != 7 {
			t.Errorf("memory %d lost the shared word: %d", i, v)
		}
		if v, _ := m.readWord(1004); v != uint32(100+i) {
			t.Errorf("memory %d reads %d at 1004, want its own %d", i, v, 100+i)
		}
		if v, _ := m.readWord(3000); v != uint32(200+i) {
			t.Errorf("memory %d reads %d at 3000, want its own %d", i, v, 200+i)
		}
	}
	if zeroPage != (page{}) {
		t.Fatal("a write reached the shared zero page")
	}
}

// TestPageStraddlingAccess: every access path agrees on bytes that cross a
// page boundary, on a clone whose pages are still shared with its source,
// and leaves the source untouched.
func TestPageStraddlingAccess(t *testing.T) {
	src := newMem(t)
	want := make([]byte, src.Size())
	rng := rand.New(rand.NewSource(1))
	rng.Read(want)
	src.WriteBytes(0, want)
	pristine, _ := src.ReadBytes(0, src.Size())

	m := src.Clone()
	put := func(addr int, b []byte) { copy(want[addr:], b) }
	le := func(size int, v uint64) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, v)
		return b[:size]
	}
	for _, size := range []int{2, 4, 8} {
		for _, addr := range []int{pageSize - 1, 2*pageSize - size + 1, 3*pageSize - 1} {
			v := rng.Uint64()
			m.Access(&Transaction{Addr: addr, Size: size, IsStore: true, Data: v}, 0)
			put(addr, le(size, v))
			ld := &Transaction{Addr: addr, Size: size}
			m.Access(ld, 0)
			if got := ld.Data; got != v&mask(size) {
				t.Errorf("Access load of %d bytes at %d = %#x after storing %#x", size, addr, got, v)
			}

			v = rng.Uint64()
			m.WriteRaw(addr, size, v)
			put(addr, le(size, v))
			if got, _ := m.ReadRaw(addr, size); got != v&mask(size) {
				t.Errorf("ReadRaw of %d bytes at %d = %#x after WriteRaw %#x", size, addr, got, v)
			}
		}
	}
	w := uint32(rng.Uint64())
	m.writeWord(pageSize-2, w)
	put(pageSize-2, le(4, uint64(w)))
	if got, _ := m.readWord(pageSize - 2); got != w {
		t.Errorf("readWord across a boundary = %#x, want %#x", got, w)
	}
	span := make([]byte, 2*pageSize+100) // three pages
	rng.Read(span)
	m.WriteBytes(pageSize-50, span)
	put(pageSize-50, span)
	if got, _ := m.ReadBytes(pageSize-50, len(span)); !bytes.Equal(got, span) {
		t.Error("ReadBytes across three pages differs from what WriteBytes wrote")
	}
	into := make([]byte, len(span))
	if _, exc := m.Access(&Transaction{Addr: pageSize - 50, Line: into}, 0); exc != nil || !bytes.Equal(into, span) {
		t.Errorf("a line load across three pages differs from what WriteBytes wrote (%v)", exc)
	}

	if got, _ := m.ReadBytes(0, m.Size()); !bytes.Equal(got, want) {
		t.Error("the clone's contents differ from the reference")
	}
	if got, _ := src.ReadBytes(0, src.Size()); !bytes.Equal(got, pristine) {
		t.Error("writes to the clone reached its source")
	}
}

// mask keeps the low size bytes of a value.
func mask(size int) uint64 {
	if size == 8 {
		return ^uint64(0)
	}
	return 1<<(8*size) - 1
}

// TestSizeNotAPageMultiple: a memory whose last page is partial accepts
// accesses up to its last byte, refuses the next, and hashes, encodes and
// restores exactly Size bytes.
func TestSizeNotAPageMultiple(t *testing.T) {
	const size = 2*pageSize + 100
	m := New(Config{Size: size, LoadLatency: 1, StoreLatency: 1, CallStackSize: 0})
	if m.Size() != size {
		t.Fatalf("Size() = %d, want %d", m.Size(), size)
	}
	if exc := m.writeWord(size-4, 0xCAFEF00D); exc != nil {
		t.Fatalf("last word: %v", exc)
	}
	if exc := m.writeWord(size-3, 1); exc == nil {
		t.Error("a word past the end was accepted")
	}
	if _, exc := m.ReadRaw(size-1, 2); exc == nil {
		t.Error("a read past the end was accepted")
	}
	var flat bytes.Buffer
	if n, err := m.WriteTo(&flat); err != nil || n != size || flat.Len() != size {
		t.Fatalf("WriteTo wrote %d bytes (%v), want %d", n, err, size)
	}
	if binary.LittleEndian.Uint32(flat.Bytes()[size-4:]) != 0xCAFEF00D {
		t.Error("WriteTo lost the last word")
	}

	var enc bytes.Buffer
	m.EncodeState(ckpt.NewWriter(&enc), nil)
	back := New(m.Config())
	r := ckpt.NewReader(&enc)
	back.DecodeState(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if v, _ := back.readWord(size - 4); v != 0xCAFEF00D {
		t.Errorf("decoded last word = %#x", v)
	}
}

// flatRef is main memory as one byte array: the reference the paged memory
// must be indistinguishable from.
type flatRef []byte

// encode is EncodeState's wire form computed from flat arrays: every
// page that differs from base (zeros when nil).
func (f flatRef) encode(w *ckpt.Writer, base flatRef) {
	w.Section(ckpt.SecMemory)
	if base == nil {
		base = make(flatRef, len(f))
	}
	var dirty []int
	for off := 0; off < len(f); off += pageSize {
		end := min(off+pageSize, len(f))
		if !bytes.Equal(f[off:end], base[off:end]) {
			dirty = append(dirty, off)
		}
	}
	w.Len(len(dirty))
	for _, off := range dirty {
		w.Int(off / pageSize)
		w.Raw(f[off:min(off+pageSize, len(f))])
	}
}

// TestMatchesFlatReference drives an image, its clones and clones of those
// with seeded random operations of every kind, the same ones on a flat
// copy per memory, and checks that WriteTo and EncodeState (against the
// image and against nothing) are byte for byte what the flat arrays give.
func TestMatchesFlatReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := 4*pageSize + rng.Intn(2)*300
		image := New(Config{Size: size, LoadLatency: 1, StoreLatency: 1})
		data := make([]byte, 3*pageSize)
		rng.Read(data)
		at := rng.Intn(size - len(data))
		image.WriteBytes(at, data)
		imageRef := make(flatRef, size)
		copy(imageRef[at:], data)
		image.Freeze()

		mems, refs := []*Main{image.Clone()}, []flatRef{append(flatRef(nil), imageRef...)}
		for op := 0; op < 400; op++ {
			k := rng.Intn(len(mems))
			m, ref := mems[k], refs[k]
			switch rng.Intn(7) {
			case 0: // fork
				mems = append(mems, m.Clone())
				refs = append(refs, append(flatRef(nil), ref...))
			case 1, 2:
				width := []int{1, 2, 4, 8}[rng.Intn(4)]
				addr, v := rng.Intn(size-width+1), rng.Uint64()
				m.Access(&Transaction{Addr: addr, Size: width, IsStore: true, Data: v}, 0)
				for i := 0; i < width; i++ {
					ref[addr+i] = byte(v >> (8 * i))
				}
			case 3:
				b := make([]byte, 1+rng.Intn(2*pageSize))
				rng.Read(b)
				addr := rng.Intn(size - len(b) + 1)
				m.WriteBytes(addr, b)
				copy(ref[addr:], b)
			case 4: // write a page back to the image's bytes
				p := rng.Intn(len(m.pages))
				end := min((p+1)*pageSize, size)
				m.WriteBytes(p*pageSize, imageRef[p*pageSize:end])
				copy(ref[p*pageSize:], imageRef[p*pageSize:end])
			default:
				width := []int{1, 2, 4, 8}[rng.Intn(4)]
				addr := rng.Intn(size - width + 1)
				ld := &Transaction{Addr: addr, Size: width}
				m.Access(ld, 0)
				var want uint64
				for i := 0; i < width; i++ {
					want |= uint64(ref[addr+i]) << (8 * i)
				}
				if ld.Data != want {
					t.Fatalf("seed %d op %d: load of %d at %d = %#x, want %#x", seed, op, width, addr, ld.Data, want)
				}
			}
		}
		for k, m := range mems {
			var got bytes.Buffer
			m.WriteTo(&got)
			if !bytes.Equal(got.Bytes(), refs[k]) {
				t.Fatalf("seed %d memory %d: WriteTo differs from the flat reference", seed, k)
			}
			for _, base := range []struct {
				m   *Main
				ref flatRef
			}{{image, imageRef}, {nil, nil}} {
				var enc, want bytes.Buffer
				m.EncodeState(ckpt.NewWriter(&enc), base.m)
				refs[k].encode(ckpt.NewWriter(&want), base.ref)
				if !bytes.Equal(enc.Bytes(), want.Bytes()) {
					t.Fatalf("seed %d memory %d (base %v): EncodeState differs from the flat reference", seed, k, base.m != nil)
				}
			}
		}
		var img bytes.Buffer
		image.WriteTo(&img)
		if !bytes.Equal(img.Bytes(), imageRef) {
			t.Fatalf("seed %d: the frozen image changed", seed)
		}
	}
}
