package memory

import (
	"bytes"

	"riscvsim/internal/ckpt"
)

// ckptPageSize is the granularity of the sparse memory encoding: only
// pages that differ from the base image (the freshly-loaded program) are
// written, so a checkpoint of a 64 KiB machine that touched one array
// costs a few pages, not the whole address space.
const ckptPageSize = 1024

// EncodeState writes the memory's dynamic state: access counters plus the
// sparse set of pages that differ from base. base is the initial memory
// image (program data as loaded), which restore has again once it has
// resolved the embedded source, so only the delta travels. A nil base encodes
// every non-zero page.
func (m *Main) EncodeState(w *ckpt.Writer, base *Main) {
	w.Section(ckpt.SecMemory)
	w.Int(len(m.data))
	w.U64(m.nextID)
	w.U64(m.reads)
	w.U64(m.writes)
	w.U64(m.bytesRead)
	w.U64(m.bytesWritten)

	var dirty []int
	zero := make([]byte, ckptPageSize)
	for off := 0; off < len(m.data); off += ckptPageSize {
		end := off + ckptPageSize
		if end > len(m.data) {
			end = len(m.data)
		}
		ref := zero[:end-off]
		if base != nil {
			ref = base.data[off:end]
		}
		if !bytes.Equal(m.data[off:end], ref) {
			dirty = append(dirty, off)
		}
	}
	w.Len(len(dirty))
	for _, off := range dirty {
		end := off + ckptPageSize
		if end > len(m.data) {
			end = len(m.data)
		}
		w.Int(off / ckptPageSize)
		w.Bytes(m.data[off:end])
	}
}

// DecodeState applies an encoded delta onto m, which must hold the same
// base image the checkpoint was taken against (same program, same
// configuration — a copy of the same Program's image).
func (m *Main) DecodeState(r *ckpt.Reader) {
	r.Section(ckpt.SecMemory)
	if size := r.Int(); r.Err() == nil && size != len(m.data) {
		r.Corrupt("memory size %d, machine has %d", size, len(m.data))
		return
	}
	m.nextID = r.U64()
	m.reads = r.U64()
	m.writes = r.U64()
	m.bytesRead = r.U64()
	m.bytesWritten = r.U64()

	pages := r.Len((len(m.data) + ckptPageSize - 1) / ckptPageSize)
	for i := 0; i < pages && r.Err() == nil; i++ {
		idx := r.Int()
		data := r.Bytes(ckptPageSize)
		if r.Err() != nil {
			return
		}
		off := idx * ckptPageSize
		if idx < 0 || off >= len(m.data) || off+len(data) > len(m.data) {
			r.Corrupt("memory page %d outside %d bytes", idx, len(m.data))
			return
		}
		copy(m.data[off:], data)
	}
}
