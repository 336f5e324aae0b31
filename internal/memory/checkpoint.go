package memory

import (
	"bytes"

	"riscvsim/internal/ckpt"
)

// EncodeState writes the memory's dynamic state: the sparse set of pages
// that differ from base. base is the initial
// memory image (program data as loaded), which restore has again once it
// has resolved the embedded source, so only the delta travels: a
// checkpoint of a 64 KiB machine that touched one array costs a few
// pages, not the whole address space. A page m still shares with base is skipped without
// reading it; a page m owns is compared byte for byte, so one written back
// to its original contents is skipped too. A nil base encodes every
// non-zero page.
func (m *Main) EncodeState(w *ckpt.Writer, base *Main) {
	w.Section(ckpt.SecMemory)

	var dirty []int
	for i, p := range m.pages {
		ref := &zeroPage
		if base != nil {
			ref = base.pages[i]
		}
		if n := m.pageLen(i); p != ref && !bytes.Equal(p[:n], ref[:n]) {
			dirty = append(dirty, i)
		}
	}
	w.Len(len(dirty))
	for _, i := range dirty {
		w.Int(i)
		w.Raw(m.pages[i][:m.pageLen(i)])
	}
}

// DecodeState applies an encoded delta onto m, which must hold the same
// base image the checkpoint was taken against (same program, same
// configuration — a copy of the same Program's image). The memory's size
// and each page's length are the configuration's, so neither travels.
func (m *Main) DecodeState(r *ckpt.Reader) {
	r.Section(ckpt.SecMemory)
	pages := r.Len(len(m.pages))
	for i := 0; i < pages && r.Err() == nil; i++ {
		idx := r.Int()
		if r.Err() == nil && (idx < 0 || idx >= len(m.pages)) {
			r.Corrupt("memory page %d outside %d bytes", idx, m.size)
		}
		if r.Err() != nil {
			return
		}
		r.Raw(m.writable(idx)[:m.pageLen(idx)])
	}
}
