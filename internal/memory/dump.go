package memory

import (
	"bytes"
	"fmt"
)

// HexDump renders a conventional hex dump of [addr, addr+n) for the memory
// pop-up window (paper Fig. 2's "expanded view of the entire memory").
func (m *Main) HexDump(addr, n int) (string, error) {
	b, exc := m.ReadBytes(addr, n)
	if exc != nil {
		return "", exc
	}
	var sb bytes.Buffer
	for off := 0; off < len(b); off += 16 {
		fmt.Fprintf(&sb, "%08x  ", addr+off)
		end := off + 16
		if end > len(b) {
			end = len(b)
		}
		for i := off; i < end; i++ {
			fmt.Fprintf(&sb, "%02x ", b[i])
		}
		for i := end; i < off+16; i++ {
			sb.WriteString("   ")
		}
		sb.WriteString(" |")
		for i := off; i < end; i++ {
			c := b[i]
			if c < 32 || c > 126 {
				c = '.'
			}
			sb.WriteByte(c)
		}
		sb.WriteString("|\n")
	}
	return sb.String(), nil
}
