// Package render draws the processor schematic as text: the server-side
// equivalent of the web client's main simulator window (paper Fig. 12),
// with one box per block showing its name, key status line and active
// instructions (Fig. 1's block anatomy). Its cost stands in for the
// paper's measured ~80 ms render time (bench_test.go E4).
package render

import (
	"fmt"
	"strings"

	"riscvsim/internal/cache"
	"riscvsim/internal/core"
)

// blockWidth is the inner width of a rendered block box.
const blockWidth = 46

// Schematic renders the full processor view from a state snapshot. The
// state lists only the valid cache lines, so the L1's geometry comes from
// the configuration of the cache that state was taken from.
func Schematic(st *core.State, l1 cache.Config) string {
	var sb strings.Builder
	sb.Grow(1 << 14)

	fmt.Fprintf(&sb, "═══ Superscalar RISC-V — cycle %d", st.Cycle)
	if st.Halted {
		fmt.Fprintf(&sb, " — HALTED (%s)", st.HaltReason)
	}
	sb.WriteString(" ═══\n\n")

	block(&sb, "Fetch", fmt.Sprintf("pc=%d", st.PC), instrLines(st.DecodeBuffer, 6))
	block(&sb, "Reorder buffer", fmt.Sprintf("%d in flight", len(st.ROB)), instrLines(st.ROB, 12))

	for _, name := range []string{"FX", "FP", "LS", "Branch"} {
		ws := st.Windows[name]
		block(&sb, name+" issue window", fmt.Sprintf("%d waiting", len(ws)), instrLines(ws, 6))
	}

	for _, fu := range st.FUs {
		status := "idle"
		var lines []string
		if fu.Busy && fu.Instr != nil {
			status = fmt.Sprintf("busy until cycle %d", fu.DoneAt)
			lines = []string{instrLine(*fu.Instr)}
		}
		block(&sb, fmt.Sprintf("%s unit %s", fu.Class, fu.Name), status, lines)
	}

	block(&sb, "Load buffer", fmt.Sprintf("%d pending", len(st.LoadBuffer)), instrLines(st.LoadBuffer, 6))
	block(&sb, "Store buffer", fmt.Sprintf("%d pending", len(st.StoreBuffer)), instrLines(st.StoreBuffer, 6))

	// Register files with rename tags (Fig. 12 shows FX and FP registers
	// with their renamed tags and values).
	sb.WriteString(renderRegs("FX registers", st.IntRegs))
	sb.WriteString(renderRegs("FP registers", st.FloatRegs))

	if len(st.SpecRegs) > 0 {
		var lines []string
		for _, sv := range st.SpecRegs {
			val := sv.Value
			if !sv.Valid {
				val = "??"
			}
			lines = append(lines, fmt.Sprintf("%-6s -> %-5s = %-12s refs=%d", sv.Tag, sv.Arch, val, sv.Refs))
		}
		block(&sb, "Rename file", fmt.Sprintf("%d live", len(st.SpecRegs)), lines)
	}

	// Cache lines (the state lists the valid ones), grouped like the
	// cache pane.
	l1Status := "off"
	var cacheLines []string
	if l1.Enabled {
		l1Status = fmt.Sprintf("%d/%d lines valid", len(st.CacheLines), l1.Lines)
		for _, cl := range st.CacheLines[:min(len(st.CacheLines), 8)] {
			d := ""
			if cl.Dirty {
				d = " dirty"
			}
			cacheLines = append(cacheLines, fmt.Sprintf("set %2d way %d  addr %6d%s", cl.Set, cl.Way, cl.Addr, d))
		}
	}
	block(&sb, "L1 cache", l1Status, cacheLines)

	// Memory pointers (Fig. 2: allocated arrays and their addresses).
	var ptrLines []string
	for _, p := range st.Pointers {
		if p.Name == "" {
			continue
		}
		ptrLines = append(ptrLines, fmt.Sprintf("%-16s @%6d  %5d B  %s", p.Name, p.Addr, p.Size, p.Elem))
	}
	block(&sb, "Main memory", fmt.Sprintf("%d named allocations", len(ptrLines)), ptrLines)

	// Right-hand status bar (default view: cycles, committed, IPC,
	// prediction accuracy).
	r := st.Stats
	fmt.Fprintf(&sb, "\n── status ─ cycles %d │ committed %d │ IPC %.3f │ prediction %.1f%% │ cache hit %.1f%%\n",
		r.Cycles, r.Committed, r.IPC, 100*r.PredAccuracy, 100*r.CacheHitRate)
	return sb.String()
}

func block(sb *strings.Builder, name, info string, lines []string) {
	fmt.Fprintf(sb, "┌─ %s %s┐\n", name, strings.Repeat("─", max(1, blockWidth-len(name)-2)))
	fmt.Fprintf(sb, "│ %-*s │\n", blockWidth, clip(info, blockWidth))
	for _, l := range lines {
		fmt.Fprintf(sb, "│ %-*s │\n", blockWidth, clip(l, blockWidth))
	}
	fmt.Fprintf(sb, "└%s┘\n", strings.Repeat("─", blockWidth+2))
}

func instrLines(views []core.InstrView, limit int) []string {
	var out []string
	for i, v := range views {
		if i >= limit {
			out = append(out, fmt.Sprintf("… %d more", len(views)-limit))
			break
		}
		out = append(out, instrLine(v))
	}
	return out
}

func instrLine(v core.InstrView) string {
	flags := ""
	if v.Squashed {
		flags += " ✗"
	}
	if v.Exception != "" {
		flags += " !exc"
	}
	if v.DestTag != "" {
		flags += " ->" + v.DestTag
	}
	return fmt.Sprintf("#%-4d @%-4d %-22s %s%s", v.ID, v.PC, clip(v.Text, 22), v.Phase, flags)
}

func renderRegs(title string, regs []core.RegView) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "┌─ %s %s┐\n", title, strings.Repeat("─", max(1, blockWidth-len(title)-2)))
	for i := 0; i+3 < len(regs); i += 4 {
		var cells []string
		for j := i; j < i+4; j++ {
			r := regs[j]
			v := r.Value
			if r.Renamed != "" {
				v += "*" + r.Renamed
			}
			cells = append(cells, fmt.Sprintf("%-4s %-12s", r.Name, clip(v, 12)))
		}
		line := strings.Join(cells, "")
		fmt.Fprintf(&sb, "│ %-*s │\n", blockWidth, clip(line, blockWidth))
	}
	fmt.Fprintf(&sb, "└%s┘\n", strings.Repeat("─", blockWidth+2))
	return sb.String()
}

func clip(s string, n int) string {
	r := []rune(s)
	if len(r) <= n {
		return s
	}
	return string(r[:n-1]) + "…"
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
