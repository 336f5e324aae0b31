package workload

import (
	"strings"
	"testing"

	"riscvsim/internal/config"
)

// TestCorpusShape pins the corpus contract: at least a dozen workloads,
// stable unique names, a behavioral profile and tags on every entry.
func TestCorpusShape(t *testing.T) {
	c := Corpus()
	if len(c) < 12 {
		t.Fatalf("corpus has %d workloads, want >= 12", len(c))
	}
	seen := make(map[string]bool)
	for _, w := range c {
		if w.Name == "" || seen[w.Name] {
			t.Errorf("workload name %q empty or duplicated", w.Name)
		}
		seen[w.Name] = true
		if w.Profile == "" {
			t.Errorf("%s: empty profile", w.Name)
		}
		if len(w.Tags) == 0 {
			t.Errorf("%s: no tags", w.Name)
		}
		if w.Source == "" || w.Entry == "" || w.MaxCycles == 0 {
			t.Errorf("%s: incomplete program definition", w.Name)
		}
	}
	// Corpus returns a copy: mutating it must not corrupt the package.
	c[0].Name = "mutated"
	if w := Corpus()[0]; w.Name == "mutated" {
		t.Fatal("Corpus() exposes internal state")
	}
}

// TestCorpusRuns executes every workload on every preset: each must
// assemble, halt cleanly well below its cycle bound, and commit work.
func TestCorpusRuns(t *testing.T) {
	for name, cfg := range map[string]*config.CPU{
		"default": config.Default(), "scalar": config.Scalar(), "wide4": config.Wide4(),
	} {
		for _, w := range Corpus() {
			m, err := RunOne(cfg, w)
			if err != nil {
				t.Errorf("%s on %s: %v", w.Name, name, err)
				continue
			}
			if m.HaltReason == "" {
				t.Errorf("%s on %s: hit the %d-cycle bound without halting", w.Name, name, w.MaxCycles)
			}
			if m.Cycles >= w.MaxCycles {
				t.Errorf("%s on %s: %d cycles leaves no headroom under the %d bound",
					w.Name, name, m.Cycles, w.MaxCycles)
			}
			if m.Committed == 0 || m.IPC <= 0 {
				t.Errorf("%s on %s: no work committed (%+v)", w.Name, name, m)
			}
		}
	}
}

func TestMatch(t *testing.T) {
	all, err := Match("")
	if err != nil || len(all) != len(Corpus()) {
		t.Fatalf("empty filter: got %d workloads, err %v", len(all), err)
	}
	byTag, err := Match("branch-heavy")
	if err != nil {
		t.Fatal(err)
	}
	if len(byTag) < 3 {
		t.Fatalf("branch-heavy selects %d workloads, want >= 3", len(byTag))
	}
	bySubstr, err := Match("matmul")
	if err != nil || len(bySubstr) != 1 || bySubstr[0].Name != "matmul-blocked" {
		t.Fatalf("substring filter: got %v, err %v", bySubstr, err)
	}
	multi, err := Match("matmul, bitmix")
	if err != nil || len(multi) != 2 {
		t.Fatalf("multi-term filter: got %d workloads, err %v", len(multi), err)
	}
	// "all" keeps its whole-corpus meaning even inside a term list.
	allTerm, err := Match("all,fp")
	if err != nil || len(allTerm) != len(Corpus()) {
		t.Fatalf("'all' in a term list: got %d workloads, err %v", len(allTerm), err)
	}
	if _, err := Match("no-such-workload"); err == nil ||
		!strings.Contains(err.Error(), "matches nothing") {
		t.Fatalf("bad filter: err %v", err)
	}
}

func TestDiffMetrics(t *testing.T) {
	w, _ := ByName("bitmix")
	base, err := RunOne(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := DiffMetrics(base, base); len(diffs) != 0 {
		t.Fatalf("self-diff not empty: %v", diffs)
	}
	drifted := base
	drifted.Cycles++
	drifted.IPC += 0.001
	drifted.FUUtil = map[string]float64{"FX0": 1}
	diffs := DiffMetrics(base, drifted)
	if len(diffs) < 3 {
		t.Fatalf("drift not detected: %v", diffs)
	}
	table := MarkdownDiffTable([]WorkloadDiff{{Workload: w.Name, Fields: diffs}})
	if !strings.Contains(table, ":x: drift") || !strings.Contains(table, "`cycles`") {
		t.Fatalf("markdown table missing drift rows:\n%s", table)
	}
}

func TestReportTable(t *testing.T) {
	rep, err := Run(Options{Filter: "bitmix"})
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Table()
	for _, want := range []string{"bitmix", "IPC", "MPKI", rep.ConfigFingerprint} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q:\n%s", want, text)
		}
	}
}
