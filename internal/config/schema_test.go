package config

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"riscvsim/internal/cache"
	"riscvsim/internal/predictor"
)

// renderSchema renders Schema and rules as docs/api.md's bounds block.
func renderSchema() string {
	var b strings.Builder
	b.WriteString("| field (JSON) | values | largest preset |\n|---|---|---|\n")
	for _, f := range Schema {
		values, preset := "any", "—"
		switch {
		case f.Member != nil:
			var names []string
			for n := f.Lo; n <= f.Hi; n++ {
				names = append(names, fmt.Sprintf("%d `%s`", n, f.Member(n)))
			}
			values, preset = strings.Join(names, ", "), fmt.Sprintf("%d `%s`", f.preset, f.Member(f.preset))
		case f.clock != nil:
			values, preset = "> 0", strconv.Itoa(f.preset)
		case f.Of != nil || f.each != nil:
			preset = strconv.Itoa(f.preset)
			switch {
			case f.Lo == math.MinInt:
			case f.Hi == Unbounded:
				values = fmt.Sprintf("≥ %d", f.Lo)
			default:
				values = fmt.Sprintf("%d–%d", f.Lo, f.Hi)
			}
		}
		if f.cacheOnly {
			values += " (enabled cache)"
		}
		path := "`" + f.Path + "`"
		if f.Path == "units" {
			path += " (count)"
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", path, values, preset)
	}
	b.WriteString("\nRules across fields:\n\n")
	for _, r := range rules {
		fmt.Fprintf(&b, "- %s\n", r.doc)
	}
	return b.String()
}

const (
	docsBegin = "<!-- schema:begin (rendered from config.Schema by TestSchemaDocs) -->\n"
	docsEnd   = "<!-- schema:end -->"
)

// TestSchemaDocs: docs/api.md's bounds block is Schema rendered; on a
// difference the test prints the block to paste.
func TestSchemaDocs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/api.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok1 := strings.Cut(string(doc), docsBegin)
	got, _, ok2 := strings.Cut(rest, docsEnd)
	if !ok1 || !ok2 {
		t.Fatalf("docs/api.md has no block between %q and %q", docsBegin, docsEnd)
	}
	if want := renderSchema(); got != want {
		t.Errorf("docs/api.md's architecture bounds differ from config.Schema; the block should read:\n%s%s%s", docsBegin, want, docsEnd)
	}
}

// valuesAt returns the values at a Schema path in a decoded JSON document;
// the unit count comes back as the units array.
func valuesAt(v any, path string) []any {
	if path == "" {
		return []any{v}
	}
	key, rest, _ := strings.Cut(path, ".")
	m, _ := v.(map[string]any)
	var out []any
	switch {
	case strings.HasSuffix(key, "[]"):
		for _, e := range m[strings.TrimSuffix(key, "[]")].([]any) {
			out = append(out, valuesAt(e, rest)...)
		}
	case strings.HasSuffix(key, "{}"):
		values, _ := m[strings.TrimSuffix(key, "{}")].(map[string]any) // absent: no ops
		for _, e := range values {
			out = append(out, e)
		}
	default:
		out = valuesAt(m[key], rest)
	}
	return out
}

// numbersAt returns the numbers at a Schema path of c's export, the unit
// count as a number, sorted.
func numbersAt(t *testing.T, c *CPU, path string) []float64 {
	t.Helper()
	data, err := c.Export()
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var out []float64
	for _, v := range valuesAt(doc, path) {
		switch v := v.(type) {
		case float64:
			out = append(out, v)
		case []any:
			out = append(out, float64(len(v)))
		default:
			t.Fatalf("%s: %T is not a number", path, v)
		}
	}
	slices.Sort(out)
	return out
}

func allPresets(t *testing.T) []*CPU {
	t.Helper()
	var out []*CPU
	for _, w := range []int{1, 2, 4, 8} {
		c, err := WidthPreset(w)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// TestSchemaPresets: each checked row's largest preset value is the
// largest value any preset's export holds at its path, wide-8 included.
func TestSchemaPresets(t *testing.T) {
	for _, f := range Schema {
		if f.Of == nil && f.each == nil && f.clock == nil {
			continue
		}
		largest := math.Inf(-1)
		for _, c := range allPresets(t) {
			for _, v := range numbersAt(t, c, f.Path) {
				largest = max(largest, v)
			}
		}
		if largest != float64(f.preset) {
			t.Errorf("%s: largest preset value %g, the schema says %d", f.Path, largest, f.preset)
		}
	}
}

// TestSchemaAccessors: every accessor reads and writes the leaf its Path
// names in the exported document.
func TestSchemaAccessors(t *testing.T) {
	const mark = 12345
	for _, f := range Schema {
		c := Wide4()
		switch {
		case f.Of != nil:
			*f.Of(c) = mark
		case f.clock != nil:
			*f.clock(c) = mark
		case f.each != nil:
			var seen []float64
			f.each(c, func(v int) { seen = append(seen, float64(v)) })
			slices.Sort(seen)
			if want := numbersAt(t, c, f.Path); !slices.Equal(seen, want) {
				t.Errorf("%s: the accessor visits %v, the document holds %v", f.Path, seen, want)
			}
			continue
		default:
			continue
		}
		if got := numbersAt(t, c, f.Path); !slices.Equal(got, []float64{mark}) {
			t.Errorf("%s: writing %d through the accessor leaves %v at the path", f.Path, mark, got)
		}
	}
}

// TestEnumHolesRefused: an enum number past the type's last member is
// refused, with the cache enabled or not. Each of these documents ran at
// one time: "Write": 5 wrote nothing back, "Replacement": 9 ran LRU and
// reported policy(9), "Kind": 7 never predicted taken.
func TestEnumHolesRefused(t *testing.T) {
	holes := map[string]func(*CPU){
		"cache.Write":       func(c *CPU) { c.Cache.Write = 5 },
		"cache.Replacement": func(c *CPU) { c.Cache.Replacement = 9 },
		"predictor.Kind":    func(c *CPU) { c.Predictor.Kind, c.Predictor.DefaultState = 7, 1 },
	}
	for path, set := range holes {
		for _, enabled := range []bool{true, false} {
			c := Default()
			c.Cache.Enabled = enabled
			set(c)
			doc, err := c.Export()
			if err != nil {
				t.Fatal(err)
			}
			if got, err := Import(doc); got != nil || err == nil || !strings.Contains(err.Error(), path) {
				t.Errorf("%s past its last member, cache enabled %v: Import error %v (configuration returned: %t); want an error naming it", path, enabled, err, got != nil)
			}
		}
	}
}

// TestNewlyRefusedLeaves: a negative ops latency (which meant the unit's
// default) and a non-positive memory clock are refused; an ops latency of
// 0 still means the default.
func TestNewlyRefusedLeaves(t *testing.T) {
	for path, set := range map[string]func(*CPU){
		"units[].ops{}": func(c *CPU) { c.Units[0].Ops["add"] = -5 },
		"memoryClockHz": func(c *CPU) { c.MemoryClockHz = -1 },
	} {
		c := Default()
		set(c)
		if errs := c.Validate(); len(errs) != 1 || !strings.Contains(errs[0].Error(), path) {
			t.Errorf("%s: Validate = %v, want one error naming it", path, errs)
		}
	}
	c := Default()
	c.Units[0].Ops["add"] = 0
	if errs := c.Validate(); len(errs) > 0 {
		t.Errorf("an ops latency of 0: %v", errs)
	}
	if got := c.Units[0].LatencyFor("add"); got != c.Units[0].Latency {
		t.Errorf("an ops latency of 0 gives %d, want the unit's latency %d", got, c.Units[0].Latency)
	}
}

// TestValidateCacheTab: the cache tab's geometry is checked when the cache
// is enabled, and only then.
func TestValidateCacheTab(t *testing.T) {
	for i, cc := range []cache.Config{
		{Enabled: true, Lines: 0, LineSize: 16, Associativity: 1},
		{Enabled: true, Lines: 8, LineSize: 15, Associativity: 1},
		{Enabled: true, Lines: 8, LineSize: 16, Associativity: 3},
		{Enabled: true, Lines: 8, LineSize: 16, Associativity: 1, AccessDelay: -1},
		{Enabled: true, Lines: 8, LineSize: 16, Associativity: 1, ReplacementDelay: -1},
	} {
		c := Default()
		c.Cache = cc
		if errs := c.Validate(); len(errs) == 0 {
			t.Errorf("case %d: %+v validates", i, cc)
		}
	}
	c := Default()
	c.Cache = cache.Config{Enabled: false}
	if errs := c.Validate(); len(errs) > 0 {
		t.Errorf("a disabled cache with no geometry: %v", errs)
	}
}

// TestValidatePredictorTab: table sizes, the default counter state for
// the counter width, and the history length are checked.
func TestValidatePredictorTab(t *testing.T) {
	for i, pc := range []predictor.Config{
		{BTBSize: 0, PHTSize: 16, Kind: predictor.TwoBit},
		{BTBSize: 16, PHTSize: 0, Kind: predictor.TwoBit},
		{BTBSize: 16, PHTSize: 16, Kind: predictor.TwoBit, DefaultState: 4},
		{BTBSize: 16, PHTSize: 16, Kind: predictor.OneBit, DefaultState: 2},
		{BTBSize: 16, PHTSize: 16, Kind: predictor.TwoBit, HistoryBits: 31},
		{BTBSize: 16, PHTSize: 16, Kind: predictor.ZeroBit, DefaultState: -1},
	} {
		c := Default()
		c.Predictor = pc
		if errs := c.Validate(); len(errs) == 0 {
			t.Errorf("case %d: %+v validates", i, pc)
		}
	}
	c := Default()
	c.Predictor = predictor.Config{BTBSize: 16, PHTSize: 16, Kind: predictor.ZeroBit, DefaultState: 7}
	if errs := c.Validate(); len(errs) > 0 {
		t.Errorf("a zero-bit predictor takes any default state: %v", errs)
	}
}

// BenchmarkImport imports the wide-4 preset's export: the JSON decode and
// Validate that every restored checkpoint header pays.
func BenchmarkImport(b *testing.B) {
	doc, err := Wide4().Export()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Import(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidate validates the wide-4 preset.
func BenchmarkValidate(b *testing.B) {
	c := Wide4()
	b.ReportAllocs()
	for b.Loop() {
		if errs := c.Validate(); len(errs) > 0 {
			b.Fatal(errs)
		}
	}
}
