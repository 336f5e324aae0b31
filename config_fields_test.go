package riscvsim

import (
	"encoding/json"
	"fmt"
	"iter"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"riscvsim/internal/config"
	"riscvsim/internal/costmodel"
	"riscvsim/internal/stats"
	"riscvsim/internal/workload"
)

// configAllowList names the architecture fields that may move no number,
// each with the reason it stays. A listed field that moves one, or that
// is no field, fails TestEveryConfigFieldObservable.
var configAllowList = map[string]string{
	"name":          "labels the architecture: the statistics and the cost report echo it, nothing reads it",
	"memoryClockHz": "descriptive: memory latencies are given in core cycles, so the statistics echo the memory clock and nothing reads it",
}

// TestEveryConfigFieldObservable holds every settable leaf of the
// architecture document to doing something. For each number, bool, enum
// and string it tries valid values — twice and half a number, the bounds
// its config.Schema row states, the flipped bool, every other enum member,
// another label — on the default, scalar and wide-4 presets (every leaf
// must have a row, and every row but the unit count a leaf), and requires one of
// them to move a number on the workload corpus: a stats.Counters field,
// the halt reason, the wall time or the cost estimate (the report's echo
// of the architecture's name does not count). A leaf that moves nothing
// needs an entry in configAllowList.
func TestEveryConfigFieldObservable(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("checks configuration wiring, not concurrency; race instrumentation only slows the corpus runs")
	}
	presets := []*config.CPU{config.Default(), config.Scalar(), config.Wide4()}
	corpus := workload.Corpus()
	base := make([][]runOutcome, len(presets))
	var wg sync.WaitGroup
	for i, cfg := range presets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, w := range corpus {
				base[i] = append(base[i], outcomeOf(cfg, w))
			}
		}()
	}
	wg.Wait()

	domains := map[string]domain{}
	for _, f := range config.Schema {
		if f.Path != "units" {
			domains[f.Path] = domain{lo: f.Lo, hi: f.Hi, enum: f.Member != nil}
		}
	}
	p := prober[config.CPU]{
		docs:    presets,
		domains: domains,
		valid:   func(c *config.CPU) bool { return len(c.Validate()) == 0 },
		moves: func(i int, c *config.CPU) bool {
			for j, w := range corpus {
				if !reflect.DeepEqual(outcomeOf(c, w), base[i][j]) {
					return true
				}
			}
			return false
		},
	}
	paths := p.paths()
	t.Logf("%d settable leaves", len(paths))
	for _, path := range paths {
		if _, ok := domains[path]; !ok {
			t.Errorf("%s is a settable leaf without a row in config.Schema", path)
		}
	}
	for path := range domains {
		if !slices.Contains(paths, path) {
			t.Errorf("config.Schema has a row for %s, which is no settable leaf", path)
		}
	}
	for path := range configAllowList {
		if !slices.Contains(paths, path) {
			t.Errorf("%s is allow-listed but is no settable leaf: drop it from configAllowList", path)
		}
	}
	for _, path := range paths {
		t.Run(path, func(t *testing.T) {
			t.Parallel()
			moved := p.observable(path)
			switch reason, listed := configAllowList[path]; {
			case !moved && !listed:
				t.Errorf("%s moves no number on any preset and workload: wire it, delete it, or allow-list it with a reason", path)
			case moved && listed:
				t.Errorf("%s is allow-listed (%s) but moves a number: drop it from configAllowList", path, reason)
			}
		})
	}

	t.Run("planted", func(t *testing.T) {
		type unit struct {
			Name    string `json:"name"`
			Latency int    `json:"latency"`
		}
		type doc struct {
			Width int            `json:"width"`
			Dead  int            `json:"dead"`
			Fast  bool           `json:"fast"`
			Units []unit         `json:"units"`
			Ops   map[string]int `json:"ops"`
		}
		measure := func(d *doc) int {
			n := d.Width * 100
			if d.Fast {
				n++
			}
			for _, u := range d.Units {
				n += 10 * u.Latency
			}
			return n + d.Ops["mul"]
		}
		docs := []*doc{{Width: 2, Dead: 3, Units: []unit{{"A", 1}, {"B", 2}}, Ops: map[string]int{"add": 1, "mul": 3}}}
		p := prober[doc]{
			docs: docs,
			domains: map[string]domain{
				"width": {lo: 1, hi: 8}, "dead": {hi: config.Unbounded},
				"units[].latency": {lo: 1, hi: config.Unbounded}, "ops{}": {hi: config.Unbounded},
			},
			valid: func(d *doc) bool { return d.Width >= 1 && d.Width <= 8 && d.Dead >= 0 },
			moves: func(i int, d *doc) bool { return measure(d) != measure(docs[i]) },
		}
		var dead []string
		for _, path := range p.paths() {
			if !p.observable(path) {
				dead = append(dead, path)
			}
		}
		if want := []string{"dead"}; !slices.Equal(dead, want) {
			t.Errorf("planted document: dead leaves %v, want %v (of %v)", dead, want, p.paths())
		}
	})
}

// runOutcome is every number a corpus run reports, with the build error
// when the program does not fit the architecture.
type runOutcome struct {
	err      string
	counters stats.Counters
	halt     string
	wallTime float64
	cost     costmodel.Report
}

func outcomeOf(cfg *config.CPU, w workload.Workload) runOutcome {
	m, err := workload.NewMachine(cfg, w)
	if err != nil {
		return runOutcome{err: err.Error()}
	}
	m.Run(w.MaxCycles)
	rep := m.Report()
	cost := costmodel.Estimate(cfg, rep)
	cost.Architecture = "" // the echo of the name
	return runOutcome{counters: m.Sim().Counters(), halt: rep.HaltReason, wallTime: rep.WallTimeSec, cost: *cost}
}

// domain is what a prober knows of an integer leaf's values: its bounds
// (hi config.Unbounded, lo math.MinInt where none), and whether it is an
// enum whose members are every number between them.
type domain struct {
	lo, hi int
	enum   bool
}

// prober varies one leaf of a document at a time. A leaf is named by its
// JSON path with slice indices collapsed ("units[].latency") and map
// values as "{}" ("units[].ops{}"); it is observable when some valid
// value at some occurrence moves a number.
type prober[T any] struct {
	docs []*T
	// domains holds every integer leaf's domain, by path.
	domains map[string]domain
	valid   func(*T) bool
	// moves reports whether a variant of docs[i] moves a number.
	moves func(i int, variant *T) bool
}

// leaf is one occurrence of a leaf in a document.
type leaf struct {
	path string
	v    reflect.Value
	set  func(reflect.Value)
}

// leaves walks d's leaves in a fixed order. A string inside a slice
// element is skipped: it is the element's identity, not a setting of it
// (a unit's name keys its statistics row and its class picks the issue
// window that feeds it), so no other value of it is the same unit.
func leaves(d any) []leaf {
	var out []leaf
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				if name == "" {
					name = f.Name
				}
				if !f.IsExported() || name == "-" || f.Type.Kind() == reflect.String && strings.HasSuffix(path, "[]") {
					continue
				}
				if path != "" {
					name = path + "." + name
				}
				walk(v.Field(i), name)
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path+"[]")
			}
		case reflect.Map:
			keys := v.MapKeys()
			slices.SortFunc(keys, func(a, b reflect.Value) int { return strings.Compare(fmt.Sprint(a), fmt.Sprint(b)) })
			for _, k := range keys {
				out = append(out, leaf{path + "{}", v.MapIndex(k), func(x reflect.Value) { v.SetMapIndex(k, x) }})
			}
		default:
			out = append(out, leaf{path, v, v.Set})
		}
	}
	walk(reflect.ValueOf(d).Elem(), "")
	return out
}

// paths lists the leaf paths of every document, in first-seen order.
func (p prober[T]) paths() []string {
	var out []string
	for _, d := range p.docs {
		for _, l := range leaves(d) {
			if !slices.Contains(out, l.path) {
				out = append(out, l.path)
			}
		}
	}
	return out
}

// observable tries the path's values on every occurrence in every
// document and stops at the first that moves a number.
func (p prober[T]) observable(path string) bool {
	for i, d := range p.docs {
		for k, l := range leaves(d) {
			if l.path != path {
				continue
			}
			for v := range p.variants(d, k, l) {
				if p.moves(i, v) {
					return true
				}
			}
		}
	}
	return false
}

// variants yields the valid documents that differ from d in its k-th leaf
// l alone: a bool flipped; a string with another label; a float twice and
// half; every other member of an enum; any other integer twice and half,
// then its domain's bounds.
func (p prober[T]) variants(d *T, k int, l leaf) iter.Seq[*T] {
	data, err := json.Marshal(d)
	if err != nil {
		panic(err)
	}
	with := func(x reflect.Value) *T {
		c := new(T)
		if err := json.Unmarshal(data, c); err != nil {
			panic(err)
		}
		leaves(c)[k].set(x)
		if !p.valid(c) {
			return nil
		}
		return c
	}
	cur := l.v
	typ := cur.Type()
	of := func(x any) reflect.Value { return reflect.ValueOf(x).Convert(typ) }
	return func(yield func(*T) bool) {
		tried := map[any]bool{cur.Interface(): true}
		try := func(x reflect.Value) bool {
			if tried[x.Interface()] {
				return true
			}
			tried[x.Interface()] = true
			c := with(x)
			return c == nil || yield(c)
		}
		switch dom, known := p.domains[l.path]; {
		case typ.Kind() == reflect.Bool:
			try(of(!cur.Bool()))
		case typ.Kind() == reflect.String:
			try(of(cur.String() + "'"))
		case typ.Kind() == reflect.Float64:
			_ = try(of(2*cur.Float())) && try(of(cur.Float()/2))
		case !cur.CanInt() || !known:
			panic(fmt.Sprintf("no probe values for the %s leaf %s", typ, l.path))
		case dom.enum:
			for n := dom.lo; n <= dom.hi && try(of(n)); n++ {
			}
		default:
			n := cur.Int()
			_ = try(of(2*n)) && try(of(n/2)) &&
				(dom.lo == math.MinInt || try(of(dom.lo))) && (dom.hi == config.Unbounded || try(of(dom.hi)))
		}
	}
}
