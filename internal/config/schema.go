package config

import (
	"fmt"
	"math"
	"slices"

	"riscvsim/internal/cache"
	"riscvsim/internal/predictor"
)

// Unbounded is a Field's Hi where nothing caps the value.
const Unbounded = math.MaxInt

// Field is one settable leaf of the architecture document and the values
// it may take.
type Field struct {
	// Path names the leaf as the observability walk does: its JSON key,
	// "units[]." before a field of every unit, "{}" for every ops value.
	// "units" is the unit count.
	Path string
	// Lo and Hi bound an integer leaf; an enum's Hi is its last member.
	// Building a machine costs memory linear in each size, so a size's
	// Hi is at least 8x its largest preset value.
	Lo, Hi int
	// Member names an enum's value n.
	Member func(n int) string
	// Of points at a leaf the document holds once, for reading and writing.
	Of func(*CPU) *int

	preset    int                   // the largest value a preset sets, wide-8 included
	cacheOnly bool                  // checked only when the cache is enabled
	each      func(*CPU, func(int)) // visits every value of a unit's leaf, or the unit count
	clock     func(*CPU) *float64   // a clock, which must be positive
	gloss     string                // follows Path in messages
}

// Schema is the architecture document's one statement of its domain, one
// row per settable leaf in document order. Validate walks it with rules;
// docs/api.md's bounds table, the observability walk's probe values, the
// bounds tests and the fuzz seeds derive from it. Nothing writes it.
var Schema = []Field{
	{Path: "name"},
	{Path: "coreClockHz", preset: 100e6, clock: func(c *CPU) *float64 { return &c.CoreClockHz }},
	{Path: "memoryClockHz", preset: 50e6, clock: func(c *CPU) *float64 { return &c.MemoryClockHz }},
	{Path: "robSize", Lo: 1, Hi: 1024, preset: 128, Of: func(c *CPU) *int { return &c.ROBSize }},
	{Path: "fetchWidth", Lo: 1, Hi: 64, preset: 8, Of: func(c *CPU) *int { return &c.FetchWidth }},
	{Path: "commitWidth", Lo: 1, Hi: 64, preset: 8, Of: func(c *CPU) *int { return &c.CommitWidth }},
	{Path: "flushPenalty", Hi: Unbounded, preset: 3, Of: func(c *CPU) *int { return &c.FlushPenalty }},
	{Path: "jumpsPerCycle", Lo: 1, Hi: 64, preset: 3, Of: func(c *CPU) *int { return &c.JumpsPerCycle }},
	{Path: "fxWindow", Lo: 1, Hi: 256, preset: 32, Of: func(c *CPU) *int { return &c.FXWindow }},
	{Path: "fpWindow", Lo: 1, Hi: 256, preset: 32, Of: func(c *CPU) *int { return &c.FPWindow }},
	{Path: "lsWindow", Lo: 1, Hi: 256, preset: 32, Of: func(c *CPU) *int { return &c.LSWindow }},
	{Path: "branchWindow", Lo: 1, Hi: 256, preset: 16, Of: func(c *CPU) *int { return &c.BranchWindow }},
	{Path: "loadBufferSize", Lo: 1, Hi: 256, preset: 32, Of: func(c *CPU) *int { return &c.LoadBufferSize }},
	{Path: "storeBufferSize", Lo: 1, Hi: 256, preset: 32, Of: func(c *CPU) *int { return &c.StoreBufferSize }},
	{Path: "renameRegisters", Lo: 1, Hi: 2048, preset: 192, Of: func(c *CPU) *int { return &c.RenameRegisters }},
	{Path: "units", Lo: 1, Hi: 128, preset: 16, gloss: " (functional unit count)",
		each: func(c *CPU, visit func(int)) { visit(len(c.Units)) }},
	{Path: "units[].latency", Lo: math.MinInt, Hi: Unbounded, preset: 3,
		each: func(c *CPU, visit func(int)) {
			for _, u := range c.Units {
				visit(u.Latency)
			}
		}},
	{Path: "units[].ops{}", Hi: Unbounded, preset: 16,
		each: func(c *CPU, visit func(int)) {
			for _, u := range c.Units {
				for _, l := range u.Ops {
					visit(l)
				}
			}
		}},
	{Path: "units[].pipelined"},
	{Path: "cache.Enabled"},
	{Path: "cache.Lines", Lo: 1, Hi: 2048, preset: 256, cacheOnly: true, Of: func(c *CPU) *int { return &c.Cache.Lines }},
	{Path: "cache.LineSize", Lo: 1, Hi: 512, preset: 64, cacheOnly: true, Of: func(c *CPU) *int { return &c.Cache.LineSize }},
	{Path: "cache.Associativity", Lo: 1, Hi: Unbounded, preset: 4, cacheOnly: true, Of: func(c *CPU) *int { return &c.Cache.Associativity }},
	{Path: "cache.Replacement", Hi: int(cache.Random), Of: func(c *CPU) *int { return (*int)(&c.Cache.Replacement) },
		Member: func(n int) string { return cache.ReplacementPolicy(n).String() }},
	{Path: "cache.Write", Hi: int(cache.WriteThrough), Of: func(c *CPU) *int { return (*int)(&c.Cache.Write) },
		Member: func(n int) string { return cache.WritePolicy(n).String() }},
	{Path: "cache.AccessDelay", Hi: Unbounded, preset: 1, cacheOnly: true, Of: func(c *CPU) *int { return &c.Cache.AccessDelay }},
	{Path: "cache.ReplacementDelay", Hi: Unbounded, preset: 10, cacheOnly: true, Of: func(c *CPU) *int { return &c.Cache.ReplacementDelay }},
	{Path: "memory.Size", Lo: 1, Hi: 16 << 20, preset: 64 << 10, gloss: " (memory size)", Of: func(c *CPU) *int { return &c.Memory.Size }},
	{Path: "memory.LoadLatency", Hi: Unbounded, preset: 8, Of: func(c *CPU) *int { return &c.Memory.LoadLatency }},
	{Path: "memory.StoreLatency", Hi: Unbounded, preset: 8, Of: func(c *CPU) *int { return &c.Memory.StoreLatency }},
	{Path: "memory.CallStackSize", Hi: Unbounded, preset: 4 << 10, Of: func(c *CPU) *int { return &c.Memory.CallStackSize }},
	{Path: "predictor.BTBSize", Lo: 1, Hi: 1024, preset: 128, Of: func(c *CPU) *int { return &c.Predictor.BTBSize }},
	{Path: "predictor.PHTSize", Lo: 1, Hi: 2048, preset: 256, Of: func(c *CPU) *int { return &c.Predictor.PHTSize }},
	{Path: "predictor.Kind", Hi: int(predictor.TwoBit), preset: int(predictor.TwoBit), Of: func(c *CPU) *int { return (*int)(&c.Predictor.Kind) },
		Member: func(n int) string { return predictor.Type(n).String() }},
	{Path: "predictor.DefaultState", Hi: Unbounded, preset: 2, Of: func(c *CPU) *int { return &c.Predictor.DefaultState }},
	{Path: "predictor.GlobalHistory"},
	{Path: "predictor.HistoryBits", Hi: 30, preset: 8, Of: func(c *CPU) *int { return &c.Predictor.HistoryBits }},
}

// name is how messages name the field.
func (f *Field) name() string { return "config: " + f.Path + f.gloss }

// rules are the checks that span fields, or a unit's identity.
var rules = []struct {
	doc   string
	check func(c *CPU, add func(format string, args ...any))
}{
	{"`renameRegisters` ≥ `robSize`", func(c *CPU, add func(string, ...any)) {
		if c.RenameRegisters < c.ROBSize {
			add("config: renameRegisters (%d) must be at least robSize (%d) so every in-flight instruction can rename a destination",
				c.RenameRegisters, c.ROBSize)
		}
	}},
	{"`cache.Lines` is a multiple of `cache.Associativity`, and `cache.LineSize` a power of two (enabled cache)", func(c *CPU, add func(string, ...any)) {
		if l := c.Cache; l.Enabled && l.Associativity > 0 && l.Lines%l.Associativity != 0 {
			add("cache: Associativity %d must divide Lines %d", l.Associativity, l.Lines)
		}
		if l := c.Cache; l.Enabled && l.LineSize&(l.LineSize-1) != 0 {
			add("config: cache.LineSize must be a power of two, got %d", l.LineSize)
		}
	}},
	{"`predictor.DefaultState` ≤ 1 for `one-bit` and ≤ 3 for `two-bit`; `zero-bit` takes any value", func(c *CPU, add func(string, ...any)) {
		if p := c.Predictor; p.Kind > predictor.ZeroBit && p.Kind <= predictor.TwoBit && p.DefaultState > 1<<p.Kind-1 {
			add("predictor: DefaultState %d out of range [0,%d] for %s", p.DefaultState, 1<<p.Kind-1, p.Kind)
		}
	}},
	{"`memory.CallStackSize` ≤ `memory.Size`", func(c *CPU, add func(string, ...any)) {
		if c.Memory.CallStackSize > c.Memory.Size {
			add("config: callStackSize %d out of range", c.Memory.CallStackSize)
		}
	}},
	{"every unit has a non-empty, unique `name`, a `class` of FX, FP, LS or Branch, and a `latency` > 0 unless it lists `ops`",
		func(c *CPU, add func(string, ...any)) {
			seen := make(map[string]bool, len(c.Units))
			for i, u := range c.Units {
				switch {
				case u.Name == "":
					add("config: unit %d has no name", i)
				case seen[u.Name]:
					add("config: duplicate unit name %q", u.Name)
				}
				seen[u.Name] = true
				if !slices.Contains([]string{"FX", "FP", "LS", "Branch"}, u.Class) {
					add("config: unit %q has unknown class %q", u.Name, u.Class)
				}
				if u.Latency <= 0 && len(u.Ops) == 0 {
					add("config: unit %q needs a positive latency", u.Name)
				}
			}
		}},
	{"at least one FX, one LS and one Branch unit", func(c *CPU, add func(string, ...any)) {
		for _, cl := range []string{"FX", "LS", "Branch"} {
			if !slices.ContainsFunc(c.Units, func(u FUSpec) bool { return u.Class == cl }) {
				add("config: no %s unit configured; integer programs cannot execute", cl)
			}
		}
	}},
}

// Validate checks the whole configuration against Schema and rules and
// returns every problem found, mirroring the configuration validation
// step of simulation initialization (paper §III-A).
func (c *CPU) Validate() []error {
	var errs []error
	add := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	var f *Field
	inRange := func(v int) {
		switch {
		case v >= f.Lo && v <= f.Hi:
		case f.Hi != Unbounded:
			add("%s must be in [%d, %d], got %d", f.name(), f.Lo, f.Hi, v)
		case f.Lo == 0:
			add("%s must be non-negative, got %d", f.name(), v)
		default:
			add("%s must be at least %d, got %d", f.name(), f.Lo, v)
		}
	}
	for i := range Schema {
		switch f = &Schema[i]; {
		case f.cacheOnly && !c.Cache.Enabled:
		case f.Of != nil:
			inRange(*f.Of(c))
		case f.each != nil:
			f.each(c, inRange)
		case f.clock != nil && !(*f.clock(c) > 0):
			add("%s must be positive, got %g", f.name(), *f.clock(c))
		}
	}
	for _, r := range rules {
		r.check(c, add)
	}
	return errs
}
