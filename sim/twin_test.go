package sim

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"

	"riscvsim/internal/core"
)

// The twin walk: a restored machine is complete when every field it can
// reach equals the original's. TwinDiffs walks the two machines together
// by reflection, so a field added to any component is compared without a
// list of fields to keep in step; a field that is neither encoded nor
// rebuilt shows up as a difference. Fields a restore derives (fuSup, each
// unit's minDone, the ROB's tail, the rename reference counts, the
// instructions' operand names and destinations) need no entry: they are
// compared like encoded ones, which is what proves the derivation.

// RestoreAllowList names the fields ("pkg.Type.field") a restore need not
// reproduce, each with the reason. TestRestoreIsComplete fails on an entry
// that names no field.
var RestoreAllowList = map[string]string{
	"core.Simulation.commitLimit":  "runtime knob: RunToCommitted sets it around one run",
	"core.Simulation.engineMode":   "runtime knob: the caller picks the engine (Machine.SetEngine)",
	"core.ExecEngine.forceGeneric": "runtime knob: the interpreter engine's switch, set with engineMode",
	"core.Simulation.ffStopPC":     "runtime knob: FastForwardToPC sets it around one run",
	"core.Simulation.ffFlushed":    "engine state: goes with engineMode, which a restore does not carry (SetEngineMode clears it)",
	"core.Simulation.ffScratch":    "scratch: rewritten before each fast-forward fallback",
	"core.Simulation.tracer":       "runtime knob: the tracer a caller attaches",
	"core.Simulation.traceWant":    "runtime knob: the attached tracer's filter",
	"core.Simulation.tracePCMin":   "runtime knob: the attached tracer's filter",
	"core.Simulation.tracePCMax":   "runtime knob: the attached tracer's filter",
	"core.LSU.onTrace":             "runtime knob: the attached tracer's hook",
	"core.LSU.onRecycle":           "wiring: the simulation's instruction pool, set at construction",
	"core.Simulation.freeInstrs":   "pool: dead instructions the next fetch reuses",
	"core.Simulation.counted":      "booking clock: the ledger is compared settled (Counters), and a restore books from 0",
	"core.issueWindow.bookedAt":    "booking clock: the ledger is compared settled (Counters)",
	"core.FU.bookedAt":             "booking clock: the ledger is compared settled (Counters)",
	"core.Simulation.decodeHead":   "the decode buffer is compared as pendingDecode()",
	"core.issueWindow.cands":       "wakeup list: every restored entry starts as a candidate (docs/checkpoint.md)",
	"core.issueSlots.waitHead":     "wakeup list: every restored entry starts as a candidate (docs/checkpoint.md)",
	"core.issueSlot.next":          "wakeup list link: meaningful only while the entry waits on a tag",
	"core.ROB.squashScratch":       "scratch: valid until the next SquashAfter",
	"core.FU.doneScratch":          "scratch: valid until the next ReleaseDone",
	"core.LSU.completedScratch":    "scratch: valid within one LSU step",
	"core.ExecEngine.env":          "scratch: the interpreter fallback's Env, set before each use",
	"core.FU.head":                 "display cache: the unit's encoded view head, built on first use",
	"cache.Cache.views":            "display cache: the encoded lines, rebuilt on the next Lines",
	"cache.Cache.indexed":          "display cache: the encoded lines, rebuilt on the next Lines",
	"cache.Cache.lent":             "display cache: the encoded lines, rebuilt on the next Lines",
	"memory.Main.owned":            "copy-on-write ownership: pages are compared by content",
}

// compareField compares the fields a walk does not walk, and reports
// whether key names one; a and b are the structs that hold them.
func (w *twin) compareField(key, path string, a, b reflect.Value) bool {
	switch key {
	case "core.Simulation.ledger":
		// The windows and units book their occupancy lazily, so the
		// ledger is compared settled.
		ca, cb := simOf(a).Counters(), simOf(b).Counters()
		w.keep = append(w.keep, &ca, &cb) // paired addresses stay taken
		w.walk(path+".Counters()", reflect.ValueOf(&ca).Elem(), reflect.ValueOf(&cb).Elem())
	case "core.Simulation.decodeBuf":
		// Entries before decodeHead are consumed; their pointers are stale.
		pending := func(s reflect.Value) reflect.Value {
			buf := s.FieldByName("decodeBuf")
			return buf.Slice(int(s.FieldByName("decodeHead").Int()), buf.Len())
		}
		w.walk(path+"[decodeHead:]", pending(a), pending(b))
	case "memory.Main.pages":
		// A page is shared with the Program's image until first written,
		// and a restore writes only the pages that differ from it.
		pa, pb := a.FieldByName("pages"), b.FieldByName("pages")
		if pa.Len() != pb.Len() {
			w.diff(path, "%d pages, twin %d", pa.Len(), pb.Len())
			return true
		}
		for i := range pa.Len() {
			if !bytes.Equal(pa.Index(i).Elem().Bytes(), pb.Index(i).Elem().Bytes()) {
				w.diff(fmt.Sprintf("%s[%d]", path, i), "page contents differ")
			}
		}
	default:
		return false
	}
	return true
}

var simType = reflect.TypeFor[core.Simulation]()

// simOf returns the simulation a struct value of type core.Simulation is.
func simOf(v reflect.Value) *core.Simulation {
	return (*core.Simulation)(v.Addr().UnsafePointer())
}

// maxTwinDiffs bounds the differences one walk reports.
const maxTwinDiffs = 20

// TwinDiffs walks a and b, two values of one type (two simulations, say),
// together and returns where they differ. Pointers are followed through
// one identity map, so a structure shared inside one (an instruction in
// the ROB and in a window) must be shared the same way inside the other.
func TwinDiffs(a, b any) []string {
	w := &twin{pairs: map[addrKey]uintptr{}, back: map[addrKey]uintptr{}}
	w.walk("", reflect.ValueOf(a), reflect.ValueOf(b))
	return w.diffs
}

type twin struct {
	pairs, back map[addrKey]uintptr // the identity map, both ways
	keep        []any               // values made during the walk
	diffs       []string
}

type addrKey struct {
	addr uintptr
	typ  reflect.Type
}

func (w *twin) diff(path, format string, args ...any) {
	if len(w.diffs) < maxTwinDiffs {
		w.diffs = append(w.diffs, strings.TrimPrefix(path, ".")+": "+fmt.Sprintf(format, args...))
	}
}

// pair records that a and b are the same object in their twins and
// reports whether the walk should descend into them: not when it has
// already, when the pairing contradicts an earlier one, or when both are
// one object (the same memory is equal to itself).
func (w *twin) pair(path string, a, b reflect.Value) bool {
	if !a.CanAddr() || !b.CanAddr() || a.Type().Size() == 0 {
		return true
	}
	ka, kb := addrKey{a.UnsafeAddr(), a.Type()}, addrKey{b.UnsafeAddr(), b.Type()}
	if got, ok := w.pairs[ka]; ok {
		if got != kb.addr {
			w.diff(path, "shares an object its twin does not share")
		}
		return false
	}
	if got, ok := w.back[kb]; ok && got != ka.addr {
		w.diff(path, "the twin shares an object this one does not")
		return false
	}
	w.pairs[ka], w.back[kb] = kb.addr, ka.addr
	return ka.addr != kb.addr
}

// register pairs every composite value inside a and b without comparing
// them, so pointers into storage compared some other way (the ledger)
// still have to point at the same place.
func (w *twin) register(path string, a, b reflect.Value) {
	switch a.Kind() {
	case reflect.Struct:
		w.pair(path, a, b)
		for i := range a.NumField() {
			w.register(path, a.Field(i), b.Field(i))
		}
	case reflect.Array:
		w.pair(path, a, b)
		for i := range a.Len() {
			w.register(path, a.Index(i), b.Index(i))
		}
	case reflect.Slice:
		for i := range min(a.Len(), b.Len()) {
			w.register(path, a.Index(i), b.Index(i))
		}
	}
}

func (w *twin) walk(path string, a, b reflect.Value) {
	if len(w.diffs) >= maxTwinDiffs {
		return
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				w.diff(path, "nil %v, twin nil %v", a.IsNil(), b.IsNil())
			}
			return
		}
		w.walk(path, a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() || a.Elem().Type() != b.Elem().Type() {
			if a.IsNil() != b.IsNil() || !a.IsNil() && a.Elem().Type() != b.Elem().Type() {
				w.diff(path, "holds %v, twin %v", a.Elem(), b.Elem())
			}
			return
		}
		w.walk(path, a.Elem(), b.Elem())
	case reflect.Struct:
		if !w.pair(path, a, b) {
			return
		}
		t := a.Type()
		if t == simType {
			w.register(path+".ledger", a.FieldByName("ledger"), b.FieldByName("ledger"))
		}
		for i := range t.NumField() {
			key := t.String() + "." + t.Field(i).Name
			if _, ok := RestoreAllowList[key]; ok {
				continue
			}
			if !w.compareField(key, path+"."+t.Field(i).Name, a, b) {
				w.walk(path+"."+t.Field(i).Name, a.Field(i), b.Field(i))
			}
		}
	case reflect.Array:
		if w.pair(path, a, b) {
			w.elems(path, a, b)
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			w.diff(path, "length %d, twin %d", a.Len(), b.Len())
			return
		}
		w.elems(path, a, b)
	case reflect.Map:
		if a.Len() != b.Len() {
			w.diff(path, "%d entries, twin %d", a.Len(), b.Len())
			return
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				w.diff(path, "key %v missing in the twin", it.Key())
				continue
			}
			w.walk(fmt.Sprintf("%s[%v]", path, it.Key()), it.Value(), bv)
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			w.diff(path, "%v, twin %v", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			w.diff(path, "%d, twin %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			w.diff(path, "%d, twin %d", a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			w.diff(path, "%v, twin %v", a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			w.diff(path, "%q, twin %q", a.String(), b.String())
		}
	default: // funcs, channels, unsafe pointers, complex numbers
		w.diff(path, "a %s the walk cannot compare: give it a RestoreAllowList entry", a.Kind())
	}
}

// elems walks the elements of two arrays or slices of one length.
func (w *twin) elems(path string, a, b reflect.Value) {
	if a.Type().Elem().Kind() == reflect.Uint8 && (a.Kind() == reflect.Slice || a.CanAddr() && b.CanAddr()) {
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			w.diff(path, "bytes differ")
		}
		return
	}
	for i := range a.Len() {
		w.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
	}
}

// allowListFields lists every "pkg.Type.field" reachable from the types
// of t, so an allow-list entry can be checked to name one.
func allowListFields(t reflect.Type, seen map[reflect.Type]bool, out map[string]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			out[t.String()+"."+t.Field(i).Name] = true
			allowListFields(t.Field(i).Type, seen, out)
		}
	case reflect.Pointer, reflect.Slice, reflect.Array:
		allowListFields(t.Elem(), seen, out)
	case reflect.Map:
		allowListFields(t.Key(), seen, out)
		allowListFields(t.Elem(), seen, out)
	}
}

// StaleAllowListEntries returns the RestoreAllowList keys that name no
// field a simulation reaches.
func StaleAllowListEntries() []string {
	fields := map[string]bool{}
	allowListFields(simType, map[reflect.Type]bool{}, fields)
	var stale []string
	for key := range RestoreAllowList {
		if !fields[key] {
			stale = append(stale, key)
		}
	}
	return stale
}
