package core

import (
	"slices"
	"strconv"
	"sync"

	"riscvsim/internal/cache"
	"riscvsim/internal/config"
	"riscvsim/internal/isa"
	"riscvsim/internal/jsonenc"
	"riscvsim/internal/memory"
	"riscvsim/internal/rename"
	"riscvsim/internal/stats"
)

// The State encoder and decoder. The encoder appends, without reflection,
// exactly the bytes encoding/json writes for a State from the struct tags
// in state.go — the tags stay the definition of the wire format and the
// differential test holds the two together. What a State got from its
// simulation already encoded (cache-line fragments, register and unit
// heads, the pointer table) is spliced; a State built any other way, say
// decoded by a client, has none of that and is encoded field by field to
// the same bytes. The statistics report encodes itself
// (stats.Report.AppendJSON); the debug log is encoded by encoding/json.
// The decoder (DecodeJSON and a reader beside each view's encoder, below
// the encoders) reads a State back without reflection, the report through
// stats.Report's own decoder.

// AppendJSON appends the state as one JSON object.
func (st *State) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"cycle":`...)
	dst = strconv.AppendUint(dst, st.Cycle, 10)
	dst = append(dst, `,"pc":`...)
	dst = strconv.AppendInt(dst, int64(st.PC), 10)
	dst = append(dst, `,"halted":`...)
	dst = strconv.AppendBool(dst, st.Halted)
	dst = appendStringField(dst, `,"haltReason":`, st.HaltReason)
	dst = appendInstrViews(append(dst, `,"decodeBuffer":`...), st.DecodeBuffer)
	dst = appendInstrViews(append(dst, `,"rob":`...), st.ROB)

	dst = append(dst, `,"issueWindows":`...)
	if st.Windows == nil {
		dst = append(dst, "null"...)
	} else {
		var space [8]string
		names := space[:0]
		for name := range st.Windows {
			names = append(names, name)
		}
		slices.Sort(names)
		dst = append(dst, '{')
		for i, name := range names {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(jsonenc.String(dst, name), ':')
			dst = appendInstrViews(dst, st.Windows[name])
		}
		dst = append(dst, '}')
	}

	dst = append(dst, `,"functionalUnits":`...)
	dst = appendArray(dst, st.FUs, (*FUView).appendJSON)
	dst = appendInstrViews(append(dst, `,"loadBuffer":`...), st.LoadBuffer)
	dst = appendInstrViews(append(dst, `,"storeBuffer":`...), st.StoreBuffer)
	dst = append(dst, `,"intRegisters":`...)
	dst = appendArray(dst, st.IntRegs, (*RegView).appendJSON)
	dst = append(dst, `,"floatRegisters":`...)
	dst = appendArray(dst, st.FloatRegs, (*RegView).appendJSON)
	dst = append(dst, `,"speculativeRegisters":`...)
	dst = appendArray(dst, st.SpecRegs, appendSpecView)
	if len(st.CacheLines) > 0 {
		dst = append(dst, `,"cacheLines":`...)
		dst = appendArray(dst, st.CacheLines, (*cache.LineView).AppendJSON)
	}
	dst = append(dst, `,"memoryPointers":`...)
	if st.pointersEnc != nil {
		dst = append(dst, st.pointersEnc...)
	} else {
		dst = appendPointers(dst, st.Pointers)
	}

	dst = append(dst, `,"stats":`...)
	var err error
	if st.Stats == nil {
		dst = append(dst, "null"...)
	} else if dst, err = st.Stats.AppendJSON(dst); err != nil {
		return dst, err
	}
	if len(st.Log) > 0 {
		dst = append(dst, `,"log":`...)
		if dst, err = jsonenc.Value(dst, st.Log); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendArray appends a slice as encoding/json does: null for a nil
// slice, else the elements between brackets.
func appendArray[T any](dst []byte, vs []T, elem func(*T, []byte) []byte) []byte {
	if vs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(&vs[i], dst)
	}
	return append(dst, ']')
}

func appendInstrViews(dst []byte, vs []InstrView) []byte {
	return appendArray(dst, vs, (*InstrView).appendJSON)
}

// appendStringField and appendUintField append an omitempty member, key
// included (`,"name":`), unless the value is empty.
func appendStringField(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	return jsonenc.String(append(dst, key...), v)
}

func appendUintField(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, key...), v, 10)
}

func appendTrueField(dst []byte, key string, v bool) []byte {
	if !v {
		return dst
	}
	return append(append(dst, key...), "true"...)
}

func (v *InstrView) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, v.ID, 10)
	dst = append(dst, `,"pc":`...)
	dst = strconv.AppendInt(dst, int64(v.PC), 10)
	dst = jsonenc.String(append(dst, `,"text":`...), v.Text)
	dst = jsonenc.String(append(dst, `,"phase":`...), v.Phase)
	dst = appendUintField(dst, `,"fetchedAt":`, v.FetchedAt)
	dst = appendUintField(dst, `,"decodedAt":`, v.DecodedAt)
	dst = appendUintField(dst, `,"issuedAt":`, v.IssuedAt)
	dst = appendUintField(dst, `,"executedAt":`, v.ExecutedAt)
	dst = appendUintField(dst, `,"memoryAt":`, v.MemoryAt)
	dst = appendUintField(dst, `,"committedAt":`, v.CommittedAt)
	dst = appendTrueField(dst, `,"speculative":`, v.Speculative)
	dst = appendTrueField(dst, `,"squashed":`, v.Squashed)
	dst = appendStringField(dst, `,"exception":`, v.Exception)
	dst = appendStringField(dst, `,"destTag":`, v.DestTag)
	dst = appendTrueField(dst, `,"mispredict":`, v.Mispredict)
	return append(dst, '}')
}

// regHead is a register view up to its value: `{"name":…,"alias":…`.
func regHead(dst []byte, name, alias string) []byte {
	dst = jsonenc.String(append(dst, `{"name":`...), name)
	return appendStringField(dst, `,"alias":`, alias)
}

func (v *RegView) appendJSON(dst []byte) []byte {
	if v.head != "" {
		dst = append(dst, v.head...)
	} else {
		dst = regHead(dst, v.Name, v.Alias)
	}
	dst = jsonenc.String(append(dst, `,"value":`...), v.Value)
	dst = appendStringField(dst, `,"renamed":`, v.Renamed)
	return append(dst, '}')
}

// fuHead is a unit view up to its busy flag: `{"name":…,"class":…`.
func fuHead(dst []byte, name, class string) []byte {
	dst = jsonenc.String(append(dst, `{"name":`...), name)
	return jsonenc.String(append(dst, `,"class":`...), class)
}

func (v *FUView) appendJSON(dst []byte) []byte {
	if v.head != "" {
		dst = append(dst, v.head...)
	} else {
		dst = fuHead(dst, v.Name, v.Class)
	}
	dst = append(dst, `,"busy":`...)
	dst = strconv.AppendBool(dst, v.Busy)
	if v.InFlight != 0 {
		dst = append(dst, `,"inFlight":`...)
		dst = strconv.AppendInt(dst, int64(v.InFlight), 10)
	}
	if v.Instr != nil {
		dst = v.Instr.appendJSON(append(dst, `,"instr":`...))
	}
	dst = appendUintField(dst, `,"doneAt":`, v.DoneAt)
	return append(dst, '}')
}

func appendSpecView(v *rename.SpecView, dst []byte) []byte {
	dst = jsonenc.String(append(dst, `{"tag":`...), v.Tag)
	dst = jsonenc.String(append(dst, `,"arch":`...), v.Arch)
	dst = jsonenc.String(append(dst, `,"value":`...), v.Value)
	dst = append(dst, `,"valid":`...)
	dst = strconv.AppendBool(dst, v.Valid)
	dst = append(dst, `,"refs":`...)
	dst = strconv.AppendInt(dst, int64(v.Refs), 10)
	dst = append(dst, `,"committed":`...)
	dst = strconv.AppendBool(dst, v.Committed)
	return append(dst, '}')
}

// appendPointers appends the pointer table; memory.Pointer carries no
// tags, so its members go by their Go names.
func appendPointers(dst []byte, ps []memory.Pointer) []byte {
	return appendArray(dst, ps, func(p *memory.Pointer, dst []byte) []byte {
		dst = jsonenc.String(append(dst, `{"Name":`...), p.Name)
		dst = append(dst, `,"Addr":`...)
		dst = strconv.AppendInt(dst, int64(p.Addr), 10)
		dst = append(dst, `,"Size":`...)
		dst = strconv.AppendInt(dst, int64(p.Size), 10)
		dst = jsonenc.String(append(dst, `,"Elem":`...), p.Elem)
		return append(dst, '}')
	})
}

// The decoders: each reads, without reflection, what encoding/json would
// decode from the same struct tags into a zero value, and fails its
// jsonenc.Reader on anything else (the caller then decodes by
// reflection). A decoded State has no pre-encoded fragment.

// names are the strings of fixed sets a State repeats — register names
// and aliases, phases, rename tags below 256, unit classes and the
// presets' unit names — which the decoders read without allocating
// (jsonenc.Reader.Intern); only variable text allocates.
var names = sync.OnceValue(func() map[string]string {
	m := make(map[string]string)
	add := func(s string) { m[s] = s }
	regs := isa.NewRegisterFile()
	for i := range isa.NumRegs {
		for _, d := range []*isa.RegisterDesc{regs.Int(i), regs.Float(i)} {
			add(d.Name)
			for _, a := range d.Aliases {
				add(a)
			}
		}
	}
	for _, p := range phaseNames {
		add(p)
	}
	for tag := range 256 {
		add(rename.TagName(tag))
	}
	for c := range isa.NumFUClasses {
		add(isa.FUClass(c).String())
	}
	for _, cfg := range config.Presets() {
		for _, u := range cfg.Units {
			add(u.Name)
		}
	}
	return m
})

var stateKeys = []string{
	"cycle", "pc", "halted", "haltReason", "decodeBuffer", "rob", "issueWindows", "functionalUnits",
	"loadBuffer", "storeBuffer", "intRegisters", "floatRegisters", "speculativeRegisters",
	"cacheLines", "memoryPointers", "stats", "log",
}

// DecodeJSON reads a state into a zero State.
func (st *State) DecodeJSON(r *jsonenc.Reader) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		switch r.Key(stateKeys, &seen) {
		case "cycle":
			st.Cycle = r.Uint()
		case "pc":
			st.PC = r.Int()
		case "halted":
			st.Halted = r.Bool()
		case "haltReason":
			st.HaltReason = r.String()
		case "decodeBuffer":
			st.DecodeBuffer = decodeInstrViews(r)
		case "rob":
			st.ROB = decodeInstrViews(r)
		case "issueWindows":
			st.Windows = jsonenc.Map(r, names(), decodeInstrViews)
		case "functionalUnits":
			st.FUs = jsonenc.Slice(r, (*FUView).decodeJSON)
		case "loadBuffer":
			st.LoadBuffer = decodeInstrViews(r)
		case "storeBuffer":
			st.StoreBuffer = decodeInstrViews(r)
		case "intRegisters":
			st.IntRegs = jsonenc.Slice(r, (*RegView).decodeJSON)
		case "floatRegisters":
			st.FloatRegs = jsonenc.Slice(r, (*RegView).decodeJSON)
		case "speculativeRegisters":
			st.SpecRegs = jsonenc.Slice(r, decodeSpecView)
		case "cacheLines":
			st.CacheLines = jsonenc.Slice(r, (*cache.LineView).DecodeJSON)
		case "memoryPointers":
			st.Pointers = jsonenc.Slice(r, decodePointer)
		case "stats":
			st.Stats = jsonenc.Pointer(r, (*stats.Report).DecodeJSON)
		case "log":
			st.Log = jsonenc.Slice(r, (*LogEntry).DecodeJSON)
		}
	}
}

func decodeInstrViews(r *jsonenc.Reader) []InstrView {
	return jsonenc.Slice(r, (*InstrView).decodeJSON)
}

var instrViewKeys = []string{
	"id", "pc", "text", "phase", "fetchedAt", "decodedAt", "issuedAt", "executedAt", "memoryAt",
	"committedAt", "speculative", "squashed", "exception", "destTag", "mispredict",
}

func (v *InstrView) decodeJSON(r *jsonenc.Reader) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		switch r.Key(instrViewKeys, &seen) {
		case "id":
			v.ID = r.Uint()
		case "pc":
			v.PC = r.Int()
		case "text":
			v.Text = r.String()
		case "phase":
			v.Phase = r.Intern(names())
		case "fetchedAt":
			v.FetchedAt = r.Uint()
		case "decodedAt":
			v.DecodedAt = r.Uint()
		case "issuedAt":
			v.IssuedAt = r.Uint()
		case "executedAt":
			v.ExecutedAt = r.Uint()
		case "memoryAt":
			v.MemoryAt = r.Uint()
		case "committedAt":
			v.CommittedAt = r.Uint()
		case "speculative":
			v.Speculative = r.Bool()
		case "squashed":
			v.Squashed = r.Bool()
		case "exception":
			v.Exception = r.String()
		case "destTag":
			v.DestTag = r.Intern(names())
		case "mispredict":
			v.Mispredict = r.Bool()
		}
	}
}

var regViewKeys = []string{"name", "alias", "value", "renamed"}

func (v *RegView) decodeJSON(r *jsonenc.Reader) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		switch r.Key(regViewKeys, &seen) {
		case "name":
			v.Name = r.Intern(names())
		case "alias":
			v.Alias = r.Intern(names())
		case "value":
			v.Value = r.String()
		case "renamed":
			v.Renamed = r.Intern(names())
		}
	}
}

var fuViewKeys = []string{"name", "class", "busy", "inFlight", "instr", "doneAt"}

func (v *FUView) decodeJSON(r *jsonenc.Reader) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		switch r.Key(fuViewKeys, &seen) {
		case "name":
			v.Name = r.Intern(names())
		case "class":
			v.Class = r.Intern(names())
		case "busy":
			v.Busy = r.Bool()
		case "inFlight":
			v.InFlight = r.Int()
		case "instr":
			v.Instr = jsonenc.Pointer(r, (*InstrView).decodeJSON)
		case "doneAt":
			v.DoneAt = r.Uint()
		}
	}
}

var specViewKeys = []string{"tag", "arch", "value", "valid", "refs", "committed"}

func decodeSpecView(v *rename.SpecView, r *jsonenc.Reader) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		switch r.Key(specViewKeys, &seen) {
		case "tag":
			v.Tag = r.Intern(names())
		case "arch":
			v.Arch = r.Intern(names())
		case "value":
			v.Value = r.String()
		case "valid":
			v.Valid = r.Bool()
		case "refs":
			v.Refs = r.Int()
		case "committed":
			v.Committed = r.Bool()
		}
	}
}

// pointerKeys are memory.Pointer's Go names: it carries no tags.
var pointerKeys = []string{"Name", "Addr", "Size", "Elem"}

func decodePointer(p *memory.Pointer, r *jsonenc.Reader) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		switch r.Key(pointerKeys, &seen) {
		case "Name":
			p.Name = r.String()
		case "Addr":
			p.Addr = r.Int()
		case "Size":
			p.Size = r.Int()
		case "Elem":
			p.Elem = r.String()
		}
	}
}

var logEntryKeys = []string{"cycle", "msg"}

// DecodeJSON reads one debug-log entry into a zero LogEntry.
func (e *LogEntry) DecodeJSON(r *jsonenc.Reader) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		switch r.Key(logEntryKeys, &seen) {
		case "cycle":
			e.Cycle = r.Uint()
		case "msg":
			e.Msg = r.String()
		}
	}
}
