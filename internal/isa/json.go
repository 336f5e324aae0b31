package isa

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"

	"riscvsim/internal/expr"
)

// jsonArg mirrors the paper's Listing 1 argument objects.
type jsonArg struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"`
	Type      string `json:"type"`
	WriteBack bool   `json:"writeBack,omitempty"`
}

// jsonDesc mirrors the paper's Listing 1 instruction objects, extended with
// the routing metadata this simulator needs (unit, format, memory width...).
type jsonDesc struct {
	Name            string    `json:"name"`
	InstructionType string    `json:"instructionType"`
	Unit            string    `json:"unit"`
	Format          string    `json:"format"`
	Arguments       []jsonArg `json:"arguments"`
	InterpretableAs string    `json:"interpretableAs"`
	MemoryWidth     int       `json:"memoryWidth,omitempty"`
	MemorySigned    bool      `json:"memorySigned,omitempty"`
	Conditional     bool      `json:"conditional,omitempty"`
	PCRelative      bool      `json:"pcRelative,omitempty"`
	Flops           int       `json:"flops,omitempty"`
	Halts           bool      `json:"halts,omitempty"`
}

type jsonPseudo struct {
	Name      string     `json:"name"`
	Operands  int        `json:"operands"`
	Expansion [][]string `json:"expansion"`
}

type jsonSet struct {
	Instructions []jsonDesc   `json:"instructions"`
	Pseudos      []jsonPseudo `json:"pseudoInstructions"`
}

// MarshalJSON serializes the instruction set in the paper's JSON
// configuration format (Listing 1).
func (s *Set) MarshalJSON() ([]byte, error) {
	out := jsonSet{
		Instructions: make([]jsonDesc, 0, len(s.ordered)),
		Pseudos:      make([]jsonPseudo, 0, len(s.pseudos)),
	}
	for _, d := range s.ordered {
		jd := jsonDesc{
			Name:            d.Name,
			InstructionType: d.Type.String(),
			Unit:            d.Unit.String(),
			Format:          d.Format.String(),
			InterpretableAs: d.ExprSrc,
			MemoryWidth:     d.MemWidth,
			MemorySigned:    d.MemSigned,
			Conditional:     d.Conditional,
			PCRelative:      d.PCRelative,
			Flops:           d.Flops,
			Halts:           d.Halts,
		}
		for _, a := range d.Args {
			jd.Arguments = append(jd.Arguments, jsonArg{
				Name:      a.Name,
				Kind:      a.Kind.String(),
				Type:      a.Type.String(),
				WriteBack: a.WriteBack,
			})
		}
		out.Instructions = append(out.Instructions, jd)
	}
	// Deterministic order: pseudos sorted by registration is not tracked,
	// so sort by name for stable output.
	for _, n := range slices.Sorted(maps.Keys(s.pseudos)) {
		p := s.pseudos[n]
		out.Pseudos = append(out.Pseudos, jsonPseudo{
			Name: p.Name, Operands: p.Operands, Expansion: p.Expansion,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// LoadSet parses an instruction set from the paper's JSON format. The
// result is fully independent of the built-in tables, which lets users
// extend the ISA without recompiling ("the instruction set is defined in a
// configuration JSON file and can be easily extended", §III-B).
func LoadSet(data []byte) (*Set, error) {
	var in jsonSet
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("isa: bad instruction-set JSON: %w", err)
	}
	s := NewSet()
	for _, jd := range in.Instructions {
		d, err := descFromJSON(jd)
		if err != nil {
			return nil, err
		}
		if _, dup := s.byName[d.Name]; dup {
			return nil, fmt.Errorf("isa: duplicate instruction %q", d.Name)
		}
		s.Register(d)
	}
	for _, jp := range in.Pseudos {
		if jp.Name == "" || len(jp.Expansion) == 0 {
			return nil, fmt.Errorf("isa: pseudo-instruction %q has no expansion", jp.Name)
		}
		s.RegisterPseudo(&Pseudo{Name: jp.Name, Operands: jp.Operands, Expansion: jp.Expansion})
	}
	return s, nil
}

func descFromJSON(jd jsonDesc) (*Desc, error) {
	it, err := ParseInstrType(jd.InstructionType)
	if err != nil {
		return nil, fmt.Errorf("isa: instruction %q: %w", jd.Name, err)
	}
	unit, err := ParseFUClass(jd.Unit)
	if err != nil {
		return nil, fmt.Errorf("isa: instruction %q: %w", jd.Name, err)
	}
	format, err := ParseFormat(jd.Format)
	if err != nil {
		return nil, fmt.Errorf("isa: instruction %q: %w", jd.Name, err)
	}
	prog, err := expr.Compile(jd.InterpretableAs)
	if err != nil {
		return nil, fmt.Errorf("isa: instruction %q: %w", jd.Name, err)
	}
	d := &Desc{
		Name:        jd.Name,
		Type:        it,
		Unit:        unit,
		Format:      format,
		ExprSrc:     jd.InterpretableAs,
		Prog:        prog,
		MemWidth:    jd.MemoryWidth,
		MemSigned:   jd.MemorySigned,
		Conditional: jd.Conditional,
		PCRelative:  jd.PCRelative,
		Flops:       jd.Flops,
		Halts:       jd.Halts,
	}
	for _, ja := range jd.Arguments {
		kind, err := ParseArgKind(ja.Kind)
		if err != nil {
			return nil, fmt.Errorf("isa: instruction %q argument %q: %w", jd.Name, ja.Name, err)
		}
		typ, err := expr.ParseType(ja.Type)
		if err != nil {
			return nil, fmt.Errorf("isa: instruction %q argument %q: %w", jd.Name, ja.Name, err)
		}
		d.Args = append(d.Args, ArgDesc{
			Name: ja.Name, Kind: kind, Type: typ, WriteBack: ja.WriteBack,
		})
	}
	return d, nil
}
