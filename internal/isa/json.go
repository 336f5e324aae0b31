package isa

import (
	"encoding/json"
	"maps"
	"slices"
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
