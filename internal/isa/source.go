package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSource parses a complete assembly source file — resource directives
// plus instruction text — into a Program named name. Directives are comment
// lines declaring the resource ids the program may reference:
//
//	;helpers 1,5
//	;models  3
//	;mats    2
//	;tables  1
//	;vecs    7
//	;tails   4
//
// The instruction text is everything Assemble accepts (directive lines are
// comments to the assembler).
func ParseSource(name, src string) (*Program, error) {
	prog := &Program{Name: name}
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		for _, d := range []struct {
			prefix string
			dst    *[]int64
		}{
			{";helpers", &prog.Helpers},
			{";models", &prog.Models},
			{";mats", &prog.Mats},
			{";tables", &prog.Tables},
			{";vecs", &prog.Vecs},
			{";tails", &prog.Tails},
		} {
			if rest, ok := strings.CutPrefix(line, d.prefix); ok {
				for _, f := range strings.Split(rest, ",") {
					v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
					if err != nil {
						return nil, fmt.Errorf("isa: %s: bad directive %q", name, line)
					}
					*d.dst = append(*d.dst, v)
				}
			}
		}
	}
	insns, err := Assemble(src)
	if err != nil {
		return nil, err
	}
	prog.Insns = insns
	return prog, nil
}
