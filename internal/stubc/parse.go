package stubc

import (
	"fmt"
	"go/token"
	"strings"
)

// Type is an IDL wire type.
type Type string

// The IDL type table: wire type → (Go type, Enc method, Dec method).
const (
	TBool   Type = "bool"
	TI32    Type = "int32"
	TI64    Type = "int64"
	TU32    Type = "uint32"
	TU64    Type = "uint64"
	TF32    Type = "float32"
	TF64    Type = "float64"
	TBytes  Type = "bytes"
	TString Type = "string"
	TF64s   Type = "f64s"
	TI32s   Type = "i32s"
	TU64s   Type = "u64s"
)

type typeInfo struct {
	goType string
	method string // Enc/Dec method name
	fixed  int    // wire bytes if fixed-size, 0 for buffers
}

var types = map[Type]typeInfo{
	TBool:   {"bool", "Bool", 1},
	TI32:    {"int32", "I32", 4},
	TI64:    {"int64", "I64", 8},
	TU32:    {"uint32", "U32", 4},
	TU64:    {"uint64", "U64", 8},
	TF32:    {"float32", "F32", 4},
	TF64:    {"float64", "F64", 8},
	TBytes:  {"[]byte", "Buf", 0},
	TString: {"string", "String", 0},
	TF64s:   {"[]float64", "F64s", 0},
	TI32s:   {"[]int32", "I32s", 0},
	TU64s:   {"[]uint64", "U64s", 0},
}

// Param is one in or out argument.
type Param struct {
	Name string
	Type Type
}

// ProcDecl is one rpc declaration.
type ProcDecl struct {
	Name  string
	Async bool
	Ins   []Param
	Outs  []Param
	Line  int
}

// StructDecl is a user-defined record type usable as a parameter type —
// the struct marshaling the paper's prototype left out ("doing so would
// be straightforward"). Fields may be any built-in type but not other
// structs.
type StructDecl struct {
	Name   string
	Fields []Param
	Line   int
}

// CompatDecl is one `compatible A B [when disjoint(param)]` clause: the
// two named procedures may execute concurrently on one node —
// unconditionally, or only when their key parameters differ. Compiled
// into the service's oam.CompatTable by the generator.
type CompatDecl struct {
	A, B     string
	Disjoint bool
	KeyParam string // set when Disjoint
	Line     int
}

// File is a parsed IDL file.
type File struct {
	Package string
	Structs []StructDecl
	Procs   []ProcDecl
	Compat  []CompatDecl
}

// procByName finds a declared procedure.
func (f *File) procByName(n string) *ProcDecl {
	for i := range f.Procs {
		if f.Procs[i].Name == n {
			return &f.Procs[i]
		}
	}
	return nil
}

// structByName finds a declared struct.
func (f *File) structByName(n Type) *StructDecl {
	for i := range f.Structs {
		if Type(f.Structs[i].Name) == n {
			return &f.Structs[i]
		}
	}
	return nil
}

// ParseError reports a syntax or semantic error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Parse parses IDL source. Structs must be declared before the first
// procedure that uses them.
func Parse(src string) (*File, error) {
	f := &File{}
	names := map[string]int{}
	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		text := strings.TrimSpace(raw)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(text, "package "):
			if f.Package != "" {
				return nil, errf(line, "duplicate package declaration")
			}
			f.Package = strings.TrimSpace(strings.TrimPrefix(text, "package "))
			if !isIdent(f.Package) {
				return nil, errf(line, "bad package name %q", f.Package)
			}
		case strings.HasPrefix(text, "struct "):
			if f.Package == "" {
				return nil, errf(line, "struct declaration before package")
			}
			s, err := parseStruct(f, text, line)
			if err != nil {
				return nil, err
			}
			if prev, dup := names[s.Name]; dup {
				return nil, errf(line, "name %s already declared on line %d", s.Name, prev)
			}
			names[s.Name] = line
			f.Structs = append(f.Structs, s)
		case strings.HasPrefix(text, "rpc "), strings.HasPrefix(text, "async rpc "):
			if f.Package == "" {
				return nil, errf(line, "rpc declaration before package")
			}
			p, err := parseProc(f, text, line)
			if err != nil {
				return nil, err
			}
			if prev, dup := names[p.Name]; dup {
				return nil, errf(line, "name %s already declared on line %d", p.Name, prev)
			}
			names[p.Name] = line
			f.Procs = append(f.Procs, p)
		case strings.HasPrefix(text, "compatible "):
			if f.Package == "" {
				return nil, errf(line, "compatible clause before package")
			}
			cd, err := parseCompat(f, text, line)
			if err != nil {
				return nil, err
			}
			f.Compat = append(f.Compat, cd)
		default:
			return nil, errf(line, "cannot parse %q", text)
		}
	}
	if f.Package == "" {
		return nil, errf(0, "missing package declaration")
	}
	if len(f.Procs) == 0 {
		return nil, errf(0, "no rpc declarations")
	}
	return f, nil
}

// parseStruct parses `struct Name { field type, field type }`.
func parseStruct(f *File, text string, line int) (StructDecl, error) {
	s := StructDecl{Line: line}
	rest := strings.TrimPrefix(text, "struct ")
	open := strings.IndexByte(rest, '{')
	if open < 0 || !strings.HasSuffix(rest, "}") {
		return s, errf(line, "struct declaration must be `struct Name { field type, ... }`")
	}
	s.Name = strings.TrimSpace(rest[:open])
	if !isExportedIdent(s.Name) {
		return s, errf(line, "struct name %q must be an exported Go identifier", s.Name)
	}
	if _, isBuiltin := types[Type(s.Name)]; isBuiltin {
		return s, errf(line, "struct name %q collides with a built-in type", s.Name)
	}
	fields, err := parseParams(f, rest[open+1:len(rest)-1], line)
	if err != nil {
		return s, err
	}
	if len(fields) == 0 {
		return s, errf(line, "struct %s has no fields", s.Name)
	}
	seen := map[string]bool{}
	for _, fd := range fields {
		if seen[fd.Name] {
			return s, errf(line, "duplicate field %q in struct %s", fd.Name, s.Name)
		}
		seen[fd.Name] = true
		if _, builtin := types[fd.Type]; !builtin {
			return s, errf(line, "struct field %s.%s: nested struct types are not supported", s.Name, fd.Name)
		}
	}
	s.Fields = fields
	return s, nil
}

func parseProc(f *File, text string, line int) (ProcDecl, error) {
	p := ProcDecl{Line: line}
	rest := text
	if strings.HasPrefix(rest, "async ") {
		p.Async = true
		rest = strings.TrimPrefix(rest, "async ")
	}
	rest = strings.TrimPrefix(rest, "rpc ")
	open := strings.IndexByte(rest, '(')
	if open < 0 {
		return p, errf(line, "missing ( in rpc declaration")
	}
	p.Name = strings.TrimSpace(rest[:open])
	if !isExportedIdent(p.Name) {
		return p, errf(line, "procedure name %q must be an exported Go identifier", p.Name)
	}
	rest = rest[open+1:]
	closeIdx := strings.IndexByte(rest, ')')
	if closeIdx < 0 {
		return p, errf(line, "missing ) in rpc declaration")
	}
	ins, err := parseParams(f, rest[:closeIdx], line)
	if err != nil {
		return p, err
	}
	p.Ins = ins
	rest = strings.TrimSpace(rest[closeIdx+1:])
	if rest != "" {
		if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
			return p, errf(line, "malformed result list %q", rest)
		}
		outs, err := parseParams(f, rest[1:len(rest)-1], line)
		if err != nil {
			return p, err
		}
		p.Outs = outs
	}
	if p.Async && len(p.Outs) > 0 {
		return p, errf(line, "async procedure %s cannot have results", p.Name)
	}
	seen := map[string]bool{}
	for _, prm := range append(append([]Param{}, p.Ins...), p.Outs...) {
		if seen[prm.Name] {
			return p, errf(line, "duplicate parameter name %q", prm.Name)
		}
		seen[prm.Name] = true
	}
	return p, nil
}

// integerKeyType reports whether t can carry a disjointness key (the
// generated extractor widens it to uint64).
func integerKeyType(t Type) bool {
	switch t {
	case TI32, TI64, TU32, TU64:
		return true
	}
	return false
}

// parseCompat parses `compatible A B [when disjoint(param)]`. Both
// procedures must already be declared, so clauses follow the rpc lines
// they reference.
func parseCompat(f *File, text string, line int) (CompatDecl, error) {
	cd := CompatDecl{Line: line}
	fields := strings.Fields(strings.TrimPrefix(text, "compatible "))
	if len(fields) != 2 && len(fields) != 4 {
		return cd, errf(line, "compatible clause must be `compatible A B [when disjoint(param)]`")
	}
	cd.A, cd.B = fields[0], fields[1]
	var procs [2]*ProcDecl
	for i, n := range []string{cd.A, cd.B} {
		p := f.procByName(n)
		if p == nil {
			return cd, errf(line, "compatible clause names unknown procedure %q (clauses must follow the rpc declarations they reference)", n)
		}
		if p.Async {
			return cd, errf(line, "async procedure %s cannot appear in a compatible clause", n)
		}
		procs[i] = p
	}
	if len(fields) == 4 {
		if fields[2] != "when" {
			return cd, errf(line, "expected `when`, got %q", fields[2])
		}
		expr := fields[3]
		if !strings.HasPrefix(expr, "disjoint(") || !strings.HasSuffix(expr, ")") {
			return cd, errf(line, "bad when expression %q: only disjoint(param) is supported", expr)
		}
		key := expr[len("disjoint(") : len(expr)-1]
		if !isIdent(key) {
			return cd, errf(line, "bad disjoint parameter name %q", key)
		}
		for _, p := range procs {
			var prm *Param
			for j := range p.Ins {
				if p.Ins[j].Name == key {
					prm = &p.Ins[j]
					break
				}
			}
			if prm == nil {
				return cd, errf(line, "disjoint key %q is not an input of %s", key, p.Name)
			}
			if !integerKeyType(prm.Type) {
				return cd, errf(line, "disjoint key %s.%s has type %s; keys must be int32, int64, uint32, or uint64", p.Name, key, prm.Type)
			}
		}
		cd.Disjoint, cd.KeyParam = true, key
	}
	for i := range f.Compat {
		prev := &f.Compat[i]
		samePair := (prev.A == cd.A && prev.B == cd.B) || (prev.A == cd.B && prev.B == cd.A)
		if samePair {
			if prev.Disjoint != cd.Disjoint || prev.KeyParam != cd.KeyParam {
				return cd, errf(line, "compatible %s %s contradicts the clause on line %d", cd.A, cd.B, prev.Line)
			}
			return cd, errf(line, "duplicate compatible clause for %s %s (first on line %d)", cd.A, cd.B, prev.Line)
		}
		if cd.Disjoint && prev.Disjoint && prev.KeyParam != cd.KeyParam {
			for _, n := range []string{cd.A, cd.B} {
				if prev.A == n || prev.B == n {
					return cd, errf(line, "procedure %s already keyed by %q on line %d; a procedure has exactly one disjoint key", n, prev.KeyParam, prev.Line)
				}
			}
		}
	}
	return cd, nil
}

// parseParams parses a comma-separated `name type` list. f, when non-nil,
// supplies declared struct types in addition to the built-ins.
func parseParams(f *File, s string, line int) ([]Param, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []Param
	for _, piece := range strings.Split(s, ",") {
		fields := strings.Fields(piece)
		if len(fields) != 2 {
			return nil, errf(line, "parameter %q must be `name type`", strings.TrimSpace(piece))
		}
		name, typ := fields[0], Type(fields[1])
		if !isIdent(name) {
			return nil, errf(line, "bad parameter name %q", name)
		}
		if _, ok := types[typ]; !ok {
			if f == nil || f.structByName(typ) == nil {
				return nil, errf(line, "unknown type %q (have bool,int32,int64,uint32,uint64,float32,float64,bytes,string,f64s,i32s,u64s, or a declared struct)", typ)
			}
		}
		out = append(out, Param{Name: name, Type: typ})
	}
	return out, nil
}

// isIdent reports whether s can be emitted as a Go identifier: letters,
// digits and underscores, not starting with a digit, and not a keyword.
func isIdent(s string) bool {
	if s == "" || token.IsKeyword(s) {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if i == 0 && !alpha {
			return false
		}
		if !alpha && !(r >= '0' && r <= '9') {
			return false
		}
	}
	return true
}

func isExportedIdent(s string) bool {
	return isIdent(s) && s[0] >= 'A' && s[0] <= 'Z'
}
