package stubc

import (
	"fmt"
	"go/format"
	"strings"
)

// Generate emits the Go source for a parsed IDL file. The output is
// gofmt-formatted and self-contained but for imports of the rpc, oam, and
// threads packages.
func Generate(f *File) ([]byte, error) {
	g := &gen{f: f}
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by stubgen; DO NOT EDIT.\n\n")
	fmt.Fprintf(&b, "package %s\n\n", f.Package)
	fmt.Fprintf(&b, "import (\n")
	fmt.Fprintf(&b, "\t\"repro/internal/oam\"\n")
	fmt.Fprintf(&b, "\t\"repro/internal/rpc\"\n")
	// Only synchronous procedures get CallIdempotent and CallThen, which
	// take a sim.Duration deadline.
	for i := range f.Procs {
		if !f.Procs[i].Async {
			fmt.Fprintf(&b, "\t\"repro/internal/sim\"\n")
			break
		}
	}
	fmt.Fprintf(&b, "\t\"repro/internal/threads\"\n")
	fmt.Fprintf(&b, ")\n\n")
	for i := range f.Structs {
		g.genStruct(&b, &f.Structs[i])
	}
	for i := range f.Procs {
		g.genProc(&b, &f.Procs[i])
	}
	if len(f.Compat) > 0 {
		g.genCompat(&b)
	}
	src, err := format.Source([]byte(b.String()))
	if err != nil {
		return nil, fmt.Errorf("stubc: generated code does not format: %w\n%s", err, b.String())
	}
	return src, nil
}

// gen carries the file context through code generation (struct lookups).
type gen struct {
	f *File
}

// exportName capitalizes an IDL field name into an exported Go name.
func exportName(n string) string {
	return strings.ToUpper(n[:1]) + n[1:]
}

// goType maps an IDL type (builtin or struct) to its Go type.
func (g *gen) goType(t Type) string {
	if ti, ok := types[t]; ok {
		return ti.goType
	}
	if g.f.structByName(t) != nil {
		return string(t)
	}
	panic(fmt.Sprintf("stubc: unresolved type %q", t))
}

// goSig renders "name type" parameter lists for Go signatures.
func (g *gen) goSig(ps []Param) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.Name + " " + g.goType(p.Type)
	}
	return strings.Join(parts, ", ")
}

// goTypes renders the bare type list (for result tuples).
func (g *gen) goTypes(ps []Param) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = g.goType(p.Type)
	}
	return strings.Join(parts, ", ")
}

func names(ps []Param, prefix string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = prefix + p.Name
	}
	return strings.Join(parts, ", ")
}

// encSize renders a capacity hint expression for an Enc holding ps.
func (g *gen) encSize(ps []Param, prefix string) string {
	fixed := 0
	var dyn []string
	add := func(p Param, path string) {
		if n := types[p.Type].fixed; n > 0 {
			fixed += n
			return
		}
		fixed += 4
		switch p.Type {
		case TBytes, TString:
			dyn = append(dyn, fmt.Sprintf("len(%s)", path))
		case TF64s, TU64s:
			dyn = append(dyn, fmt.Sprintf("8*len(%s)", path))
		case TI32s:
			dyn = append(dyn, fmt.Sprintf("4*len(%s)", path))
		}
	}
	for _, p := range ps {
		if sd := g.f.structByName(p.Type); sd != nil {
			for _, fd := range sd.Fields {
				add(fd, prefix+p.Name+"."+exportName(fd.Name))
			}
			continue
		}
		add(p, prefix+p.Name)
	}
	expr := fmt.Sprintf("%d", fixed)
	if len(dyn) > 0 {
		expr += " + " + strings.Join(dyn, " + ")
	}
	return expr
}

func (g *gen) genMarshal(b *strings.Builder, enc string, ps []Param, prefix string) {
	for _, p := range ps {
		if g.f.structByName(p.Type) != nil {
			fmt.Fprintf(b, "\tenc%s(%s, %s%s)\n", p.Type, enc, prefix, p.Name)
			continue
		}
		fmt.Fprintf(b, "\t%s.%s(%s%s)\n", enc, types[p.Type].method, prefix, p.Name)
	}
}

func (g *gen) genUnmarshal(b *strings.Builder, dec string, ps []Param, prefix string) {
	g.genUnmarshalOp(b, dec, ps, prefix, ":=")
}

// genUnmarshalOp unmarshals with the given assignment operator: ":=" to
// declare fresh variables, "=" to fill named results already in scope.
func (g *gen) genUnmarshalOp(b *strings.Builder, dec string, ps []Param, prefix, op string) {
	for _, p := range ps {
		if g.f.structByName(p.Type) != nil {
			fmt.Fprintf(b, "\t%s%s %s dec%s(%s)\n", prefix, p.Name, op, p.Type, dec)
			continue
		}
		fmt.Fprintf(b, "\t%s%s %s %s.%s()\n", prefix, p.Name, op, dec, types[p.Type].method)
	}
}

// genStruct emits the Go type and its wire helpers for one IDL struct.
func (g *gen) genStruct(b *strings.Builder, s *StructDecl) {
	fmt.Fprintf(b, "// %s mirrors the IDL struct %s.\n", s.Name, s.Name)
	fmt.Fprintf(b, "type %s struct {\n", s.Name)
	for _, fd := range s.Fields {
		fmt.Fprintf(b, "\t%s %s\n", exportName(fd.Name), types[fd.Type].goType)
	}
	fmt.Fprintf(b, "}\n\n")

	fmt.Fprintf(b, "// enc%s marshals a %s in field order.\n", s.Name, s.Name)
	fmt.Fprintf(b, "func enc%s(e *rpc.Enc, v %s) {\n", s.Name, s.Name)
	for _, fd := range s.Fields {
		fmt.Fprintf(b, "\te.%s(v.%s)\n", types[fd.Type].method, exportName(fd.Name))
	}
	fmt.Fprintf(b, "}\n\n")

	fmt.Fprintf(b, "// dec%s unmarshals a %s in field order.\n", s.Name, s.Name)
	fmt.Fprintf(b, "func dec%s(d *rpc.Dec) %s {\n", s.Name, s.Name)
	fmt.Fprintf(b, "\tvar v %s\n", s.Name)
	for _, fd := range s.Fields {
		fmt.Fprintf(b, "\tv.%s = d.%s()\n", exportName(fd.Name), types[fd.Type].method)
	}
	fmt.Fprintf(b, "\treturn v\n")
	fmt.Fprintf(b, "}\n\n")
}

func (g *gen) genProc(b *strings.Builder, p *ProcDecl) {
	implSig := "func(e *oam.Env, caller int"
	if len(p.Ins) > 0 {
		implSig += ", " + g.goSig(p.Ins)
	}
	implSig += ")"
	if len(p.Outs) > 0 {
		implSig += " (" + g.goTypes(p.Outs) + ")"
	}

	// Impl type.
	fmt.Fprintf(b, "// %sImpl is the server-side body of %s.\n", p.Name, p.Name)
	fmt.Fprintf(b, "type %sImpl %s\n\n", p.Name, implSig)

	// Proc wrapper type.
	fmt.Fprintf(b, "// %sProc is the client handle for %s.\n", p.Name, p.Name)
	fmt.Fprintf(b, "type %sProc struct{ p *rpc.Proc }\n\n", p.Name)

	// Define (initialization routine).
	fmt.Fprintf(b, "// Define%s registers %s with rt and returns its handle.\n", p.Name, p.Name)
	fmt.Fprintf(b, "// Call it on every node before the simulation starts.\n")
	fmt.Fprintf(b, "func Define%s(rt *rpc.Runtime, impl %sImpl) %sProc {\n", p.Name, p.Name, p.Name)
	defineFn := "Define"
	if p.Async {
		defineFn = "DefineAsync"
	}
	fmt.Fprintf(b, "\tp := rt.%s(%q, func(e *oam.Env, caller int, arg []byte) []byte {\n", defineFn, p.Name)
	fmt.Fprintf(b, "\t\td := rpc.NewDec(arg)\n")
	g.genUnmarshal(b, "d", p.Ins, "a_")
	fmt.Fprintf(b, "\t\td.Done()\n")
	callExpr := fmt.Sprintf("impl(e, caller%s)",
		prependComma(names(p.Ins, "a_")))
	if len(p.Outs) > 0 {
		fmt.Fprintf(b, "\t\t%s := %s\n", names(p.Outs, "r_"), callExpr)
		fmt.Fprintf(b, "\t\tenc := rpc.NewEnc(%s)\n", g.encSize(p.Outs, "r_"))
		g.genMarshal(b, "enc", p.Outs, "r_")
		fmt.Fprintf(b, "\t\treturn rpc.Result(e, enc)\n")
	} else {
		fmt.Fprintf(b, "\t\t%s\n", callExpr)
		fmt.Fprintf(b, "\t\treturn nil\n")
	}
	fmt.Fprintf(b, "\t})\n")
	fmt.Fprintf(b, "\treturn %sProc{p}\n", p.Name)
	fmt.Fprintf(b, "}\n\n")

	// Client stub.
	if p.Async {
		fmt.Fprintf(b, "// CallAsync invokes %s on node server, fire-and-forget.\n", p.Name)
		fmt.Fprintf(b, "func (h %sProc) CallAsync(c threads.Ctx, server int%s) {\n",
			p.Name, prependComma(g.goSig(p.Ins)))
		fmt.Fprintf(b, "\tenc := rpc.NewEnc(%s)\n", g.encSize(p.Ins, ""))
		g.genMarshal(b, "enc", p.Ins, "")
		fmt.Fprintf(b, "\th.p.CallAsync(c, server, enc)\n")
		fmt.Fprintf(b, "}\n\n")
	} else {
		results := ""
		if len(p.Outs) > 0 {
			results = names(p.Outs, "r_") + ", "
		}
		fmt.Fprintf(b, "// Call invokes %s on node server and blocks for the reply.\n", p.Name)
		fmt.Fprintf(b, "func (h %sProc) Call(c threads.Ctx, server int%s)", p.Name, prependComma(g.goSig(p.Ins)))
		if len(p.Outs) > 0 {
			fmt.Fprintf(b, " (%s)", g.goTypes(p.Outs))
		}
		fmt.Fprintf(b, " {\n")
		fmt.Fprintf(b, "\tenc := rpc.NewEnc(%s)\n", g.encSize(p.Ins, ""))
		g.genMarshal(b, "enc", p.Ins, "")
		if len(p.Outs) > 0 {
			fmt.Fprintf(b, "\t%s_ := h.Reply(&rpc.Call{Rep: h.p.Call(c, server, enc)})\n", results)
			fmt.Fprintf(b, "\treturn %s\n", names(p.Outs, "r_"))
		} else {
			fmt.Fprintf(b, "\th.p.Call(c, server, enc)\n")
		}
		fmt.Fprintf(b, "}\n\n")

		// CallIdempotent stub: retry-with-deadline semantics for
		// procedures whose re-execution the server tolerates (reads, or
		// writes fenced by a request id). Named results make the
		// zero-value-plus-error contract explicit.
		fmt.Fprintf(b, "// CallIdempotent invokes %s on node server with a per-attempt\n", p.Name)
		fmt.Fprintf(b, "// deadline, retrying up to attempts times (see rpc.Proc.CallIdempotent).\n")
		fmt.Fprintf(b, "// Only safe when re-executing %s on the server is harmless. On\n", p.Name)
		fmt.Fprintf(b, "// error the results are zero values.\n")
		fmt.Fprintf(b, "func (h %sProc) CallIdempotent(c threads.Ctx, server int%s, per sim.Duration, attempts int)",
			p.Name, prependComma(g.goSig(p.Ins)))
		g.genResults(b, p)
		fmt.Fprintf(b, " {\n")
		fmt.Fprintf(b, "\tenc := rpc.NewEnc(%s)\n", g.encSize(p.Ins, ""))
		g.genMarshal(b, "enc", p.Ins, "")
		fmt.Fprintf(b, "\trep, err := h.p.CallIdempotent(c, server, enc, per, attempts)\n")
		fmt.Fprintf(b, "\treturn h.Reply(&rpc.Call{Rep: rep, Err: err})\n")
		fmt.Fprintf(b, "}\n\n")

		// The continuation spelling of CallIdempotent, over the same
		// encoder, and the one decoder every spelling reads its reply with.
		fmt.Fprintf(b, "// CallThen is CallIdempotent asked in kernel context for c.P, whose\n")
		fmt.Fprintf(b, "// thread holds c.S's CPU (see rpc.Proc.CallThen): the outcome is left\n")
		fmt.Fprintf(b, "// in out, for Reply, before k decides what c.P does.\n")
		fmt.Fprintf(b, "func (h %sProc) CallThen(c threads.Ctx, out *rpc.Call, server int%s, per sim.Duration, attempts int, k sim.Continuation) (sim.Next, sim.Duration) {\n",
			p.Name, prependComma(g.goSig(p.Ins)))
		fmt.Fprintf(b, "\tenc := rpc.NewEnc(%s)\n", g.encSize(p.Ins, ""))
		g.genMarshal(b, "enc", p.Ins, "")
		fmt.Fprintf(b, "\treturn h.p.CallThen(c, out, server, enc, per, attempts, k)\n")
		fmt.Fprintf(b, "}\n\n")

		fmt.Fprintf(b, "// Reply decodes the outcome of a call of %s. On error the results\n", p.Name)
		fmt.Fprintf(b, "// are zero values.\n")
		fmt.Fprintf(b, "func (h %sProc) Reply(out *rpc.Call)", p.Name)
		g.genResults(b, p)
		fmt.Fprintf(b, " {\n")
		if len(p.Outs) > 0 {
			fmt.Fprintf(b, "\tif err = out.Err; err != nil {\n")
			fmt.Fprintf(b, "\t\treturn\n")
			fmt.Fprintf(b, "\t}\n")
			fmt.Fprintf(b, "\tdec := rpc.NewDec(out.Rep.Bytes())\n")
			g.genUnmarshalOp(b, "dec", p.Outs, "r_", "=")
			fmt.Fprintf(b, "\tdec.Done()\n")
			fmt.Fprintf(b, "\treturn\n")
		} else {
			fmt.Fprintf(b, "\treturn out.Err\n")
		}
		fmt.Fprintf(b, "}\n\n")
	}

	// Stats (termination routine).
	fmt.Fprintf(b, "// Stats returns %s's counters (the termination routine's report).\n", p.Name)
	fmt.Fprintf(b, "func (h %sProc) Stats() rpc.ProcStats { return h.p.Stats() }\n\n", p.Name)
}

// genResults renders a synchronous stub's named results and error.
func (g *gen) genResults(b *strings.Builder, p *ProcDecl) {
	if len(p.Outs) > 0 {
		fmt.Fprintf(b, " (%s, err error)", g.goSig(outNames(p.Outs)))
	} else {
		fmt.Fprintf(b, " (err error)")
	}
}

// genCompat compiles the file's compatible clauses into a CompatSpec
// constructor: a symmetric oam.CompatTable over the service's procedures
// (class = declaration order) plus a key extractor for every procedure
// that participates in a disjoint(key) clause.
func (g *gen) genCompat(b *strings.Builder) {
	f := g.f
	idx := map[string]int{}
	for i := range f.Procs {
		idx[f.Procs[i].Name] = i
	}
	keyOf := map[string]string{}
	for _, cd := range f.Compat {
		if cd.Disjoint {
			keyOf[cd.A] = cd.KeyParam
			keyOf[cd.B] = cd.KeyParam
		}
	}

	fmt.Fprintf(b, "// CompatSpec returns the service's compatibility matrix and per-method\n")
	fmt.Fprintf(b, "// key extractors, compiled from the IDL's compatible clauses. Install it\n")
	fmt.Fprintf(b, "// with rt.SetCompat after every Define call; the dispatcher consults it\n")
	fmt.Fprintf(b, "// when multiactive dispatch (oam.Options.Cores > 1) is enabled.\n")
	fmt.Fprintf(b, "func CompatSpec() rpc.CompatSpec {\n")
	fmt.Fprintf(b, "\tt := oam.NewCompatTable(%d)\n", len(f.Procs))
	for _, cd := range f.Compat {
		if cd.Disjoint {
			fmt.Fprintf(b, "\tt.AllowDisjoint(%d, %d) // compatible %s %s when disjoint(%s)\n",
				idx[cd.A], idx[cd.B], cd.A, cd.B, cd.KeyParam)
		} else {
			fmt.Fprintf(b, "\tt.Allow(%d, %d) // compatible %s %s\n", idx[cd.A], idx[cd.B], cd.A, cd.B)
		}
	}
	fmt.Fprintf(b, "\treturn rpc.CompatSpec{Table: t, Methods: []rpc.CompatMethod{\n")
	for i := range f.Procs {
		p := &f.Procs[i]
		if _, keyed := keyOf[p.Name]; keyed {
			fmt.Fprintf(b, "\t\t{Name: %q, Key: key%s},\n", p.Name, p.Name)
		} else {
			fmt.Fprintf(b, "\t\t{Name: %q},\n", p.Name)
		}
	}
	fmt.Fprintf(b, "\t}}\n")
	fmt.Fprintf(b, "}\n\n")

	for i := range f.Procs {
		p := &f.Procs[i]
		key, keyed := keyOf[p.Name]
		if !keyed {
			continue
		}
		fmt.Fprintf(b, "// key%s extracts %s's disjointness key (%s) from a marshaled\n", p.Name, p.Name, key)
		fmt.Fprintf(b, "// argument frame, decoding past any earlier parameters.\n")
		fmt.Fprintf(b, "func key%s(arg []byte) uint64 {\n", p.Name)
		fmt.Fprintf(b, "\td := rpc.NewDec(arg)\n")
		for _, prm := range p.Ins {
			if prm.Name == key {
				fmt.Fprintf(b, "\treturn uint64(d.%s())\n", types[prm.Type].method)
				break
			}
			if g.f.structByName(prm.Type) != nil {
				fmt.Fprintf(b, "\tdec%s(d)\n", prm.Type)
			} else {
				fmt.Fprintf(b, "\td.%s()\n", types[prm.Type].method)
			}
		}
		fmt.Fprintf(b, "}\n\n")
	}
}

// outNames prefixes result parameter names with "r_" for named-return
// signatures, so they cannot collide with input parameter names.
func outNames(ps []Param) []Param {
	out := make([]Param, len(ps))
	for i, p := range ps {
		out[i] = Param{Name: "r_" + p.Name, Type: p.Type}
	}
	return out
}

func prependComma(s string) string {
	if s == "" {
		return ""
	}
	return ", " + s
}
