// Code generated by stubgen; DO NOT EDIT.

package gentest

import (
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// Vec mirrors the IDL struct Vec.
type Vec struct {
	X float64
	Y float64
	Z float64
}

// encVec marshals a Vec in field order.
func encVec(e *rpc.Enc, v Vec) {
	e.F64(v.X)
	e.F64(v.Y)
	e.F64(v.Z)
}

// decVec unmarshals a Vec in field order.
func decVec(d *rpc.Dec) Vec {
	var v Vec
	v.X = d.F64()
	v.Y = d.F64()
	v.Z = d.F64()
	return v
}

// Record mirrors the IDL struct Record.
type Record struct {
	Id      uint64
	Label   string
	Payload []byte
}

// encRecord marshals a Record in field order.
func encRecord(e *rpc.Enc, v Record) {
	e.U64(v.Id)
	e.String(v.Label)
	e.Buf(v.Payload)
}

// decRecord unmarshals a Record in field order.
func decRecord(d *rpc.Dec) Record {
	var v Record
	v.Id = d.U64()
	v.Label = d.String()
	v.Payload = d.Buf()
	return v
}

// EchoImpl is the server-side body of Echo.
type EchoImpl func(e *oam.Env, caller int, b bool, i32 int32, i64 int64, u32 uint32, u64 uint64, f32 float32, f64 float64) (bool, int32, int64, uint32, uint64, float32, float64)

// EchoProc is the client handle for Echo.
type EchoProc struct{ p *rpc.Proc }

// DefineEcho registers Echo with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefineEcho(rt *rpc.Runtime, impl EchoImpl) EchoProc {
	p := rt.Define("Echo", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		a_b := d.Bool()
		a_i32 := d.I32()
		a_i64 := d.I64()
		a_u32 := d.U32()
		a_u64 := d.U64()
		a_f32 := d.F32()
		a_f64 := d.F64()
		d.Done()
		r_ob, r_oi32, r_oi64, r_ou32, r_ou64, r_of32, r_of64 := impl(e, caller, a_b, a_i32, a_i64, a_u32, a_u64, a_f32, a_f64)
		enc := rpc.NewEnc(37)
		enc.Bool(r_ob)
		enc.I32(r_oi32)
		enc.I64(r_oi64)
		enc.U32(r_ou32)
		enc.U64(r_ou64)
		enc.F32(r_of32)
		enc.F64(r_of64)
		return rpc.Result(e, enc)
	})
	return EchoProc{p}
}

// Call invokes Echo on node server and blocks for the reply.
func (h EchoProc) Call(c threads.Ctx, server int, b bool, i32 int32, i64 int64, u32 uint32, u64 uint64, f32 float32, f64 float64) (bool, int32, int64, uint32, uint64, float32, float64) {
	enc := rpc.NewEnc(37)
	enc.Bool(b)
	enc.I32(i32)
	enc.I64(i64)
	enc.U32(u32)
	enc.U64(u64)
	enc.F32(f32)
	enc.F64(f64)
	r_ob, r_oi32, r_oi64, r_ou32, r_ou64, r_of32, r_of64, _ := h.Reply(&rpc.Call{Rep: h.p.Call(c, server, enc)})
	return r_ob, r_oi32, r_oi64, r_ou32, r_ou64, r_of32, r_of64
}

// CallIdempotent invokes Echo on node server with a per-attempt
// deadline, retrying up to attempts times (see rpc.Proc.CallIdempotent).
// Only safe when re-executing Echo on the server is harmless. On
// error the results are zero values.
func (h EchoProc) CallIdempotent(c threads.Ctx, server int, b bool, i32 int32, i64 int64, u32 uint32, u64 uint64, f32 float32, f64 float64, per sim.Duration, attempts int) (r_ob bool, r_oi32 int32, r_oi64 int64, r_ou32 uint32, r_ou64 uint64, r_of32 float32, r_of64 float64, err error) {
	enc := rpc.NewEnc(37)
	enc.Bool(b)
	enc.I32(i32)
	enc.I64(i64)
	enc.U32(u32)
	enc.U64(u64)
	enc.F32(f32)
	enc.F64(f64)
	rep, err := h.p.CallIdempotent(c, server, enc, per, attempts)
	return h.Reply(&rpc.Call{Rep: rep, Err: err})
}

// CallThen is CallIdempotent asked in kernel context for c.P, whose
// thread holds c.S's CPU (see rpc.Proc.CallThen): the outcome is left
// in out, for Reply, before k decides what c.P does.
func (h EchoProc) CallThen(c threads.Ctx, out *rpc.Call, server int, b bool, i32 int32, i64 int64, u32 uint32, u64 uint64, f32 float32, f64 float64, per sim.Duration, attempts int, k sim.Continuation) (sim.Next, sim.Duration) {
	enc := rpc.NewEnc(37)
	enc.Bool(b)
	enc.I32(i32)
	enc.I64(i64)
	enc.U32(u32)
	enc.U64(u64)
	enc.F32(f32)
	enc.F64(f64)
	return h.p.CallThen(c, out, server, enc, per, attempts, k)
}

// Reply decodes the outcome of a call of Echo. On error the results
// are zero values.
func (h EchoProc) Reply(out *rpc.Call) (r_ob bool, r_oi32 int32, r_oi64 int64, r_ou32 uint32, r_ou64 uint64, r_of32 float32, r_of64 float64, err error) {
	if err = out.Err; err != nil {
		return
	}
	dec := rpc.NewDec(out.Rep.Bytes())
	r_ob = dec.Bool()
	r_oi32 = dec.I32()
	r_oi64 = dec.I64()
	r_ou32 = dec.U32()
	r_ou64 = dec.U64()
	r_of32 = dec.F32()
	r_of64 = dec.F64()
	dec.Done()
	return
}

// Stats returns Echo's counters (the termination routine's report).
func (h EchoProc) Stats() rpc.ProcStats { return h.p.Stats() }

// BuffersImpl is the server-side body of Buffers.
type BuffersImpl func(e *oam.Env, caller int, raw []byte, s string, fs []float64, is []int32, us []uint64) ([]byte, string, []float64, []int32, []uint64)

// BuffersProc is the client handle for Buffers.
type BuffersProc struct{ p *rpc.Proc }

// DefineBuffers registers Buffers with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefineBuffers(rt *rpc.Runtime, impl BuffersImpl) BuffersProc {
	p := rt.Define("Buffers", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		a_raw := d.Buf()
		a_s := d.String()
		a_fs := d.F64s()
		a_is := d.I32s()
		a_us := d.U64s()
		d.Done()
		r_oraw, r_os, r_ofs, r_ois, r_ous := impl(e, caller, a_raw, a_s, a_fs, a_is, a_us)
		enc := rpc.NewEnc(20 + len(r_oraw) + len(r_os) + 8*len(r_ofs) + 4*len(r_ois) + 8*len(r_ous))
		enc.Buf(r_oraw)
		enc.String(r_os)
		enc.F64s(r_ofs)
		enc.I32s(r_ois)
		enc.U64s(r_ous)
		return rpc.Result(e, enc)
	})
	return BuffersProc{p}
}

// Call invokes Buffers on node server and blocks for the reply.
func (h BuffersProc) Call(c threads.Ctx, server int, raw []byte, s string, fs []float64, is []int32, us []uint64) ([]byte, string, []float64, []int32, []uint64) {
	enc := rpc.NewEnc(20 + len(raw) + len(s) + 8*len(fs) + 4*len(is) + 8*len(us))
	enc.Buf(raw)
	enc.String(s)
	enc.F64s(fs)
	enc.I32s(is)
	enc.U64s(us)
	r_oraw, r_os, r_ofs, r_ois, r_ous, _ := h.Reply(&rpc.Call{Rep: h.p.Call(c, server, enc)})
	return r_oraw, r_os, r_ofs, r_ois, r_ous
}

// CallIdempotent invokes Buffers on node server with a per-attempt
// deadline, retrying up to attempts times (see rpc.Proc.CallIdempotent).
// Only safe when re-executing Buffers on the server is harmless. On
// error the results are zero values.
func (h BuffersProc) CallIdempotent(c threads.Ctx, server int, raw []byte, s string, fs []float64, is []int32, us []uint64, per sim.Duration, attempts int) (r_oraw []byte, r_os string, r_ofs []float64, r_ois []int32, r_ous []uint64, err error) {
	enc := rpc.NewEnc(20 + len(raw) + len(s) + 8*len(fs) + 4*len(is) + 8*len(us))
	enc.Buf(raw)
	enc.String(s)
	enc.F64s(fs)
	enc.I32s(is)
	enc.U64s(us)
	rep, err := h.p.CallIdempotent(c, server, enc, per, attempts)
	return h.Reply(&rpc.Call{Rep: rep, Err: err})
}

// CallThen is CallIdempotent asked in kernel context for c.P, whose
// thread holds c.S's CPU (see rpc.Proc.CallThen): the outcome is left
// in out, for Reply, before k decides what c.P does.
func (h BuffersProc) CallThen(c threads.Ctx, out *rpc.Call, server int, raw []byte, s string, fs []float64, is []int32, us []uint64, per sim.Duration, attempts int, k sim.Continuation) (sim.Next, sim.Duration) {
	enc := rpc.NewEnc(20 + len(raw) + len(s) + 8*len(fs) + 4*len(is) + 8*len(us))
	enc.Buf(raw)
	enc.String(s)
	enc.F64s(fs)
	enc.I32s(is)
	enc.U64s(us)
	return h.p.CallThen(c, out, server, enc, per, attempts, k)
}

// Reply decodes the outcome of a call of Buffers. On error the results
// are zero values.
func (h BuffersProc) Reply(out *rpc.Call) (r_oraw []byte, r_os string, r_ofs []float64, r_ois []int32, r_ous []uint64, err error) {
	if err = out.Err; err != nil {
		return
	}
	dec := rpc.NewDec(out.Rep.Bytes())
	r_oraw = dec.Buf()
	r_os = dec.String()
	r_ofs = dec.F64s()
	r_ois = dec.I32s()
	r_ous = dec.U64s()
	dec.Done()
	return
}

// Stats returns Buffers's counters (the termination routine's report).
func (h BuffersProc) Stats() rpc.ProcStats { return h.p.Stats() }

// NoArgsImpl is the server-side body of NoArgs.
type NoArgsImpl func(e *oam.Env, caller int) int64

// NoArgsProc is the client handle for NoArgs.
type NoArgsProc struct{ p *rpc.Proc }

// DefineNoArgs registers NoArgs with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefineNoArgs(rt *rpc.Runtime, impl NoArgsImpl) NoArgsProc {
	p := rt.Define("NoArgs", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		d.Done()
		r_x := impl(e, caller)
		enc := rpc.NewEnc(8)
		enc.I64(r_x)
		return rpc.Result(e, enc)
	})
	return NoArgsProc{p}
}

// Call invokes NoArgs on node server and blocks for the reply.
func (h NoArgsProc) Call(c threads.Ctx, server int) int64 {
	enc := rpc.NewEnc(0)
	r_x, _ := h.Reply(&rpc.Call{Rep: h.p.Call(c, server, enc)})
	return r_x
}

// CallIdempotent invokes NoArgs on node server with a per-attempt
// deadline, retrying up to attempts times (see rpc.Proc.CallIdempotent).
// Only safe when re-executing NoArgs on the server is harmless. On
// error the results are zero values.
func (h NoArgsProc) CallIdempotent(c threads.Ctx, server int, per sim.Duration, attempts int) (r_x int64, err error) {
	enc := rpc.NewEnc(0)
	rep, err := h.p.CallIdempotent(c, server, enc, per, attempts)
	return h.Reply(&rpc.Call{Rep: rep, Err: err})
}

// CallThen is CallIdempotent asked in kernel context for c.P, whose
// thread holds c.S's CPU (see rpc.Proc.CallThen): the outcome is left
// in out, for Reply, before k decides what c.P does.
func (h NoArgsProc) CallThen(c threads.Ctx, out *rpc.Call, server int, per sim.Duration, attempts int, k sim.Continuation) (sim.Next, sim.Duration) {
	enc := rpc.NewEnc(0)
	return h.p.CallThen(c, out, server, enc, per, attempts, k)
}

// Reply decodes the outcome of a call of NoArgs. On error the results
// are zero values.
func (h NoArgsProc) Reply(out *rpc.Call) (r_x int64, err error) {
	if err = out.Err; err != nil {
		return
	}
	dec := rpc.NewDec(out.Rep.Bytes())
	r_x = dec.I64()
	dec.Done()
	return
}

// Stats returns NoArgs's counters (the termination routine's report).
func (h NoArgsProc) Stats() rpc.ProcStats { return h.p.Stats() }

// NoResultsImpl is the server-side body of NoResults.
type NoResultsImpl func(e *oam.Env, caller int, x int64)

// NoResultsProc is the client handle for NoResults.
type NoResultsProc struct{ p *rpc.Proc }

// DefineNoResults registers NoResults with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefineNoResults(rt *rpc.Runtime, impl NoResultsImpl) NoResultsProc {
	p := rt.Define("NoResults", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		a_x := d.I64()
		d.Done()
		impl(e, caller, a_x)
		return nil
	})
	return NoResultsProc{p}
}

// Call invokes NoResults on node server and blocks for the reply.
func (h NoResultsProc) Call(c threads.Ctx, server int, x int64) {
	enc := rpc.NewEnc(8)
	enc.I64(x)
	h.p.Call(c, server, enc)
}

// CallIdempotent invokes NoResults on node server with a per-attempt
// deadline, retrying up to attempts times (see rpc.Proc.CallIdempotent).
// Only safe when re-executing NoResults on the server is harmless. On
// error the results are zero values.
func (h NoResultsProc) CallIdempotent(c threads.Ctx, server int, x int64, per sim.Duration, attempts int) (err error) {
	enc := rpc.NewEnc(8)
	enc.I64(x)
	rep, err := h.p.CallIdempotent(c, server, enc, per, attempts)
	return h.Reply(&rpc.Call{Rep: rep, Err: err})
}

// CallThen is CallIdempotent asked in kernel context for c.P, whose
// thread holds c.S's CPU (see rpc.Proc.CallThen): the outcome is left
// in out, for Reply, before k decides what c.P does.
func (h NoResultsProc) CallThen(c threads.Ctx, out *rpc.Call, server int, x int64, per sim.Duration, attempts int, k sim.Continuation) (sim.Next, sim.Duration) {
	enc := rpc.NewEnc(8)
	enc.I64(x)
	return h.p.CallThen(c, out, server, enc, per, attempts, k)
}

// Reply decodes the outcome of a call of NoResults. On error the results
// are zero values.
func (h NoResultsProc) Reply(out *rpc.Call) (err error) {
	return out.Err
}

// Stats returns NoResults's counters (the termination routine's report).
func (h NoResultsProc) Stats() rpc.ProcStats { return h.p.Stats() }

// NothingImpl is the server-side body of Nothing.
type NothingImpl func(e *oam.Env, caller int)

// NothingProc is the client handle for Nothing.
type NothingProc struct{ p *rpc.Proc }

// DefineNothing registers Nothing with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefineNothing(rt *rpc.Runtime, impl NothingImpl) NothingProc {
	p := rt.Define("Nothing", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		d.Done()
		impl(e, caller)
		return nil
	})
	return NothingProc{p}
}

// Call invokes Nothing on node server and blocks for the reply.
func (h NothingProc) Call(c threads.Ctx, server int) {
	enc := rpc.NewEnc(0)
	h.p.Call(c, server, enc)
}

// CallIdempotent invokes Nothing on node server with a per-attempt
// deadline, retrying up to attempts times (see rpc.Proc.CallIdempotent).
// Only safe when re-executing Nothing on the server is harmless. On
// error the results are zero values.
func (h NothingProc) CallIdempotent(c threads.Ctx, server int, per sim.Duration, attempts int) (err error) {
	enc := rpc.NewEnc(0)
	rep, err := h.p.CallIdempotent(c, server, enc, per, attempts)
	return h.Reply(&rpc.Call{Rep: rep, Err: err})
}

// CallThen is CallIdempotent asked in kernel context for c.P, whose
// thread holds c.S's CPU (see rpc.Proc.CallThen): the outcome is left
// in out, for Reply, before k decides what c.P does.
func (h NothingProc) CallThen(c threads.Ctx, out *rpc.Call, server int, per sim.Duration, attempts int, k sim.Continuation) (sim.Next, sim.Duration) {
	enc := rpc.NewEnc(0)
	return h.p.CallThen(c, out, server, enc, per, attempts, k)
}

// Reply decodes the outcome of a call of Nothing. On error the results
// are zero values.
func (h NothingProc) Reply(out *rpc.Call) (err error) {
	return out.Err
}

// Stats returns Nothing's counters (the termination routine's report).
func (h NothingProc) Stats() rpc.ProcStats { return h.p.Stats() }

// FireImpl is the server-side body of Fire.
type FireImpl func(e *oam.Env, caller int, tag uint64)

// FireProc is the client handle for Fire.
type FireProc struct{ p *rpc.Proc }

// DefineFire registers Fire with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefineFire(rt *rpc.Runtime, impl FireImpl) FireProc {
	p := rt.DefineAsync("Fire", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		a_tag := d.U64()
		d.Done()
		impl(e, caller, a_tag)
		return nil
	})
	return FireProc{p}
}

// CallAsync invokes Fire on node server, fire-and-forget.
func (h FireProc) CallAsync(c threads.Ctx, server int, tag uint64) {
	enc := rpc.NewEnc(8)
	enc.U64(tag)
	h.p.CallAsync(c, server, enc)
}

// Stats returns Fire's counters (the termination routine's report).
func (h FireProc) Stats() rpc.ProcStats { return h.p.Stats() }

// DotImpl is the server-side body of Dot.
type DotImpl func(e *oam.Env, caller int, a Vec, b Vec) float64

// DotProc is the client handle for Dot.
type DotProc struct{ p *rpc.Proc }

// DefineDot registers Dot with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefineDot(rt *rpc.Runtime, impl DotImpl) DotProc {
	p := rt.Define("Dot", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		a_a := decVec(d)
		a_b := decVec(d)
		d.Done()
		r_d := impl(e, caller, a_a, a_b)
		enc := rpc.NewEnc(8)
		enc.F64(r_d)
		return rpc.Result(e, enc)
	})
	return DotProc{p}
}

// Call invokes Dot on node server and blocks for the reply.
func (h DotProc) Call(c threads.Ctx, server int, a Vec, b Vec) float64 {
	enc := rpc.NewEnc(48)
	encVec(enc, a)
	encVec(enc, b)
	r_d, _ := h.Reply(&rpc.Call{Rep: h.p.Call(c, server, enc)})
	return r_d
}

// CallIdempotent invokes Dot on node server with a per-attempt
// deadline, retrying up to attempts times (see rpc.Proc.CallIdempotent).
// Only safe when re-executing Dot on the server is harmless. On
// error the results are zero values.
func (h DotProc) CallIdempotent(c threads.Ctx, server int, a Vec, b Vec, per sim.Duration, attempts int) (r_d float64, err error) {
	enc := rpc.NewEnc(48)
	encVec(enc, a)
	encVec(enc, b)
	rep, err := h.p.CallIdempotent(c, server, enc, per, attempts)
	return h.Reply(&rpc.Call{Rep: rep, Err: err})
}

// CallThen is CallIdempotent asked in kernel context for c.P, whose
// thread holds c.S's CPU (see rpc.Proc.CallThen): the outcome is left
// in out, for Reply, before k decides what c.P does.
func (h DotProc) CallThen(c threads.Ctx, out *rpc.Call, server int, a Vec, b Vec, per sim.Duration, attempts int, k sim.Continuation) (sim.Next, sim.Duration) {
	enc := rpc.NewEnc(48)
	encVec(enc, a)
	encVec(enc, b)
	return h.p.CallThen(c, out, server, enc, per, attempts, k)
}

// Reply decodes the outcome of a call of Dot. On error the results
// are zero values.
func (h DotProc) Reply(out *rpc.Call) (r_d float64, err error) {
	if err = out.Err; err != nil {
		return
	}
	dec := rpc.NewDec(out.Rep.Bytes())
	r_d = dec.F64()
	dec.Done()
	return
}

// Stats returns Dot's counters (the termination routine's report).
func (h DotProc) Stats() rpc.ProcStats { return h.p.Stats() }

// TagImpl is the server-side body of Tag.
type TagImpl func(e *oam.Env, caller int, r Record) Record

// TagProc is the client handle for Tag.
type TagProc struct{ p *rpc.Proc }

// DefineTag registers Tag with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefineTag(rt *rpc.Runtime, impl TagImpl) TagProc {
	p := rt.Define("Tag", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		a_r := decRecord(d)
		d.Done()
		r_out := impl(e, caller, a_r)
		enc := rpc.NewEnc(16 + len(r_out.Label) + len(r_out.Payload))
		encRecord(enc, r_out)
		return rpc.Result(e, enc)
	})
	return TagProc{p}
}

// Call invokes Tag on node server and blocks for the reply.
func (h TagProc) Call(c threads.Ctx, server int, r Record) Record {
	enc := rpc.NewEnc(16 + len(r.Label) + len(r.Payload))
	encRecord(enc, r)
	r_out, _ := h.Reply(&rpc.Call{Rep: h.p.Call(c, server, enc)})
	return r_out
}

// CallIdempotent invokes Tag on node server with a per-attempt
// deadline, retrying up to attempts times (see rpc.Proc.CallIdempotent).
// Only safe when re-executing Tag on the server is harmless. On
// error the results are zero values.
func (h TagProc) CallIdempotent(c threads.Ctx, server int, r Record, per sim.Duration, attempts int) (r_out Record, err error) {
	enc := rpc.NewEnc(16 + len(r.Label) + len(r.Payload))
	encRecord(enc, r)
	rep, err := h.p.CallIdempotent(c, server, enc, per, attempts)
	return h.Reply(&rpc.Call{Rep: rep, Err: err})
}

// CallThen is CallIdempotent asked in kernel context for c.P, whose
// thread holds c.S's CPU (see rpc.Proc.CallThen): the outcome is left
// in out, for Reply, before k decides what c.P does.
func (h TagProc) CallThen(c threads.Ctx, out *rpc.Call, server int, r Record, per sim.Duration, attempts int, k sim.Continuation) (sim.Next, sim.Duration) {
	enc := rpc.NewEnc(16 + len(r.Label) + len(r.Payload))
	encRecord(enc, r)
	return h.p.CallThen(c, out, server, enc, per, attempts, k)
}

// Reply decodes the outcome of a call of Tag. On error the results
// are zero values.
func (h TagProc) Reply(out *rpc.Call) (r_out Record, err error) {
	if err = out.Err; err != nil {
		return
	}
	dec := rpc.NewDec(out.Rep.Bytes())
	r_out = decRecord(dec)
	dec.Done()
	return
}

// Stats returns Tag's counters (the termination routine's report).
func (h TagProc) Stats() rpc.ProcStats { return h.p.Stats() }

// CompatSpec returns the service's compatibility matrix and per-method
// key extractors, compiled from the IDL's compatible clauses. Install it
// with rt.SetCompat after every Define call; the dispatcher consults it
// when multiactive dispatch (oam.Options.Cores > 1) is enabled.
func CompatSpec() rpc.CompatSpec {
	t := oam.NewCompatTable(8)
	t.Allow(2, 2)         // compatible NoArgs NoArgs
	t.Allow(2, 3)         // compatible NoArgs NoResults
	t.AllowDisjoint(0, 0) // compatible Echo Echo when disjoint(i64)
	t.AllowDisjoint(3, 3) // compatible NoResults NoResults when disjoint(x)
	return rpc.CompatSpec{Table: t, Methods: []rpc.CompatMethod{
		{Name: "Echo", Key: keyEcho},
		{Name: "Buffers"},
		{Name: "NoArgs"},
		{Name: "NoResults", Key: keyNoResults},
		{Name: "Nothing"},
		{Name: "Fire"},
		{Name: "Dot"},
		{Name: "Tag"},
	}}
}

// keyEcho extracts Echo's disjointness key (i64) from a marshaled
// argument frame, decoding past any earlier parameters.
func keyEcho(arg []byte) uint64 {
	d := rpc.NewDec(arg)
	d.Bool()
	d.I32()
	return uint64(d.I64())
}

// keyNoResults extracts NoResults's disjointness key (x) from a marshaled
// argument frame, decoding past any earlier parameters.
func keyNoResults(arg []byte) uint64 {
	d := rpc.NewDec(arg)
	return uint64(d.I64())
}
