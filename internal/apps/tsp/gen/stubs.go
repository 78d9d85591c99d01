// Code generated by stubgen; DO NOT EDIT.

package tspgen

import (
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// GetJobImpl is the server-side body of GetJob.
type GetJobImpl func(e *oam.Env, caller int) ([]byte, bool)

// GetJobProc is the client handle for GetJob.
type GetJobProc struct{ p *rpc.Proc }

// DefineGetJob registers GetJob with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefineGetJob(rt *rpc.Runtime, impl GetJobImpl) GetJobProc {
	p := rt.Define("GetJob", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		d.Done()
		r_route, r_ok := impl(e, caller)
		enc := rpc.NewEnc(5 + len(r_route))
		enc.Buf(r_route)
		enc.Bool(r_ok)
		return rpc.Result(e, enc)
	})
	return GetJobProc{p}
}

// Call invokes GetJob on node server and blocks for the reply.
func (h GetJobProc) Call(c threads.Ctx, server int) ([]byte, bool) {
	enc := rpc.NewEnc(0)
	r_route, r_ok, _ := h.Reply(&rpc.Call{Rep: h.p.Call(c, server, enc)})
	return r_route, r_ok
}

// CallIdempotent invokes GetJob on node server with a per-attempt
// deadline, retrying up to attempts times (see rpc.Proc.CallIdempotent).
// Only safe when re-executing GetJob on the server is harmless. On
// error the results are zero values.
func (h GetJobProc) CallIdempotent(c threads.Ctx, server int, per sim.Duration, attempts int) (r_route []byte, r_ok bool, err error) {
	enc := rpc.NewEnc(0)
	rep, err := h.p.CallIdempotent(c, server, enc, per, attempts)
	return h.Reply(&rpc.Call{Rep: rep, Err: err})
}

// CallThen is CallIdempotent asked in kernel context for c.P, whose
// thread holds c.S's CPU (see rpc.Proc.CallThen): the outcome is left
// in out, for Reply, before k decides what c.P does.
func (h GetJobProc) CallThen(c threads.Ctx, out *rpc.Call, server int, per sim.Duration, attempts int, k sim.Continuation) (sim.Next, sim.Duration) {
	enc := rpc.NewEnc(0)
	return h.p.CallThen(c, out, server, enc, per, attempts, k)
}

// Reply decodes the outcome of a call of GetJob. On error the results
// are zero values.
func (h GetJobProc) Reply(out *rpc.Call) (r_route []byte, r_ok bool, err error) {
	if err = out.Err; err != nil {
		return
	}
	dec := rpc.NewDec(out.Rep.Bytes())
	r_route = dec.Buf()
	r_ok = dec.Bool()
	dec.Done()
	return
}

// Stats returns GetJob's counters (the termination routine's report).
func (h GetJobProc) Stats() rpc.ProcStats { return h.p.Stats() }

// BestImpl is the server-side body of Best.
type BestImpl func(e *oam.Env, caller int, tour int64)

// BestProc is the client handle for Best.
type BestProc struct{ p *rpc.Proc }

// DefineBest registers Best with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefineBest(rt *rpc.Runtime, impl BestImpl) BestProc {
	p := rt.DefineAsync("Best", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		a_tour := d.I64()
		d.Done()
		impl(e, caller, a_tour)
		return nil
	})
	return BestProc{p}
}

// CallAsync invokes Best on node server, fire-and-forget.
func (h BestProc) CallAsync(c threads.Ctx, server int, tour int64) {
	enc := rpc.NewEnc(8)
	enc.I64(tour)
	h.p.CallAsync(c, server, enc)
}

// Stats returns Best's counters (the termination routine's report).
func (h BestProc) Stats() rpc.ProcStats { return h.p.Stats() }
