// Code generated by stubgen; DO NOT EDIT.

package kvgen

import (
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// GetImpl is the server-side body of Get.
type GetImpl func(e *oam.Env, caller int, key uint32) (uint32, uint32, int32)

// GetProc is the client handle for Get.
type GetProc struct{ p *rpc.Proc }

// DefineGet registers Get with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefineGet(rt *rpc.Runtime, impl GetImpl) GetProc {
	p := rt.Define("Get", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		a_key := d.U32()
		d.Done()
		r_status, r_ver, r_val := impl(e, caller, a_key)
		enc := rpc.NewEnc(12)
		enc.U32(r_status)
		enc.U32(r_ver)
		enc.I32(r_val)
		return rpc.Result(e, enc)
	})
	return GetProc{p}
}

// Call invokes Get on node server and blocks for the reply.
func (h GetProc) Call(c threads.Ctx, server int, key uint32) (uint32, uint32, int32) {
	enc := rpc.NewEnc(4)
	enc.U32(key)
	r_status, r_ver, r_val, _ := h.Reply(&rpc.Call{Rep: h.p.Call(c, server, enc)})
	return r_status, r_ver, r_val
}

// CallIdempotent invokes Get on node server with a per-attempt
// deadline, retrying up to attempts times (see rpc.Proc.CallIdempotent).
// Only safe when re-executing Get on the server is harmless. On
// error the results are zero values.
func (h GetProc) CallIdempotent(c threads.Ctx, server int, key uint32, per sim.Duration, attempts int) (r_status uint32, r_ver uint32, r_val int32, err error) {
	enc := rpc.NewEnc(4)
	enc.U32(key)
	rep, err := h.p.CallIdempotent(c, server, enc, per, attempts)
	return h.Reply(&rpc.Call{Rep: rep, Err: err})
}

// CallThen is CallIdempotent asked in kernel context for c.P, whose
// thread holds c.S's CPU (see rpc.Proc.CallThen): the outcome is left
// in out, for Reply, before k decides what c.P does.
func (h GetProc) CallThen(c threads.Ctx, out *rpc.Call, server int, key uint32, per sim.Duration, attempts int, k sim.Continuation) (sim.Next, sim.Duration) {
	enc := rpc.NewEnc(4)
	enc.U32(key)
	return h.p.CallThen(c, out, server, enc, per, attempts, k)
}

// Reply decodes the outcome of a call of Get. On error the results
// are zero values.
func (h GetProc) Reply(out *rpc.Call) (r_status uint32, r_ver uint32, r_val int32, err error) {
	if err = out.Err; err != nil {
		return
	}
	dec := rpc.NewDec(out.Rep.Bytes())
	r_status = dec.U32()
	r_ver = dec.U32()
	r_val = dec.I32()
	dec.Done()
	return
}

// Stats returns Get's counters (the termination routine's report).
func (h GetProc) Stats() rpc.ProcStats { return h.p.Stats() }

// PutImpl is the server-side body of Put.
type PutImpl func(e *oam.Env, caller int, key uint32, req uint32, val int32) (uint32, uint32)

// PutProc is the client handle for Put.
type PutProc struct{ p *rpc.Proc }

// DefinePut registers Put with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefinePut(rt *rpc.Runtime, impl PutImpl) PutProc {
	p := rt.Define("Put", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		a_key := d.U32()
		a_req := d.U32()
		a_val := d.I32()
		d.Done()
		r_status, r_ver := impl(e, caller, a_key, a_req, a_val)
		enc := rpc.NewEnc(8)
		enc.U32(r_status)
		enc.U32(r_ver)
		return rpc.Result(e, enc)
	})
	return PutProc{p}
}

// Call invokes Put on node server and blocks for the reply.
func (h PutProc) Call(c threads.Ctx, server int, key uint32, req uint32, val int32) (uint32, uint32) {
	enc := rpc.NewEnc(12)
	enc.U32(key)
	enc.U32(req)
	enc.I32(val)
	r_status, r_ver, _ := h.Reply(&rpc.Call{Rep: h.p.Call(c, server, enc)})
	return r_status, r_ver
}

// CallIdempotent invokes Put on node server with a per-attempt
// deadline, retrying up to attempts times (see rpc.Proc.CallIdempotent).
// Only safe when re-executing Put on the server is harmless. On
// error the results are zero values.
func (h PutProc) CallIdempotent(c threads.Ctx, server int, key uint32, req uint32, val int32, per sim.Duration, attempts int) (r_status uint32, r_ver uint32, err error) {
	enc := rpc.NewEnc(12)
	enc.U32(key)
	enc.U32(req)
	enc.I32(val)
	rep, err := h.p.CallIdempotent(c, server, enc, per, attempts)
	return h.Reply(&rpc.Call{Rep: rep, Err: err})
}

// CallThen is CallIdempotent asked in kernel context for c.P, whose
// thread holds c.S's CPU (see rpc.Proc.CallThen): the outcome is left
// in out, for Reply, before k decides what c.P does.
func (h PutProc) CallThen(c threads.Ctx, out *rpc.Call, server int, key uint32, req uint32, val int32, per sim.Duration, attempts int, k sim.Continuation) (sim.Next, sim.Duration) {
	enc := rpc.NewEnc(12)
	enc.U32(key)
	enc.U32(req)
	enc.I32(val)
	return h.p.CallThen(c, out, server, enc, per, attempts, k)
}

// Reply decodes the outcome of a call of Put. On error the results
// are zero values.
func (h PutProc) Reply(out *rpc.Call) (r_status uint32, r_ver uint32, err error) {
	if err = out.Err; err != nil {
		return
	}
	dec := rpc.NewDec(out.Rep.Bytes())
	r_status = dec.U32()
	r_ver = dec.U32()
	dec.Done()
	return
}

// Stats returns Put's counters (the termination routine's report).
func (h PutProc) Stats() rpc.ProcStats { return h.p.Stats() }

// CasImpl is the server-side body of Cas.
type CasImpl func(e *oam.Env, caller int, key uint32, req uint32, expect uint32, val int32) (uint32, uint32, bool)

// CasProc is the client handle for Cas.
type CasProc struct{ p *rpc.Proc }

// DefineCas registers Cas with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefineCas(rt *rpc.Runtime, impl CasImpl) CasProc {
	p := rt.Define("Cas", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		a_key := d.U32()
		a_req := d.U32()
		a_expect := d.U32()
		a_val := d.I32()
		d.Done()
		r_status, r_ver, r_swapped := impl(e, caller, a_key, a_req, a_expect, a_val)
		enc := rpc.NewEnc(9)
		enc.U32(r_status)
		enc.U32(r_ver)
		enc.Bool(r_swapped)
		return rpc.Result(e, enc)
	})
	return CasProc{p}
}

// Call invokes Cas on node server and blocks for the reply.
func (h CasProc) Call(c threads.Ctx, server int, key uint32, req uint32, expect uint32, val int32) (uint32, uint32, bool) {
	enc := rpc.NewEnc(16)
	enc.U32(key)
	enc.U32(req)
	enc.U32(expect)
	enc.I32(val)
	r_status, r_ver, r_swapped, _ := h.Reply(&rpc.Call{Rep: h.p.Call(c, server, enc)})
	return r_status, r_ver, r_swapped
}

// CallIdempotent invokes Cas on node server with a per-attempt
// deadline, retrying up to attempts times (see rpc.Proc.CallIdempotent).
// Only safe when re-executing Cas on the server is harmless. On
// error the results are zero values.
func (h CasProc) CallIdempotent(c threads.Ctx, server int, key uint32, req uint32, expect uint32, val int32, per sim.Duration, attempts int) (r_status uint32, r_ver uint32, r_swapped bool, err error) {
	enc := rpc.NewEnc(16)
	enc.U32(key)
	enc.U32(req)
	enc.U32(expect)
	enc.I32(val)
	rep, err := h.p.CallIdempotent(c, server, enc, per, attempts)
	return h.Reply(&rpc.Call{Rep: rep, Err: err})
}

// CallThen is CallIdempotent asked in kernel context for c.P, whose
// thread holds c.S's CPU (see rpc.Proc.CallThen): the outcome is left
// in out, for Reply, before k decides what c.P does.
func (h CasProc) CallThen(c threads.Ctx, out *rpc.Call, server int, key uint32, req uint32, expect uint32, val int32, per sim.Duration, attempts int, k sim.Continuation) (sim.Next, sim.Duration) {
	enc := rpc.NewEnc(16)
	enc.U32(key)
	enc.U32(req)
	enc.U32(expect)
	enc.I32(val)
	return h.p.CallThen(c, out, server, enc, per, attempts, k)
}

// Reply decodes the outcome of a call of Cas. On error the results
// are zero values.
func (h CasProc) Reply(out *rpc.Call) (r_status uint32, r_ver uint32, r_swapped bool, err error) {
	if err = out.Err; err != nil {
		return
	}
	dec := rpc.NewDec(out.Rep.Bytes())
	r_status = dec.U32()
	r_ver = dec.U32()
	r_swapped = dec.Bool()
	dec.Done()
	return
}

// Stats returns Cas's counters (the termination routine's report).
func (h CasProc) Stats() rpc.ProcStats { return h.p.Stats() }

// LockImpl is the server-side body of Lock.
type LockImpl func(e *oam.Env, caller int, key uint32, req uint32) (uint32, uint32)

// LockProc is the client handle for Lock.
type LockProc struct{ p *rpc.Proc }

// DefineLock registers Lock with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefineLock(rt *rpc.Runtime, impl LockImpl) LockProc {
	p := rt.Define("Lock", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		a_key := d.U32()
		a_req := d.U32()
		d.Done()
		r_status, r_epoch := impl(e, caller, a_key, a_req)
		enc := rpc.NewEnc(8)
		enc.U32(r_status)
		enc.U32(r_epoch)
		return rpc.Result(e, enc)
	})
	return LockProc{p}
}

// Call invokes Lock on node server and blocks for the reply.
func (h LockProc) Call(c threads.Ctx, server int, key uint32, req uint32) (uint32, uint32) {
	enc := rpc.NewEnc(8)
	enc.U32(key)
	enc.U32(req)
	r_status, r_epoch, _ := h.Reply(&rpc.Call{Rep: h.p.Call(c, server, enc)})
	return r_status, r_epoch
}

// CallIdempotent invokes Lock on node server with a per-attempt
// deadline, retrying up to attempts times (see rpc.Proc.CallIdempotent).
// Only safe when re-executing Lock on the server is harmless. On
// error the results are zero values.
func (h LockProc) CallIdempotent(c threads.Ctx, server int, key uint32, req uint32, per sim.Duration, attempts int) (r_status uint32, r_epoch uint32, err error) {
	enc := rpc.NewEnc(8)
	enc.U32(key)
	enc.U32(req)
	rep, err := h.p.CallIdempotent(c, server, enc, per, attempts)
	return h.Reply(&rpc.Call{Rep: rep, Err: err})
}

// CallThen is CallIdempotent asked in kernel context for c.P, whose
// thread holds c.S's CPU (see rpc.Proc.CallThen): the outcome is left
// in out, for Reply, before k decides what c.P does.
func (h LockProc) CallThen(c threads.Ctx, out *rpc.Call, server int, key uint32, req uint32, per sim.Duration, attempts int, k sim.Continuation) (sim.Next, sim.Duration) {
	enc := rpc.NewEnc(8)
	enc.U32(key)
	enc.U32(req)
	return h.p.CallThen(c, out, server, enc, per, attempts, k)
}

// Reply decodes the outcome of a call of Lock. On error the results
// are zero values.
func (h LockProc) Reply(out *rpc.Call) (r_status uint32, r_epoch uint32, err error) {
	if err = out.Err; err != nil {
		return
	}
	dec := rpc.NewDec(out.Rep.Bytes())
	r_status = dec.U32()
	r_epoch = dec.U32()
	dec.Done()
	return
}

// Stats returns Lock's counters (the termination routine's report).
func (h LockProc) Stats() rpc.ProcStats { return h.p.Stats() }

// UnlockImpl is the server-side body of Unlock.
type UnlockImpl func(e *oam.Env, caller int, key uint32, req uint32, epoch uint32) (uint32, bool)

// UnlockProc is the client handle for Unlock.
type UnlockProc struct{ p *rpc.Proc }

// DefineUnlock registers Unlock with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefineUnlock(rt *rpc.Runtime, impl UnlockImpl) UnlockProc {
	p := rt.Define("Unlock", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		a_key := d.U32()
		a_req := d.U32()
		a_epoch := d.U32()
		d.Done()
		r_status, r_released := impl(e, caller, a_key, a_req, a_epoch)
		enc := rpc.NewEnc(5)
		enc.U32(r_status)
		enc.Bool(r_released)
		return rpc.Result(e, enc)
	})
	return UnlockProc{p}
}

// Call invokes Unlock on node server and blocks for the reply.
func (h UnlockProc) Call(c threads.Ctx, server int, key uint32, req uint32, epoch uint32) (uint32, bool) {
	enc := rpc.NewEnc(12)
	enc.U32(key)
	enc.U32(req)
	enc.U32(epoch)
	r_status, r_released, _ := h.Reply(&rpc.Call{Rep: h.p.Call(c, server, enc)})
	return r_status, r_released
}

// CallIdempotent invokes Unlock on node server with a per-attempt
// deadline, retrying up to attempts times (see rpc.Proc.CallIdempotent).
// Only safe when re-executing Unlock on the server is harmless. On
// error the results are zero values.
func (h UnlockProc) CallIdempotent(c threads.Ctx, server int, key uint32, req uint32, epoch uint32, per sim.Duration, attempts int) (r_status uint32, r_released bool, err error) {
	enc := rpc.NewEnc(12)
	enc.U32(key)
	enc.U32(req)
	enc.U32(epoch)
	rep, err := h.p.CallIdempotent(c, server, enc, per, attempts)
	return h.Reply(&rpc.Call{Rep: rep, Err: err})
}

// CallThen is CallIdempotent asked in kernel context for c.P, whose
// thread holds c.S's CPU (see rpc.Proc.CallThen): the outcome is left
// in out, for Reply, before k decides what c.P does.
func (h UnlockProc) CallThen(c threads.Ctx, out *rpc.Call, server int, key uint32, req uint32, epoch uint32, per sim.Duration, attempts int, k sim.Continuation) (sim.Next, sim.Duration) {
	enc := rpc.NewEnc(12)
	enc.U32(key)
	enc.U32(req)
	enc.U32(epoch)
	return h.p.CallThen(c, out, server, enc, per, attempts, k)
}

// Reply decodes the outcome of a call of Unlock. On error the results
// are zero values.
func (h UnlockProc) Reply(out *rpc.Call) (r_status uint32, r_released bool, err error) {
	if err = out.Err; err != nil {
		return
	}
	dec := rpc.NewDec(out.Rep.Bytes())
	r_status = dec.U32()
	r_released = dec.Bool()
	dec.Done()
	return
}

// Stats returns Unlock's counters (the termination routine's report).
func (h UnlockProc) Stats() rpc.ProcStats { return h.p.Stats() }

// CompatSpec returns the service's compatibility matrix and per-method
// key extractors, compiled from the IDL's compatible clauses. Install it
// with rt.SetCompat after every Define call; the dispatcher consults it
// when multiactive dispatch (oam.Options.Cores > 1) is enabled.
func CompatSpec() rpc.CompatSpec {
	t := oam.NewCompatTable(5)
	t.Allow(0, 0)         // compatible Get Get
	t.AllowDisjoint(0, 1) // compatible Get Put when disjoint(key)
	t.AllowDisjoint(0, 2) // compatible Get Cas when disjoint(key)
	t.AllowDisjoint(0, 3) // compatible Get Lock when disjoint(key)
	t.AllowDisjoint(0, 4) // compatible Get Unlock when disjoint(key)
	t.AllowDisjoint(1, 1) // compatible Put Put when disjoint(key)
	t.AllowDisjoint(1, 2) // compatible Put Cas when disjoint(key)
	t.AllowDisjoint(1, 3) // compatible Put Lock when disjoint(key)
	t.AllowDisjoint(1, 4) // compatible Put Unlock when disjoint(key)
	t.AllowDisjoint(2, 2) // compatible Cas Cas when disjoint(key)
	t.AllowDisjoint(2, 3) // compatible Cas Lock when disjoint(key)
	t.AllowDisjoint(2, 4) // compatible Cas Unlock when disjoint(key)
	t.AllowDisjoint(3, 3) // compatible Lock Lock when disjoint(key)
	t.AllowDisjoint(3, 4) // compatible Lock Unlock when disjoint(key)
	t.AllowDisjoint(4, 4) // compatible Unlock Unlock when disjoint(key)
	return rpc.CompatSpec{Table: t, Methods: []rpc.CompatMethod{
		{Name: "Get", Key: keyGet},
		{Name: "Put", Key: keyPut},
		{Name: "Cas", Key: keyCas},
		{Name: "Lock", Key: keyLock},
		{Name: "Unlock", Key: keyUnlock},
	}}
}

// keyGet extracts Get's disjointness key (key) from a marshaled
// argument frame, decoding past any earlier parameters.
func keyGet(arg []byte) uint64 {
	d := rpc.NewDec(arg)
	return uint64(d.U32())
}

// keyPut extracts Put's disjointness key (key) from a marshaled
// argument frame, decoding past any earlier parameters.
func keyPut(arg []byte) uint64 {
	d := rpc.NewDec(arg)
	return uint64(d.U32())
}

// keyCas extracts Cas's disjointness key (key) from a marshaled
// argument frame, decoding past any earlier parameters.
func keyCas(arg []byte) uint64 {
	d := rpc.NewDec(arg)
	return uint64(d.U32())
}

// keyLock extracts Lock's disjointness key (key) from a marshaled
// argument frame, decoding past any earlier parameters.
func keyLock(arg []byte) uint64 {
	d := rpc.NewDec(arg)
	return uint64(d.U32())
}

// keyUnlock extracts Unlock's disjointness key (key) from a marshaled
// argument frame, decoding past any earlier parameters.
func keyUnlock(arg []byte) uint64 {
	d := rpc.NewDec(arg)
	return uint64(d.U32())
}
