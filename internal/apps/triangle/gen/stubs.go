// Code generated by stubgen; DO NOT EDIT.

package trigen

import (
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/threads"
)

// InsertImpl is the server-side body of Insert.
type InsertImpl func(e *oam.Env, caller int, state uint64, ways uint64)

// InsertProc is the client handle for Insert.
type InsertProc struct{ p *rpc.Proc }

// DefineInsert registers Insert with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefineInsert(rt *rpc.Runtime, impl InsertImpl) InsertProc {
	p := rt.DefineAsync("Insert", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		a_state := d.U64()
		a_ways := d.U64()
		d.Done()
		impl(e, caller, a_state, a_ways)
		return nil
	})
	return InsertProc{p}
}

// CallAsync invokes Insert on node server, fire-and-forget.
func (h InsertProc) CallAsync(c threads.Ctx, server int, state uint64, ways uint64) {
	enc := rpc.NewEnc(16)
	enc.U64(state)
	enc.U64(ways)
	h.p.CallAsync(c, server, enc)
}

// Stats returns Insert's counters (the termination routine's report).
func (h InsertProc) Stats() rpc.ProcStats { return h.p.Stats() }
