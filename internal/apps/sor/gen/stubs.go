// Code generated by stubgen; DO NOT EDIT.

package sorgen

import (
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/threads"
)

// StoreImpl is the server-side body of Store.
type StoreImpl func(e *oam.Env, caller int, side int32, row []float64)

// StoreProc is the client handle for Store.
type StoreProc struct{ p *rpc.Proc }

// DefineStore registers Store with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefineStore(rt *rpc.Runtime, impl StoreImpl) StoreProc {
	p := rt.DefineAsync("Store", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		a_side := d.I32()
		a_row := d.F64s()
		d.Done()
		impl(e, caller, a_side, a_row)
		return nil
	})
	return StoreProc{p}
}

// CallAsync invokes Store on node server, fire-and-forget.
func (h StoreProc) CallAsync(c threads.Ctx, server int, side int32, row []float64) {
	enc := rpc.NewEnc(8 + 8*len(row))
	enc.I32(side)
	enc.F64s(row)
	h.p.CallAsync(c, server, enc)
}

// Stats returns Store's counters (the termination routine's report).
func (h StoreProc) Stats() rpc.ProcStats { return h.p.Stats() }
