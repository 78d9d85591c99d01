// Code generated by stubgen; DO NOT EDIT.

package watergen

import (
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/threads"
)

// PositionsImpl is the server-side body of Positions.
type PositionsImpl func(e *oam.Env, caller int, data []float64)

// PositionsProc is the client handle for Positions.
type PositionsProc struct{ p *rpc.Proc }

// DefinePositions registers Positions with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefinePositions(rt *rpc.Runtime, impl PositionsImpl) PositionsProc {
	p := rt.DefineAsync("Positions", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		a_data := d.F64s()
		d.Done()
		impl(e, caller, a_data)
		return nil
	})
	return PositionsProc{p}
}

// CallAsync invokes Positions on node server, fire-and-forget.
func (h PositionsProc) CallAsync(c threads.Ctx, server int, data []float64) {
	enc := rpc.NewEnc(4 + 8*len(data))
	enc.F64s(data)
	h.p.CallAsync(c, server, enc)
}

// Stats returns Positions's counters (the termination routine's report).
func (h PositionsProc) Stats() rpc.ProcStats { return h.p.Stats() }

// UpdatesImpl is the server-side body of Updates.
type UpdatesImpl func(e *oam.Env, caller int, data []float64)

// UpdatesProc is the client handle for Updates.
type UpdatesProc struct{ p *rpc.Proc }

// DefineUpdates registers Updates with rt and returns its handle.
// Call it on every node before the simulation starts.
func DefineUpdates(rt *rpc.Runtime, impl UpdatesImpl) UpdatesProc {
	p := rt.DefineAsync("Updates", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		a_data := d.F64s()
		d.Done()
		impl(e, caller, a_data)
		return nil
	})
	return UpdatesProc{p}
}

// CallAsync invokes Updates on node server, fire-and-forget.
func (h UpdatesProc) CallAsync(c threads.Ctx, server int, data []float64) {
	enc := rpc.NewEnc(4 + 8*len(data))
	enc.F64s(data)
	h.p.CallAsync(c, server, enc)
}

// Stats returns Updates's counters (the termination routine's report).
func (h UpdatesProc) Stats() rpc.ProcStats { return h.p.Stats() }
