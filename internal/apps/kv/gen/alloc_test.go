package kvgen

import (
	"runtime"
	"testing"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/reliable"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// TestStubRoundTripAllocBudget: every kv record fits a small packet, so a
// warm Get, Put or Cas round trip through these stubs, over the reliable
// transport, allocates nothing: each record is a value from the client
// stub's Enc through the packet, the pending message, the server's Env
// and the call record back to the stub.
func TestStubRoundTripAllocBudget(t *testing.T) {
	const warm, ops = 1_000, 10_000
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	reliable.Attach(u, reliable.Options{})
	rt := rpc.New(u, rpc.Options{Mode: rpc.ORPC})
	vals := map[uint32]int32{}
	get := DefineGet(rt, func(e *oam.Env, caller int, key uint32) (uint32, uint32, int32) {
		return 0, 1, vals[key]
	})
	put := DefinePut(rt, func(e *oam.Env, caller int, key, req uint32, val int32) (uint32, uint32) {
		vals[key] = val
		return 0, req
	})
	cas := DefineCas(rt, func(e *oam.Env, caller int, key, req, expect uint32, val int32) (uint32, uint32, bool) {
		if uint32(vals[key]) != expect {
			return 0, req, false
		}
		vals[key] = val
		return 0, req, true
	})
	var m0, m1 runtime.MemStats
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node == 1 {
			return // serves from its idle loop
		}
		for i := uint32(0); i < warm+ops; i++ {
			if i == warm {
				runtime.ReadMemStats(&m0)
			}
			key := i / 3 % 8
			switch i % 3 {
			case 0:
				if _, ver := put.Call(c, 1, key, i, int32(i)); ver != i {
					t.Errorf("Put %d answered version %d", i, ver)
					return
				}
			case 1:
				if _, _, val := get.Call(c, 1, key); val != int32(i-1) {
					t.Errorf("Get %d read %d, want %d", i, val, i-1)
					return
				}
			default:
				if _, _, ok := cas.Call(c, 1, key, i, i-2, int32(i)); !ok {
					t.Errorf("Cas %d did not swap", i)
					return
				}
			}
		}
		runtime.ReadMemStats(&m1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(m1.Mallocs-m0.Mallocs) / ops; got >= 0.01 {
		t.Fatalf("a kv round trip allocates %.4f objects, want 0", got)
	}
}
