package rpc

import (
	"runtime"
	"testing"

	"repro/internal/oam"
	"repro/internal/sim"
	"repro/internal/threads"
)

// callAllocs returns the heap objects one round trip of a one-word echo
// allocates, client and server together, once the pools (call records,
// Envs, events, packets) are warm. Both sides marshal the way generated
// stubs do, so each call makes exactly two payload buffers.
func callAllocs(t *testing.T, mode Mode, deadline bool) float64 {
	t.Helper()
	const warm, calls = 1_000, 10_000
	rt := newRT(t, 2, Options{Mode: mode})
	echo := rt.Define("echo", func(e *oam.Env, caller int, arg []byte) []byte {
		res := NewEnc(8)
		res.U64(NewDec(arg).U64() + 1)
		return res.Bytes()
	})
	var m0, m1 runtime.MemStats
	_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
		if node == 1 {
			return // serves from its idle loop
		}
		for i := 0; i < warm+calls; i++ {
			if i == warm {
				runtime.ReadMemStats(&m0)
			}
			arg := NewEnc(8)
			arg.U64(uint64(i))
			var res []byte
			if deadline {
				var err error
				if res, err = echo.CallWithDeadline(c, 1, arg.Bytes(), sim.Micros(500)); err != nil {
					t.Errorf("call %d: %v", i, err)
					return
				}
			} else {
				res = echo.Call(c, 1, arg.Bytes())
			}
			if got := NewDec(res).U64(); got != uint64(i)+1 {
				t.Errorf("call %d answered %d", i, got)
				return
			}
		}
		runtime.ReadMemStats(&m1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := 1 + len(rt.nodes[0].slots); n != 1 {
		t.Fatalf("one caller used %d call records, want 1 recycled throughout", n)
	}
	return float64(m1.Mallocs-m0.Mallocs) / calls
}

// TestCallAllocBudget is the request path's allocation budget above am: an
// ORPC round trip allocates only what outlives the call — the request and
// reply buffers — whether or not it arms a deadline; a TRPC round trip
// adds nothing (the thread's descriptor is recycled by its scheduler and
// its body is the pooled Env's, bound once).
func TestCallAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mode     Mode
		deadline bool
		budget   float64
	}{
		{"ORPC/Call", ORPC, false, 2},
		{"ORPC/CallWithDeadline", ORPC, true, 2},
		{"TRPC/Call", TRPC, false, 2},
		{"TRPC/CallWithDeadline", TRPC, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := callAllocs(t, tc.mode, tc.deadline); got > tc.budget+0.01 {
				t.Fatalf("round trip allocates %.3f objects, budget %.0f", got, tc.budget)
			} else {
				t.Logf("%.3f objects/call", got)
			}
		})
	}
}
