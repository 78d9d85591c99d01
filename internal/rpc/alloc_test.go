package rpc

import (
	"runtime"
	"testing"

	"repro/internal/oam"
	"repro/internal/sim"
	"repro/internal/threads"
)

// callAllocs returns the heap objects one round trip of a one-word echo
// padded to 8+pad bytes allocates, client and server together, once the
// pools (call records, Envs, events, packets) are warm. Both sides marshal
// the way generated stubs do: a record of cm5.MaxPayload bytes or less
// rides by value from the stub's Enc to the handler and back, a longer one
// is one heap buffer each way.
func callAllocs(t *testing.T, mode Mode, deadline bool, pad int) float64 {
	t.Helper()
	const warm, calls = 1_000, 10_000
	rt := newRT(t, 2, Options{Mode: mode})
	echo := rt.Define("echo", func(e *oam.Env, caller int, arg []byte) []byte {
		res := NewEnc(8 + pad)
		fillEcho(res, NewDec(arg).U64()+1, pad)
		return Result(e, res)
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
			arg := NewEnc(8 + pad)
			fillEcho(arg, uint64(i), pad)
			var res Enc
			if deadline {
				var err error
				if res, err = echo.CallWithDeadline(c, 1, arg, sim.Micros(500)); err != nil {
					t.Errorf("call %d: %v", i, err)
					return
				}
			} else {
				res = echo.Call(c, 1, arg)
			}
			if got := NewDec(res.Bytes()).U64(); got != uint64(i)+1 || len(res.Bytes()) != 8+pad {
				t.Errorf("call %d answered %d in %d bytes", i, got, len(res.Bytes()))
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

// fillEcho marshals the echo's record: v, then pad zero bytes.
func fillEcho(enc *Enc, v uint64, pad int) {
	enc.U64(v)
	for range pad {
		enc.U8(0)
	}
}

// TestCallAllocBudget is the request path's allocation budget above am: a
// round trip allocates only what outlives the call. A small record is
// copied by value at every hop, so an ORPC round trip allocates nothing,
// whether or not it arms a deadline, and a TRPC one adds nothing (the
// thread's descriptor is recycled by its scheduler and its body is the
// pooled Env's, bound once). A 1 KiB record is one buffer each way: the
// request and the reply.
func TestCallAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mode     Mode
		deadline bool
		pad      int
		budget   float64
	}{
		{"ORPC/Call", ORPC, false, 0, 0},
		{"ORPC/CallWithDeadline", ORPC, true, 0, 0},
		{"TRPC/Call", TRPC, false, 0, 0},
		{"TRPC/CallWithDeadline", TRPC, true, 0, 0},
		{"ORPC/Call/1KiB", ORPC, false, 1024 - 8, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := callAllocs(t, tc.mode, tc.deadline, tc.pad); got > tc.budget+0.01 {
				t.Fatalf("round trip allocates %.3f objects, budget %.0f", got, tc.budget)
			} else {
				t.Logf("%.3f objects/call", got)
			}
		})
	}
}
