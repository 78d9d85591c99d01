package rpc

import (
	"testing"

	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/sim"
	"repro/internal/threads"
)

// A small argument rides in its packet, and the packet goes back to its
// pool when the handler returns, to be zeroed and reused by later
// traffic. These tests hold every execution that outlives its handler to
// the argument it was sent: a body that reads it late must still read its
// own bytes, never the packet's next tenant's.

// retainArg is call i's 16-byte argument record: i and its complement.
func retainArg(i uint64) *Enc {
	enc := NewEnc(16)
	enc.U64(i)
	enc.U64(^i)
	return enc
}

// retainSeen decodes a retainArg record and counts it in seen, or fails t
// when the record is not one that was sent.
func retainSeen(t *testing.T, seen map[uint64]int, arg []byte) {
	d := NewDec(arg)
	i, not := d.U64(), d.U64()
	d.Done()
	if not != ^i {
		t.Errorf("a body read the argument record %x, which no call sent", arg)
		return
	}
	seen[i]++
}

// lockedServer runs n asynchronous calls of a body that takes a lock the
// server holds while they all arrive, so each body reads its argument
// only after its packet has been recycled. It returns how often each
// argument was read, and how many bodies ran as threads.
func lockedServer(t *testing.T, opts Options, plan *cm5.FaultPlan, n int) (map[uint64]int, uint64) {
	t.Helper()
	rt := newRT(t, 2, opts)
	u := rt.Universe()
	if plan != nil {
		u.Machine().SetFaultPlan(plan)
	}
	mu := threads.NewMutex(u.Scheduler(1))
	seen := map[uint64]int{}
	late := rt.DefineAsync("late", func(e *oam.Env, caller int, arg []byte) []byte {
		e.Lock(mu)
		retainSeen(t, seen, arg)
		e.Unlock(mu)
		return nil
	})
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node == 1 {
			mu.Lock(c)
			c.S.Sleep(c, sim.Micros(2000))
			mu.Unlock(c)
			return
		}
		for i := range n {
			late.CallAsync(c, 1, retainArg(uint64(i)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := late.Stats()
	return seen, st.Threads + st.Promoted
}

// TestThreadBodyReadsItsOwnArg: a TRPC body, and an ORPC body whose
// attempt aborted and reran as a thread (Rerun), decode their arguments
// after the packets they came in were reused.
func TestThreadBodyReadsItsOwnArg(t *testing.T) {
	const n = 40
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"TRPC", Options{Mode: TRPC}},
		{"ORPC/Rerun", Options{Mode: ORPC, OAM: oam.Options{Strategy: oam.Rerun}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seen, threads := lockedServer(t, tc.opts, nil, n)
			if threads != n {
				t.Fatalf("%d of %d bodies ran as threads", threads, n)
			}
			for i := range uint64(n) {
				if seen[i] != 1 {
					t.Errorf("call %d's argument was read %d times, want 1", i, seen[i])
				}
			}
		})
	}
}

// TestDuplicatedRequestArgs: a network-duplicated request is one packet
// delivered twice; each delivery's thread reads the argument after the
// packet was recycled, and both read it whole.
func TestDuplicatedRequestArgs(t *testing.T) {
	const n = 40
	seen, _ := lockedServer(t, Options{Mode: TRPC}, &cm5.FaultPlan{Seed: 3, DupProb: 0.5}, n)
	twice := 0
	for i := range uint64(n) {
		switch seen[i] {
		case 1:
		case 2:
			twice++
		default:
			t.Errorf("call %d's argument was read %d times, want 1 or 2", i, seen[i])
		}
	}
	if twice == 0 {
		t.Fatal("no request was duplicated: the test lost its subject")
	}
}

// TestQueuedMultiactiveArgs: a multiactive execution queued behind an
// incompatible one starts after its packet was reused, and reads its own
// argument.
func TestQueuedMultiactiveArgs(t *testing.T) {
	const n = 12
	rt := newRT(t, 2, Options{Mode: ORPC, OAM: oam.Options{Cores: 2}})
	seen := map[uint64]int{}
	slow := rt.Define("slow", func(e *oam.Env, caller int, arg []byte) []byte {
		retainSeen(t, seen, arg)
		e.Compute(sim.Micros(50))
		return nil
	})
	_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
		if node == 1 {
			return
		}
		hs := make([]threads.Handle, n)
		for i := range hs {
			hs[i] = c.S.Create(c, "caller", false, func(c threads.Ctx) {
				slow.Call(c, 1, retainArg(uint64(i)))
			})
		}
		for _, h := range hs {
			h.Join(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := rt.Dispatcher().Stats(); st.CompatQueued == 0 {
		t.Fatalf("no execution queued: %v", st)
	}
	for i := range uint64(n) {
		if seen[i] != 1 {
			t.Errorf("call %d's argument was read %d times, want 1", i, seen[i])
		}
	}
}
