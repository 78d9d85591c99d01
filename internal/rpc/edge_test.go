package rpc

import (
	"testing"

	"repro/internal/oam"
	"repro/internal/sim"
	"repro/internal/threads"
)

// TestConcurrentOutstandingCalls: several threads on one client node each
// have a call in flight at once; replies must route to the right caller.
func TestConcurrentOutstandingCalls(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: ORPC})
	echo := rt.Define("echo", func(e *oam.Env, caller int, arg []byte) []byte {
		// Hold each call a little so they overlap.
		e.Compute(sim.Micros(5))
		return arg
	})
	const workers = 6
	results := make([]uint64, workers)
	_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return
		}
		var ts []threads.Handle
		for w := 0; w < workers; w++ {
			w := w
			ts = append(ts, c.S.Create(c, "w", false, func(cc threads.Ctx) {
				arg := NewEnc(8)
				arg.U64(uint64(1000 + w))
				res := echo.Call(cc, 1, arg)
				rep := NewDec(res.Bytes())
				results[w] = rep.U64()
			}))
		}
		for _, th := range ts {
			th.Join(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for w, v := range results {
		if v != uint64(1000+w) {
			t.Fatalf("worker %d got %d", w, v)
		}
	}
}

// TestUnknownReplyCountedStale: a reply for a call id that is not waiting
// is tolerated and counted — on a faulty network, deadline-abandoned calls
// make late replies routine rather than a protocol violation.
func TestUnknownReplyCountedStale(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: ORPC})
	u := rt.Universe()
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return
		}
		// Hand-forge a reply packet for a call id nobody is waiting on.
		u.Endpoint(0).Send(c, 1, rt.replyH, [4]uint64{999}, nil)
	})
	if err != nil {
		t.Fatalf("stray reply must not fail the run: %v", err)
	}
	if rt.StaleReplies() != 1 {
		t.Fatalf("StaleReplies = %d, want 1", rt.StaleReplies())
	}
}

// TestAsyncUnderNackFallsBackToRerun: asynchronous procedures promote
// rather than nack (there is no caller thread to retry).
func TestAsyncUnderNackFallsBackToRerun(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: ORPC, OAM: oam.Options{Strategy: oam.Nack}})
	s1 := rt.Universe().Scheduler(1)
	mu := threads.NewMutex(s1)
	hits := 0
	poke := rt.DefineAsync("poke", func(e *oam.Env, caller int, arg []byte) []byte {
		e.Lock(mu)
		hits++
		e.Unlock(mu)
		return nil
	})
	_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
		ep := rt.Universe().Endpoint(node)
		if node == 0 {
			poke.CallAsync(c, 1, nil)
			return
		}
		mu.Lock(c)
		for poke.Stats().OAMs == 0 {
			ep.Poll(c)
		}
		mu.Unlock(c)
		for hits == 0 {
			c.S.Yield(c)
			ep.Poll(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("hits = %d", hits)
	}
	st := poke.Stats()
	if st.Nacks != 0 || st.Promoted != 1 {
		t.Fatalf("stats %+v (async must promote, not nack)", st)
	}
}

// TestNackBackoffGrows: repeated nacks back off exponentially up to the
// cap, visible in the gaps between the nacked attempts: each gap is one
// backoff plus the same round trip, so consecutive gaps differ by the
// backoff's step, 10 us doubling to the 320 us cap and then nothing.
func TestNackBackoffGrows(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: ORPC, OAM: oam.Options{Strategy: oam.Nack}})
	s1 := rt.Universe().Scheduler(1)
	mu := threads.NewMutex(s1)
	var attempts []sim.Time
	poke := rt.Define("poke", func(e *oam.Env, caller int, arg []byte) []byte {
		attempts = append(attempts, e.Ctx().P.Now())
		e.Lock(mu)
		e.Unlock(mu)
		return nil
	})
	const nacks = 8
	_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
		ep := rt.Universe().Endpoint(node)
		if node == 0 {
			poke.Call(c, 1, nil)
			return
		}
		mu.Lock(c)
		for poke.Stats().Nacks < nacks {
			ep.Poll(c)
		}
		mu.Unlock(c)
		for poke.Stats().Successes+poke.Stats().Promoted == 0 {
			c.S.Yield(c)
			ep.Poll(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(attempts) != nacks+1 {
		t.Fatalf("attempts = %d, want %d", len(attempts), nacks+1)
	}
	// Backoffs 10, 20, 40, 80, 160, 320, 320 us: each gap exceeds the one
	// before by the backoff's growth.
	for i, us := range []float64{10, 20, 40, 80, 160, 0} {
		g0 := attempts[i+1].Sub(attempts[i])
		g1 := attempts[i+2].Sub(attempts[i+1])
		if g1-g0 != sim.Micros(us) {
			t.Errorf("gap %d - gap %d = %v, want %v", i+2, i+1, g1-g0, sim.Micros(us))
		}
	}
	st := poke.Stats()
	if st.Retries == 0 || st.Calls != st.Retries+1 {
		t.Fatalf("retry accounting: Calls=%d Retries=%d", st.Calls, st.Retries)
	}
}

// TestStatsRetryAccounting: Calls counts retries; the mode option and
// dispatcher accessors stay coherent.
func TestStatsRetryAccounting(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: TRPC})
	if rt.opts.Mode != TRPC {
		t.Fatal("mode option")
	}
	if rt.Dispatcher() == nil || rt.AsyncDispatcher() == nil {
		t.Fatal("nil dispatchers")
	}
	inc := rt.Define("inc", func(e *oam.Env, caller int, arg []byte) []byte { return nil })
	_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return
		}
		for i := 0; i < 3; i++ {
			inc.Call(c, 1, nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := inc.Stats()
	if st.Calls != 3 || st.Threads != 3 || st.OAMs != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestWrongModeCallsPanic: calling async procs synchronously and vice
// versa are programming errors.
func TestWrongModeCallsPanic(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: ORPC})
	syncP := rt.Define("s", func(e *oam.Env, caller int, arg []byte) []byte { return nil })
	asyncP := rt.DefineAsync("a", func(e *oam.Env, caller int, arg []byte) []byte { return nil })
	_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("CallAsync of sync proc did not panic")
				}
			}()
			syncP.CallAsync(c, 1, nil)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Call of async proc did not panic")
				}
			}()
			asyncP.Call(c, 1, nil)
		}()
	})
	if err != nil {
		t.Fatal(err)
	}
}
