package rpc

import (
	"math/rand"
	"testing"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/sim"
	"repro/internal/threads"
)

func newRT(t *testing.T, n int, opts Options) *Runtime {
	t.Helper()
	eng := sim.New(17)
	u := am.NewUniverse(eng, n, cm5.DefaultCostModel())
	t.Cleanup(eng.Shutdown)
	return New(u, opts)
}

// TestNullCallBothModes checks the remote increment works and measures
// the Table 1 "no thread running" round-trip times.
func TestNullCallBothModes(t *testing.T) {
	times := map[Mode]sim.Duration{}
	for _, mode := range []Mode{ORPC, TRPC} {
		rt := newRT(t, 2, Options{Mode: mode})
		counter := 0
		inc := rt.Define("inc", func(e *oam.Env, caller int, arg []byte) []byte {
			counter++
			return nil
		})
		var rtt sim.Duration
		_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
			if node != 0 {
				return // node 1 serves from its scheduler loop
			}
			start := c.P.Now()
			inc.Call(c, 1, nil)
			rtt = c.P.Now().Sub(start)
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if counter != 1 {
			t.Fatalf("%v: counter = %d", mode, counter)
		}
		times[mode] = rtt
	}
	// Table 1, "no thread running": ORPC ~14us, TRPC ~21us (ORPC + 7us
	// thread creation via the live-stack path).
	if times[ORPC] < sim.Micros(10) || times[ORPC] > sim.Micros(18) {
		t.Errorf("ORPC null RTT = %v, want ~14us", times[ORPC])
	}
	if d := times[TRPC] - times[ORPC]; d < sim.Micros(6) || d > sim.Micros(9) {
		t.Errorf("TRPC-ORPC gap = %v, want ~7us (thread create, live stack)", d)
	}
}

// TestBusyServerGap reproduces Table 1 "some thread running": the gap
// between TRPC and ORPC grows to ~60us (create + full switch).
func TestBusyServerGap(t *testing.T) {
	times := map[Mode]sim.Duration{}
	for _, mode := range []Mode{ORPC, TRPC} {
		rt := newRT(t, 2, Options{Mode: mode})
		done := false
		inc := rt.Define("inc", func(e *oam.Env, caller int, arg []byte) []byte {
			done = true
			return nil
		})
		var rtt sim.Duration
		_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
			if node == 1 {
				// Busy server: tight poll-and-yield loop.
				ep := rt.Universe().Endpoint(1)
				for !done {
					ep.Poll(c)
					c.S.Yield(c)
				}
				return
			}
			start := c.P.Now()
			inc.Call(c, 1, nil)
			rtt = c.P.Now().Sub(start)
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		times[mode] = rtt
	}
	if d := times[TRPC] - times[ORPC]; d < sim.Micros(55) || d > sim.Micros(65) {
		t.Errorf("busy-server TRPC-ORPC gap = %v, want ~59us (create + switch)", d)
	}
	if times[ORPC] > sim.Micros(20) {
		t.Errorf("busy-server ORPC RTT = %v, want ~14us (unaffected by running thread)", times[ORPC])
	}
}

func TestArgsAndResults(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: ORPC})
	add := rt.Define("add", func(e *oam.Env, caller int, arg []byte) []byte {
		d := NewDec(arg)
		a, b := d.I64(), d.I64()
		d.Done()
		out := NewEnc(8)
		out.I64(a + b)
		return out.Bytes()
	})
	_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return
		}
		arg := NewEnc(16)
		arg.I64(40)
		arg.I64(2)
		res := add.Call(c, 1, arg)
		rep := NewDec(res.Bytes())
		if got := rep.I64(); got != 42 {
			t.Errorf("add = %d, want 42", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBulkArgs exercises the scopy path in both directions.
func TestBulkArgs(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: ORPC})
	rev := rt.Define("reverse", func(e *oam.Env, caller int, arg []byte) []byte {
		d := NewDec(arg)
		buf := d.Buf()
		d.Done()
		out := make([]byte, len(buf))
		for i, b := range buf {
			out[len(buf)-1-i] = b
		}
		enc := NewEnc(len(out) + 4)
		enc.Buf(out)
		return enc.Bytes()
	})
	_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return
		}
		data := make([]byte, 1000)
		for i := range data {
			data[i] = byte(i % 256)
		}
		arg := NewEnc(len(data) + 4)
		arg.Buf(data)
		res := rev.Call(c, 1, arg)
		rep := NewDec(res.Bytes())
		out := rep.Buf()
		for i := range out {
			if out[i] != data[len(data)-1-i] {
				t.Fatalf("byte %d wrong", i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Universe().Stats().BulkSends != 2 {
		t.Fatalf("BulkSends = %d, want 2", rt.Universe().Stats().BulkSends)
	}
}

func TestAsyncCall(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: ORPC})
	var got []uint64
	sink := rt.DefineAsync("sink", func(e *oam.Env, caller int, arg []byte) []byte {
		d := NewDec(arg)
		got = append(got, d.U64())
		d.Done()
		return nil
	})
	_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return
		}
		for i := uint64(0); i < 10; i++ {
			arg := NewEnc(8)
			arg.U64(i)
			sink.CallAsync(c, 1, arg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d async calls, want 10", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("order violated: %v", got)
		}
	}
	if st := sink.Stats(); st.OAMs != 10 || st.Successes != 10 {
		t.Fatalf("stats %+v", st)
	}
}

// TestBlockingProcPromotes: a procedure that must wait for a condition
// blocks under ORPC by promotion, and the reply arrives after the
// condition becomes true.
func TestBlockingProcPromotes(t *testing.T) {
	for _, mode := range []Mode{ORPC, TRPC} {
		rt := newRT(t, 2, Options{Mode: mode})
		s1 := rt.Universe().Scheduler(1)
		mu := threads.NewMutex(s1)
		cv := threads.NewCond(mu)
		ready := false
		get := rt.Define("get", func(e *oam.Env, caller int, arg []byte) []byte {
			e.Lock(mu)
			e.Await(cv, func() bool { return ready })
			e.Unlock(mu)
			out := NewEnc(8)
			out.U64(77)
			return out.Bytes()
		})
		var gotAt sim.Time
		var setAt sim.Time
		_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
			if node == 1 {
				// Poll the request in while the condition is still false,
				// so the optimistic attempt must abort.
				ep := rt.Universe().Endpoint(1)
				for get.Stats().OAMs == 0 && get.Stats().Threads == 0 {
					ep.Poll(c)
				}
				c.P.Charge(sim.Micros(500))
				mu.Lock(c)
				ready = true
				setAt = c.P.Now()
				cv.Signal(c)
				mu.Unlock(c)
				return
			}
			res := get.Call(c, 1, nil)
			rep := NewDec(res.Bytes())
			if rep.U64() != 77 {
				t.Errorf("%v: wrong reply", mode)
			}
			gotAt = c.P.Now()
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if gotAt < setAt {
			t.Fatalf("%v: reply at %v before condition set at %v", mode, gotAt, setAt)
		}
		if mode == ORPC {
			if st := get.Stats(); st.OAMs != 1 || st.Promoted != 1 || st.Successes != 0 {
				t.Fatalf("stats %+v", st)
			}
		}
	}
}

// TestNackRetry: under the Nack strategy a blocked call is refused and
// transparently retried until it succeeds.
func TestNackRetry(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: ORPC, OAM: oam.Options{Strategy: oam.Nack}})
	s1 := rt.Universe().Scheduler(1)
	mu := threads.NewMutex(s1)
	hits := 0
	poke := rt.Define("poke", func(e *oam.Env, caller int, arg []byte) []byte {
		e.Lock(mu)
		hits++
		e.Unlock(mu)
		return nil
	})
	var unlocked sim.Time
	var doneAt sim.Time
	_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
		if node == 1 {
			mu.Lock(c)
			// Hold the lock and poll, so the attempt arrives while the
			// lock is held and is nacked at least once.
			ep := rt.Universe().Endpoint(1)
			for poke.Stats().Nacks == 0 {
				ep.Poll(c)
			}
			c.P.Charge(sim.Micros(100))
			mu.Unlock(c)
			unlocked = c.P.Now()
			return
		}
		poke.Call(c, 1, nil)
		doneAt = c.P.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("hits = %d, want exactly 1", hits)
	}
	st := poke.Stats()
	if st.Nacks == 0 {
		t.Fatalf("expected nacks, stats %+v", st)
	}
	if st.Calls != st.Nacks+1 {
		t.Fatalf("calls = %d, nacks = %d: retry accounting off", st.Calls, st.Nacks)
	}
	if doneAt < unlocked {
		t.Fatalf("call done at %v before lock released at %v", doneAt, unlocked)
	}
}

// TestManyClientsOneServer drives contention: all clients increment a
// locked counter on node 0; the final count must be exact in both modes.
func TestManyClientsOneServer(t *testing.T) {
	for _, mode := range []Mode{ORPC, TRPC} {
		rt := newRT(t, 8, Options{Mode: mode})
		s0 := rt.Universe().Scheduler(0)
		mu := threads.NewMutex(s0)
		count := 0
		inc := rt.Define("inc", func(e *oam.Env, caller int, arg []byte) []byte {
			e.Lock(mu)
			e.Compute(sim.Micros(2))
			count++
			e.Unlock(mu)
			return nil
		})
		_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
			if node == 0 {
				return
			}
			for i := 0; i < 20; i++ {
				inc.Call(c, 0, nil)
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if count != 7*20 {
			t.Fatalf("%v: count = %d, want 140", mode, count)
		}
	}
}

// TestSchedulingPolicy: back-of-queue must also work (the paper measured
// it as uniformly worse, but it has to be correct).
func TestSchedulingPolicy(t *testing.T) {
	rt := newRT(t, 4, Options{Mode: TRPC, BackOfQueue: true})
	count := 0
	inc := rt.Define("inc", func(e *oam.Env, caller int, arg []byte) []byte {
		count++
		return nil
	})
	_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
		if node == 0 {
			return
		}
		for i := 0; i < 5; i++ {
			inc.Call(c, 0, nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 15 {
		t.Fatalf("count = %d, want 15", count)
	}
}

// TestCallToSelf: RPC to one's own node goes through the loopback network
// path and completes.
func TestCallToSelf(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: ORPC})
	echo := rt.Define("echo", func(e *oam.Env, caller int, arg []byte) []byte {
		return arg
	})
	_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return
		}
		arg := NewEnc(8)
		arg.U64(99)
		res := echo.Call(c, 0, arg)
		rep := NewDec(res.Bytes())
		if rep.U64() != 99 {
			t.Errorf("self echo = %d", rep.U64())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRPCDeterminism(t *testing.T) {
	runOnce := func() (sim.Time, uint64) {
		eng := sim.New(23)
		rng := rand.New(rand.NewSource(23))
		u := am.NewUniverse(eng, 4, cm5.DefaultCostModel())
		defer eng.Shutdown()
		rt := New(u, Options{Mode: ORPC})
		s0 := u.Scheduler(0)
		mu := threads.NewMutex(s0)
		total := uint64(0)
		add := rt.Define("add", func(e *oam.Env, caller int, arg []byte) []byte {
			e.Lock(mu)
			e.Compute(sim.Duration(rng.Intn(10)) * sim.Microsecond)
			total += NewDec(arg).U64()
			e.Unlock(mu)
			return nil
		})
		end, err := u.SPMD(func(c threads.Ctx, node int) {
			if node == 0 {
				return
			}
			for i := 0; i < 10; i++ {
				arg := NewEnc(8)
				arg.U64(uint64(node*100 + i))
				add.Call(c, 0, arg)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return end, total
	}
	e1, t1 := runOnce()
	e2, t2 := runOnce()
	if e1 != e2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", e1, t1, e2, t2)
	}
}
