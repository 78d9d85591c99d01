package rpc

import (
	"errors"
	"testing"

	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/sim"
	"repro/internal/threads"
)

// TestCallWithDeadlineSuccess: a healthy call inside its window behaves
// exactly like Call.
func TestCallWithDeadlineSuccess(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: ORPC})
	echo := rt.Define("echo", func(e *oam.Env, caller int, arg []byte) []byte { return arg })
	_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return
		}
		arg := NewEnc(8)
		arg.U64(77)
		res, err := echo.CallWithDeadline(c, 1, arg, sim.Micros(1000))
		if err != nil {
			t.Errorf("deadline call failed: %v", err)
			return
		}
		if NewDec(res.Bytes()).U64() != 77 {
			t.Errorf("wrong reply")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := echo.Stats(); st.Timeouts != 0 {
		t.Fatalf("unexpected timeouts: %+v", st)
	}
}

// TestCallWithDeadlineTimesOut: a procedure that blocks forever turns into
// ErrDeadline at the client instead of a hung simulation.
func TestCallWithDeadlineTimesOut(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: ORPC})
	s1 := rt.Universe().Scheduler(1)
	mu := threads.NewMutex(s1)
	cv := threads.NewCond(mu)
	hang := rt.Define("hang", func(e *oam.Env, caller int, arg []byte) []byte {
		e.Lock(mu)
		e.Await(cv, func() bool { return false }) // never
		e.Unlock(mu)
		return nil
	})
	stopped := false
	stop := rt.DefineAsync("stop", func(e *oam.Env, caller int, arg []byte) []byte {
		stopped = true
		return nil
	})
	_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
		ep := rt.Universe().Endpoint(node)
		if node == 1 {
			for !stopped {
				ep.Poll(c)
				c.P.Charge(sim.Micros(2))
				c.S.Yield(c)
			}
			return
		}
		_, err := hang.CallWithDeadline(c, 1, nil, sim.Micros(500))
		if !errors.Is(err, ErrDeadline) {
			t.Errorf("err = %v, want ErrDeadline", err)
		}
		stop.CallAsync(c, 1, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := hang.Stats(); st.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1 (%+v)", st.Timeouts, st)
	}
}

// TestCallIdempotentAgainstCrashedServer: every attempt times out against
// a dead node; the caller gets a clean error after exactly k timeouts.
func TestCallIdempotentAgainstCrashedServer(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: ORPC})
	u := rt.Universe()
	u.Machine().SetFaultPlan(&cm5.FaultPlan{Seed: 1, Crashes: []cm5.Crash{{Node: 1, At: sim.Time(10 * sim.Microsecond)}}})
	ping := rt.Define("ping", func(e *oam.Env, caller int, arg []byte) []byte { return nil })
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 1 {
			for !ep.Node().Crashed() {
				ep.Poll(c)
				c.P.Charge(sim.Micros(2))
				c.S.Yield(c)
			}
			return
		}
		c.P.Charge(sim.Micros(50)) // send only after the crash
		_, err := ping.CallIdempotent(c, 1, nil, sim.Micros(200), 3)
		if !errors.Is(err, ErrDeadline) {
			t.Errorf("err = %v, want ErrDeadline", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := ping.Stats(); st.Timeouts != 3 {
		t.Fatalf("Timeouts = %d, want 3 (%+v)", st.Timeouts, st)
	}
}

// TestCallIdempotentRecoversAfterPartition: requests blackholed during a
// partition window time out; the retry after the window heals succeeds.
func TestCallIdempotentRecoversAfterPartition(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: ORPC})
	u := rt.Universe()
	u.Machine().SetFaultPlan(&cm5.FaultPlan{
		Seed:       2,
		Partitions: []cm5.Partition{{Src: 0, Dst: 1, From: 0, To: sim.Time(300 * sim.Microsecond)}},
	})
	done := false
	echo := rt.Define("echo", func(e *oam.Env, caller int, arg []byte) []byte { return arg })
	stop := rt.DefineAsync("stop", func(e *oam.Env, caller int, arg []byte) []byte {
		done = true
		return nil
	})
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 1 {
			for !done {
				ep.Poll(c)
				c.P.Charge(sim.Micros(2))
				c.S.Yield(c)
			}
			return
		}
		arg := NewEnc(8)
		arg.U64(5)
		res, err := echo.CallIdempotent(c, 1, arg, sim.Micros(150), 5)
		if err != nil {
			t.Errorf("call through healed partition failed: %v", err)
		} else if NewDec(res.Bytes()).U64() != 5 {
			t.Errorf("wrong reply")
		}
		stop.CallAsync(c, 1, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := echo.Stats()
	if st.Timeouts == 0 {
		t.Fatalf("expected at least one timeout inside the partition window (%+v)", st)
	}
	if fs := u.Machine().FaultStats(); fs.PartitionDrops == 0 {
		t.Fatalf("partition dropped nothing")
	}
}

// TestNextBackoffCap: the doubling backoff respects nackBackoffMax.
func TestNextBackoffCap(t *testing.T) {
	b := nackBackoffBase
	var seen []sim.Duration
	for i := 0; i < 8; i++ {
		seen = append(seen, b)
		b = nextBackoff(b)
	}
	want := []sim.Duration{
		sim.Micros(10), sim.Micros(20), sim.Micros(40), sim.Micros(80),
		sim.Micros(160), sim.Micros(320), sim.Micros(320), sim.Micros(320),
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("backoff[%d] = %v, want %v", i, seen[i], want[i])
		}
	}
}
