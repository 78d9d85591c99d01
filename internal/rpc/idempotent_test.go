package rpc

import (
	"errors"
	"testing"

	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/sim"
	"repro/internal/threads"
)

// TestCallIdempotentDuplicatedReplies: with the network duplicating
// packets (both legs — a duplicated request re-executes the idempotent
// body and yields a second reply with the same call id, exactly like a
// duplicated reply packet), every second copy must be counted stale and
// dropped. The per-call payload check is the real assertion: a duplicate
// that resolved a later call would surface as a wrong reply value.
func TestCallIdempotentDuplicatedReplies(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: ORPC})
	u := rt.Universe()
	u.Machine().SetFaultPlan(&cm5.FaultPlan{Seed: 3, DupProb: 0.35})
	done := false
	echo := rt.Define("echo", func(e *oam.Env, caller int, arg []byte) []byte { return arg })
	stop := rt.DefineAsync("stop", func(e *oam.Env, caller int, arg []byte) []byte {
		done = true
		return nil
	})
	const calls = 20
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
		for i := 0; i < calls; i++ {
			arg := NewEnc(8)
			arg.U64(uint64(100 + i))
			res, err := echo.CallIdempotent(c, 1, arg, sim.Micros(500), 4)
			if err != nil {
				t.Errorf("call %d failed: %v", i, err)
				break
			}
			if got := NewDec(res.Bytes()).U64(); got != uint64(100+i) {
				t.Errorf("call %d: reply %d — a duplicate was mis-delivered", i, got)
			}
		}
		stop.CallAsync(c, 1, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if fs := u.Machine().FaultStats(); fs.Duplicated == 0 {
		t.Fatal("fault plan duplicated nothing; the test exercised no dup path")
	}
	if rt.StaleReplies() == 0 {
		t.Fatal("no duplicate reply was counted stale")
	}
	st := echo.Stats()
	if st.Timeouts != 0 || st.GiveUps != 0 {
		t.Fatalf("dup-only network must not time out: %+v", st)
	}
}

// TestCallIdempotentGiveUpCountsOnce: exhausting every attempt against a
// crashed server is one give-up, not one per attempt.
func TestCallIdempotentGiveUpCountsOnce(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: ORPC})
	u := rt.Universe()
	u.Machine().SetFaultPlan(&cm5.FaultPlan{Seed: 1, Crashes: []cm5.Crash{
		{Node: 1, At: sim.Time(10 * sim.Microsecond)}}})
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
		if _, err := ping.CallIdempotent(c, 1, nil, sim.Micros(200), 3); !errors.Is(err, ErrDeadline) {
			t.Errorf("err = %v, want ErrDeadline", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := ping.Stats()
	if st.Timeouts != 3 || st.GiveUps != 1 {
		t.Fatalf("Timeouts = %d, GiveUps = %d, want 3 and 1 (%+v)", st.Timeouts, st.GiveUps, st)
	}
	if rt.StaleReplies() != 0 {
		t.Fatalf("crashed server replied: StaleReplies = %d", rt.StaleReplies())
	}
}

// TestLateReplyAfterGiveUpNotMisdelivered is the dangerous interleaving:
// a slow server's replies land after the caller has exhausted its
// attempts and moved on to the NEXT call. Each abandoned attempt used its
// own call id, so both late replies must be dropped as stale; the live
// call must resolve with its own payload, never an abandoned attempt's.
//
// Call records are recycled most-recently-released first and this node
// has one caller, so all three attempts use the same record: the late
// replies are addressed to the very struct the live call is waiting on,
// and only the sequence half of the id tells them apart.
func TestLateReplyAfterGiveUpNotMisdelivered(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: ORPC})
	u := rt.Universe()
	done := false
	slow := rt.Define("slow", func(e *oam.Env, caller int, arg []byte) []byte {
		e.Compute(sim.Micros(300)) // reply lands well past the 100 us attempt window
		return arg
	})
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
		argA := NewEnc(8)
		argA.U64(111)
		if _, err := slow.CallIdempotent(c, 1, argA, sim.Micros(100), 2); !errors.Is(err, ErrDeadline) {
			t.Errorf("slow call: err = %v, want ErrDeadline", err)
		}
		// Both abandoned attempts are still executing on the server; their
		// replies will arrive while this next call is waiting.
		argB := NewEnc(8)
		argB.U64(222)
		res, err := echo.CallWithDeadline(c, 1, argB, sim.Micros(5000))
		if err != nil {
			t.Errorf("live call failed: %v", err)
		} else if got := NewDec(res.Bytes()).U64(); got != 222 {
			t.Errorf("live call resolved with %d — an abandoned attempt's reply", got)
		}
		stop.CallAsync(c, 1, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	sst := slow.Stats()
	if sst.Timeouts != 2 || sst.GiveUps != 1 || sst.Retries != 0 || sst.Calls != 2 {
		t.Fatalf("slow stats %+v, want Timeouts=2 GiveUps=1 Retries=0 Calls=2", sst)
	}
	if est := echo.Stats(); est.Timeouts != 0 || est.GiveUps != 0 {
		t.Fatalf("echo stats %+v, want no timeouts", est)
	}
	if got := rt.StaleReplies(); got != 2 {
		t.Fatalf("StaleReplies = %d, want 2 (one per abandoned attempt)", got)
	}
	if n := 1 + len(rt.nodes[0].slots); n != 1 {
		t.Fatalf("the caller used %d call records, want every attempt on one recycled record", n)
	}
}

// TestRecycledCallRecordIgnoresStaleResolvers drives the record pool
// directly: a call record is released and handed straight back to a new
// call, and then everything that could still be addressed to its previous
// tenant surfaces — a reply, a nack, and the instant its deadline timer
// was armed for. None may resolve the new call; its own reply must.
func TestRecycledCallRecordIgnoresStaleResolvers(t *testing.T) {
	rt := newRT(t, 2, Options{Mode: ORPC})
	_, err := rt.Universe().SPMD(func(c threads.Ctx, node int) {
		if node != 0 {
			return
		}
		ns := rt.node(0)
		sh := c.Node().Shard()
		old := ns.take(nil, c, 0, nil)
		ns.begin(old)
		oldID := old.id
		old.timer = sh.AtActionTimer(sh.Now().Add(sim.Micros(50)), old)
		ns.end(old)

		cur := ns.take(nil, c, 0, nil)
		ns.begin(cur)
		if cur != old {
			t.Fatal("the pool did not hand the released record straight back")
		}
		if cur.id == oldID {
			t.Fatal("a recycled record reused its previous call id")
		}
		rt.handleReply(c, &cm5.Packet{Dst: 0, W0: oldID, Payload: []byte{9}})
		rt.handleNack(c, &cm5.Packet{Dst: 0, W0: oldID})
		c.S.Sleep(c, sim.Micros(100)) // past the previous tenant's deadline
		if cur.flag.IsSet() || len(cur.msg.Bytes()) != 0 || cur.nacked || cur.timedOut {
			t.Fatalf("a stale resolver reached the new call: %+v", cur)
		}
		if got := rt.StaleReplies(); got != 2 {
			t.Errorf("StaleReplies = %d, want 2", got)
		}
		// An id whose slot this node never made is stale too, not a crash.
		rt.handleReply(c, &cm5.Packet{Dst: 0, W0: cur.id + 1})
		rt.handleReply(c, &cm5.Packet{Dst: 0, W0: cur.id, Payload: []byte{7}})
		if !cur.flag.IsSet() || len(cur.msg.Bytes()) != 1 || cur.msg.Bytes()[0] != 7 {
			t.Fatalf("the new call's own reply did not resolve it: %+v", cur)
		}
		// A duplicate of that reply finds the call already answered.
		rt.handleReply(c, &cm5.Packet{Dst: 0, W0: cur.id, Payload: []byte{8}})
		if cur.msg.Bytes()[0] != 7 || rt.StaleReplies() != 4 {
			t.Fatalf("duplicate reply: reply %v, StaleReplies %d", cur.msg.Bytes(), rt.StaleReplies())
		}
		ns.end(cur)
	})
	if err != nil {
		t.Fatal(err)
	}
}
