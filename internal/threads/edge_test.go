package threads

import (
	"testing"

	"repro/internal/sim"
)

// TestMultipleJoiners: several threads joining one target all wake.
func TestMultipleJoiners(t *testing.T) {
	eng, s := rig(t)
	woken := 0
	var target Handle
	s.Bootstrap("main", func(c Ctx) {
		target = s.Create(c, "target", false, func(cc Ctx) {
			cc.P.Charge(sim.Micros(50))
		})
		for i := 0; i < 3; i++ {
			s.Create(c, "joiner", false, func(cc Ctx) {
				target.Join(cc)
				if !target.Done() {
					t.Error("join returned before target done")
				}
				woken++
			})
		}
	})
	run(t, eng)
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

// TestFlagDoubleSetPanics: setting a completion flag twice is a protocol
// violation.
func TestFlagDoubleSetPanics(t *testing.T) {
	eng, s := rig(t)
	s.Bootstrap("main", func(c Ctx) {
		f := &Flag{}
		f.Set()
		defer func() {
			if recover() == nil {
				t.Error("expected panic on double Set")
			}
		}()
		f.Set()
	})
	run(t, eng)
}

// TestYieldStorm: many threads yielding in a tight loop neither deadlock
// nor starve; all finish.
func TestYieldStorm(t *testing.T) {
	eng, s := rig(t)
	const n = 20
	finished := 0
	for i := 0; i < n; i++ {
		s.Bootstrap("w", func(c Ctx) {
			for r := 0; r < 50; r++ {
				s.Yield(c)
			}
			finished++
		})
	}
	run(t, eng)
	if finished != n {
		t.Fatalf("finished = %d, want %d", finished, n)
	}
}

// TestCreateFromHandlerCtx: Create is legal from a handler context (that
// is how TRPC dispatch works); the thread runs later.
func TestCreateFromHandlerCtx(t *testing.T) {
	eng, s := rig(t)
	ran := false
	s.Bootstrap("main", func(c Ctx) {
		hc := Ctx{P: c.P, S: s} // handler context on this thread's CPU
		s.Create(hc, "spawned", true, func(cc Ctx) { ran = true })
		s.Yield(c)
	})
	run(t, eng)
	if !ran {
		t.Fatal("handler-created thread never ran")
	}
}

// TestCondBroadcastOrder: broadcast wakes all waiters and they reacquire
// the mutex one at a time.
func TestCondBroadcastOrder(t *testing.T) {
	eng, s := rig(t)
	mu := NewMutex(s)
	cv := NewCond(mu)
	waiting := 0
	inside := 0
	maxInside := 0
	for i := 0; i < 5; i++ {
		s.Bootstrap("waiter", func(c Ctx) {
			mu.Lock(c)
			waiting++
			cv.Wait(c)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			c.P.Charge(sim.Micros(3))
			inside--
			mu.Unlock(c)
		})
	}
	s.Bootstrap("broadcaster", func(c Ctx) {
		for waiting < 5 {
			s.Yield(c)
		}
		mu.Lock(c)
		cv.Broadcast(c)
		mu.Unlock(c)
	})
	run(t, eng)
	if maxInside != 1 {
		t.Fatalf("mutual exclusion violated after broadcast: %d", maxInside)
	}
}

// TestSchedulerStatsCoherent: counters line up after a mixed workload.
func TestSchedulerStatsCoherent(t *testing.T) {
	eng, s := rig(t)
	f := &Flag{}
	s.Bootstrap("a", func(c Ctx) {
		s.Create(c, "b", false, func(cc Ctx) {
			cc.P.Charge(sim.Micros(1))
			f.Set()
		})
		f.Wait(c)
		s.Yield(c)
	})
	run(t, eng)
	st := s.Stats()
	if st.Created != 2 || st.Starts != 2 {
		t.Fatalf("created/starts = %d/%d", st.Created, st.Starts)
	}
	if st.LiveStackStart > st.Starts {
		t.Fatal("more live-stack starts than starts")
	}
	if st.Blocks == 0 {
		t.Fatal("no blocks recorded")
	}
}
