package threads

import (
	"math/rand"
	"testing"

	"repro/internal/cm5"
	"repro/internal/sim"
)

// rig builds a one-node machine with a scheduler.
func rig(t *testing.T) (*sim.Engine, *Scheduler) {
	t.Helper()
	eng := sim.New(7)
	m := cm5.NewMachine(eng, 1, cm5.DefaultCostModel())
	s := NewScheduler(m.Node(0))
	t.Cleanup(eng.Shutdown)
	return eng, s
}

func run(t *testing.T, eng *sim.Engine) {
	t.Helper()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrapThreadRuns(t *testing.T) {
	eng, s := rig(t)
	ran := false
	s.Bootstrap("main", func(c Ctx) {
		ran = true
		if c.T == nil || c.S != s {
			t.Error("bad ctx in thread body")
		}
	})
	run(t, eng)
	if !ran {
		t.Fatal("bootstrap thread did not run")
	}
	st := s.Stats()
	if st.Starts != 1 || st.LiveStackStart != 1 {
		t.Fatalf("stats: %+v (want 1 start via live stack)", st)
	}
}

func TestCreateChargesSevenMicros(t *testing.T) {
	eng, s := rig(t)
	var before, after sim.Time
	s.Bootstrap("main", func(c Ctx) {
		before = c.P.Now()
		s.Create(c, "child", false, func(Ctx) {})
		after = c.P.Now()
	})
	run(t, eng)
	if d := after.Sub(before); d != sim.Micros(7) {
		t.Fatalf("create cost = %v, want 7us", d)
	}
}

// TestLiveStackFromDyingThread: when the creator exits, the new thread
// starts on the dead stack with no context-switch charge.
func TestLiveStackFromDyingThread(t *testing.T) {
	eng, s := rig(t)
	var createDone, childStart sim.Time
	s.Bootstrap("main", func(c Ctx) {
		s.Create(c, "child", false, func(cc Ctx) {
			childStart = cc.P.Now()
		})
		createDone = c.P.Now()
	})
	run(t, eng)
	if childStart != createDone {
		t.Fatalf("child started at %v, want %v (live-stack, no switch)", childStart, createDone)
	}
	st := s.Stats()
	if st.LiveStackStart != 2 { // main + child
		t.Fatalf("LiveStackStart = %d, want 2", st.LiveStackStart)
	}
	if st.SwitchHalves != 0 {
		t.Fatalf("SwitchHalves = %d, want 0", st.SwitchHalves)
	}
}

// TestSwitchFromLiveThread: yielding from a live thread charges the full
// 52 us context switch up front, prepaying the yielder's own restore:
// the child starts 52 us after the yield and the yielder resumes free
// when the child exits.
func TestSwitchFromLiveThread(t *testing.T) {
	eng, s := rig(t)
	cost := cm5.DefaultCostModel()
	var yieldAt, childStart sim.Time
	var mainResumed sim.Time
	var childDone sim.Time
	s.Bootstrap("main", func(c Ctx) {
		s.Create(c, "child", true, func(cc Ctx) {
			childStart = cc.P.Now()
			cc.P.Charge(sim.Micros(5))
			childDone = cc.P.Now()
		})
		yieldAt = c.P.Now()
		s.Yield(c)
		mainResumed = c.P.Now()
	})
	run(t, eng)
	if want := yieldAt.Add(cost.YieldCheck + cost.ContextSwitch); childStart != want {
		t.Fatalf("child started at %v, want %v (yield + full switch)", childStart, want)
	}
	if mainResumed != childDone {
		t.Fatalf("main resumed at %v, want %v (prepaid restore)", mainResumed, childDone)
	}
	if st := s.Stats(); st.SwitchHalves != 2 {
		t.Fatalf("SwitchHalves = %d, want 2", st.SwitchHalves)
	}
}

// TestBlockedRestoreCostsHalf: a thread that blocked (no yield) pays the
// 26 us restore half when another context resumes it.
func TestBlockedRestoreCostsHalf(t *testing.T) {
	eng, s := rig(t)
	cost := cm5.DefaultCostModel()
	f := &Flag{}
	var setAt, wokeAt sim.Time
	s.Bootstrap("blocked", func(c Ctx) {
		f.Wait(c)
		wokeAt = c.P.Now()
	})
	s.Bootstrap("spinner", func(c Ctx) {
		// Stay runnable so the blocked thread cannot free-resume; it has
		// to be restored by a real switch.
		c.P.Charge(sim.Micros(10))
		f.Set()
		setAt = c.P.Now()
		for i := 0; i < 3; i++ {
			s.Yield(c)
		}
	})
	run(t, eng)
	// spinner yields (full switch, prepaying itself), then blocked is
	// restored for the 26 us half.
	want := setAt.Add(cost.YieldCheck + cost.ContextSwitch + cost.ContextSwitch/2)
	if wokeAt != want {
		t.Fatalf("blocked woke at %v, want %v", wokeAt, want)
	}
}

func TestYieldNoOtherThreadIsCheap(t *testing.T) {
	eng, s := rig(t)
	cost := cm5.DefaultCostModel()
	var d sim.Duration
	s.Bootstrap("main", func(c Ctx) {
		t0 := c.P.Now()
		s.Yield(c)
		d = c.P.Now().Sub(t0)
	})
	run(t, eng)
	if d != cost.YieldCheck {
		t.Fatalf("lone yield cost %v, want %v", d, cost.YieldCheck)
	}
}

func TestYieldRoundRobin(t *testing.T) {
	eng, s := rig(t)
	var order []int
	s.Bootstrap("a", func(c Ctx) {
		for i := 0; i < 3; i++ {
			order = append(order, 1)
			s.Yield(c)
		}
	})
	s.Bootstrap("b", func(c Ctx) {
		for i := 0; i < 3; i++ {
			order = append(order, 2)
			s.Yield(c)
		}
	})
	run(t, eng)
	want := []int{1, 2, 1, 2, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFrontOfQueueRunsFirst(t *testing.T) {
	eng, s := rig(t)
	var order []string
	s.Bootstrap("main", func(c Ctx) {
		s.Create(c, "back", false, func(Ctx) { order = append(order, "back") })
		s.Create(c, "front", true, func(Ctx) { order = append(order, "front") })
	})
	run(t, eng)
	if len(order) != 2 || order[0] != "front" || order[1] != "back" {
		t.Fatalf("order = %v, want [front back]", order)
	}
}

func TestJoin(t *testing.T) {
	eng, s := rig(t)
	var childDone, joinDone sim.Time
	s.Bootstrap("main", func(c Ctx) {
		child := s.Create(c, "child", false, func(cc Ctx) {
			cc.P.Charge(sim.Micros(100))
			childDone = cc.P.Now()
		})
		child.Join(c)
		joinDone = c.P.Now()
		if !child.Done() {
			t.Error("join returned before child done")
		}
		child.Join(c) // joining a dead thread returns immediately
	})
	run(t, eng)
	if joinDone < childDone {
		t.Fatalf("join at %v before child done at %v", joinDone, childDone)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	eng, s := rig(t)
	mu := NewMutex(s)
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		s.Bootstrap("worker", func(c Ctx) {
			for r := 0; r < 5; r++ {
				mu.Lock(c)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				c.P.Charge(sim.Micros(10))
				s.Yield(c) // try to tempt a second thread inside
				inside--
				mu.Unlock(c)
			}
		})
	}
	run(t, eng)
	if maxInside != 1 {
		t.Fatalf("max threads inside critical section = %d, want 1", maxInside)
	}
	if mu.Contended == 0 {
		t.Fatal("expected contention")
	}
}

func TestMutexFIFOHandoff(t *testing.T) {
	eng, s := rig(t)
	mu := NewMutex(s)
	var order []int
	s.Bootstrap("holder", func(c Ctx) {
		mu.Lock(c)
		// Let the waiters queue up.
		for i := 0; i < 3; i++ {
			s.Yield(c)
		}
		mu.Unlock(c)
	})
	for i := 0; i < 3; i++ {
		i := i
		s.Bootstrap("waiter", func(c Ctx) {
			mu.Lock(c)
			order = append(order, i)
			mu.Unlock(c)
		})
	}
	run(t, eng)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("handoff order = %v, want [0 1 2]", order)
	}
}

func TestTryLock(t *testing.T) {
	eng, s := rig(t)
	mu := NewMutex(s)
	s.Bootstrap("main", func(c Ctx) {
		if !mu.TryLock(c) {
			t.Error("TryLock failed on free mutex")
		}
		if mu.TryLock(c) {
			t.Error("TryLock succeeded on held mutex")
		}
		mu.Unlock(c)
		if !mu.TryLock(c) {
			t.Error("TryLock failed after unlock")
		}
		mu.Unlock(c)
	})
	run(t, eng)
}

func TestUnlockErrors(t *testing.T) {
	eng, s := rig(t)
	s.Bootstrap("main", func(c Ctx) {
		mu := NewMutex(s)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic unlocking unlocked mutex")
				}
			}()
			mu.Unlock(c)
		}()
	})
	run(t, eng)
}

func TestCondSignalWakesOne(t *testing.T) {
	eng, s := rig(t)
	mu := NewMutex(s)
	cv := NewCond(mu)
	ready := 0
	woken := 0
	for i := 0; i < 3; i++ {
		s.Bootstrap("waiter", func(c Ctx) {
			mu.Lock(c)
			ready++
			cv.Wait(c)
			woken++
			mu.Unlock(c)
		})
	}
	s.Bootstrap("signaler", func(c Ctx) {
		for ready < 3 {
			s.Yield(c)
		}
		mu.Lock(c)
		cv.Signal(c)
		mu.Unlock(c)
		// Give the woken thread a chance to run.
		for i := 0; i < 4; i++ {
			s.Yield(c)
		}
		if woken != 1 {
			t.Errorf("woken = %d after one signal, want 1", woken)
		}
		mu.Lock(c)
		cv.Broadcast(c)
		mu.Unlock(c)
	})
	run(t, eng)
	if woken != 3 {
		t.Fatalf("woken = %d after broadcast, want 3", woken)
	}
}

func TestCondWaitRequiresMutex(t *testing.T) {
	eng, s := rig(t)
	s.Bootstrap("main", func(c Ctx) {
		mu := NewMutex(s)
		cv := NewCond(mu)
		defer func() {
			if recover() == nil {
				t.Error("expected panic waiting without mutex")
			}
		}()
		cv.Wait(c)
	})
	run(t, eng)
}

func TestHandlerContextCannotBlock(t *testing.T) {
	eng, s := rig(t)
	mu := NewMutex(s)
	s.Bootstrap("holder", func(c Ctx) {
		mu.Lock(c)
		// Simulate a handler running on this thread's context while the
		// lock is held: it must panic rather than block.
		hc := Ctx{P: c.P, T: nil, S: s}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic: handler blocking on mutex")
				}
			}()
			mu.Lock(hc)
		}()
		if ok := mu.TryLock(hc); ok {
			t.Error("handler TryLock succeeded on held mutex")
		}
		mu.Unlock(c)
	})
	run(t, eng)
}

func TestFlagBothOrders(t *testing.T) {
	// Set before Wait.
	eng, s := rig(t)
	f := &Flag{}
	s.Bootstrap("main", func(c Ctx) {
		f.Set()
		f.Wait(c) // returns immediately
		if !f.IsSet() {
			t.Error("flag not set")
		}
	})
	run(t, eng)

	// Wait before Set.
	eng2 := sim.New(7)
	m2 := cm5.NewMachine(eng2, 1, cm5.DefaultCostModel())
	s2 := NewScheduler(m2.Node(0))
	defer eng2.Shutdown()
	f2 := &Flag{}
	var wokeAt sim.Time
	s2.Bootstrap("waiter", func(c Ctx) {
		f2.Wait(c)
		wokeAt = c.P.Now()
	})
	s2.Bootstrap("setter", func(c Ctx) {
		c.P.Charge(sim.Micros(50))
		f2.Set()
	})
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt < sim.Time(sim.Micros(50)) {
		t.Fatalf("woke at %v, want >= 50us", wokeAt)
	}
}

func TestBlockResume(t *testing.T) {
	eng, s := rig(t)
	var blocked Handle
	var resumedAt sim.Time
	blocked = s.Bootstrap("blocked", func(c Ctx) {
		s.Block(c)
		resumedAt = c.P.Now()
	})
	s.Bootstrap("resumer", func(c Ctx) {
		c.P.Charge(sim.Micros(25))
		blocked.Resume(true)
	})
	run(t, eng)
	if resumedAt < sim.Time(sim.Micros(25)) {
		t.Fatalf("resumed at %v, want >= 25us", resumedAt)
	}
}

func TestManyThreadsStress(t *testing.T) {
	eng, s := rig(t)
	const n = 500
	count := 0
	s.Bootstrap("spawner", func(c Ctx) {
		for i := 0; i < n; i++ {
			s.Create(c, "w", false, func(cc Ctx) {
				cc.P.Charge(sim.Micros(1))
				count++
			})
		}
	})
	run(t, eng)
	if count != n {
		t.Fatalf("ran %d threads, want %d", count, n)
	}
	if st := s.Stats(); st.Created != n+1 {
		t.Fatalf("created = %d, want %d", st.Created, n+1)
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	runOnce := func() sim.Time {
		eng := sim.New(3)
		rng := rand.New(rand.NewSource(3))
		m := cm5.NewMachine(eng, 1, cm5.DefaultCostModel())
		s := NewScheduler(m.Node(0))
		defer eng.Shutdown()
		mu := NewMutex(s)
		cv := NewCond(mu)
		waiting := 0
		for i := 0; i < 6; i++ {
			s.Bootstrap("w", func(c Ctx) {
				for r := 0; r < 10; r++ {
					c.P.Charge(sim.Duration(rng.Intn(50)) * sim.Microsecond)
					mu.Lock(c)
					if r%3 == 0 && waiting < 2 {
						waiting++
						cv.Wait(c)
						waiting--
					}
					cv.Signal(c)
					mu.Unlock(c)
					s.Yield(c)
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("nondeterministic scheduler: %v vs %v", a, b)
	}
}
