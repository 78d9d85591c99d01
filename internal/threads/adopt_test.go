package threads

import (
	"testing"

	"repro/internal/sim"
)

// TestLendFinish: a lent execution that completes returns the CPU to the
// lender with no thread created.
func TestLendFinish(t *testing.T) {
	eng, s := rig(t)
	var order []string
	s.Bootstrap("main", func(c Ctx) {
		body := eng.Spawn("lent", func(p *sim.Proc) {
			order = append(order, "body-start")
			p.Charge(sim.Micros(3))
			order = append(order, "body-end")
			s.FinishLent()
		})
		s.Lend(body)
		order = append(order, "main-parks")
		c.P.Park()
		order = append(order, "main-resumes")
	})
	run(t, eng)
	want := []string{"main-parks", "body-start", "body-end", "main-resumes"}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Stats().Adopted != 0 {
		t.Fatal("completion path adopted a thread")
	}
}

// TestLendAdoptDetachBlocked: a lent execution promotes itself, queues on
// a mutex, detaches, and finishes as a scheduled thread.
func TestLendAdoptDetachBlocked(t *testing.T) {
	eng, s := rig(t)
	mu := NewMutex(s)
	cost := s.cost
	bodyDone := false
	s.Bootstrap("main", func(c Ctx) {
		mu.Lock(c)
		var adopted *Thread
		body := eng.Spawn("lent", func(p *sim.Proc) {
			bc := Ctx{P: p, S: s}
			if !mu.TryLock(bc) {
				// Promote: adopt, queue as a waiter, give the CPU back.
				adopted = s.Adopt(Name{Base: "promoted"}, p)
				bc.T = adopted
				mu.EnqueueWaiter(adopted)
				s.DetachBlocked(bc)
				// Resumed with lock ownership via the unlock handoff.
				bodyDone = true
				mu.Unlock(bc)
				s.FinishAdopted(bc)
				return
			}
			t.Error("TryLock unexpectedly succeeded")
		})
		s.Lend(body)
		c.P.Park() // until the body detaches
		if adopted == nil || adopted.State() != "blocked" {
			t.Errorf("adopted state: %+v", adopted)
		}
		if bodyDone {
			t.Error("body ran before the lock was free")
		}
		mu.Unlock(c) // hands the lock to the adopted thread
		for !bodyDone {
			s.Yield(c)
		}
	})
	run(t, eng)
	if !bodyDone {
		t.Fatal("adopted thread never completed")
	}
	st := s.Stats()
	if st.Adopted != 1 {
		t.Fatalf("adopted = %d, want 1", st.Adopted)
	}
	_ = cost
}

// TestAdoptChargesCreation: Adopt charges the 7 us thread-creation cost
// to the promoting execution.
func TestAdoptChargesCreation(t *testing.T) {
	eng, s := rig(t)
	cost := s.cost
	s.Bootstrap("main", func(c Ctx) {
		var before, after sim.Time
		body := eng.Spawn("lent", func(p *sim.Proc) {
			bc := Ctx{P: p, S: s}
			before = p.Now()
			adopted := s.Adopt(Name{Base: "promoted"}, p)
			after = p.Now()
			bc.T = adopted
			s.DetachReady(bc)
			s.FinishAdopted(bc)
		})
		s.Lend(body)
		c.P.Park()
		if d := after.Sub(before); d != cost.ThreadCreate {
			t.Errorf("adopt charged %v, want %v", d, cost.ThreadCreate)
		}
	})
	run(t, eng)
}

// TestAdoptOwnerGuards: AdoptOwner only applies to handler-held locks.
func TestAdoptOwnerGuards(t *testing.T) {
	eng, s := rig(t)
	mu := NewMutex(s)
	s.Bootstrap("main", func(c Ctx) {
		mu.Lock(c) // owner is this thread, not a handler
		defer func() {
			if recover() == nil {
				t.Error("AdoptOwner of thread-held lock did not panic")
			}
		}()
		mu.AdoptOwner(c.T)
	})
	run(t, eng)
}

// TestUnlendWithoutLendPanics guards the protocol.
func TestUnlendWithoutLendPanics(t *testing.T) {
	eng, s := rig(t)
	s.Bootstrap("main", func(c Ctx) {
		defer func() {
			if recover() == nil {
				t.Error("Unlend without Lend did not panic")
			}
		}()
		s.Unlend()
	})
	run(t, eng)
}

// TestEnqueueWaiterFreeMutexPanics guards the promotion sequence.
func TestEnqueueWaiterFreeMutexPanics(t *testing.T) {
	eng, s := rig(t)
	mu := NewMutex(s)
	s.Bootstrap("main", func(c Ctx) {
		defer func() {
			if recover() == nil {
				t.Error("EnqueueWaiter on free mutex did not panic")
			}
		}()
		mu.EnqueueWaiter(c.T)
	})
	run(t, eng)
}

// TestAccessors covers the small read-only surface.
func TestAccessors(t *testing.T) {
	eng, s := rig(t)
	s.Bootstrap("main", func(c Ctx) {
		if s.Node() == nil || c.Node() != s.Node() {
			t.Error("node accessors inconsistent")
		}
		if c.IsHandler() {
			t.Error("thread ctx claims handler")
		}
		hc := Ctx{P: c.P, S: s}
		if !hc.IsHandler() {
			t.Error("handler ctx not recognized")
		}
		if s.Running() != c.T {
			t.Error("Running() wrong")
		}
		if c.T.Name() != "main" || c.T.State() != "running" {
			t.Errorf("name/state: %s/%s", c.T.Name(), c.T.State())
		}
		mu := NewMutex(s)
		if mu.Held() {
			t.Error("fresh mutex held")
		}
		if len(s.Blocked()) != 0 {
			t.Error("phantom blocked threads")
		}
	})
	run(t, eng)
	if eng.Live() != 1 { // the idle proc
		t.Fatalf("live = %d", eng.Live())
	}
}
