package threads

import "repro/internal/cm5"

// Thread-aware wrappers over the control network. A thread waiting at a
// barrier (or reduction) suspends like any blocked thread: its context
// becomes the acting scheduler, so the node keeps servicing incoming
// messages and other runnable threads while it waits — which is exactly
// what the RPC versions of SOR and Water rely on.

// ctlWake is a Thread seen as the cm5.CtlWaiter of the collective it waits
// on (the sleepWake idiom): the descriptor carries the released values back.
type ctlWake Thread

func (w *ctlWake) Released(or bool, red float64) {
	t := (*Thread)(w)
	t.or, t.red = or, red
	t.sched.makeReady(t, true)
}

// waiter returns the calling thread as the waiter of collective op.
func (s *Scheduler) waiter(c Ctx, op string) *ctlWake {
	if c.T == nil {
		panic("threads: " + op + " from handler context")
	}
	s.checkCurrent(c.T, op)
	return (*ctlWake)(c.T)
}

// Barrier blocks the calling thread until every node has entered the
// barrier for the same round.
func (s *Scheduler) Barrier(c Ctx) {
	w := s.waiter(c, "Barrier")
	s.node.BarrierEnter()
	if !s.node.BarrierWaitAsync(w) {
		s.blockCurrent(c)
	}
}

// Reduce blocks the calling thread in an all-node reduction of val under
// op and returns the combined value.
func (s *Scheduler) Reduce(c Ctx, val float64, op cm5.ReduceOp) float64 {
	w := s.waiter(c, "Reduce")
	s.node.ReduceEnter(val, op)
	if ready, v := s.node.ReduceWaitAsync(w); ready {
		return v
	}
	s.blockCurrent(c)
	return w.red
}

// OREnter contributes v to the split-phase global OR; it never blocks.
func (s *Scheduler) OREnter(v bool) { s.node.OREnter(v) }

// ORWait blocks the calling thread until the global-OR round it last
// entered combines, and returns the machine-wide OR.
func (s *Scheduler) ORWait(c Ctx) bool {
	w := s.waiter(c, "ORWait")
	if ready, v := s.node.ORWaitAsync(w); ready {
		return v
	}
	s.blockCurrent(c)
	return w.or
}
