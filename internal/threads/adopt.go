package threads

import (
	"fmt"

	"repro/internal/sim"
)

// This file supports lazy thread promotion (the "continuation" abort
// strategy of package oam). An optimistic handler execution runs on an
// auxiliary simulation process that the polling context *lends* the CPU
// to. If the execution must block, the process is *adopted* as a real
// thread — its execution state becomes the thread's stack, so nothing is
// re-executed — and the CPU returns to the lender. ABCL/f implements its
// handler blocking this way by copying frames to the heap; here the
// auxiliary process plays the role of the heap-allocated continuation.

// lendEntry records one level of CPU lending.
type lendEntry struct {
	p      *sim.Proc // the borrowed-to process
	lender *sim.Proc // who to wake when the borrower detaches or finishes
}

// Lend marks p as holding this node's CPU, on loan from the current CPU
// holder. Lending nests: a lent execution that polls the network can lend
// onward to another optimistic execution.
func (s *Scheduler) Lend(p *sim.Proc) {
	if s.probe != nil {
		s.probe.ProcBound(s.node.ID(), p)
	}
	s.lent = append(s.lent, lendEntry{p: p, lender: s.cpuProc()})
}

// Unlend ends the innermost loan. The caller is responsible for waking
// the lender (Detach* and FinishLent do both).
func (s *Scheduler) Unlend() {
	if len(s.lent) == 0 {
		panic("threads: Unlend without Lend")
	}
	s.lent = s.lent[:len(s.lent)-1]
}

// FinishLent ends the innermost loan and wakes the lender; called by a
// lent execution that ran to completion without promotion. The calling
// process must return (die) immediately afterwards.
func (s *Scheduler) FinishLent() {
	top := s.lent[len(s.lent)-1]
	s.Unlend()
	top.lender.Unpark()
}

// Adopt gives the lent execution running on p a thread identity: lazy
// thread creation. The creation cost is charged to p (the handler pays
// for its own promotion, as the paper measures: an abort costs the thread
// creation time). The thread is in the running state but is not yet under
// scheduler control; the caller must detach via DetachBlocked or
// DetachReady before doing anything else.
func (s *Scheduler) Adopt(name Name, p *sim.Proc) *Thread {
	if len(s.lent) == 0 || s.lent[len(s.lent)-1].p != p {
		panic("threads: Adopt of a process that is not the current borrower")
	}
	p.Charge(s.cost.ThreadCreate)
	s.stats.Adopted++
	t := s.newThread(name, nil, p, stateRunning)
	if s.probe != nil {
		s.probe.ThreadStarted(s.sh.Now(), s.node.ID(), t, true)
	}
	return t
}

// DetachBlocked parks the adopted thread in the blocked state and returns
// the CPU to the lender. The caller must already have queued the thread
// somewhere it will be woken from (a mutex waiter list, a condition
// variable). When DetachBlocked returns, the thread has been resumed by
// the scheduler and is the current thread.
func (s *Scheduler) DetachBlocked(c Ctx) {
	s.detach(c, false)
}

// DetachReady is DetachBlocked for promotions that can keep running (time
// budget exceeded, network full): the thread goes to the back of the ready
// queue instead of a waiter list, so other work runs first.
func (s *Scheduler) DetachReady(c Ctx) {
	s.detach(c, true)
}

func (s *Scheduler) detach(c Ctx, requeue bool) {
	t := c.T
	if t == nil {
		panic("threads: detach of non-adopted execution")
	}
	if len(s.lent) == 0 || s.lent[len(s.lent)-1].p != c.P {
		panic("threads: detach by a process that is not the current borrower")
	}
	top := s.lent[len(s.lent)-1]
	s.Unlend()
	s.stats.Blocks++
	if requeue {
		// Push directly rather than via makeReady: the CPU is about to
		// return to the lender, which will find the ready thread itself.
		t.state = stateReady
		s.ready.pushBack(t)
		s.noteReady()
	} else {
		t.state = stateBlocked
		s.noteBlocked(t)
	}
	top.lender.Unpark()
	c.P.Park()
	if s.cur != t {
		panic(fmt.Sprintf("threads: adopted thread %q resumed without the CPU", t.Name()))
	}
}

// FinishAdopted is the exit epilogue of a promoted thread: the body has
// returned, so mark the thread dead, wake joiners, and give the CPU away.
// The calling process must return immediately afterwards.
func (s *Scheduler) FinishAdopted(c Ctx) {
	t := c.T
	if t == nil || s.cur != t {
		panic("threads: FinishAdopted without an adopted current thread")
	}
	s.exit(c.P, t)
}

// EnqueueWaiter appends t, an adopted thread about to detach, to the
// mutex's waiter list. The mutex must be held (the failed try-lock that
// triggered promotion established that, and nothing else can have run on
// this node since).
func (m *Mutex) EnqueueWaiter(t *Thread) {
	if !m.held {
		panic("threads: EnqueueWaiter on free mutex")
	}
	m.Contended++
	m.waiters = append(m.waiters, t)
}

// EnqueueWaiter appends t, an adopted thread about to detach, to the
// condition variable's waiter list. Unlike Cond.Wait this does not
// release the mutex — the promotion sequence in package oam releases the
// procedure's locks explicitly.
func (cv *Cond) EnqueueWaiter(t *Thread) {
	cv.waiters = append(cv.waiters, t)
}

// AdoptOwner re-labels a lock held by an optimistic (handler) execution
// as held by its newly promoted thread, so that Unlock's ownership check
// and Cond.Wait's mutex check see the right owner.
func (m *Mutex) AdoptOwner(t *Thread) {
	if !m.held || m.owner != nil {
		panic("threads: AdoptOwner of a lock not held by a handler execution")
	}
	m.owner = t
}
