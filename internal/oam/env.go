package oam

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

// Reason says why an optimistic execution aborted.
type Reason uint8

const (
	// LockBusy: the procedure needed a lock that was held.
	LockBusy Reason = iota
	// CondFalse: the procedure waited on a condition that was false.
	CondFalse
	// NetworkFull: the procedure needed to send while the network was
	// busy (strict mode only; the CM-5 default drains instead).
	NetworkFull
	// TooLong: the procedure exceeded the handler time budget.
	TooLong
	numReasons
)

func (r Reason) String() string {
	switch r {
	case LockBusy:
		return "lock-busy"
	case CondFalse:
		return "cond-false"
	case NetworkFull:
		return "network-full"
	case TooLong:
		return "too-long"
	default:
		return fmt.Sprintf("Reason(%d)", uint8(r))
	}
}

// abortSignal unwinds an optimistic execution; recovered by Dispatcher.Run.
type abortSignal struct{ reason Reason }

// bufferedSend is an outbound message deferred until commit.
type bufferedSend struct {
	dst     int
	h       am.HandlerID
	w       [4]uint64
	payload cm5.Record
	bulk    bool
}

// Frame is what a dispatch carries to its body besides the Env: rpc puts
// the call's identity and argument record here, so one body bound per
// procedure serves every request and no closure is built per call.
type Frame struct {
	Caller int
	ID     uint64
	Arg    []byte
}

// Env is the execution capability of a remote procedure body. The same
// body runs optimistically inside a handler or pessimistically as a
// thread; Env routes each operation to the right behaviour for the mode.
//
// Envs are recycled on a per-node free list, so a body must not keep its
// Env past its own return: the dispatcher releases the record when the
// execution settles, or, for a promoted execution, when its thread ends.
type Env struct {
	C     threads.Ctx
	Frame Frame
	ep    *am.Endpoint
	d     *Dispatcher

	optimistic bool
	name       string
	body       func(*Env)
	spent      sim.Duration
	held       []*threads.Mutex
	outbox     []bufferedSend
	// Inline backing for the common procedure: a lock or two, one reply,
	// its argument (Frame.Arg) and its result record (Result).
	heldBuf  [2]*threads.Mutex
	outBuf   [1]bufferedSend
	arg, res cm5.Record

	ent    *runEntry         // multiactive slot a rerun thread releases at its end
	thread func(threads.Ctx) // e.runThread, bound once per record
	next   *Env              // free-list link

	// lent marks an execution dispatched through the lend protocol, the
	// only kind that may promote in place; it leaves its outcome here for
	// the parked lender.
	lent, settled bool
	outcome       Outcome
	reason        Reason
}

// acquire takes node's recycled Env (or makes one) and fills it for one
// execution of body.
func (d *Dispatcher) acquire(c threads.Ctx, ep *am.Endpoint, name string, body func(*Env), f Frame, optimistic bool) *Env {
	node := ep.Node().ID()
	if node >= len(d.free) {
		d.SetNodes(node + 1)
	}
	e := d.free[node]
	if e != nil {
		d.free[node] = e.next
		e.next = nil
	} else {
		e = &Env{d: d}
		e.thread = e.runThread
		e.held, e.outbox = e.heldBuf[:0], e.outBuf[:0]
	}
	e.arg.Set(f.Arg) // its packet is recycled when the handler returns, before a thread runs
	f.Arg = e.arg.Bytes()
	e.C, e.Frame, e.ep, e.name, e.body, e.optimistic = c, f, ep, name, body, optimistic
	return e
}

// release recycles e, whose execution has settled (or whose thread has
// finished) with no lock held and the outbox flushed or discarded.
func (d *Dispatcher) release(e *Env) {
	node := e.ep.Node().ID()
	e.body, e.Frame, e.ent = nil, Frame{}, nil
	e.arg, e.res = cm5.Record{}, cm5.Record{}
	e.spent, e.lent, e.settled = 0, false, false
	e.held = e.held[:0]
	e.next = d.free[node]
	d.free[node] = e
}

// runThread is the body of a thread that executes e.body pessimistically:
// the rerun of an aborted attempt, or a thread-per-call request.
func (e *Env) runThread(c threads.Ctx) {
	e.C = c
	e.body(e)
	if e.ent != nil {
		e.d.releaseSlot(c, e.ep, e.ent)
	}
	e.d.release(e)
}

// continuation reports whether an abort condition should promote in place
// rather than unwind. Only executions dispatched through the lend
// protocol may promote in place; multiactive core executions always
// unwind — the lend/adopt dance presumes the single-CPU discipline.
func (e *Env) continuation() bool {
	return e.optimistic && e.lent
}

// promote adopts the running execution as a thread: lazy thread creation.
// Locks acquired optimistically are re-labeled as held by the new thread.
// After promote the env is in thread mode; the caller must detach (via
// the scheduler) before continuing.
func (e *Env) promote(r Reason) *threads.Thread {
	t := e.C.S.Adopt(threads.Name{Prefix: "oam/", Base: e.name}, e.C.P)
	for _, m := range e.held {
		m.AdoptOwner(t)
	}
	e.C.T = t
	e.optimistic = false
	// The first (and only) promotion settles the dispatch. The lender is
	// still parked; it wakes when the adopted thread detaches.
	e.outcome, e.reason, e.settled = Promoted, r, true
	st := e.d.nodeStats(e.ep.Node().ID())
	st.ByReason[r]++
	st.Promoted++
	return t
}

// flushOutbox sends the messages buffered during the optimistic prefix:
// at commit, or right after a promotion detaches, so that messages the
// procedure sent before promoting leave the node before any it sends
// after — preserving per-destination ordering.
func (e *Env) flushOutbox() {
	for i := range e.outbox {
		b := &e.outbox[i]
		if b.bulk {
			e.ep.SendBulk(e.C, b.dst, b.h, b.w, b.payload.Bytes())
		} else {
			e.ep.Send(e.C, b.dst, b.h, b.w, b.payload.Bytes())
		}
	}
	e.dropOutbox()
}

// dropOutbox empties the outbox, letting go of the bulk payload buffers.
func (e *Env) dropOutbox() {
	clear(e.outbox)
	e.outbox = e.outbox[:0]
}

// Result keeps r as the execution's result record and returns its bytes,
// valid until the Env is released: a body may return them to be sent.
func (e *Env) Result(r *cm5.Record) []byte {
	e.res = *r
	return e.res.Bytes()
}

// Optimistic reports whether the body is executing inside a handler. The
// generated stubs use this only for statistics; behaviour differences all
// live behind the Env operations.
func (e *Env) Optimistic() bool { return e.optimistic }

// Node returns the node this procedure executes on.
func (e *Env) Node() int { return e.ep.Node().ID() }

// Ctx returns the current execution context.
func (e *Env) Ctx() threads.Ctx { return e.C }

func (e *Env) abort(r Reason) {
	panic(abortSignal{reason: r})
}

// Lock acquires m. Optimistically it is a try-lock: failure aborts the
// execution (the paper's compiled lock check). As a thread it blocks.
func (e *Env) Lock(m *threads.Mutex) {
	if e.optimistic {
		if m.TryLock(e.C) {
			e.held = append(e.held, m)
			return
		}
		if !e.continuation() {
			e.abort(LockBusy)
		}
		// Lazy promotion: become a thread, join the lock's waiter list,
		// and give the CPU back to the poller. We resume owning the lock.
		t := e.promote(LockBusy)
		m.EnqueueWaiter(t)
		e.C.S.DetachBlocked(e.C)
		e.held = append(e.held, m)
		e.flushOutbox()
		return
	}
	m.Lock(e.C)
	e.held = append(e.held, m)
}

// Unlock releases m.
func (e *Env) Unlock(m *threads.Mutex) {
	for i := len(e.held) - 1; i >= 0; i-- {
		if e.held[i] == m {
			e.held = append(e.held[:i], e.held[i+1:]...)
			m.Unlock(e.C)
			return
		}
	}
	panic("oam: Unlock of mutex not held by this procedure")
}

// Await waits until pred holds. The caller must hold cv's mutex, and as
// usual the predicate is re-tested after every wakeup. Optimistically a
// false predicate aborts (the paper's compiled condition check); as a
// thread it waits on cv.
func (e *Env) Await(cv *threads.Cond, pred func() bool) {
	if e.optimistic {
		if pred() {
			return
		}
		if !e.continuation() {
			e.abort(CondFalse)
		}
		// Lazy promotion: become a thread and wait on the condition
		// variable exactly as Cond.Wait would — enqueue, release the
		// mutex, suspend, reacquire — then re-test in a loop.
		t := e.promote(CondFalse)
		cv.EnqueueWaiter(t)
		e.Unlock(cv.L)
		e.C.S.DetachBlocked(e.C)
		e.flushOutbox()
		cv.L.Lock(e.C)
		e.held = append(e.held, cv.L)
	}
	for !pred() {
		cv.Wait(e.C)
	}
}

// Service is a cooperative scheduling point. In thread mode it polls the
// node's network and yields to other runnable threads, so a long-running
// promoted procedure shares the processor. In optimistic mode it is a
// no-op: a handler is not schedulable — which is exactly why long
// executions must abort (the TooLong check in Compute).
func (e *Env) Service() {
	if e.optimistic {
		return
	}
	e.ep.PollAll(e.C)
	if e.C.T != nil {
		e.C.S.Yield(e.C)
	}
}

// Signal forwards to cv.Signal; usable in both modes (it never blocks).
func (e *Env) Signal(cv *threads.Cond) { cv.Signal(e.C) }

// Broadcast forwards to cv.Broadcast.
func (e *Env) Broadcast(cv *threads.Cond) { cv.Broadcast(e.C) }

// Compute charges d of CPU time to the procedure. In optimistic mode with
// a handler budget configured, exceeding the budget aborts: the "runs too
// long" check that the paper lists but leaves to future work.
func (e *Env) Compute(d sim.Duration) {
	e.C.P.Charge(d)
	if !e.optimistic {
		return
	}
	e.spent += d
	b := e.d.opts.HandlerBudget
	if e.d.opts.Adaptive && b > 0 {
		b = e.d.budgetFor(e.ep.Node().ID())
	}
	if b > 0 && e.spent > b {
		if !e.continuation() {
			e.abort(TooLong)
		}
		// Lazy promotion: keep the partial computation, requeue as a
		// thread so the node can service other messages first.
		e.promote(TooLong)
		e.C.S.DetachReady(e.C)
		e.flushOutbox()
	}
}

// Send transmits a small Active Message. In optimistic mode the message
// is buffered until the body commits, so aborts leave no trace in the
// network; with StrictNetAbort set, a full network aborts the execution
// instead of draining (the third abort reason of section 2).
func (e *Env) Send(dst int, h am.HandlerID, w [4]uint64, payload []byte) {
	e.send(dst, h, w, payload, false)
}

// SendBulk is Send for the block-transfer path.
func (e *Env) SendBulk(dst int, h am.HandlerID, w [4]uint64, payload []byte) {
	e.send(dst, h, w, payload, true)
}

func (e *Env) send(dst int, h am.HandlerID, w [4]uint64, payload []byte, bulk bool) {
	if e.optimistic {
		if e.d.opts.StrictNetAbort && e.ep.Node().NetworkFull(dst) {
			if !e.continuation() {
				e.abort(NetworkFull)
			}
			// Lazy promotion: requeue as a thread; when we run again the
			// flush and this send drain like any thread's sends.
			e.promote(NetworkFull)
			e.C.S.DetachReady(e.C)
			e.flushOutbox()
			if bulk {
				e.ep.SendBulk(e.C, dst, h, w, payload)
			} else {
				e.ep.Send(e.C, dst, h, w, payload)
			}
			return
		}
		b := bufferedSend{dst: dst, h: h, w: w, bulk: bulk}
		b.payload.Set(payload)
		e.outbox = append(e.outbox, b)
		return
	}
	if bulk {
		e.ep.SendBulk(e.C, dst, h, w, payload)
	} else {
		e.ep.Send(e.C, dst, h, w, payload)
	}
}

// commit flushes buffered sends after a successful optimistic execution.
func (e *Env) commit() {
	if len(e.held) != 0 {
		panic(fmt.Sprintf("oam: procedure committed still holding %d locks", len(e.held)))
	}
	e.flushOutbox()
}

// undo releases everything an aborted attempt acquired and discards its
// buffered sends, restoring the pre-attempt state.
func (e *Env) undo() {
	for i := len(e.held) - 1; i >= 0; i-- {
		e.held[i].Unlock(e.C)
	}
	e.held = e.held[:0]
	e.dropOutbox()
}
