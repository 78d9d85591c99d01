package threads

import (
	"fmt"

	"repro/internal/cm5"
	"repro/internal/sim"
)

// threadState tracks a thread through its life cycle.
type threadState uint8

const (
	stateNew     threadState = iota // created, waiting for first run
	stateReady                      // suspended but runnable
	stateRunning                    // on the CPU
	stateBlocked                    // waiting (mutex, cond, join, rpc)
	stateDead                       // body returned
)

func (st threadState) String() string {
	switch st {
	case stateNew:
		return "new"
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateBlocked:
		return "blocked"
	case stateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(st))
	}
}

// Ctx is an execution context on a node's CPU: either a thread (T != nil)
// or the handler/idle context (T == nil). Every operation that charges
// virtual time or can block takes a Ctx.
type Ctx struct {
	P *sim.Proc
	T *Thread
	S *Scheduler
}

// Node returns the node whose CPU this context occupies.
func (c Ctx) Node() *cm5.Node { return c.S.Node() }

// IsHandler reports whether this context is a handler/idle context, which
// must not block.
func (c Ctx) IsHandler() bool { return c.T == nil }

// Name is a thread name kept in parts, so that creating a thread never
// formats one: the string is built only when a tracer, probe or deadlock
// report reads it. It reads Prefix+Base, followed by "A.B" when Pair is
// set ("oam/" + procedure, "kv/req/" + client.request).
type Name struct {
	Prefix, Base string
	A, B         int
	Pair         bool
}

func (n Name) String() string {
	if !n.Pair {
		return n.Prefix + n.Base
	}
	return fmt.Sprintf("%s%s%d.%d", n.Prefix, n.Base, n.A, n.B)
}

// Thread is a user-level thread: a descriptor plus (in this model) a
// simulation process standing in for its stack. Descriptors are recycled
// through their scheduler's free list when the thread exits; callers hold a
// Handle, whose generation tells it from later tenants. Inside the package
// raw pointers serve (Ctx.T, the ready queue, every wake source): a wake
// source is registered by the thread that blocks on it and is consumed by the
// wake — cleared or cancelled on resume — so none outlives its thread.
type Thread struct {
	sched   *Scheduler
	name    Name
	body    func(Ctx)
	proc    *sim.Proc
	state   threadState
	prepaid bool   // restore cost prepaid by a yield's full-switch charge
	or      bool   // with red, what the collective it waited on released
	gen     uint32 // tenancy of the descriptor; see Handle
	red     float64
	joiners []*Thread
	// blockedPrev/blockedNext link the scheduler's ring of suspended
	// threads (deadlock diagnostics), in block order; blockedNext also
	// links the free list, which a thread enters dead.
	blockedPrev, blockedNext *Thread
}

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name.String() }

// State returns a human-readable state ("new", "ready", "running",
// "blocked", "dead") for diagnostics.
func (t *Thread) State() string { return t.state.String() }

// Handle names one thread for the code that created it: the descriptor and
// the generation it had then. Once the thread has exited — whether or not
// the descriptor has a new tenant — Done reports true, Join returns at once
// and Resume panics, as they do for any dead thread.
type Handle struct {
	t   *Thread
	gen uint32
}

// Done reports whether the thread's body has returned.
func (h Handle) Done() bool { return h.t.gen != h.gen || h.t.state == stateDead }

// threadProc is a Thread seen as its process's sim.Runner: starting a
// thread converts the descriptor pointer instead of allocating a closure.
type threadProc Thread

func (r *threadProc) Name() string { return (*Thread)(r).Name() }

// Run is the thread's process body.
func (r *threadProc) Run(p *sim.Proc) {
	t := (*Thread)(r)
	t.body(Ctx{P: p, T: t, S: t.sched})
	t.sched.exit(p, t)
}

// Join blocks the calling thread until h's body has returned.
func (h Handle) Join(c Ctx) {
	t := h.t
	if c.S != t.sched {
		panic("threads: Join across nodes")
	}
	if h.Done() {
		return
	}
	if c.T == nil {
		panic("threads: Join from handler context")
	}
	t.joiners = append(t.joiners, c.T)
	t.sched.blockCurrent(c)
}

// Block suspends the calling thread until someone calls Resume on it.
// It is the low-level wait primitive beneath RPC reply waiting.
func (s *Scheduler) Block(c Ctx) { s.blockCurrent(c) }

// Sleep suspends the calling thread for d of virtual time on a node-local
// timer (the same idiom as RPC deadlines). A blocked thread leaves the
// ready queue, so the node's other threads get the whole CPU meanwhile
// and the idle loop answers incoming messages when everything blocks.
// Charging the interval instead would model the wait as a busy spin:
// every other thread's CPU share halves and each slice pays a 52 us
// context switch to hand the CPU back to the spinning waiter — in the
// sched control plane's worst case stretching a job past any lease
// timeout and livelocking on migration ping-pong. The wakeup is the
// thread descriptor itself, scheduled as a sim.Action, so sleeping
// allocates nothing.
func (s *Scheduler) Sleep(c Ctx, d sim.Duration) {
	if c.T == nil {
		panic("threads: Sleep from handler context")
	}
	s.sh.AfterAction(d, (*sleepWake)(c.T))
	s.blockCurrent(c)
}

// sleepWake is a Thread seen as the sim.Action that ends its Sleep.
type sleepWake Thread

func (w *sleepWake) Run() { (*Thread)(w).Resume(true) }

// Resume makes a blocked thread runnable, at the front or back of the
// ready queue. It may be called from any context on the same node,
// including handlers; it never preempts the caller.
func (t *Thread) Resume(front bool) {
	t.sched.makeReady(t, front)
}

// Resume is Thread.Resume for the holder of a handle.
func (h Handle) Resume(front bool) {
	if h.t.gen != h.gen {
		panic("threads: Resume of a finished thread")
	}
	h.t.Resume(front)
}

// Flag is a single-waiter completion flag: the synchronization between an
// RPC client thread and the reply handler. Set may happen before Wait
// (fast reply) or after (slow reply); both orders work.
type Flag struct {
	set    bool
	waiter *Thread
}

// Wait blocks the calling thread until the flag is set. If the flag is
// already set it returns immediately.
func (f *Flag) Wait(c Ctx) {
	if f.set {
		return
	}
	if c.T == nil {
		panic("threads: Flag.Wait from handler context")
	}
	if f.waiter != nil {
		panic("threads: Flag has two waiters")
	}
	f.waiter = c.T
	c.S.blockCurrent(c)
}

// Set sets the flag and wakes the waiter, if any, scheduling it at the
// front of the ready queue (replies run promptly, like incoming calls).
func (f *Flag) Set() {
	if f.set {
		panic("threads: Flag set twice")
	}
	f.set = true
	if f.waiter != nil {
		w := f.waiter
		f.waiter = nil
		w.Resume(true)
	}
}

// IsSet reports whether Set has been called.
func (f *Flag) IsSet() bool { return f.set }
