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

// Name is a thread name kept in parts, so that creating a thread never
// formats one: the string is built only for an observed node's records
// or a deadlock report. It reads Prefix+Base, followed by "A.B" when Pair is
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
	slot    uint32 // the descriptor's number on its node; see RecCreated
	red     float64
	joiners []*Thread
	// then is what the thread goes on with when it has the CPU back, if it
	// blocked from kernel context (SleepThen, Flag.Await); before a thread
	// with no body starts, its head (Creation).
	then sim.Continuation
	// blockedPrev/blockedNext link the scheduler's ring of suspended
	// threads (deadlock diagnostics), in block order; blockedNext also
	// links the free list, which a thread enters dead.
	blockedPrev, blockedNext *Thread
}

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name.String() }

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

// Run is the thread's process body, or, for a thread with a head, the
// stack the head said Run for: the poller carries on what the head left
// there, and the head, asked again in kernel context meanwhile, ends by
// exiting.
func (r *threadProc) Run(p *sim.Proc) {
	t := (*Thread)(r)
	s := t.sched
	c := Ctx{P: p, T: t, S: s}
	if t.body != nil {
		t.body(c)
		s.exit(p, t)
		return
	}
	gen := t.gen
	s.stepper.Carry(c)
	if t.gen == gen {
		panic(fmt.Sprintf("threads: the head of %q said Run with nothing left to its stack", t.Name()))
	}
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
// context switch to hand the CPU back to the spinning waiter. The wakeup
// is the thread descriptor itself, scheduled as a sim.Action, so sleeping
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

// SleepThen is Sleep asked in kernel context for p, whose thread holds s's
// CPU, with k for what the thread does when it has the CPU back: the
// scheduler acts in p's place meanwhile, and at the wakeup the kernel loop
// asks k in the thread's, switching to p only when k says Run. p's stack
// must be in Then, which serves what the scheduler leaves to it.
func (s *Scheduler) SleepThen(p *sim.Proc, d sim.Duration, k sim.Continuation) (sim.Next, sim.Duration) {
	t := s.cur
	if t == nil || t.proc != p {
		panic("threads: SleepThen from a process whose thread is not on the CPU")
	}
	s.sh.AfterAction(d, (*sleepWake)(t))
	return s.blockThen(p, t, k)
}

// blockThen blocks t, the thread of p, from kernel context: the scheduler
// acts in p's place until t has the CPU back, and then k goes on (nil: p
// runs).
func (s *Scheduler) blockThen(p *sim.Proc, t *Thread, k sim.Continuation) (sim.Next, sim.Duration) {
	t.then = k
	s.block(Ctx{P: p, T: t, S: s})
	s.actor, s.self = p, t
	p.Pass(s)
	return s.Continue(p)
}

// Serve runs on c's stack what the scheduler acting in c's place — c.T
// blocked from kernel context — left there, until c.T has the CPU back or
// has exited, and reports whether it acted.
func (s *Scheduler) Serve(c Ctx) bool {
	if c.T == nil || s.actor != c.P || s.self != c.T {
		return false
	}
	s.serve(c.P)
	return true
}

// Then runs k for c's thread as c.P.Then does, k being asked in kernel
// context; k may block the thread (SleepThen), and is asked again in its
// place each time it has the CPU back. Then returns when k says Run, the
// thread on the CPU, having run what the scheduler acting in its place
// needed the stack for meanwhile.
func (s *Scheduler) Then(c Ctx, k sim.Continuation) {
	s.checkCurrent(c.T, "Then")
	c.P.Then(k)
	s.serve(c.P)
	s.resumed(c.T)
}

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

// Wait blocks the calling thread until the flag is set: Await, driven
// from c's stack. If the flag is already set it returns immediately.
func (f *Flag) Wait(c Ctx) {
	if c.T == nil {
		panic("threads: Flag.Wait from handler context")
	}
	c.S.waitFor = f
	c.S.Then(c, (*flagWait)(c.S))
}

// flagWait is a Scheduler seen as the sim.Continuation that takes the flag
// Wait handed over in waitFor and awaits it.
type flagWait Scheduler

func (w *flagWait) Continue(p *sim.Proc) (sim.Next, sim.Duration) {
	s := (*Scheduler)(w)
	f := s.waitFor
	s.waitFor = nil
	return f.Await(p, s, nil)
}

// Await is the one wait for the flag, asked in kernel context for p, whose
// thread holds s's CPU, with k for what the thread does once it is set
// (nil: p runs): at once if it is; otherwise the thread blocks here, as
// blockCurrent would, the scheduler acts in p's place (Scheduler.Continue),
// and k goes on when the thread has the CPU back.
func (f *Flag) Await(p *sim.Proc, s *Scheduler, k sim.Continuation) (sim.Next, sim.Duration) {
	if f.set {
		if k == nil {
			return sim.NextRun, 0
		}
		p.Pass(k)
		return k.Continue(p)
	}
	t := s.cur
	if t == nil || t.proc != p {
		panic("threads: Flag.Await from a process whose thread is not on the CPU")
	}
	if f.waiter != nil {
		panic("threads: Flag has two waiters")
	}
	f.waiter = t
	return s.blockThen(p, t, k)
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
