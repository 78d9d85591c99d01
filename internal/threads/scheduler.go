package threads

import (
	"fmt"
	"slices"

	"repro/internal/cm5"
	"repro/internal/sim"
)

// Poller is the hook through which the scheduler services the network.
// Package am installs one per node; PollOnce must poll the node's input
// queue once and dispatch at most one packet, returning whether a packet
// was handled. It runs on a handler context (Ctx with nil Thread).
type Poller interface {
	PollOnce(c Ctx) bool
}

// stepPoller is a Poller whose PollOnce can be taken in steps: Eject, which
// leaves PacketRecvOverhead and HandlerDispatch to be charged in that
// order, then Dispatch. The first three, and for an atomic handler the
// last, need no process (see Continue). Package am's is one.
type stepPoller interface {
	Eject() (pkt *cm5.Packet, atomic bool)
	Dispatch(c Ctx, pkt *cm5.Packet)
}

// Stats counts scheduler activity; the paper reports the live-stack
// fraction (sections 4.1.1, 4.2.1) so it is tracked explicitly.
type Stats struct {
	Created        uint64 // threads created
	Starts         uint64 // threads started (first run)
	LiveStackStart uint64 // starts that used the live-stack optimization
	SwitchHalves   uint64 // 26 us register save/restore charges
	FreeResumes    uint64 // blocked threads that resumed in place, free
	Yields         uint64 // voluntary yields that actually switched
	Blocks         uint64 // thread suspensions (mutex, cond, rpc, barrier)
	Adopted        uint64 // lazy promotions of handler executions (oam)
	Interrupts     uint64 // message interrupts taken (interrupt mode)
}

// LiveStackPercent reports the fraction of thread starts that avoided a
// full context switch.
func (s *Stats) LiveStackPercent() float64 {
	if s.Starts == 0 {
		return 100
	}
	return 100 * float64(s.LiveStackStart) / float64(s.Starts)
}

// Scheduler is the per-node, non-preemptive, user-level thread scheduler.
// It owns the node's CPU: exactly one context — a thread, a handler, or
// the scheduler loop itself — executes per node at any simulated instant.
//
// As in the paper, "the thread scheduler runs in the context of the
// thread that called it": when a thread blocks it keeps executing as the
// *acting scheduler*, polling the network and looking for runnable
// threads. If its own wakeup arrives first it simply returns — a free
// resume, which is why a blocking RPC costs no context switch on an
// otherwise idle node. Starting a newly created thread from the acting
// scheduler (whose thread is suspended or dead) is also free beyond the
// 7 us creation cost — the live-stack optimization. Only two operations
// pay the full 52 us switch: leaving a still-runnable thread (yield), and
// restoring a previously suspended thread.
type Scheduler struct {
	node *cm5.Node
	sh   *sim.Shard
	cost cm5.CostModel

	ready deque
	cur   *Thread // thread on the CPU; nil while the scheduler loop acts
	// actor is the process currently running the scheduler loop (polling,
	// dispatching); nil while a thread has the CPU. Invariant: exactly
	// one of cur/actor is non-nil except inside a CPU handoff.
	actor *sim.Proc
	self  *Thread   // the blocked thread whose context actor is; nil for idle
	idle  *sim.Proc // scheduler-of-last-resort process
	lent  []lendEntry
	// What the actor is in the middle of, between two answers of Continue:
	// restoring is the thread whose restore half is being charged; ejected
	// the packet being paid for, owed whether its dispatch charge is still
	// to be armed, atomic whether its handler needs no process.
	restoring  *Thread
	ejected    *cm5.Packet
	owed       bool
	atomic     bool
	poller     Poller
	stepper    stepPoller // poller, when it is one
	stats      Stats
	stopped    bool
	interrupts bool
	// blocked is the sentinel of the ring of suspended threads, linked
	// through the descriptors in block order.
	blocked Thread
	free    *Thread     // dead descriptors, most recent first
	cores   []*sim.Proc // bound multiactive core workers
	probe   Probe
}

// Probe observes scheduler activity: thread lifetimes, ready-queue depth,
// and which simulation processes execute on this node's CPU (so observers
// can attribute per-process costs to nodes). Probes are pure observers —
// they must not schedule events or charge virtual time; every hook is
// skipped when no probe is installed.
type Probe interface {
	// ThreadCreated fires when a thread descriptor comes into existence
	// (Create, Bootstrap, or lazy promotion via Adopt).
	ThreadCreated(t sim.Time, node int, th *Thread)
	// ThreadStarted fires at a thread's first run; liveStack reports
	// whether the start used the live-stack optimization. Adopted threads
	// start implicitly (their execution state already exists).
	ThreadStarted(t sim.Time, node int, th *Thread, liveStack bool)
	// ThreadExited fires when a thread's body has returned.
	ThreadExited(t sim.Time, node int, th *Thread)
	// ReadyDepth fires whenever the node's ready-queue occupancy changes.
	ReadyDepth(t sim.Time, node int, depth int)
	// ProcBound associates a simulation process with this node: the idle
	// process, each thread's process, and lent (optimistic) executions.
	ProcBound(node int, p *sim.Proc)
}

// SetProbe installs a scheduler probe; pass nil to disable. The node's
// already-running processes (the idle process) are reported immediately.
func (s *Scheduler) SetProbe(p Probe) {
	s.probe = p
	if p != nil {
		p.ProcBound(s.node.ID(), s.idle)
	}
}

// noteReady reports a ready-queue occupancy change to the probe.
func (s *Scheduler) noteReady() {
	if s.probe != nil {
		s.probe.ReadyDepth(s.sh.Now(), s.node.ID(), s.ready.len())
	}
}

// NewScheduler creates the scheduler for node and starts its idle
// process, which acts as the scheduler whenever no thread context is
// available to act in.
func NewScheduler(node *cm5.Node) *Scheduler {
	s := &Scheduler{
		node: node,
		sh:   node.Shard(),
		cost: node.Machine().Cost(),
	}
	s.blocked.blockedPrev, s.blocked.blockedNext = &s.blocked, &s.blocked
	s.idle = s.sh.Spawn(fmt.Sprintf("idle/%d", node.ID()), func(p *sim.Proc) { s.act(p, nil) })
	// A packet arrival resumes the acting scheduler if it is parked with
	// nothing to do; if a thread is running (or the CPU is lent to an
	// optimistic execution) the packet waits in the input queue until the
	// node polls — CM-5 polling semantics.
	node.SetWake(s.wakeActor)
	return s
}

// Node returns the node this scheduler runs.
func (s *Scheduler) Node() *cm5.Node { return s.node }

// Stats returns a snapshot of the scheduler counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// SetPoller installs the scheduler's network service hook.
func (s *Scheduler) SetPoller(p Poller) {
	s.poller = p
	s.stepper, _ = p.(stepPoller)
}

// Stop makes the idle process exit the next time it acts with nothing to
// do. Threads still in the system are unaffected; the engine's Shutdown
// reaps everything.
func (s *Scheduler) Stop() {
	s.stopped = true
	s.wakeActor()
}

// Running returns the thread currently on the CPU, or nil if the
// scheduler loop (or a handler running on it) has the CPU.
func (s *Scheduler) Running() *Thread { return s.cur }

// noteBlocked appends t to the ring of suspended threads kept for deadlock
// diagnostics. A thread enters on block and leaves on resume; the ring is
// threaded through the descriptors, so neither step allocates or hashes.
func (s *Scheduler) noteBlocked(t *Thread) {
	h := &s.blocked
	t.blockedPrev, t.blockedNext = h.blockedPrev, h
	h.blockedPrev.blockedNext = t
	h.blockedPrev = t
}

func (s *Scheduler) noteUnblocked(t *Thread) {
	t.blockedPrev.blockedNext, t.blockedNext.blockedPrev = t.blockedNext, t.blockedPrev
	t.blockedPrev, t.blockedNext = nil, nil
}

// Blocked returns the names of threads currently suspended on this node,
// in the order they blocked, for deadlock reports.
func (s *Scheduler) Blocked() []string {
	var names []string
	for t := s.blocked.blockedNext; t != &s.blocked; t = t.blockedNext {
		names = append(names, t.Name())
	}
	return names
}

// BindCore registers p as a simulated per-node core worker: a process
// that executes multiactive handler bodies concurrently with the node's
// scheduler (oam.Dispatcher.RunMulti). Core processes hold one of the
// node's cores rather than the scheduler CPU, so checkOnCPU accepts them
// for synchronization primitives and thread creation.
func (s *Scheduler) BindCore(p *sim.Proc) {
	s.cores = append(s.cores, p)
	if s.probe != nil {
		s.probe.ProcBound(s.node.ID(), p)
	}
}

// UnbindCore releases a core worker registered with BindCore.
func (s *Scheduler) UnbindCore(p *sim.Proc) {
	if i := slices.Index(s.cores, p); i >= 0 {
		s.cores = slices.Delete(s.cores, i, i+1)
	}
}

// wakeActor resumes the acting scheduler when it is parked with nothing
// to do. When the CPU is lent to an optimistic execution the actor is
// parked inside the OAM dispatch protocol, not in its loop, and must not
// be woken here. With interrupts enabled, a context computing inside
// Compute is preempted instead.
func (s *Scheduler) wakeActor() {
	if s.interrupts && len(s.lent) == 0 {
		if s.cpuProc().Interrupt() {
			return
		}
	}
	if len(s.lent) == 0 && s.actor != nil && s.actor.Parked() {
		s.actor.Unpark()
	}
}

// act runs the scheduler in the context of process p. self is the blocked
// thread whose context p is, or nil for the idle process, which acts
// whenever no such context is available (at start-up, and after a thread
// exits leaving nothing runnable). It returns when self has the CPU again —
// its wakeup came while p acted, the free resume, or p gave the CPU to
// another thread and was restored — or, for the idle process, on Stop. What
// to do next is Continue's to say; p itself only runs the handlers, which
// need a stack.
func (s *Scheduler) act(p *sim.Proc, self *Thread) {
	s.actor, s.self = p, self
	for p.Then(s); s.actor == p; p.Then(s) {
		if pkt := s.ejected; pkt != nil {
			s.ejected = nil
			s.stepper.Dispatch(Ctx{P: p, S: s}, pkt)
		} else {
			s.poller.PollOnce(Ctx{P: p, S: s})
		}
	}
}

// Continue is the acting scheduler's decision, as the sim.Continuation of
// the process p it acts in: asked when p starts to act, after each handler,
// and by the kernel loop at each of p's wakeups and whenever a charge
// ordered here elapses, with no switch to p unless the answer is Run. First
// it finishes what is in progress: a restore half paid, it hands over the
// CPU; a packet paid for, it runs an atomic handler here and leaves any
// other to p. Then, in order: self at the front of the ready queue resumes;
// another thread gets the CPU and p parks until restored (the idle process,
// until a thread exit leaves nothing to run); a waiting packet is ejected
// and charged for; Stop ends the idle process; else p sleeps until a
// delivery or a wakeup.
func (s *Scheduler) Continue(p *sim.Proc) (sim.Next, sim.Duration) {
	switch pkt := s.ejected; {
	case s.cur != nil && s.cur.proc == p:
		return sim.NextRun, 0 // restored: p's thread has the CPU back
	case s.restoring != nil:
		t := s.restoring
		s.restoring = nil
		s.giveCPU(t, false)
		return sim.NextPark, 0
	case pkt != nil && s.owed:
		s.owed = false
		return sim.NextCharge, s.cost.HandlerDispatch
	case pkt != nil && !s.atomic:
		return sim.NextRun, 0
	case pkt != nil:
		s.ejected = nil
		s.stepper.Dispatch(Ctx{P: p, S: s}, pkt)
	case s.actor != p:
		s.actor, s.self = p, nil // the idle process, woken by exit
	}
	if next := s.ready.popFront(); next != nil {
		s.noteReady()
		s.actor = nil
		if next == s.self {
			// Our own wakeup arrived while we polled: return directly into
			// the blocked thread. No switch, no cost — the scheduler was
			// running on our stack all along.
			s.stats.FreeResumes++
			next.state = stateRunning
			s.cur = next
			return sim.NextRun, 0
		}
		if s.owesRestore(next) {
			s.restoring = next
			return sim.NextCharge, s.cost.ContextSwitch / 2
		}
		s.giveCPU(next, false)
		return sim.NextPark, 0
	}
	if s.poller != nil && s.node.Pending() > 0 {
		if s.stepper == nil {
			return sim.NextRun, 0 // p polls: the poller's only step is PollOnce
		}
		s.ejected, s.atomic = s.stepper.Eject()
		s.owed = true
		return sim.NextCharge, s.cost.PacketRecvOverhead
	}
	if s.stopped && s.self == nil {
		s.actor = nil
		return sim.NextRun, 0
	}
	return sim.NextPark, 0
}

// startOrResume hands the CPU to thread t, charging switch costs to p,
// the context giving it up (that is whose CPU time it is on this node's
// timeline).
//
// Cost model, matching the paper's measurements: a *yield* away from a
// still-runnable thread charges the full 52 us context switch up front
// (Yield does this before handing off) and marks the yielder prepaid, so
// its later restore is free — which is how the TRPC busy-server round
// trip comes out at create + one switch (74 us). A *blocked* thread's
// registers are saved lazily (free — if it resumes in place nothing was
// needed); restoring a non-prepaid suspended thread charges the restore
// half (26 us). A brand-new thread started from the acting scheduler —
// whose own thread is suspended or dead — runs on the live stack, free
// beyond its creation cost. fromRunnable reports a yield handoff, which
// is never a live-stack start.
func (s *Scheduler) startOrResume(p *sim.Proc, t *Thread, fromRunnable bool) {
	if s.owesRestore(t) {
		p.Charge(s.cost.ContextSwitch / 2)
	}
	s.giveCPU(t, fromRunnable)
}

// owesRestore reports whether handing the CPU to t costs the restore half,
// consuming a prepayment if not.
func (s *Scheduler) owesRestore(t *Thread) bool {
	if t.state != stateReady {
		return false
	}
	if t.prepaid {
		t.prepaid = false
		return false
	}
	s.stats.SwitchHalves++
	return true
}

// giveCPU makes t the running thread, every charge paid: it starts a new
// thread's process or unparks a suspended one's.
func (s *Scheduler) giveCPU(t *Thread, fromRunnable bool) {
	switch t.state {
	case stateNew:
		s.stats.Starts++
		if !fromRunnable {
			s.stats.LiveStackStart++
		}
		t.state = stateRunning
		s.cur = t
		t.proc = s.sh.SpawnRunner((*threadProc)(t))
		if s.probe != nil {
			s.probe.ProcBound(s.node.ID(), t.proc)
			s.probe.ThreadStarted(s.sh.Now(), s.node.ID(), t, !fromRunnable)
		}
	case stateReady:
		t.state = stateRunning
		s.cur = t
		t.proc.Unpark()
	default:
		panic(fmt.Sprintf("threads: cannot start thread in state %v", t.state))
	}
}

// newThread is the one place a thread comes into existence: it takes a
// dead descriptor if the node has one, wipes it — all that survives a
// tenancy is the generation and the joiner list's storage — and tells the
// probe.
func (s *Scheduler) newThread(name Name, body func(Ctx), p *sim.Proc, st threadState) *Thread {
	s.stats.Created++
	t := s.free
	if t == nil {
		t = &Thread{}
	}
	s.free = t.blockedNext
	*t = Thread{sched: s, name: name, body: body, proc: p, state: st, gen: t.gen, joiners: t.joiners[:0]}
	if s.probe != nil {
		s.probe.ThreadCreated(s.sh.Now(), s.node.ID(), t)
	}
	return t
}

// exit is the epilogue of thread t, whose body has returned on p: wake the
// joiners, give the CPU away — to the next ready thread if any (started on
// the live stack when new), else to the idle process, which becomes the
// acting scheduler — and only then retire the descriptor, closing every
// handle to it; the name stays until reuse, for the exit records still to
// be written. p must return (die) immediately afterwards.
func (s *Scheduler) exit(p *sim.Proc, t *Thread) {
	t.state = stateDead
	if s.probe != nil {
		s.probe.ThreadExited(s.sh.Now(), s.node.ID(), t)
	}
	for _, j := range t.joiners {
		s.makeReady(j, false)
	}
	s.cur = nil
	if next := s.ready.popFront(); next != nil {
		s.noteReady()
		s.startOrResume(p, next, false)
	} else if s.idle.Parked() {
		s.idle.Unpark()
	}
	t.gen++
	t.body = nil // a caller's closure must not live as long as the free list
	t.blockedNext, s.free = s.free, t
}

// makeReady puts t on the ready queue (front or back) and wakes the
// acting scheduler if it is asleep. It never switches: the scheduler is
// non-preemptive, so the current context keeps running. Safe to call
// from kernel callbacks (control-network releases).
func (s *Scheduler) makeReady(t *Thread, front bool) {
	switch t.state {
	case stateNew, stateBlocked:
		// ok
	default:
		panic(fmt.Sprintf("threads: makeReady of thread in state %v", t.state))
	}
	if t.state == stateBlocked {
		t.state = stateReady
		s.noteUnblocked(t)
	}
	s.enqueue(t, front)
}

// enqueue is the tail of makeReady: queue t, report the depth, wake the
// acting scheduler.
func (s *Scheduler) enqueue(t *Thread, front bool) {
	if front {
		s.ready.pushFront(t)
	} else {
		s.ready.pushBack(t)
	}
	s.noteReady()
	s.wakeActor()
}

// Create allocates a new thread running body and places it on the ready
// queue; front selects the queue end (the paper schedules incoming RPC
// threads at the front). The creation cost (7 us) is charged to the
// calling context. Create never switches; the new thread runs when the
// scheduler next looks for work.
func (s *Scheduler) Create(c Ctx, name string, front bool, body func(Ctx)) Handle {
	return s.CreateNamed(c, Name{Base: name}, front, body)
}

// CreateNamed is Create with the name in parts, for hot paths that would
// otherwise concatenate or format a string per thread.
func (s *Scheduler) CreateNamed(c Ctx, name Name, front bool, body func(Ctx)) Handle {
	s.checkOnCPU(c, "Create")
	c.P.Charge(s.cost.ThreadCreate)
	t := s.newThread(name, body, nil, stateNew)
	s.makeReady(t, front)
	return Handle{t, t.gen}
}

// Bootstrap creates a thread before the simulation starts (no context to
// charge). Use it for each node's initial SPMD "main" thread; everything
// after time zero should use Create.
func (s *Scheduler) Bootstrap(name string, body func(Ctx)) Handle {
	t := s.newThread(Name{Base: name}, body, nil, stateNew)
	s.makeReady(t, false)
	return Handle{t, t.gen}
}

// Yield gives other runnable threads the CPU; if none exist it returns
// immediately. The yielding thread goes to the back of the ready queue.
// Because the yielding thread is still runnable, the switch costs the
// full 52 us.
func (s *Scheduler) Yield(c Ctx) {
	t := c.T
	if t == nil {
		panic("threads: Yield from handler context")
	}
	s.checkCurrent(t, "Yield")
	c.P.Charge(s.cost.YieldCheck)
	if s.ready.len() == 0 {
		return
	}
	s.stats.Yields++
	t.state = stateReady
	s.enqueue(t, false)
	next := s.ready.popFront()
	s.noteReady()
	if next == t {
		// Sole runnable thread: nothing to switch to after all.
		t.state = stateRunning
		return
	}
	// Leaving a runnable thread costs the full context switch, charged
	// here; it prepays this thread's own restore (see startOrResume).
	s.stats.SwitchHalves += 2
	c.P.Charge(s.cost.ContextSwitch)
	t.prepaid = true
	s.cur = nil
	s.startOrResume(c.P, next, true)
	c.P.Park()
}

// blockCurrent suspends the running thread (which must be c.T) until
// someone calls makeReady on it. The thread's context becomes the acting
// scheduler: it polls the network and starts other threads while waiting,
// and resumes for free if its own wakeup arrives first. Used by Mutex,
// Cond, Flag, Join, barriers, and OAM promotion.
func (s *Scheduler) blockCurrent(c Ctx) {
	t := c.T
	if t == nil {
		panic("threads: blocking operation from handler context; " +
			"handlers must not block (this is the Active Messages restriction)")
	}
	s.checkCurrent(t, "block")
	s.stats.Blocks++
	t.state = stateBlocked
	s.noteBlocked(t)
	s.cur = nil
	s.act(c.P, t)
	if s.cur != t {
		panic(fmt.Sprintf("threads: thread %q resumed without the CPU", t.Name()))
	}
}

func (s *Scheduler) checkCurrent(t *Thread, op string) {
	if s.cur != t {
		panic(fmt.Sprintf("threads: %s by thread %q which is not on the CPU", op, t.Name()))
	}
}

// cpuProc returns the simulation process currently holding this node's
// CPU: the innermost borrower if the CPU is lent, else the running
// thread's process, else the acting scheduler's. Handlers execute on this
// process regardless of which context polled the packet in.
func (s *Scheduler) cpuProc() *sim.Proc {
	if n := len(s.lent); n > 0 {
		return s.lent[n-1].p
	}
	if s.cur != nil {
		return s.cur.proc
	}
	if s.actor != nil {
		return s.actor
	}
	return s.idle
}

// checkOnCPU validates that c is the context currently holding this
// node's CPU. A handler context (nil Thread) is valid whenever its
// process is the one on the CPU — handlers run inline in whatever context
// polled.
func (s *Scheduler) checkOnCPU(c Ctx, op string) {
	if c.S != s {
		panic(fmt.Sprintf("threads: %s with context of another node", op))
	}
	if c.P != s.cpuProc() {
		if slices.Contains(s.cores, c.P) {
			// A multiactive core worker: it owns one of the node's
			// simulated cores rather than the scheduler CPU.
			return
		}
		panic(fmt.Sprintf("threads: %s from context not on the CPU", op))
	}
	if len(s.lent) > 0 && s.lent[len(s.lent)-1].p == c.P {
		// A lent execution holds the CPU; it may carry an adopted thread
		// identity that is not (yet) the scheduled current thread.
		return
	}
	if c.T != nil && c.T != s.cur {
		panic(fmt.Sprintf("threads: %s by thread %q which is not on the CPU", op, c.T.Name()))
	}
}
