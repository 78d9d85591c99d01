package sim

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// eventChunk is the largest slab of the event free list; a shard's slabs
// start at firstChunk events and double up to it, so a small run does
// not zero a full slab it never fills.
const (
	firstChunk = 16
	eventChunk = 256
)

// maxTime is the deadline used by Run: no event timestamp can exceed it.
const maxTime = Time(math.MaxInt64)

// Action is a pre-allocated event callback: an alternative to the func()
// of At/After that avoids the per-event closure allocation on hot paths.
// The engine stores the interface value it is given; implementations are
// typically pooled by their owner, which must not recycle an Action
// before it fires.
type Action interface {
	Run()
}

// WindowHook is the machine layer's half of sharded execution; every
// sharded run needs one (SetWindowHook).
//
// Lookahead(now) is a lower bound on the virtual-time latency of any
// cross-shard effect of an event executed at or after now: nothing a shard
// does at t can schedule work on another shard before t + Lookahead. It is
// read once per commit span and must hold for the whole span, which is why
// NextBound cuts spans: it returns the earliest instant after now where
// network behavior changes (a fault-plan slow-window or partition edge),
// or any time <= now when there is none.
//
// Arrive materializes one cross-shard arrival published with Shard.Inject
// on its destination shard (reserve the NIC slot, schedule the delivery).
// It runs on the destination shard's goroutine, so it may touch that
// shard's pools and nodes freely.
//
// Barrier runs between spans, on the coordinator goroutine with every
// shard quiescent and every inbox drained; it may touch any state.
type WindowHook interface {
	Lookahead(now Time) Duration
	NextBound(now Time) Time
	Arrive(sh *Shard, at Time, key uint64, payload any)
	Barrier()
}

// Engine is the discrete-event simulation kernel. Create one with New,
// spawn processes with Spawn, and drive the simulation with Run.
//
// A sequential engine (New, or NewSharded with one shard) is the classic
// kernel: strictly single-threaded, with the migrating event loop. All
// methods must then be called from kernel callbacks or from the currently
// running process.
//
// A sharded engine (NewSharded with S > 1) partitions the simulation
// across S shards, each an independent kernel over its own event heap and
// process table, advancing through commit spans (see optimistic.go) whose
// safety rests on the WindowHook's lookahead. Work must be scheduled on
// the shard that owns it (Shard(i)); the Engine-level scheduling methods
// delegate to shard 0 for setup convenience. The contract — enforced by
// the canonical event order (see heap.go) — is that a sharded run is
// bit-identical to the sequential one.
type Engine struct {
	shards []*Shard
	seed   int64
	hook   WindowHook

	// Sharded engines only: mode picks the commit-span width (runSpans is
	// its one reader), spanWidth overrides it with an exact width (tests
	// only), and opt is the span protocol's shared state. opt is nil on a
	// sequential engine.
	mode      ShardMode
	spanWidth Duration
	opt       *optState

	// userTracer receives trace records in sharded mode, where shards
	// buffer transitions during spans and the coordinator flushes them
	// in canonical order at barriers. Sequential engines bypass this and
	// trace straight from the kernel loop.
	userTracer Tracer
	scratch    Proc // reusable carrier for flushed trace records

	// globals is the cross-shard control queue of a sharded run: crash
	// instants, collective releases — events that must fire at an exact
	// instant before any shard's same-time work. Sequential engines keep
	// these on the one shard's heap (classGlobal) instead. gmu guards it:
	// collective releases are scheduled from inside spans, concurrently
	// with the shards.
	globals []globalEvent
	gmu     sync.Mutex

	stopFlag atomic.Bool
	inRun    bool // Run or RunUntil in progress: Shutdown refuses

	runnersStarted bool
	runners        sync.WaitGroup // the span runners; Shutdown waits for them
	windows        uint64         // committed spans
	barrierNs      int64
	// windowWallNs is the host time spent inside parallel spans
	// (handshake send to last completion); with the shards' own busy
	// time it decomposes where a sharded run's wall clock went.
	windowWallNs int64
}

// globalEvent is one entry in the sharded engine's control queue, ordered
// by (at, key) and then by arrival — the same canonical order classGlobal
// events get on a sequential heap.
type globalEvent struct {
	at  Time
	key uint64
	fn  func()
}

// New returns a sequential engine for seed (see Seed). The same seed
// always yields the same simulation.
func New(seed int64) *Engine {
	return NewSharded(seed, 1)
}

// NewSharded returns an engine with the given number of shards (clamped
// below at 1). With one shard it is exactly the sequential kernel; with
// more, Run executes the shards in parallel over commit spans one
// lookahead wide (Conservative). The same seed and workload yield the
// same simulation at any shard count.
func NewSharded(seed int64, shards int) *Engine {
	return NewShardedConfig(seed, ShardConfig{Shards: shards})
}

// NewShardedConfig is NewSharded with the span width chosen by cfg.Mode
// (see ShardMode). A single-shard engine is always the plain sequential
// kernel regardless of Mode. Every shard count and span width yields the
// same simulation for the same seed and workload; only wall-clock time
// changes.
func NewShardedConfig(seed int64, cfg ShardConfig) *Engine {
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	e := &Engine{seed: seed}
	e.shards = make([]*Shard, shards)
	for i := range e.shards {
		e.shards[i] = newShard(e, i)
	}
	if shards > 1 {
		e.mode = cfg.Mode
		e.opt = newOptState(e)
	}
	return e
}

// HintEvents sizes every shard's event queue for roughly total pending
// events machine-wide (split evenly across shards). It only matters
// before events are scheduled; a queue given no hint allocates its ring
// at the first push, and afterwards every queue sizes itself adaptively.
// The machine layer calls it with a node-derived hint so big-N runs don't
// regrow their queues from scratch and small runs don't over-allocate.
func (e *Engine) HintEvents(total int) {
	per := total/len(e.shards) + 1
	for _, sh := range e.shards {
		sh.heap.hint(per)
	}
}

// Mode reports the shard mode the engine was built with (Conservative
// for a sequential engine, which has no spans to size).
func (e *Engine) Mode() ShardMode { return e.mode }

// sharded reports whether this engine runs more than one shard.
func (e *Engine) sharded() bool { return len(e.shards) > 1 }

// Shards returns the number of shards (1 for a sequential engine).
func (e *Engine) Shards() int { return len(e.shards) }

// Shard returns shard i. Shard 0 always exists.
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// Seed returns the seed the engine was created with. The engine draws
// nothing from it; layers that need randomness (per-flight jitter
// streams) derive their own counter-seeded generators from it, so no
// draw depends on the order of another's.
func (e *Engine) Seed() int64 { return e.seed }

// Now returns the current virtual time. In a sharded run, shard clocks
// agree at barriers; mid-span, use the owning shard's Now.
func (e *Engine) Now() Time { return e.shards[0].now }

// SetTracer installs a tracer; pass nil to disable tracing. In a sharded
// engine, records are buffered per shard during spans and flushed in
// canonical (time, process name, transition) order at barriers.
func (e *Engine) SetTracer(t Tracer) {
	if !e.sharded() {
		e.shards[0].tracer = t
		return
	}
	e.userTracer = t
	for _, sh := range e.shards {
		sh.buffered = t != nil
	}
}

// SetProbe installs a process-accounting probe; pass nil to disable.
// Probes see events mid-span from multiple goroutines, so they are
// only supported on sequential engines.
func (e *Engine) SetProbe(p Probe) {
	if p != nil && e.sharded() {
		panic("sim: probes require a sequential engine (shards=1)")
	}
	e.shards[0].probe = p
}

// SetWindowHook installs the machine layer's window hook. A sharded
// engine must have one before Run; a sequential engine never consults it.
func (e *Engine) SetWindowHook(h WindowHook) { e.hook = h }

// Charged reports the total virtual CPU time consumed by completed
// charges so far, summed across shards.
func (e *Engine) Charged() Duration {
	var d Duration
	for _, sh := range e.shards {
		d += sh.chargedTotal
	}
	return d
}

// Events reports the number of simulated events so far, summed across
// shards: the same count at every shard count and span width. Events
// minus Elided were executed by a kernel loop.
func (e *Engine) Events() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.events
	}
	return n
}

// Dispatches reports the number of process resumes so far, summed across
// shards: in place, answered by a Continuation, or switched to.
func (e *Engine) Dispatches() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.dispatches
	}
	return n
}

// Handoffs reports how many dispatches crossed coroutines (one switch or an
// unwind, see Switches). Dispatches minus Handoffs is the number of resumes
// that cost no switch: served by a process to itself on its live stack, or
// by the kernel loop on its Continuation's word.
func (e *Engine) Handoffs() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.handoffs
	}
	return n
}

// Switches reports the coroutine switches made so far, Shutdown's aside:
// every next and yield call (see Shard.relay). One per handoff while
// control keeps returning the way it went; never more than two.
func (e *Engine) Switches() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.switches
	}
	return n
}

// Elided reports how many of Events were step-wait resumes StepWake
// credited and no kernel loop executed. Like Handoffs it measures the
// host's work, not the simulation: zero under a tracer or probe.
func (e *Engine) Elided() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.elided
	}
	return n
}

// Live reports the number of spawned processes that have not finished.
func (e *Engine) Live() int {
	n := 0
	for _, sh := range e.shards {
		n += len(sh.procs)
	}
	return n
}

// WindowStats reports how many commit spans (at the Conservative width:
// lockstep windows) a sharded run executed and the host time spent in
// the barriers between them. Zero for sequential engines.
func (e *Engine) WindowStats() (windows uint64, barrier time.Duration) {
	return e.windows, time.Duration(e.barrierNs)
}

// WindowOverhead decomposes where a sharded run's host time went, for
// honest barrier accounting: BarrierNs is coordinator hook + trace-flush
// time; WindowWallNs is the wall time of the parallel spans themselves
// (handshake send to last shard done); ShardBusyNs sums every shard's
// in-span kernel time. WindowWallNs minus ShardBusyNs/Shards
// approximates the pure coordination loss — channel handshakes, straggler
// imbalance, and scheduler latency — that BarrierFrac alone hides.
type WindowOverhead struct {
	Windows      uint64
	BarrierNs    int64
	WindowWallNs int64
	ShardBusyNs  int64
}

// WindowOverhead reports the sharded run's host-time decomposition; zero
// for sequential engines. Call it after Run returns.
func (e *Engine) WindowOverhead() WindowOverhead {
	ov := WindowOverhead{Windows: e.windows, BarrierNs: e.barrierNs, WindowWallNs: e.windowWallNs}
	for _, sh := range e.shards {
		ov.ShardBusyNs += sh.busyNs
	}
	return ov
}

// At schedules fn on shard 0 at absolute time t; see Shard.At. On a
// sequential engine this is the whole kernel.
func (e *Engine) At(t Time, fn func()) { e.shards[0].At(t, fn) }

// After schedules fn on shard 0, d from now.
func (e *Engine) After(d Duration, fn func()) { e.shards[0].After(d, fn) }

// AtAction schedules a pre-allocated Action on shard 0 at absolute time t.
func (e *Engine) AtAction(t Time, a Action) { e.shards[0].AtAction(t, a) }

// AfterAction schedules a pre-allocated Action on shard 0, d from now.
func (e *Engine) AfterAction(d Duration, a Action) { e.shards[0].AfterAction(d, a) }

// AfterTimer is After returning a cancellable handle; see Shard.AtTimer.
func (e *Engine) AfterTimer(d Duration, fn func()) Timer { return e.shards[0].AfterTimer(d, fn) }

// Spawn creates a process on shard 0; see Shard.Spawn.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.shards[0].Spawn(name, body)
}

// AtGlobal schedules fn as a global control transition at absolute time
// t: at that instant it fires before every shard's same-time deliveries
// and ordinary events, in ascending key order among same-time globals.
// Crash points and collective releases use this so their position in the
// total event order is identical in sequential and sharded runs. In a
// sharded engine, globals run on the coordinator goroutine between
// spans; they may touch any shard's state and schedule onto any shard.
// AtGlobal may be called from setup code, from barrier/global context, or
// from inside a span (collectives do), provided t is more than one
// lookahead after the caller's clock: the running span is then cut so the
// global still fires between spans, and t provably exceeds every event
// time any shard has reached (collective latencies exceed the lookahead).
func (e *Engine) AtGlobal(t Time, key uint64, fn func()) {
	if !e.sharded() {
		e.shards[0].schedule(t, classGlobal, key, evFunc, fn, nil, nil)
		return
	}
	e.gmu.Lock()
	// The place of (t, key) is after every entry not later than it: the
	// queue stays sorted, ties in arrival order, with nothing allocated.
	i := len(e.globals)
	for i > 0 && (e.globals[i-1].at > t || e.globals[i-1].at == t && e.globals[i-1].key > key) {
		i--
	}
	e.globals = slices.Insert(e.globals, i, globalEvent{at: t, key: key, fn: fn})
	e.gmu.Unlock()
	e.opt.cutSpan(t)
}

// Timer is a handle to a scheduled kernel callback that can be cancelled
// before it fires. Handles stay safe across event recycling: a Timer
// whose event already fired (and may since have been reused for an
// unrelated event) simply fails to cancel.
type Timer struct {
	ev  *event
	sh  *Shard
	gen uint64
}

// Cancel prevents the timer's callback from running and reports whether
// it did (false when the callback already ran or was already cancelled).
// Like all kernel calls, Cancel must run in the owning shard's execution
// context (cross-shard cancels travel as deliveries — see the timer
// cancel race test). When the event is still pending it is unlinked from
// the calendar queue and recycled on the spot rather than left as a
// tombstone, so heavily-cancelled workloads keep the queue at its live
// population.
func (t *Timer) Cancel() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.cancelled {
		return false
	}
	ev.cancelled = true
	if t.sh != nil && t.sh.heap.remove(ev) {
		t.sh.release(ev)
	}
	t.ev = nil
	return true
}

// Stop terminates Run after the current event completes (sequential) or
// at the next span commit (sharded). Call Shutdown to release the
// goroutines of any still-live processes.
func (e *Engine) Stop() {
	if !e.sharded() {
		e.shards[0].stopped = true
		return
	}
	e.stopFlag.Store(true)
}

// killedSentinel is the panic value used by Shutdown to unwind process
// stacks. It never escapes the package.
type killedSentinel struct{}

// Shutdown forcibly terminates every live process and drops all pending
// events, releasing the backing coroutines — including the pooled workers
// of already-finished processes — and, in a sharded engine, the per-shard
// span runners. It is synchronous: every coroutine has ended and every
// runner has left its loop when Shutdown returns. It must be called from
// outside Run (i.e., not from a process or kernel callback). The engine is
// dead afterwards. Simulations that end with parked service processes
// (node idle loops, servers) should always Shutdown to avoid goroutine
// leaks.
//
// Victims are killed in shard order, and within a shard in ascending pid
// (spawn) order, so shutdown-time tracer output is deterministic run to
// run and shard-count-independent for processes spawned at setup.
func (e *Engine) Shutdown() {
	if e.inRun {
		panic("sim: Shutdown from inside the simulation")
	}
	if e.runnersStarted {
		for _, sh := range e.shards {
			close(sh.windowCh)
		}
		e.runners.Wait()
		e.runnersStarted = false
	}
	// Reap every shard at the engine's final virtual time. Shards bump
	// now at span starts, so per-shard now here would leak the span width
	// into shutdown-time trace timestamps; the maximum across shards is
	// the time of the last executed event, identical at every width.
	var end Time
	for _, sh := range e.shards {
		if sh.now > end {
			end = sh.now
		}
	}
	for _, sh := range e.shards {
		if sh.now < end {
			sh.now = end
		}
		sh.shutdown()
	}
	e.flushTrace()
}

// finishRun re-raises a stashed kernel-callback panic on the caller's
// goroutine, or reports the first process failure (by shard order).
func (e *Engine) finishRun() error {
	for _, sh := range e.shards {
		if r := sh.kernelPanic; r != nil {
			sh.kernelPanic = nil
			panic(r)
		}
	}
	for _, sh := range e.shards {
		if sh.failure != nil {
			return sh.failure
		}
	}
	return nil
}

// runTo executes events with timestamps <= deadline on every shard.
func (e *Engine) runTo(deadline Time) {
	e.inRun = true
	defer func() { e.inRun = false }()
	if !e.sharded() {
		e.shards[0].deadline = deadline
		e.shards[0].runKernel()
		return
	}
	e.runSpans(deadline)
}

// Run executes events until every heap is empty, Stop is called, or a
// process panics. It returns the first process failure, if any. A
// non-empty set of parked processes with an empty heap is quiescence, not
// an error; callers that consider it a deadlock can check Live.
func (e *Engine) Run() error {
	e.runTo(maxTime)
	return e.finishRun()
}

// RunUntil executes events with timestamps <= deadline. It returns the
// first process failure, if any.
func (e *Engine) RunUntil(deadline Time) error {
	e.runTo(deadline)
	for _, sh := range e.shards {
		if sh.now < deadline && sh.failure == nil && sh.kernelPanic == nil {
			sh.now = deadline
		}
	}
	return e.finishRun()
}

// dispatchWindow starts every shard runner on the span beginSpan just set
// up and waits for all of them, accounting the wall time.
func (e *Engine) dispatchWindow() {
	start := time.Now()
	for _, sh := range e.shards {
		sh.windowCh <- struct{}{}
	}
	for _, sh := range e.shards {
		<-sh.windowDone
	}
	e.windowWallNs += time.Since(start).Nanoseconds()
}

// windowRunner is the per-shard worker of a sharded engine: on each
// signal it runs the shard's kernel until the gate ends the span, and
// reports back. It exits when the engine closes windowCh (Shutdown).
func (sh *Shard) windowRunner() {
	defer sh.eng.runners.Done()
	for range sh.windowCh {
		t0 := time.Now()
		sh.runKernel()
		sh.busyNs += time.Since(t0).Nanoseconds()
		sh.windowDone <- struct{}{}
	}
}

// startRunners launches the per-shard span-runner goroutines (once).
func (e *Engine) startRunners() {
	if e.runnersStarted {
		return
	}
	for _, sh := range e.shards {
		sh.windowCh = make(chan struct{})
		sh.windowDone = make(chan struct{})
		e.runners.Add(1)
		go sh.windowRunner()
	}
	e.runnersStarted = true
}

// anyDown reports whether any shard has failed, panicked in a kernel
// callback, or been stopped.
func (e *Engine) anyDown() bool {
	for _, sh := range e.shards {
		if sh.failure != nil || sh.kernelPanic != nil || sh.stopped {
			return true
		}
	}
	return false
}

// nextTime returns the earliest pending timestamp across shard heaps and
// the global queue.
func (e *Engine) nextTime() (Time, bool) {
	best := maxTime
	ok := false
	for _, sh := range e.shards {
		if sh.heap.len() > 0 && sh.heap.first().at <= best {
			best = sh.heap.first().at
			ok = true
		}
	}
	if len(e.globals) > 0 && e.globals[0].at <= best {
		best = e.globals[0].at
		ok = true
	}
	return best, ok
}

// barrier runs the hook's between-spans step and flushes buffered traces,
// on the coordinator goroutine with all shards quiescent.
func (e *Engine) barrier() {
	start := time.Now()
	e.hook.Barrier()
	e.flushTrace()
	e.barrierNs += time.Since(start).Nanoseconds()
}

// runGlobalsAt pops and fires every global event scheduled at exactly t,
// in (key, arrival) order (AtGlobal keeps the queue sorted). Global callbacks
// may schedule further globals.
func (e *Engine) runGlobalsAt(t Time) {
	for len(e.globals) > 0 && e.globals[0].at == t {
		g := e.globals[0]
		// Deleted in place: the queue keeps its storage.
		e.globals = slices.Delete(e.globals, 0, 1)
		e.shards[0].events++ // count globals once, on shard 0
		g.fn()
	}
}

// flushTrace drains every shard's buffered trace records into the user
// tracer in canonical (time, process name, transition) order.
func (e *Engine) flushTrace() {
	if e.userTracer == nil {
		return
	}
	n := 0
	for _, sh := range e.shards {
		n += len(sh.trbuf)
	}
	if n == 0 {
		return
	}
	recs := make([]traceRec, 0, n)
	for _, sh := range e.shards {
		recs = append(recs, sh.trbuf...)
		sh.trbuf = sh.trbuf[:0]
	}
	sortCanonical(recs)
	for _, r := range recs {
		e.scratch.name = r.name
		switch r.kind {
		case 0:
			e.userTracer.Resume(r.t, &e.scratch)
		case 1:
			e.userTracer.Yield(r.t, &e.scratch)
		default:
			e.userTracer.Exit(r.t, &e.scratch)
		}
	}
}
