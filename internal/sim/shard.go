package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Shard is one partition of the simulation kernel: an event heap, a live
// process table, and the migrating kernel loop that drives them.
// A sequential engine (New) is exactly one shard; a sharded engine
// (NewSharded) runs S of them over commit spans, each shard owning a
// disjoint subset of the simulated nodes.
//
// All Shard methods must be called from that shard's own simulation
// context (its processes and kernel callbacks), from engine setup code
// before Run, or from the engine's coordinator between spans. Shards
// never touch each other's state; Inject is the one cross-shard call.
type Shard struct {
	eng *Engine
	idx int

	now     Time
	seq     uint64
	heap    eventQueue
	free    *event // recycled events (shard-local: no locking)
	slab    int    // events in the last slab alloc made; 0 before the first
	slabs   []any  // a *slab[T] per record type carved here (see Carve)
	running *Proc
	// pending is the process the kernel loop dispatched onto another
	// coroutine. relay clears it when it resumes that process, or when the
	// process finds itself there; it survives an unwind in between. Nil when
	// a tenure ended the run or span instead, and whenever simulation code
	// runs.
	pending  *Proc
	deadline Time // event horizon of the current run (sequential engine)
	sink     Sink
	procs    []*Proc // live (spawned, not yet finished) processes, unordered
	freeProc *Proc   // finished procs whose coroutines await reuse
	// The flags sit together so that a Shard and its malloc header fit
	// the 576-byte size class.
	stopped bool // set by Stop (sequential engine only)
	killing bool // set by Shutdown
	// queueOnly keeps every charge on the queue: set on the shards of a
	// sharded engine, whose span gate must see each event to publish the
	// shard's clock, and by this package's tests for a reference run.
	queueOnly bool
	// buffered reports that scheduling records must be buffered into trbuf
	// (sharded mode with a sink installed).
	buffered bool
	failure  error
	// kernelPanic holds a panic raised by a kernel callback (At/After fn
	// or Action). It ends the run and is re-raised from Run/RunUntil on
	// the caller's goroutine.
	kernelPanic any

	// Stats counters, cheap enough to keep always-on.
	events     uint64
	dispatches uint64
	handoffs   uint64
	switches   uint64 // coroutine switches: every next and yield call
	depth      int    // of the resume chain: next calls in progress
	elided     uint64 // of events: credited by a StepWake, never executed
	// chargedTotal accumulates every completed virtual-CPU charge; the
	// virtual-time profiler checks its totals against this.
	chargedTotal Duration

	// Span plumbing (sharded engines only). The runner goroutine blocks
	// on windowCh for the next span's start signal, runs the kernel loop
	// until the gate ends the span, and reports completion on windowDone.
	windowCh   chan struct{}
	windowDone chan struct{}
	// trbuf buffers scheduling records during parallel spans; the engine
	// flushes it in canonical order at each barrier.
	trbuf []Record
	// busyNs accumulates host time spent inside span kernel tenures; part
	// of the WindowOverhead decomposition.
	busyNs int64

	// Span-protocol state (see optimistic.go); opt is nil on a sequential
	// engine and none of this is touched.
	opt  *optState
	inmu sync.Mutex // guards inbox/inboxSpare appends from sender shards
	// inbox holds published cross-shard arrivals awaiting
	// materialization by this shard; inboxSpare is the drain-time double
	// buffer. inboxPending mirrors len(inbox) > 0 for lock-free checks.
	inbox        []inbound
	inboxSpare   []inbound
	inboxPending atomic.Bool
	// cachedH is the last computed execution horizon (monotone within a
	// span; reset at span start). asleep marks the shard inside
	// cond.Wait — its heap is then quiescent and readable by the awake
	// shards. tentDone marks a tentative claim that this shard finished
	// the span; retracting it on a straggler drain counts a reopen.
	asleep     bool
	tentDone   bool
	cachedH    Time
	reopens    uint64
	stalls     uint64
	specEvents uint64
}

func newShard(e *Engine, idx int) *Shard {
	return &Shard{eng: e, idx: idx}
}

// Engine returns the engine this shard belongs to.
func (sh *Shard) Engine() *Engine { return sh.eng }

// Index returns the shard's index in [0, Engine.Shards()).
func (sh *Shard) Index() int { return sh.idx }

// Now returns the shard's current virtual time. Within a span shard
// clocks drift apart (each stays below the others' plus the lookahead);
// at barriers all clocks agree.
func (sh *Shard) Now() Time { return sh.now }

// alloc takes an event from the free list, refilling it a slab at a time:
// firstChunk events, then twice the last slab, up to eventChunk.
func (sh *Shard) alloc() *event {
	ev := sh.free
	if ev == nil {
		sh.slab = min(max(2*sh.slab, firstChunk), eventChunk)
		chunk := make([]event, sh.slab)
		for i := range chunk {
			chunk[i].next = sh.free
			sh.free = &chunk[i]
		}
		ev = sh.free
	}
	sh.free = ev.next
	ev.next = nil
	return ev
}

// release recycles a fired or surfaced-cancelled event. Bumping gen
// invalidates any Timer still holding the pointer.
func (sh *Shard) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.act = nil
	ev.proc = nil
	ev.kind = evFunc
	ev.class = classNormal
	ev.key = 0
	ev.cancelled = false
	ev.next = sh.free
	sh.free = ev
}

// schedule is the single entry point onto the shard's event heap.
func (sh *Shard) schedule(t Time, class uint8, key uint64, kind eventKind, fn func(), act Action, p *Proc) *event {
	if t < sh.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, sh.now))
	}
	sh.seq++
	ev := sh.alloc()
	ev.at = t
	ev.seq = sh.seq
	ev.class = class
	ev.key = key
	ev.kind = kind
	ev.fn = fn
	ev.act = act
	ev.proc = p
	sh.heap.push(ev)
	return ev
}

// At schedules fn to run in kernel context at absolute time t. Scheduling
// in the past is a programming error. Kernel callbacks must not block or
// call process-context methods such as Charge or Park.
func (sh *Shard) At(t Time, fn func()) { sh.schedule(t, classNormal, 0, evFunc, fn, nil, nil) }

// After schedules fn to run in kernel context d from now.
func (sh *Shard) After(d Duration, fn func()) { sh.At(sh.now.Add(d), fn) }

// AtAction schedules a pre-allocated Action at absolute time t. Unlike At
// it allocates nothing beyond a pooled event, so hot paths (packet
// delivery) can schedule without producing garbage.
func (sh *Shard) AtAction(t Time, a Action) { sh.schedule(t, classNormal, 0, evAction, nil, a, nil) }

// AfterAction schedules a pre-allocated Action d from now.
func (sh *Shard) AfterAction(d Duration, a Action) { sh.AtAction(sh.now.Add(d), a) }

// AtDelivery schedules a packet-arrival Action at absolute time t under
// the canonical delivery order: at any instant, deliveries fire after
// global control transitions, before ordinary events, and among
// themselves in ascending key — (source node, flight number), packed by
// the machine layer. Cross-shard flights carry the same key through
// Inject, so when and in what order they were published never shows:
// that is what makes sharded runs bit-identical to sequential ones.
func (sh *Shard) AtDelivery(t Time, key uint64, a Action) {
	sh.schedule(t, classDelivery, key, evAction, nil, a, nil)
}

// atProc schedules the resumption of p at time t without any closure.
func (sh *Shard) atProc(t Time, p *Proc) { sh.schedule(t, classNormal, 0, evProc, nil, nil, p) }

// charge is p's half of Charge(d), done by p or, on a Continuation's word,
// by the kernel loop: account d and arrange the resume at now+d.
// It reports false when the resume was queued, so p must now be suspended.
// A resume that would be the very next event popped — nothing pending at or
// before it (a tie goes to the queued event's lower seq), inside the
// deadline, no stop or shutdown — happens in place: same seq, no event.
func (sh *Shard) charge(p *Proc, d Duration) bool {
	if d < 0 {
		panic("sim: negative charge")
	}
	sh.chargedTotal += d
	if sh.sink != nil {
		sh.sink.Observe(Record{T: sh.now, Layer: LayerSim, Kind: RecCharge, Proc: p, A: int64(sh.now), B: int64(d)})
	}
	t := sh.now.Add(d)
	if h := sh.heap.first(); sh.queueOnly || sh.stopped || sh.killing || t > sh.deadline || h != nil && h.at <= t {
		sh.atProc(t, p)
		return false
	}
	sh.seq++
	if sh.sink != nil {
		sh.trace(RecYield, p)
	}
	sh.now = t
	sh.events++
	sh.dispatches++
	if sh.sink != nil {
		sh.trace(RecResume, p)
	}
	return true
}

// follow installs k, carries out a verdict on p, then the ones the
// installed continuation gives next (k, or what it passed to), until p
// must run (NextRun), is over (NextExit), or is suspended again — mid-charge
// or parked — with that continuation installed for the resume (NextCharge,
// NextPark). A panic in it is a kernel callback's: it ends the run, p stays
// suspended.
func (sh *Shard) follow(p *Proc, k Continuation, next Next, d Duration) (v Next) {
	defer func() {
		if r := recover(); r != nil {
			sh.kernelPanic, v = r, NextCharge
		}
	}()
	p.cont = k
	for {
		switch next {
		case NextRun, NextExit:
			p.cont = nil
			return next
		case NextCharge:
			if !sh.charge(p, d) {
				return NextCharge
			}
		case NextPark:
			p.parked = true
			return NextPark
		}
		next, d = p.cont.Continue(p)
	}
}

// AtTimer is At returning a cancellable handle. Timers are plain values
// (the cancellation state lives in the event, guarded by its recycle
// generation), so arming a timer costs no allocation.
func (sh *Shard) AtTimer(t Time, fn func()) Timer {
	ev := sh.schedule(t, classNormal, 0, evFunc, fn, nil, nil)
	return Timer{ev: ev, sh: sh, gen: ev.gen}
}

// AtActionTimer is AtTimer for a pre-allocated Action: a pooled record can
// be its own timer's callback instead of holding a bound closure.
func (sh *Shard) AtActionTimer(t Time, a Action) Timer {
	ev := sh.schedule(t, classNormal, 0, evAction, nil, a, nil)
	return Timer{ev: ev, sh: sh, gen: ev.gen}
}

// AfterTimer is After returning a cancellable handle.
func (sh *Shard) AfterTimer(d Duration, fn func()) Timer {
	return sh.AtTimer(sh.now.Add(d), fn)
}

// trace emits the scheduling record of kind k for p: live, or into the
// shard's buffer with p's name, which a pooled Proc loses on reuse.
func (sh *Shard) trace(k Kind, p *Proc) {
	if sh.buffered {
		sh.trbuf = append(sh.trbuf, Record{T: sh.now, Layer: LayerSim, Kind: k, Name: p.Name()})
		return
	}
	sh.sink.Observe(Record{T: sh.now, Layer: LayerSim, Kind: k, Proc: p})
}

// Sink returns the engine's installed sink, nil when none. A layer checks
// it on the shard it holds and, when set, makes one Observe call.
func (sh *Shard) Sink() Sink { return sh.sink }

// loop runs the kernel on the calling coroutine: it pops and fires events
// until the run (or span) ends — heap empty, deadline passed, Stop,
// failure, or a kernel-callback panic — or a process is dispatched. It
// reports true when that process is self, whose caller then continues
// straight back into process context on the live stack with zero
// switches. Any other process is left in sh.pending, for the caller to
// relay.
func (sh *Shard) loop(self *Proc) bool {
	for {
		if o := sh.opt; o != nil {
			// Sharded: the gate drains published arrivals and decides
			// whether the next event is provably safe to fire, blocking
			// mid-span when it is not (see optimistic.go).
			if !o.gate(sh) {
				return false
			}
		} else {
			if sh.stopped || sh.failure != nil || sh.kernelPanic != nil || sh.heap.len() == 0 {
				return false
			}
			if sh.heap.first().at > sh.deadline {
				return false
			}
		}
		ev := sh.heap.pop()
		if ev.cancelled {
			sh.release(ev)
			continue
		}
		sh.now = ev.at
		sh.events++
		// Recycle before firing, so callbacks scheduling new events can
		// reuse the slot immediately.
		kind, fn, act, p := ev.kind, ev.fn, ev.act, ev.proc
		sh.release(ev)
		switch kind {
		case evProc, evIntProc:
			if kind == evIntProc {
				p.intTimer = Timer{}
			}
			if p.dead {
				continue
			}
			if sh.running != nil {
				panic("sim: dispatch while a process is running")
			}
			sh.dispatches++
			if sh.sink != nil {
				sh.trace(RecResume, p)
			}
			if k := p.cont; k != nil {
				// p left word of what it does first: do that here, and
				// switch to it only when that needs its stack — or, over,
				// to let a body that began return.
				switch sh.follow(p, k, nextAsk, 0) {
				case NextRun:
				case NextExit:
					if !p.live {
						sh.exited(p)
						sh.releaseProc(p)
						continue
					}
				default:
					if sh.sink != nil {
						sh.trace(RecYield, p)
					}
					continue
				}
			}
			sh.running = p
			if p == self {
				return true
			}
			sh.handoffs++
			sh.pending = p
			return false
		case evAction:
			sh.fireCallback(nil, act)
		default:
			sh.fireCallback(fn, nil)
		}
	}
}

// fireCallback runs a kernel callback, converting a panic into a stashed
// kernelPanic so it unwinds no process goroutine; Run re-raises it.
func (sh *Shard) fireCallback(fn func(), act Action) {
	defer func() {
		if r := recover(); r != nil {
			sh.kernelPanic = r
		}
	}()
	if act != nil {
		act.Run()
	} else {
		fn()
	}
}

// runKernel is the shard's trampoline, the root of its resume chain: it
// starts a kernel tenure on the calling goroutine and relays whatever the
// loop dispatched until a tenure has ended the run (or span) and the chain
// has unwound back here.
func (sh *Shard) runKernel() {
	sh.loop(nil)
	sh.relay(nil)
}

// maxChain bounds the resume chain: a holder that deep yields and its caller
// makes the call, the trampoline's two switches, so an unwind never walks
// more cold stacks than this. Unbounded, BenchmarkDispatchRing — control
// never returns — read 10 % (n=64), 8 % (1024) and 20 % (16384) more
// ns/handoff than the trampoline in 5 of 5 alternating runs; at 16 all three
// are level and the six benchmark workloads switch as often as unbounded to
// within 0.4 % (at 8 apps_quick switches 27 % more often).
const maxChain = 16

// relay ends a kernel tenure held by c's coroutine (nil: the trampoline) by
// passing control to sh.pending. A process suspended in yield is resumed by
// calling its next: c stays in that call, marked calling, until the process
// yields, then looks at pending again. relay reports true when pending is c
// itself, which simply runs, and false when c must yield to its own caller,
// which repeats the test: the run or span is over (nil), c is maxChain deep,
// or pending is calling — it sits further down this chain of calls — and
// stays set until the unwind reaches it.
func (sh *Shard) relay(c *Proc) bool {
	for {
		p := sh.pending
		if p == nil || p.calling || p != c && sh.depth == maxChain {
			return false
		}
		sh.pending = nil
		if p == c {
			return true
		}
		if c != nil {
			c.calling = true
		}
		sh.switches++
		sh.depth++
		p.next()
		sh.depth--
		if c != nil {
			c.calling = false
		}
	}
}

// yieldToKernel hands control from the running process to the kernel: the
// process's own coroutine becomes the kernel and keeps firing events in
// place. It returns when the process is next dispatched — directly, when
// its own resume event surfaces during its tenure or during one it was
// waiting out inside relay (no switch at all), or after yielding to its
// caller, when some later holder calls its next. If the engine is being
// shut down when control returns, the process unwinds via the kill
// sentinel, which the spawn wrapper recovers.
func (sh *Shard) yieldToKernel(p *Proc) {
	if sh.sink != nil {
		sh.trace(RecYield, p)
	}
	sh.running = nil
	if !sh.loop(p) && !sh.relay(p) {
		sh.switches++
		p.yield(struct{}{})
	}
	if sh.killing {
		panic(killedSentinel{})
	}
}

// addProc registers a newly spawned process in the live table.
func (sh *Shard) addProc(p *Proc) {
	p.slot = len(sh.procs)
	sh.procs = append(sh.procs, p)
}

// removeProc drops a finished process from the live table by swapping the
// last entry into its slot — O(1), no map on the spawn/exit path.
func (sh *Shard) removeProc(p *Proc) {
	last := len(sh.procs) - 1
	moved := sh.procs[last]
	sh.procs[p.slot] = moved
	moved.slot = p.slot
	sh.procs[last] = nil
	sh.procs = sh.procs[:last]
}

// checkRunning panics unless p is the currently executing process. It
// guards the process-context-only API.
func (sh *Shard) checkRunning(p *Proc, op string) {
	if sh.running != p {
		panic(fmt.Sprintf("sim: %s called on %q which is not the running process", op, p.Name()))
	}
}

// shutdown kills this shard's live processes in ascending pid order and
// drains its worker pool; no coroutine of the shard remains when it
// returns. Part of Engine.Shutdown.
func (sh *Shard) shutdown() {
	sh.killing = true
	sh.heap.clear()
	sh.free = nil
	// Snapshot: killing procs mutates sh.procs.
	victims := make([]*Proc, len(sh.procs))
	copy(victims, sh.procs)
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	for _, p := range victims {
		if p.dead {
			continue
		}
		sh.dispatches++
		sh.handoffs++
		sh.running = p
		if sh.sink != nil {
			sh.trace(RecResume, p)
		}
		p.next() // returns once the victim has unwound and its coroutine is gone
		sh.running = nil
	}
	// Drain the worker pool: stop ends each coroutine suspended in
	// procLoop's yield before returning.
	for p := sh.freeProc; p != nil; p = p.nextFree {
		p.stop()
	}
	sh.freeProc = nil
	sh.stopped = true
}
