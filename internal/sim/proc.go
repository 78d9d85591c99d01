package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"time"
)

// Duration aliases time.Duration; virtual durations use the same unit
// (nanoseconds) as wall-clock durations for familiarity.
type Duration = time.Duration

// Proc is a simulated coroutine process. A Proc executes user code when the
// kernel dispatches it; it yields by calling Charge, Sleep, Park, or by
// returning from its body.
//
// Procs are pooled: when a body returns, the Proc — coroutine and struct —
// parks on its shard's free list, and a later Spawn recycles it as a fresh
// process. A *Proc held after its process finished stays inert (Unpark and
// friends see it dead) only until that recycling; holding a handle past
// the process's death is a programming error.
type Proc struct {
	sh   *Shard
	name string
	// The process is an iter.Pull coroutine. Only Shard.relay (and Shutdown)
	// calls next, which switches onto the process's stack; yield, called on
	// that stack, switches back to that caller. stop ends a coroutine
	// suspended in yield. None of them involves the Go scheduler.
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	body     func(p *Proc) // pending incarnation; consumed at first dispatch
	runner   Runner        // SpawnRunner's body and name, in place of body and name
	parked   bool
	dead     bool
	calling  bool // inside relay's next call: un-resumable until it returns
	id       uint64
	slot     int   // index in the shard's live-proc table
	nextFree *Proc // free-list link while pooled

	// Interruptible-charge state (see ChargeInterruptible). intTimer is a
	// value, not a pointer, so arming it allocates nothing.
	intTimer    Timer
	intStart    Time
	interrupted bool

	// Step-wait state: stepWaiting from StepWait to its StepWake; step and
	// stepStart (the grid) only while suspended with no pending event.
	stepWaiting bool
	step        Duration
	stepStart   Time
	// cont, when set, is asked at p's next resume what p does (see
	// Continuation); second is ChargeSeq's second charge until it is armed.
	cont   Continuation
	second Duration
}

// Next is a Continuation's verdict on a process that has just been resumed.
type Next uint8

const (
	NextRun    Next = iota // switch to the process: it needs its stack now
	NextCharge             // charge the Duration for it, ask again when it elapses
	NextPark               // park it, ask again at the next Unpark
	nextAsk                // no verdict yet
)

// Continuation is the head of a process's code after a suspension, run by
// the kernel loop in the process's place: where a resumed process would
// only suspend again — charge once more, or look around and park — the loop
// does that for it at the resume event's own instant and position, so seq,
// pids, every counter and every record are the process's own
// and no observer needs a fallback. Continue runs in kernel context, also
// when a process asks on its own stack (Then): it may do what a kernel
// callback may, a Charge or Park inside it trips checkRunning, and a panic
// ends the run like a callback's. It stays installed until it says Run or
// passes the rest of the decision on (Pass).
type Continuation interface {
	Continue(p *Proc) (Next, Duration)
}

// Pass, called inside a Continuation's Continue, installs k in its place:
// from the caller's verdict on, the kernel asks k. Layers chain their
// continuations this way; return k.Continue(p) to ask k at once.
func (p *Proc) Pass(k Continuation) { p.cont = k }

// PanicError wraps a panic raised inside a process body so that Run can
// report it as an error with the originating process's name.
type PanicError struct {
	Proc  string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n%s", e.Proc, e.Value, e.Stack)
}

// Spawn creates a process named name running body, scheduled to start at
// the shard's current virtual time (after already-scheduled same-time
// events). The body runs in process context: it may call Charge, Sleep,
// Park and friends — all of which operate on this shard's kernel.
//
// Spawn reuses the coroutine of a finished process when one is pooled, so
// steady-state process churn allocates nothing.
func (sh *Shard) Spawn(name string, body func(p *Proc)) *Proc {
	return sh.spawn(name, body, nil)
}

// Runner is a process body that carries its own name: what Action is to
// At's func. A long-lived object that implements it (a thread descriptor)
// spawns its process with no closure, and builds the name only if a
// sink or panic report reads it.
type Runner interface {
	Run(p *Proc)
	Name() string
}

// SpawnRunner is Spawn for a pre-allocated Runner. The kernel holds r
// until the process has finished.
func (sh *Shard) SpawnRunner(r Runner) *Proc { return sh.spawn("", nil, r) }

func (sh *Shard) spawn(name string, body func(p *Proc), r Runner) *Proc {
	sh.seq++
	p := sh.freeProc
	if p != nil {
		sh.freeProc = p.nextFree
		p.nextFree = nil
		p.dead = false
	} else {
		p = Carve[Proc](sh)
		p.sh = sh
		p.next, p.stop = iter.Pull(p.procLoop)
	}
	p.name, p.body, p.runner = name, body, r
	p.id = sh.seq
	if sh.eng.sharded() {
		// Disambiguate pids across shards without perturbing the
		// sequential id sequence (pinned by golden traces).
		p.id |= uint64(sh.idx) << 56
	}
	sh.addProc(p)
	sh.atProc(sh.now, p)
	if sh.sink != nil {
		sh.sink.Observe(Record{T: sh.now, Layer: LayerSim, Kind: RecSpawn, Proc: p})
	}
	return p
}

// procLoop is the lifetime of a worker coroutine: one process incarnation
// per iteration. After a body returns, the coroutine — which at that
// moment holds the kernel role the dead process gave up — parks its Proc
// for reuse, keeps firing events until the kernel role moves on, relays it,
// then yields to its caller until a later Spawn's dispatch resumes it.
func (p *Proc) procLoop(yield func(struct{}) bool) {
	sh := p.sh
	p.yield = yield
	for {
		sh.runBody(p)
		if sh.killing {
			return // Shutdown dispatched us to unwind: finish the coroutine
		}
		// Pool the proc before continuing as the kernel: the free list
		// is only ever touched by the kernel-role holder. A respawn
		// dispatched within our own tenure, or while we wait in relay,
		// leaves us in sh.pending, and relay says to run it.
		sh.running = nil
		sh.releaseProc(p)
		sh.loop(nil)
		if !sh.relay(p) {
			sh.switches++
			if !yield(struct{}{}) {
				return // Shutdown drained the worker pool
			}
		}
	}
}

// runBody executes one incarnation, converting a panic into the shard's
// failure (or swallowing the kill sentinel) and emitting the exit trace.
func (sh *Shard) runBody(p *Proc) {
	body := p.body
	p.body = nil
	defer func() {
		p.dead = true
		sh.removeProc(p)
		if r := recover(); r != nil {
			if _, kill := r.(killedSentinel); !kill && sh.failure == nil {
				sh.failure = &PanicError{Proc: p.Name(), Value: r, Stack: debug.Stack()}
			}
		}
		if sh.sink != nil {
			sh.trace(RecExit, p)
		}
	}()
	if sh.killing {
		panic(killedSentinel{})
	}
	if p.runner != nil {
		p.runner.Run(p)
	} else {
		body(p)
	}
}

// releaseProc parks a finished proc on the free list for reuse.
func (sh *Shard) releaseProc(p *Proc) {
	p.parked = false
	p.interrupted = false
	p.intTimer = Timer{}
	p.runner, p.cont = nil, nil
	p.nextFree = sh.freeProc
	sh.freeProc = p
}

// Name returns the process name given at Spawn, or the Runner's.
func (p *Proc) Name() string {
	if p.runner != nil {
		return p.runner.Name()
	}
	return p.name
}

// ID returns a unique process identifier (its spawn sequence number; in a
// sharded engine the shard index occupies the top byte).
func (p *Proc) ID() uint64 { return p.id }

// Engine returns the engine that owns p.
func (p *Proc) Engine() *Engine { return p.sh.eng }

// Shard returns the shard whose kernel schedules p. Code running in
// process context must schedule follow-up work (timers, callbacks,
// spawns) through this shard, not through the engine facade, to stay
// correct under sharded execution.
func (p *Proc) Shard() *Shard { return p.sh }

// Dead reports whether the process body has returned or panicked.
func (p *Proc) Dead() bool { return p.dead }

// Parked reports whether the process is parked waiting for Unpark.
func (p *Proc) Parked() bool { return p.parked }

// Now returns the owning shard's current virtual time. Usable from any
// context on that shard.
func (p *Proc) Now() Time { return p.sh.now }

// Charge consumes d of virtual CPU time: the process is suspended and
// resumes exactly d later. Charge(0) yields to other same-time events.
// Must be called from the running process.
func (p *Proc) Charge(d Duration) {
	sh := p.sh
	sh.checkRunning(p, "Charge")
	if !sh.charge(p, d) {
		sh.yieldToKernel(p)
	}
}

// ChargeSeq is exactly Charge(a); Charge(b) for a caller that does nothing
// in between — or Charge(a) alone, if b is negative: p is its own
// continuation for b, and is switched to once.
func (p *Proc) ChargeSeq(a, b Duration) {
	p.second = b
	p.ChargeThen(a, (*secondLeg)(p))
}

// secondLeg is a Proc seen as the Continuation that arms ChargeSeq's b.
type secondLeg Proc

func (l *secondLeg) Continue(*Proc) (Next, Duration) {
	if d := l.second; d >= 0 {
		l.second = -1
		return NextCharge, d
	}
	return NextRun, 0
}

// ChargeLast, returned by a Continuation's Continue, is the verdict "charge
// d, then run": the kernel arms the charge and, when it elapses, switches
// to p without asking the continuation again.
func (p *Proc) ChargeLast(d Duration) (Next, Duration) {
	p.second = -1
	p.cont = (*secondLeg)(p)
	return NextCharge, d
}

// ChargeThen is Charge(d) followed by whatever k says, as Then(k).
func (p *Proc) ChargeThen(d Duration, k Continuation) { p.then("ChargeThen", k, NextCharge, d) }

// ParkThen is Park followed, at the Unpark, by whatever k says.
func (p *Proc) ParkThen(k Continuation) { p.then("ParkThen", k, NextPark, 0) }

// Then asks k what p does next, now, and returns once k has said Run:
// straight away, or after the suspensions k ordered, at each of whose
// resumes the kernel loop asked again without switching to p.
func (p *Proc) Then(k Continuation) { p.then("Then", k, nextAsk, 0) }

func (p *Proc) then(op string, k Continuation, next Next, d Duration) {
	sh := p.sh
	sh.checkRunning(p, op)
	sh.running = nil // k runs as the kernel
	if sh.follow(p, k, next, d) {
		sh.running = p
		return
	}
	sh.yieldToKernel(p)
}

// ChargeInterruptible consumes up to d of virtual CPU time like Charge,
// but the charge can be cut short by Interrupt (hardware message
// interrupts in the machine model). It returns the unconsumed remainder:
// zero when the full duration elapsed, positive when interrupted. Must be
// called from the running process.
func (p *Proc) ChargeInterruptible(d Duration) Duration {
	if d < 0 {
		panic("sim: negative charge")
	}
	sh := p.sh
	sh.checkRunning(p, "ChargeInterruptible")
	if d == 0 {
		p.Charge(0)
		return 0
	}
	p.intStart = sh.now
	p.interrupted = false
	ev := sh.schedule(sh.now.Add(d), classNormal, 0, evIntProc, nil, nil, p)
	p.intTimer = Timer{ev: ev, sh: sh, gen: ev.gen}
	sh.yieldToKernel(p)
	consumed := Duration(sh.now - p.intStart)
	sh.chargedTotal += consumed
	if sh.sink != nil {
		sh.sink.Observe(Record{T: sh.now, Layer: LayerSim, Kind: RecCharge, Proc: p, A: int64(p.intStart), B: int64(consumed)})
	}
	if !p.interrupted {
		return 0
	}
	p.interrupted = false
	return d - consumed
}

// Interrupt preempts p's in-progress interruptible charge: p resumes at
// the current virtual time with the remainder of its charge unconsumed.
// Callable from kernel callbacks or other processes on the same shard. It
// reports whether a charge was actually interrupted (false when p is not
// inside ChargeInterruptible — a plain Charge cannot be preempted).
func (p *Proc) Interrupt() bool {
	if p.dead || p.intTimer.ev == nil {
		return false
	}
	if !p.intTimer.Cancel() {
		return false
	}
	p.intTimer = Timer{}
	p.interrupted = true
	sh := p.sh
	sh.atProc(sh.now, p)
	return true
}

// Park suspends the process until another party calls Unpark. Must be
// called from the running process.
func (p *Proc) Park() {
	p.sh.checkRunning(p, "Park")
	p.parked = true
	p.sh.yieldToKernel(p)
}

// Unpark makes a parked process runnable at the current virtual time. It
// may be called from kernel callbacks or from another running process on
// the same shard; it is a no-op on a dead process and a programming error
// on a process that is not parked.
func (p *Proc) Unpark() {
	if p.dead {
		return
	}
	if !p.parked {
		panic(fmt.Sprintf("sim: Unpark of non-parked process %q", p.Name()))
	}
	p.parked = false
	p.sh.atProc(p.sh.now, p)
}

// StepWait is exactly
//
//	for !woken { p.Charge(step) }
//
// with woken raised by StepWake: a poll loop whose polls cannot succeed
// until a kernel callback says so. It returns at the first grid instant
// start + k*step (k >= 1) at or after the wake, having charged k steps.
// The k-1 resumes that would only have armed the next step are not
// executed: the process suspends with no pending event, and the wake
// schedules its one resume and credits the rest to Charged, Events and
// Dispatches (Elided counts them). Credits land at the wake, so a wait
// still open when Run or RunUntil returns has contributed nothing yet, and
// one never woken leaves the engine quiescent where the loop would have
// made events for ever.
//
// A Sink is owed one record per step, in time order: while one is
// installed the wait is the loop above, endlessness included.
func (p *Proc) StepWait(step Duration) {
	if step <= 0 {
		panic("sim: StepWait needs a positive step")
	}
	sh := p.sh
	sh.checkRunning(p, "StepWait")
	p.stepWaiting = true
	if sh.sink != nil {
		for p.stepWaiting {
			p.Charge(step)
		}
		return
	}
	p.step, p.stepStart = step, sh.now
	sh.yieldToKernel(p)
}

// StepWake ends p's StepWait at the next step boundary — at this instant
// if it is one, which matches the loop when the caller fires before the
// instant's ordinary events, as a delivery does. It is a no-op unless p is
// in a StepWait not yet woken. Call it from p's own shard.
func (p *Proc) StepWake() {
	if !p.stepWaiting {
		return
	}
	p.stepWaiting = false
	step := p.step
	if step == 0 {
		return // stepping through Charge: the loop sees the flag
	}
	p.step = 0
	sh := p.sh
	k := (sh.now.Sub(p.stepStart) + step - 1) / step
	if k < 1 {
		k = 1 // woken at the start instant: the first step is already under way
	}
	sh.chargedTotal += k * step
	sh.events += uint64(k - 1)
	sh.dispatches += uint64(k - 1)
	sh.elided += uint64(k - 1)
	sh.atProc(p.stepStart.Add(k*step), p)
}
