package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The kernel's contract: every fast path — a Charge in place, ChargeSeq, a
// Continuation the loop asks, the elided StepWait, the resume chain —
// cannot be told from the cooperative schedule a serial model makes of the
// same program. One language drives the whole Proc surface; one
// interpreter (kShard) runs a program as written and in its slow spelling,
// with and without queueOnly, observed and not, on the sequential engine
// and both sharded widths; one serial oracle (kOracle) says what each run
// must read, and the resume chain's stack model (kChain) what its switches
// and handoffs must be.
//
// A program is scripts separated by '|', run by processes p0, p1, ... in
// spawn order, and setup tokens anywhere. Times are nanoseconds.
//
//	cN         Charge(N)
//	qA,B       ChargeSeq(A, B); slow: Charge(A); Charge(B)
//	iN         ChargeInterruptible(N), logging the remainder
//	p          Park
//	wS,D       a delivery wakes this process in D (none if 0), then
//	           StepWait(S); slow: for !woken { Charge(S) }
//	CN, P, T   ChargeThen(N, k), ParkThen(k), Then(k), k being the '.'
//	           steps that follow: .cN, .p, .lN (ChargeLast), .h (Pass) or a
//	           step below; slow: the process takes the steps itself
//	uK         Unpark process K if it is parked
//	sK         Spawn a process running script K
//	xK         Interrupt process K, logging the result
//	aN:x       After(N) a kernel callback does x: t (nothing), uK, sK, xK,
//	           kK (StepWake K), S, !, X (Shutdown), aN:x or dN:x
//	dN:x       the same as an AtDelivery at now+N keyed by x's K; an a that
//	           wakes, like a kK step, is a d: a wake fires before the
//	           instant's ordinary events, StepWake's condition for the loop
//	S, !, G    Stop, panic, runtime.Goexit
//	@T:x, =T:x setup callbacks: At(T), AtDelivery(T)
//	*N         N processes are spawned at setup, the k-th running script k
//	           (modulo the number of scripts; default: one per script)
//	^T         RunUntil(T) before the final Run; # no final Run
//	~N         the sharded engines' lookahead (default 8)
//
// Unknown tokens are skipped and numbers capped, so every string is a
// program. Every process logs its pid at start and a step at the end of
// each blocking call (a head and its steps are one), every other step and
// callback logs itself.
type kOp struct {
	kind byte
	a, b Duration
	k    int
	cont bool // a '.' step, taken by the open head's continuation
	seg  bool // the last step of a blocking call: the process logs a step
	act  *kOp // a, d, @, =: the callback's action
	tok  string
}

type kProg struct {
	scripts [][]kOp
	start   int
	calls   []kOp
	until   []Time
	noFinal bool
	la      Duration
}

const (
	kMaxNum   = 4095
	kMaxProcs = 64 // spawns beyond this are no-ops, so every program ends
	kMaxSteps = 20000
	kPidMask  = 1<<56 - 1 // a sharded engine's pid carries the shard above
)

func kNum(s string) (int, string) {
	n, i := 0, 0
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		n = min(10*n+int(s[i]-'0'), kMaxNum)
	}
	return n, s[i:]
}

func parseOp(tok string) (op kOp, ok bool) {
	op.tok = tok
	if strings.HasPrefix(tok, ".") {
		op.cont, tok = true, tok[1:]
	}
	if tok == "" {
		return op, false
	}
	op.kind = tok[0]
	n, rest := kNum(tok[1:])
	switch op.kind {
	case 'c', 'i', 'C', 'l':
		op.a = Duration(n)
	case 'q', 'w':
		op.a = Duration(n)
		if strings.HasPrefix(rest, ",") {
			m, _ := kNum(rest[1:])
			op.b = Duration(m)
		}
		if op.kind == 'w' {
			op.a = max(op.a, 1)
		}
	case 'u', 's', 'x', 'k':
		op.k = n
	case 'a', 'd', '@', '=':
		op.a = Duration(n)
		act, ok := parseOp(strings.TrimPrefix(rest, ":"))
		if !strings.HasPrefix(rest, ":") || !ok || act.cont || !strings.ContainsRune("tusxkS!Xad", rune(act.kind)) {
			return op, false
		}
		if op.kind == 'a' && act.kind == 'k' {
			op.kind = 'd'
		}
		op.act = &act
	case 'p', 'P', 'T', 'S', '!', 'G', 'h', 't', 'X':
	default:
		return op, false
	}
	return op, true
}

func parseKernel(text string) *kProg {
	prog := &kProg{start: -1, la: 8}
	for _, part := range strings.Split(text, "|") {
		var ops []kOp
		open := false
		for _, tok := range strings.Fields(part) {
			n, _ := kNum(tok[1:])
			switch tok[0] {
			case '*':
				prog.start = n
				continue
			case '^':
				prog.until = append(prog.until, Time(n))
				continue
			case '#':
				prog.noFinal = true
				continue
			case '~':
				prog.la = Duration(max(n, 1))
				continue
			}
			op, ok := parseOp(tok)
			switch {
			case !ok:
				continue
			case op.kind == '@' || op.kind == '=':
				prog.calls = append(prog.calls, op)
				continue
			case op.cont && (!open || !strings.ContainsRune("cpusadxShl", rune(op.kind))):
				op.cont = false
			}
			if !op.cont {
				switch op.kind {
				case 'h', 't', 'X':
					continue
				case 'l':
					op.kind = 'c'
				case 'k': // a process wakes through a delivery
					act := op
					op = kOp{kind: 'd', act: &act, tok: tok}
				}
			}
			open = op.cont && op.kind != 'l' || strings.ContainsRune("CPT", rune(op.kind))
			if op.cont {
				ops[len(ops)-1].seg = false
			}
			op.seg = op.cont || strings.ContainsRune("cqipwCPT", rune(op.kind))
			ops = append(ops, op)
		}
		prog.scripts = append(prog.scripts, ops[:min(len(ops), 64)])
	}
	prog.scripts = prog.scripts[:min(len(prog.scripts), 16)]
	prog.calls = prog.calls[:min(len(prog.calls), 32)]
	prog.until = prog.until[:min(len(prog.until), 8)]
	if prog.start < 0 {
		prog.start = len(prog.scripts)
	}
	return prog
}

// has reports whether any step or callback, at any depth, is of one of kinds.
func (prog *kProg) has(kinds string) bool {
	var in func(op *kOp) bool
	in = func(op *kOp) bool {
		return op != nil && (strings.IndexByte(kinds, op.kind) >= 0 || in(op.act))
	}
	for _, ops := range append(slices.Clone(prog.scripts), prog.calls) {
		for i := range ops {
			if in(&ops[i]) {
				return true
			}
		}
	}
	return false
}

// kSnap is the engine as a Run or RunUntil left it.
type kSnap struct {
	now                        Time
	events, dispatches, elided uint64
	charged                    Duration
	live                       int
}

// kOracle is the serial cooperative engine every run must equal: one list
// of events in (time, class, key, scheduling order), processes as program
// counters, no coroutines and no fast path but the one a mode asks for —
// elide, the StepWait of an unobserved run as written, whose credits land
// at the wake. heedStop is false for a sharded run's free-running shards.
type kOracle struct {
	prog            *kProg
	elide, heedStop bool
	now             Time
	seq             uint64
	evs             []*oEv
	procs           []*oProc
	log             []string
	trace           strings.Builder // the kernel's records, as kRecorder writes them
	recs            []Record        // the scheduling ones, for a sharded run's canonical text
	snaps           []kSnap
	snap            kSnap
	halt            byte   // 'S' stop, '!' process failure, 'K' kernel panic, 'G' Goexit
	outcome         string // of a failure or panic
}

type oEv struct {
	at       Time
	class    uint8
	key, seq uint64
	proc     int // -1: a callback doing act
	act      *kOp
}

type oProc struct {
	ops          []kOp
	pc, n        int
	name         string
	id           uint64
	parked, dead bool
	woken        bool     // the slow StepWait's flag
	then         func()   // what the process does when it is next resumed
	wait         Duration // an elided StepWait's step while it is open
	start        Time     // and its grid's origin
	intEv        *oEv     // a pending interruptible charge's expiry
	intStart     Time     // and its start
	intr         bool     // the charge was interrupted
}

func newOracle(prog *kProg, elide, heedStop bool) *kOracle {
	o := &kOracle{prog: prog, elide: elide, heedStop: heedStop}
	for k := 0; k < prog.start; k++ {
		o.spawn(k)
	}
	for i := range prog.calls {
		c := &prog.calls[i]
		o.sched(Time(c.a), c.kind == '=', -1, c.act)
	}
	for _, d := range prog.until {
		if o.run(d, false) {
			return o
		}
	}
	if !prog.noFinal {
		o.run(maxTime, true)
	}
	return o
}

func (o *kOracle) logf(format string, args ...any) {
	o.log = append(o.log, fmt.Sprintf("%d "+format, append([]any{o.now}, args...)...))
}

// rec writes a scheduling record: kind 0 resume, 1 yield, 2 exit.
func (o *kOracle) rec(kind Kind, pr *oProc) {
	o.recs = append(o.recs, Record{T: o.now, Layer: LayerSim, Kind: kind, Name: pr.name})
	fmt.Fprintf(&o.trace, "%d %s %s\n", o.now, [...]string{"resume", "yield", "exit"}[kind], pr.name)
}

func (o *kOracle) sched(at Time, delivery bool, proc int, act *kOp) *oEv {
	o.seq++
	ev := &oEv{at: at, class: classNormal, seq: o.seq, proc: proc, act: act}
	if delivery {
		ev.class, ev.key = classDelivery, uint64(act.k)
	}
	o.evs = append(o.evs, ev)
	return ev
}

// run executes events up to deadline and takes a snapshot; it reports
// whether the run ended the program (a failure, panic or Goexit).
func (o *kOracle) run(deadline Time, isRun bool) bool {
	for o.halt == 0 && o.snap.events < kMaxSteps {
		var ev *oEv
		for _, e := range o.evs {
			if ev == nil || e.at < ev.at || e.at == ev.at && (e.class < ev.class || e.class == ev.class && (e.key < ev.key || e.key == ev.key && e.seq < ev.seq)) {
				ev = e
			}
		}
		if ev == nil || ev.at > deadline {
			break
		}
		o.evs = slices.DeleteFunc(o.evs, func(e *oEv) bool { return e == ev })
		o.now = ev.at
		o.snap.events++
		if ev.proc < 0 {
			o.do("cb", ev.act)
			continue
		}
		pr := o.procs[ev.proc]
		o.snap.dispatches++
		o.rec(0, pr)
		then := pr.then
		pr.then = nil
		then()
		o.exec(ev.proc)
	}
	if !isRun && o.now < deadline && (o.halt == 0 || o.halt == 'S') {
		o.now = deadline
	}
	o.snap.now = o.now
	o.snaps = append(o.snaps, o.snap)
	return o.halt != 0 && o.halt != 'S'
}

func (o *kOracle) spawn(k int) {
	if len(o.procs) == kMaxProcs {
		return
	}
	o.seq++
	i := len(o.procs)
	pr := &oProc{ops: o.prog.scripts[k%len(o.prog.scripts)], name: "p" + strconv.Itoa(i), id: o.seq}
	pr.then = func() { o.logf("%s pid %d", pr.name, pr.id) }
	o.procs = append(o.procs, pr)
	o.snap.live++
	o.sched(o.now, false, i, nil)
	fmt.Fprintf(&o.trace, "spawned %s %d\n", pr.name, pr.id)
}

// charge is Charge(d) up to the suspension; then runs at the resume.
func (o *kOracle) charge(i int, d Duration, then func()) {
	pr := o.procs[i]
	o.snap.charged += d
	fmt.Fprintf(&o.trace, "%d charged %s %d\n", o.now, pr.name, d)
	o.sched(o.now.Add(d), false, i, nil)
	o.suspend(pr, then)
}

func (o *kOracle) suspend(pr *oProc, then func()) {
	pr.then = then
	o.rec(1, pr)
}

// exec runs process i from its program counter until it suspends or ends.
func (o *kOracle) exec(i int) {
	pr := o.procs[i]
	for pr.then == nil && o.halt != '!' && o.halt != 'G' {
		if pr.pc == len(pr.ops) {
			o.exit(pr)
			return
		}
		op := &pr.ops[pr.pc]
		pr.pc++
		done := func() { o.seg(pr, op, "") }
		switch op.kind {
		case 'c', 'C', 'l':
			o.charge(i, op.a, done)
		case 'q':
			o.charge(i, op.a, func() { o.charge(i, op.b, done) })
		case 'p', 'P':
			pr.parked = true
			o.suspend(pr, done)
		case 'i':
			if op.a == 0 {
				o.charge(i, 0, func() { o.seg(pr, op, " rem 0") })
				break
			}
			pr.intStart, pr.intEv = o.now, o.sched(o.now.Add(op.a), false, i, nil)
			o.suspend(pr, func() {
				pr.intEv = nil
				used, rem := o.now.Sub(pr.intStart), Duration(0)
				if pr.intr {
					rem, pr.intr = op.a-used, false
				}
				o.snap.charged += used
				fmt.Fprintf(&o.trace, "%d charged %s %d\n", pr.intStart, pr.name, used)
				o.seg(pr, op, fmt.Sprintf(" rem %d", rem))
			})
		case 'w':
			if op.b > 0 {
				wake := &kOp{kind: 'k', k: i, tok: "k" + strconv.Itoa(i)}
				o.sched(o.now.Add(op.b), true, -1, wake)
			}
			if o.elide {
				pr.wait, pr.start = op.a, o.now
				o.suspend(pr, done)
				break
			}
			pr.woken = false
			var loop func()
			loop = func() {
				if pr.woken {
					done()
				} else {
					o.charge(i, op.a, loop)
				}
			}
			o.charge(i, op.a, loop)
		case 'T', 'h':
			done()
		case 'G':
			o.halt, o.outcome = 'G', "goexit"
			o.exit(pr)
		case '!':
			o.logf("%s %s", pr.name, op.tok)
			o.halt, o.outcome = '!', "fail "+pr.name+": boom"
			o.exit(pr)
		default:
			o.do(pr.name, op)
			done()
		}
	}
}

// seg logs the end of a blocking call.
func (o *kOracle) seg(pr *oProc, op *kOp, extra string) {
	if op.seg {
		pr.n++
		o.logf("%s.%d%s", pr.name, pr.n, extra)
	}
}

func (o *kOracle) exit(pr *oProc) {
	pr.dead = true
	o.snap.live--
	o.rec(2, pr)
}

// do is a step that needs no stack, or a callback's action, by who.
func (o *kOracle) do(who string, op *kOp) {
	var pr *oProc // the step's target, if it lives
	if op.k < len(o.procs) && !o.procs[op.k].dead {
		pr = o.procs[op.k]
	}
	if op.kind == 'x' {
		ok := pr != nil && pr.intEv != nil
		if ok {
			o.evs = slices.DeleteFunc(o.evs, func(e *oEv) bool { return e == pr.intEv })
			pr.intEv, pr.intr = nil, true
			o.sched(o.now, false, op.k, nil)
		}
		o.logf("%s %s %v", who, op.tok, ok)
		return
	}
	o.logf("%s %s", who, op.tok)
	switch op.kind {
	case 'u':
		if pr != nil && pr.parked {
			pr.parked = false
			o.sched(o.now, false, op.k, nil)
		}
	case 's':
		o.spawn(op.k)
	case 'a', 'd':
		o.sched(o.now.Add(op.a), op.kind == 'd', -1, op.act)
	case 'k':
		switch {
		case pr == nil:
		case !o.elide:
			pr.woken = true
		case pr.wait > 0:
			step := pr.wait
			k := max((o.now.Sub(pr.start)+step-1)/step, 1)
			pr.wait = 0
			o.snap.charged += k * step
			o.snap.events += uint64(k - 1)
			o.snap.dispatches += uint64(k - 1)
			o.snap.elided += uint64(k - 1)
			o.sched(pr.start.Add(k*step), false, op.k, nil)
		}
	case 'S':
		if o.heedStop {
			o.halt = 'S'
		}
	case '!':
		o.halt, o.outcome = 'K', "panic boom"
	case 'X':
		o.halt, o.outcome = 'K', "panic sim: Shutdown from inside the simulation"
	}
}

// shutdown is Engine.Shutdown's part of the transcript: the kills, in pid
// order, at the final instant.
func (o *kOracle) shutdown() {
	for _, pr := range o.procs { // in spawn order, which is pid order
		if !pr.dead {
			o.rec(0, pr)
			o.rec(2, pr)
		}
	}
}

// kMode is one way to run a program.
type kMode struct {
	slow, queue, observed bool
	cfg                   ShardConfig
}

// kRecorder writes every kernel record into one transcript, so the order
// of the scheduling records against the charge and spawn ones is compared
// too.
type kRecorder struct{ strings.Builder }

func (r *kRecorder) Observe(rec Record) {
	switch p := rec.Proc; rec.Kind {
	case RecCharge:
		fmt.Fprintf(r, "%d charged %s %d\n", rec.A, p.Name(), rec.B)
	case RecSpawn:
		fmt.Fprintf(r, "spawned %s %d\n", p.Name(), p.ID())
	default:
		fmt.Fprintf(r, "%d %s %s\n", rec.T, [...]string{"resume", "yield", "exit"}[rec.Kind], p.Name())
	}
}

// kShard plays a program on one shard: a sharded engine runs a copy on each.
type kShard struct {
	sh    *Shard
	prog  *kProg
	slow  bool
	procs []*kProc // in spawn order
	log   []string
	gains []kGain
	made  map[*Proc]bool // coroutines created
}

type kProc struct {
	p                   *Proc
	parked, dead, woken bool
}

// kGain is a process getting control on its stack, on coroutine co; a nil
// co marks the end of a run or span.
type kGain struct {
	idx int
	co  *Proc
}

func (ks *kShard) logf(format string, args ...any) {
	ks.log = append(ks.log, fmt.Sprintf("%d "+format, append([]any{ks.sh.Now()}, args...)...))
}

func (ks *kShard) spawn(k int) {
	if len(ks.procs) == kMaxProcs {
		return
	}
	idx, st := len(ks.procs), &kProc{}
	ks.procs = append(ks.procs, st)
	ops := ks.prog.scripts[k%len(ks.prog.scripts)]
	st.p = ks.sh.Spawn("p"+strconv.Itoa(idx), func(p *Proc) { ks.body(p, idx, st, ops) })
	ks.made[st.p] = true
}

// kAction is a callback's action as an Action.
type kAction struct {
	ks *kShard
	op *kOp
}

func (a kAction) Run() { a.ks.do("cb", a.op) }

// do is a step that needs no stack — taken by a process, by its
// continuation in the kernel loop, or as a callback's action.
func (ks *kShard) do(who string, op *kOp) {
	var st *kProc // the step's target, if it lives
	if op.k < len(ks.procs) && !ks.procs[op.k].dead {
		st = ks.procs[op.k]
	}
	if op.kind == 'x' {
		ks.logf("%s %s %v", who, op.tok, st != nil && st.p.Interrupt())
		return
	}
	ks.logf("%s %s", who, op.tok)
	switch op.kind {
	case 'u':
		if st != nil && st.parked {
			st.parked = false
			st.p.Unpark()
		}
	case 's':
		ks.spawn(op.k)
	case 'a':
		ks.sh.After(op.a, kAction{ks, op.act}.Run)
	case 'd':
		ks.sh.AtDelivery(ks.sh.Now().Add(op.a), uint64(op.act.k), kAction{ks, op.act})
	case 'k':
		if st != nil && ks.slow {
			st.woken = true
		} else if st != nil {
			st.p.StepWake()
		}
	case 'S':
		ks.sh.Engine().Stop()
	case '!':
		panic("boom")
	case 'X':
		ks.sh.Engine().Shutdown()
	}
}

func (ks *kShard) body(p *Proc, idx int, st *kProc, ops []kOp) {
	defer func() { st.dead = true }()
	gain := func() { ks.gains = append(ks.gains, kGain{idx, p}) }
	gain()
	ks.logf("%s pid %d", p.Name(), p.ID()&kPidMask)
	n := 0
	for pc := 0; pc < len(ops); pc++ {
		op := &ops[pc]
		extra := ""
		switch k := (&kCont{ks: ks, idx: idx, ops: ops, pc: new(int)}); {
		case op.kind == 'c' || op.kind == 'l' || op.kind == 'C' && ks.slow:
			p.Charge(op.a)
		case op.kind == 'q' && ks.slow:
			p.Charge(op.a)
			gain()
			p.Charge(op.b)
		case op.kind == 'q':
			p.ChargeSeq(op.a, op.b)
		case op.kind == 'i':
			extra = fmt.Sprintf(" rem %d", p.ChargeInterruptible(op.a))
		case op.kind == 'p' || op.kind == 'P' && ks.slow:
			st.parked = true
			p.Park()
		case op.kind == 'w':
			if op.b > 0 {
				wake := &kOp{kind: 'k', k: idx, tok: "k" + strconv.Itoa(idx)}
				ks.sh.AtDelivery(p.Now().Add(op.b), uint64(idx), kAction{ks, wake})
			}
			if !ks.slow {
				p.StepWait(op.a)
				break
			}
			for st.woken = false; !st.woken; gain() {
				p.Charge(op.a)
			}
		case op.kind == 'T' && ks.slow, op.kind == 'h':
		case op.kind == 'C', op.kind == 'P', op.kind == 'T':
			*k.pc = pc + 1
			switch op.kind {
			case 'C':
				p.ChargeThen(op.a, k)
			case 'P':
				st.parked = true
				p.ParkThen(k)
			default:
				p.Then(k)
			}
			pc = *k.pc - 1
			op = &ops[pc]
		case op.kind == '!':
			ks.logf("%s %s", p.Name(), op.tok)
			panic("boom")
		case op.kind == 'G':
			runtime.Goexit()
		default:
			ks.do(p.Name(), op)
		}
		gain() // after a step that kept the stack too: it changes nothing
		if op.seg {
			n++
			ks.logf("%s.%d%s", p.Name(), n, extra)
		}
	}
}

// kCont is the '.' steps after a head as a Continuation. pc is shared with
// the process and with any continuation the steps are passed on to, so the
// process goes on after the step that said Run.
type kCont struct {
	ks     *kShard
	idx    int
	ops    []kOp
	pc     *int
	passed bool // asked again after Pass, it says Run
}

func (k *kCont) Continue(p *Proc) (Next, Duration) {
	for !k.passed && *k.pc < len(k.ops) && k.ops[*k.pc].cont {
		op := &k.ops[*k.pc]
		*k.pc++
		switch op.kind {
		case 'c':
			return NextCharge, op.a
		case 'p':
			k.ks.procs[k.idx].parked = true
			return NextPark, 0
		case 'l':
			return p.ChargeLast(op.a)
		case 'h':
			rest := *k
			k.passed = true
			p.Pass(&rest)
			return rest.Continue(p)
		}
		k.ks.do(p.Name(), op)
	}
	return NextRun, 0
}

// kHook marks every span end in the shards' gains: Barrier runs between
// spans with every shard quiescent and its chain unwound.
type kHook struct {
	*toyNet
	mark func()
}

func (h kHook) Barrier() { h.mark() }

// kChain is the resume chain as a stack of coroutines, root-most first. A
// coroutine that gets control is pushed if absent (its next is called, by
// the tip or, with the chain at its bound, by the one below after the tip
// has popped) and otherwise everything above it pops (yields); the end of
// a run or span pops everything. Pushes plus pops is what Switches must
// read. A gain is a handoff unless the same process had control last in
// this run or span: it suspended and its own resume came back to it.
type kChain struct {
	stack              []*Proc
	switches, handoffs uint64
	maxDepth           int
	ends               []int // the depth each run or span ended at
}

func (m *kChain) replay(gains []kGain) {
	last := -1
	for _, g := range gains {
		if g.co == nil {
			m.ends = append(m.ends, len(m.stack))
			m.switches += uint64(len(m.stack))
			m.stack, last = m.stack[:0], -1
			continue
		}
		if g.idx != last {
			m.handoffs++
		}
		last = g.idx
		keep := slices.Index(m.stack, g.co) + 1
		if keep == 0 {
			if len(m.stack) == maxChain {
				m.stack = m.stack[:maxChain-1]
				m.switches++
			}
			m.stack = append(m.stack, g.co)
			m.switches++
			m.maxDepth = max(m.maxDepth, len(m.stack))
			continue
		}
		m.switches += uint64(len(m.stack) - keep)
		m.stack = m.stack[:keep]
	}
}

// kRun is what one engine made of a program.
type kRun struct {
	shards             []*kShard
	snaps              []kSnap
	trace              string   // sequential: the kernel's records
	recs               []Record // sharded: the scheduling ones, in canonical order
	chain              kChain
	switches, handoffs uint64
	outcome            string // "", "fail pN: V", "panic V" or "goexit"
}

// run plays prog under m and checks what holds of any program: the chain is
// empty and pending nil after every Run and RunUntil, no later one raises
// the goroutine count beyond the coroutines it created, Switches and
// Handoffs are the stack model's, and Shutdown leaves no goroutine.
func (prog *kProg) run(t testing.TB, m kMode) *kRun {
	t.Helper()
	before := runtime.NumGoroutine()
	e := NewShardedConfig(7, m.cfg)
	r := &kRun{}
	mark := func() {
		for _, ks := range r.shards {
			ks.gains = append(ks.gains, kGain{})
		}
	}
	if e.sharded() {
		e.SetWindowHook(kHook{newToyNet(e, e.Shards(), prog.la, 0), mark})
	}
	rec, canon := &kRecorder{}, NewCanonicalTracer()
	if m.observed && e.sharded() {
		e.SetSink(canon)
	} else if m.observed {
		e.SetSink(rec)
	}
	for i := 0; i < e.Shards(); i++ {
		ks := &kShard{sh: e.Shard(i), prog: prog, slow: m.slow, made: map[*Proc]bool{}}
		r.shards = append(r.shards, ks)
		if !e.sharded() {
			ks.sh.queueOnly = m.queue
		}
		for k := 0; k < prog.start; k++ {
			ks.spawn(k)
		}
		for c := range prog.calls {
			if call := &prog.calls[c]; call.kind == '=' {
				ks.sh.AtDelivery(Time(call.a), uint64(call.act.k), kAction{ks, call.act})
			} else {
				ks.sh.At(Time(call.a), kAction{ks, call.act}.Run)
			}
		}
	}
	// drive makes one Run or RunUntil call. A program that may Goexit gets
	// a goroutine of its own for it, for the chain to end instead of the test.
	drive := func(call func() error) bool {
		done := make(chan struct{})
		guarded := func() {
			returned := false
			defer func() {
				if v := recover(); !returned && v != nil {
					r.outcome = fmt.Sprint("panic ", v)
				} else if !returned {
					r.outcome = "goexit"
				}
				close(done)
			}()
			var pe *PanicError
			if err := call(); errors.As(err, &pe) {
				r.outcome = fmt.Sprintf("fail %s: %v", pe.Proc, pe.Value)
			} else if err != nil {
				r.outcome = err.Error()
			}
			returned = true
		}
		if prog.has("G") {
			go guarded()
		} else {
			guarded()
		}
		<-done
		if r.outcome == "goexit" {
			return false
		}
		if !e.sharded() {
			mark()
		}
		for _, ks := range r.shards {
			if ks.sh.pending != nil {
				t.Errorf("%+v: pending = %s after the run returned", m, ks.sh.pending.Name())
			}
			for _, st := range ks.procs {
				if st.p.calling {
					t.Errorf("%+v: %s's coroutine is still calling after the run returned", m, st.p.Name())
				}
			}
		}
		r.snaps = append(r.snaps, kSnap{e.Now(), e.Events(), e.Dispatches(), e.Elided(), e.Charged(), e.Live()})
		return r.outcome == ""
	}
	calls := slices.Clone(prog.until)
	if !prog.noFinal {
		calls = append(calls, maxTime)
	}
	goroutines := 0
	for i, d := range calls {
		if !drive(func() error {
			if d == maxTime {
				return e.Run()
			}
			return e.RunUntil(d)
		}) {
			break
		}
		n := runtime.NumGoroutine()
		for _, ks := range r.shards {
			n -= len(ks.made)
		}
		if i == 0 || n < goroutines {
			goroutines = n
		} else if n > goroutines && !prog.has("G") {
			t.Errorf("%+v: run %d raised the goroutine count by %d beyond the coroutines it created", m, i, n-goroutines)
		}
	}
	for _, ks := range r.shards {
		r.chain.replay(ks.gains)
	}
	r.switches, r.handoffs = e.Switches(), e.Handoffs()
	// An observed StepWait loops inside the kernel, out of the gains' sight.
	hidden := m.observed && !m.slow && prog.has("w")
	if !hidden && (r.switches != r.chain.switches || r.handoffs != r.chain.handoffs) {
		t.Errorf("%+v: %d switches, %d handoffs; the stack model makes %d, %d", m, r.switches, r.handoffs, r.chain.switches, r.chain.handoffs)
	}
	if r.switches > 2*r.handoffs {
		t.Errorf("%+v: %d switches for %d handoffs: more than two each", m, r.switches, r.handoffs)
	}
	e.Shutdown()
	r.trace, r.recs = rec.String(), canon.recs
	sortCanonical(r.recs)
	slack := 1 // drive's goroutine, or a subtest's, may still be on its way out
	if e.sharded() {
		slack += e.Shards()
	}
	if after := runtime.NumGoroutine(); after > before+slack || e.Live() != 0 {
		t.Errorf("%+v: %d goroutines after Shutdown, %d before New; live %d", m, after, before, e.Live())
	}
	return r
}

// kCheck is a program's oracles and runs.
type kCheck struct {
	loop, elide *kOracle // of the sequential engine
	runs        map[kMode]*kRun
}

var (
	kSequential = ShardConfig{Shards: 1}
	kConfigs    = []ShardConfig{kSequential, {Shards: 2}, {Shards: 2, Mode: Optimistic}}
	kSharded    = append(kConfigs[:3:3], ShardConfig{Shards: 4, Mode: Optimistic})
	kFast       = kMode{cfg: kSequential}                          // as written, in place, unobserved
	kSlow       = kMode{slow: true, queue: true, cfg: kSequential} // the parent kernel's spelling
)

// checkKernel runs prog in every mode on cfgs (by default the sequential
// engine and both sharded widths) and holds each run to its own oracle: the
// eliding one for an unobserved StepWait as written, the loop otherwise.
// A sequential run equals it in its log, every snapshot, its outcome and
// — observed — its transcript of tracer and probe records down to
// Shutdown's. A sharded run's shards each log what the oracle logs, its
// counts are the oracle's times the shard count and its canonical
// transcript the oracle's with each record once a shard; where the program
// stops or fails, each shard's log is only a prefix of the free-running
// oracle's (Stop waits for the span to commit, a failure aborts the other
// shards wherever they are).
func checkKernel(t testing.TB, prog *kProg, cfgs ...ShardConfig) *kCheck {
	t.Helper()
	if cfgs == nil {
		cfgs = kConfigs
	}
	oracles := map[[2]bool]*kOracle{}
	oracle := func(elide, heedStop bool) *kOracle {
		if o := oracles[[2]bool{elide, heedStop}]; o != nil {
			return o
		}
		o := newOracle(prog, elide, heedStop)
		o.shutdown()
		oracles[[2]bool{elide, heedStop}] = o
		return o
	}
	c := &kCheck{loop: oracle(false, true), elide: oracle(true, true), runs: map[kMode]*kRun{}}
	if c.loop.snap.events >= kMaxSteps || c.elide.snap.events >= kMaxSteps {
		t.Skip("the program runs for ever")
	}
	checkStepWait(t, prog, c.loop, c.elide)
	for _, cfg := range cfgs {
		if cfg.Shards > 1 && prog.has("G") {
			continue // Goexit would end a span runner
		}
		for _, m := range []kMode{{true, true, true, cfg}, {true, true, false, cfg}, {true, false, true, cfg}, {true, false, false, cfg},
			{false, true, true, cfg}, {false, true, false, cfg}, {false, false, true, cfg}, {false, false, false, cfg}} {
			if cfg.Shards > 1 && !m.queue {
				continue // a shard keeps every charge on the queue
			}
			r := prog.run(t, m)
			c.runs[m] = r
			o := oracle(!m.slow && !m.observed, true)
			if cfg.Shards > 1 && o.halt != 0 {
				free := oracle(!m.slow && !m.observed, false).log
				for i, ks := range r.shards {
					if len(ks.log) > len(free) || !slices.Equal(ks.log, free[:len(ks.log)]) {
						t.Errorf("%+v: shard %d logged\n %v\nnot a prefix of the queue order\n %v", m, i, ks.log, free)
					}
				}
				continue
			}
			for i, ks := range r.shards {
				if !slices.Equal(ks.log, o.log) {
					t.Errorf("%+v: shard %d logged\n %v\nthe queue order is\n %v", m, i, ks.log, o.log)
				}
			}
			if r.outcome != o.outcome {
				t.Errorf("%+v: outcome %q, the oracle's %q", m, r.outcome, o.outcome)
			}
			if o.halt == 'G' {
				continue
			}
			want := o.snaps
			if n := len(r.shards); n > 1 {
				want = nil
				for _, s := range o.snaps {
					want = append(want, kSnap{0, s.events * uint64(n), s.dispatches * uint64(n), s.elided * uint64(n), s.charged * Duration(n), s.live * n})
				}
				for i := range r.snaps {
					r.snaps[i].now = 0
				}
				var recs []Record
				for _, rec := range o.recs {
					for range n {
						recs = append(recs, rec)
					}
				}
				if sortCanonical(recs); m.observed && !slices.Equal(r.recs, recs) {
					t.Errorf("%+v: canonical transcripts differ:\n--- oracle ---\n%v\n--- run ---\n%v", m, recs, r.recs)
				}
			} else if m.observed && r.trace != o.trace.String() {
				t.Errorf("%+v: transcripts differ:\n--- oracle ---\n%s--- run ---\n%s", m, o.trace.String(), r.trace)
			}
			if !reflect.DeepEqual(r.snaps, want) {
				t.Errorf("%+v: engine state\n %+v\nthe oracle's\n %+v", m, r.snaps, want)
			}
		}
	}
	return c
}

// checkStepWait holds the eliding oracle to the loop where StepWait's
// contract applies in full: nothing orders processes against each other at
// an instant (no unpark, spawn, interrupt, stop or failure) and every wait
// ends. Then only the order of same-instant entries may differ — the elided
// resume draws its place at the wake, the loop's at the step before — and
// the final counts are the same.
func checkStepWait(t testing.TB, prog *kProg, loop, elide *kOracle) {
	t.Helper()
	if !prog.has("w") || prog.has("usxS!GX") || prog.noFinal {
		return
	}
	canonical := func(log []string) []string {
		log = slices.Clone(log) // in time order: sort each instant's entries
		for i := 0; i < len(log); {
			j := i + 1
			ti, _, _ := strings.Cut(log[i], " ")
			for j < len(log) && strings.HasPrefix(log[j], ti+" ") {
				j++
			}
			slices.Sort(log[i:j])
			i = j
		}
		return log
	}
	if l, w := canonical(loop.log), canonical(elide.log); !slices.Equal(l, w) {
		t.Errorf("StepWait is not the loop:\n loop %v\n wait %v", l, w)
	}
	l, w := loop.snap, elide.snap
	if w.elided = 0; l != w {
		t.Errorf("StepWait is not the loop: counts %+v, the loop's %+v", elide.snap, loop.snap)
	}
}

func FuzzKernel(f *testing.F) {
	// The table rows and the corpus (testdata/fuzz) cover the language; these
	// are the four shapes the targets it replaced started from.
	f.Add("w1 w2 w8 | w1 w2 w8 | =9:k0 =18:k0 =27:k0 =9:k1 =18:k1 =27:k1")
	f.Add("q5,7 q7,5 q10,0 s2 | p | *2")
	f.Add("p | C5 .a4:t .c7 s3 | c1 c2 c3 c2 c3 c2 c3 c2 c3 c2 c3 c2 c3 | *3")
	f.Add("|")
	f.Fuzz(func(t *testing.T, text string) { checkKernel(t, parseKernel(text)) })
}

// kRow is a table row: a program and the side effects its oracle logs,
// checked by hand; each table pins more of the sequential runs.
type kRow struct {
	name, prog, log string
}

func (row kRow) check(t *testing.T, cfgs ...ShardConfig) *kCheck {
	t.Helper()
	c := checkKernel(t, parseKernel(row.prog), cfgs...)
	if got := strings.Join(c.loop.log, "|"); row.log != "" && got != row.log {
		t.Errorf("side effects\n got  %s\n want %s", got, row.log)
	}
	return c
}

// last is the state the run's last Run or RunUntil left.
func (r *kRun) last() kSnap { return r.snaps[len(r.snaps)-1] }

func TestStepWaitMatchesChargeLoop(t *testing.T) {
	for _, tc := range []struct {
		kRow
		elided uint64 // by the fast run
	}{
		{kRow{"wake mid-step", "c5 w10 | =32:k0 =43:k0",
			"0 p0 pid 1|0 p1 pid 3|5 p0.1|32 cb k0|35 p0.2|43 cb k0"}, 2},
		{kRow{"delivery exactly on a grid instant", "c5 w10 | =35:k0 =46:k0",
			"0 p0 pid 1|0 p1 pid 3|5 p0.1|35 cb k0|35 p0.2|46 cb k0"}, 2},
		{kRow{"wake at the start instant is seen one step later", "w10 | @0:k0 =11:k0",
			"0 p0 pid 1|0 p1 pid 3|0 cb k0|10 p0.1|11 cb k0"}, 0},
		{kRow{"wake before the wait starts is lost", "c5 w10 | @5:k0 @21:k0 =32:k0",
			"0 p0 pid 1|0 p1 pid 3|5 cb k0|5 p0.1|21 cb k0|25 p0.2|32 cb k0"}, 1},
		{kRow{"second wake before the resume is a no-op", "w10 w10 | =12:k0 =15:k0 @41:k0 =52:k0 =63:k0",
			"0 p0 pid 1|0 p1 pid 3|12 cb k0|15 cb k0|20 p0.1|41 cb k0|50 p0.2|52 cb k0|63 cb k0"}, 1 + 2},
		{kRow{"two waiters out of phase", "w10 | c3 w7 | =29:k0 @18:k1 =40:k0 =40:k1",
			"0 p0 pid 1|0 p1 pid 3|0 p2 pid 5|3 p1.1|18 cb k1|24 p1.2|29 cb k0|30 p0.1|40 cb k0|40 cb k1"}, 2 + 2},
		{kRow{"two waiters resuming at one instant", "w10 | c2 w4 | @29:k0 @27:k1 =40:k0 =40:k1",
			"0 p0 pid 1|0 p1 pid 3|0 p2 pid 5|2 p1.1|27 cb k1|29 cb k0|30 p0.1|30 p1.2|40 cb k0|40 cb k1"}, 2 + 6},
		{kRow{"timer on the resume instant", "w10 | =25:k0 @30:t =41:k0",
			"0 p0 pid 1|0 p1 pid 3|25 cb k0|30 cb t|30 p0.1|41 cb k0"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.check(t).runs[kFast].last().elided; got != tc.elided {
				t.Errorf("elided %d events, want %d", got, tc.elided)
			}
		})
	}
}

// TestStepWaitNeverWoken: the one run the loop cannot make. The engine
// quiesces with the waiter live and nothing credited, and Shutdown unwinds
// it like any suspended process.
func TestStepWaitNeverWoken(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New(1)
	unwound := false
	w := e.Spawn("w", func(p *Proc) {
		defer func() { unwound = true }()
		p.Charge(Micros(1))
		p.StepWait(Micros(1))
		t.Error("StepWait returned with no wake")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Live() != 1 || e.Now() != Time(Micros(1)) || e.Charged() != Micros(1) || e.Elided() != 0 {
		t.Fatalf("quiesced with live %d, now %v, charged %v, elided %d", e.Live(), e.Now(), e.Charged(), e.Elided())
	}
	e.Shutdown()
	if !unwound || !w.Dead() || e.Live() != 0 {
		t.Fatalf("after Shutdown: unwound %v, dead %v, live %d", unwound, w.Dead(), e.Live())
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after Shutdown, %d before New", after, before)
	}
}

func TestStepWaitMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	e := New(1)
	defer e.Shutdown()
	idle := e.Spawn("idle", func(p *Proc) { p.Park() })
	e.Spawn("w", func(p *Proc) {
		mustPanic("zero step", func() { p.StepWait(0) })
		mustPanic("waiting on behalf of another process", func() { idle.StepWait(1) })
		idle.StepWake() // not in a wait: a no-op, not an Unpark
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !idle.Parked() {
		t.Fatal("StepWake resumed a parked process")
	}
}

// kSaves is how many handoffs the fast spellings save: the resumes a
// process would have answered by suspending again, and the ones back to
// whoever it, then holding the kernel, would have dispatched next.
func (c *kCheck) saves() uint64 { return c.runs[kSlow].handoffs - c.runs[kFast].handoffs }

func TestChargeSeqMatchesTwoCharges(t *testing.T) {
	for _, tc := range []struct {
		kRow
		events, fewer uint64 // at the end; handoffs saved
	}{
		{kRow{"nothing else pending: both legs in place", "q5,7 s2 | p | *2",
			"0 p0 pid 1|0 p1 pid 3|12 p0.1|12 p0 s2|12 p2 pid 7"}, 3 + 2, 0},
		{kRow{"timer exactly on the first resume", "c3 q5,7 s2 | p | @8:t *2",
			"0 p0 pid 1|0 p1 pid 3|3 p0.1|8 cb t|15 p0.2|15 p0 s2|15 p2 pid 9"}, 3 + 3 + 1, 0},
		{kRow{"timer exactly on the second resume", "c3 q5,7 s2 | p | @15:t *2",
			"0 p0 pid 1|0 p1 pid 3|3 p0.1|15 cb t|15 p0.2|15 p0 s2|15 p2 pid 9"}, 3 + 3 + 1, 0},
		// Charge(a+b) would draw the final resume's seq before the callback's
		// and resume p0 first.
		{kRow{"event scheduled during the first leg for the second resume's instant", "q6,4 s2 | p | @2:a8:t *2",
			"0 p0 pid 1|0 p1 pid 3|2 cb a8:t|10 cb t|10 p0.1|10 p0 s2|10 p2 pid 9"}, 3 + 2 + 2, 0},
		{kRow{"second process charging out of phase", "q10,10 q10,10 s3 | c5 c10 c10 c10 c10 | p | *3",
			"0 p0 pid 1|0 p1 pid 3|0 p2 pid 5|5 p1.1|15 p1.2|20 p0.1|25 p1.3|35 p1.4|40 p0.2|40 p0 s3|40 p3 pid 16|45 p1.5"}, 4 + 4 + 5, 4},
		{kRow{"zero first leg", "q0,4 s3 | c0 c4 | p | *3",
			"0 p0 pid 1|0 p1 pid 3|0 p2 pid 5|0 p1.1|4 p0.1|4 p0 s3|4 p1.2|4 p3 pid 11"}, 4 + 2 + 2, 1},
		{kRow{"zero second leg", "q4,0 s3 | c4 c0 | p | *3",
			"0 p0 pid 1|0 p1 pid 3|0 p2 pid 5|4 p1.1|4 p0.1|4 p0 s3|4 p1.2|4 p3 pid 11"}, 4 + 2 + 2, 1},
		{kRow{"both legs zero", "q0,0 s2 | p | @0:t *2",
			"0 p0 pid 1|0 p1 pid 3|0 cb t|0 p0.1|0 p0 s2|0 p2 pid 8"}, 3 + 2 + 1, 0},
		{kRow{"Interrupt mid-chain is refused", "q6,6 s2 | p | @3:x0 @9:x0 *2",
			"0 p0 pid 1|0 p1 pid 3|3 cb x0 false|9 cb x0 false|12 p0.1|12 p0 s2|12 p2 pid 9"}, 3 + 2 + 2, 0},
		{kRow{"Stop inside the first leg", "q6,6 s2 | p | @3:S *2", "0 p0 pid 1|0 p1 pid 3|3 cb S"}, 2 + 1, 0},
		{kRow{"Stop inside the second leg", "q6,6 s2 | p | @9:S *2", "0 p0 pid 1|0 p1 pid 3|9 cb S"}, 2 + 1 + 1, 1},
		{kRow{"deadlines inside each leg, on each resume and past the end", "c1 q6,6 q6,6 s2 | p | ^4 ^7 ^10 ^13 ^30 *2",
			"0 p0 pid 1|0 p1 pid 3|1 p0.1|13 p0.2|25 p0.3|25 p0 s2|25 p2 pid 10"}, 3 + 5, 1},
		{kRow{"pooled Procs reused after chains, parked process woken mid-chain",
			"q5,5 s2 | p c2 p c9 p | | q3,1 | q2,1 | q0,1 | q4,1 | @2:s3 @4:u1 @7:s4 @20:s5 @20:s6 @30:u1 *2",
			"0 p0 pid 1|0 p1 pid 3|2 cb s3|2 p2 pid 12|4 cb u1|4 p1.1|6 p1.2|6 p2.1|7 cb s4|7 p3 pid 19|10 p0.1|10 p0 s2|" +
				"10 p3.1|10 p4 pid 23|20 cb s5|20 cb s6|20 p5 pid 25|20 p6 pid 27|21 p5.1|25 p6.1|30 cb u1|30 p1.3|39 p1.4"},
			3 + 2 + 6 + 4*3 + 2*2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.check(t)
			if c.loop.snap.events != tc.events || c.saves() != tc.fewer {
				t.Errorf("%d events, %d handoffs saved; want %d, %d", c.loop.snap.events, c.saves(), tc.events, tc.fewer)
			}
		})
	}
}

// kNodes is four nodes' processes, made by proc(node, k) k = 0, 1, ...,
// and a lookahead of 2 µs, the sharded tables' machine.
func kNodes(procs ...func(n, k int) string) string {
	var scripts []string
	for n := 0; n < 4; n++ {
		for _, proc := range procs {
			var ops []string
			for k := 0; ; k++ {
				op := proc(n, k)
				if op == "" {
					break
				}
				ops = append(ops, op)
			}
			scripts = append(scripts, strings.Join(ops, " "))
		}
	}
	return strings.Join(scripts, " | ") + " ~2000"
}

// kCharger is 60 plain charges.
func kCharger(n, k int) string {
	if k == 60 {
		return ""
	}
	return fmt.Sprintf("c%d", 450+100*n)
}

// TestChargeSeqSharded: on the shards of a sharded engine every charge
// keeps the queue and the kernel's re-arm runs under the span gate.
func TestChargeSeqSharded(t *testing.T) {
	prog := kNodes(func(n, k int) string {
		if k == 40 {
			return ""
		}
		return fmt.Sprintf("q%d,%d", 300*(n+1), 700*(k%3))
	}, kCharger)
	kRow{"", prog, ""}.check(t, kSharded...)
}

func TestContinuationMatchesTheProcess(t *testing.T) {
	const q = "c3 c3 c3 c3 c3 c3" // resumes at 3, 6, ... keep another coroutine in play
	for _, tc := range []struct {
		kRow
		fewer uint64 // handoffs saved
	}{
		{kRow{"run at once: Then with no steps is nothing", "p | T s2 | *2",
			"0 p0 pid 1|0 p1 pid 3|0 p1.1|0 p1 s2|0 p2 pid 5"}, 0},
		{kRow{"nothing else pending: every leg in place, actions between them", "p | C5 .a4:t .c7 s2 | *2",
			"0 p0 pid 1|0 p1 pid 3|5 p1 .a4:t|9 cb t|12 p1.1|12 p1 s2|12 p2 pid 8"}, 0},
		{kRow{"passed on, then a leg in place: the second continuation is asked next", "p | C5 .h .c2 .a4:t s2 | *2",
			"0 p0 pid 1|0 p1 pid 3|7 p1 .a4:t|7 p1.1|7 p1 s2|7 p2 pid 8|11 cb t"}, 0},
		{kRow{"run, charge, park, charge: a wake, the restore half, the hand-over", "p c1 p | T C2 .p .c4 .u0 s3 | " + q + " | @10:u1 *3",
			"0 p0 pid 1|0 p1 pid 3|0 p1.1|0 p2 pid 5|3 p2.1|6 p2.2|9 p2.3|10 cb u1|12 p2.4|14 p1 .u0|14 p1.2|14 p1 s3|" +
				"14 p0.1|14 p3 pid 17|15 p2.5|15 p0.2|18 p2.6"}, 4},
		{kRow{"the same, the steps after the park passed on to a second continuation", "p c1 p | T C2 .p .h .c4 .u0 s3 | " + q + " | @10:u1 *3",
			"0 p0 pid 1|0 p1 pid 3|0 p1.1|0 p2 pid 5|3 p2.1|6 p2.2|9 p2.3|10 cb u1|12 p2.4|14 p1 .u0|14 p1.2|14 p1 s3|" +
				"14 p0.1|14 p3 pid 17|15 p2.5|15 p0.2|18 p2.6"}, 4},
		{kRow{"parked with nothing to do: woken to park again is no switch", "p | P .p .p s3 | " + q + " | @4:u1 @7:u1 @11:u1 *3",
			"0 p0 pid 1|0 p1 pid 3|0 p2 pid 5|3 p2.1|4 cb u1|6 p2.2|7 cb u1|9 p2.3|11 cb u1|11 p1.1|11 p1 s3|11 p3 pid 17|" +
				"12 p2.4|15 p2.5|18 p2.6"}, 4},
		{kRow{"equal-time ties: a callback, q's resume and p's leg at one instant", "p | C6 .a3:t .c3 .s4 s3 | " + q + " | | c3 | @6:t @9:a0:t *3",
			"0 p0 pid 1|0 p1 pid 3|0 p2 pid 5|3 p2.1|6 cb t|6 p1 .a3:t|6 p2.2|9 cb a0:t|9 cb t|9 p1 .s4|9 p1.1|9 p1 s3|" +
				"9 p2.3|9 cb t|9 p3 pid 16|9 p4 pid 18|12 p2.4|12 p3.1|15 p2.5|18 p2.6"}, 2},
		{kRow{"ChargeSeq is a continuation: its second leg between two chains", "p | q4,4 C0 .c0 q0,5 s3 | " + q + " | *3",
			"0 p0 pid 1|0 p1 pid 3|0 p2 pid 5|3 p2.1|6 p2.2|8 p1.1|8 p1.2|9 p2.3|12 p2.4|13 p1.3|13 p1 s3|13 p3 pid 18|" +
				"15 p2.5|18 p2.6"}, 2},
		{kRow{"Stop mid-chain: the rest is never asked for", "p | C4 .c4 .a1:t s3 | " + q + " | @5:S *3",
			"0 p0 pid 1|0 p1 pid 3|0 p2 pid 5|3 p2.1|5 cb S"}, 1},
		{kRow{"deadlines on each leg, then Shutdown mid-chain, parked with a continuation", "p | C4 .c1 .p .a1:t s3 | " + q + " | ^2 ^4 ^5 ^9 # *3",
			"0 p0 pid 1|0 p1 pid 3|0 p2 pid 5|3 p2.1|6 p2.2|9 p2.3"}, 2},
		{kRow{"Interrupt mid-chain is refused", "p | C6 .c6 s2 | @3:x1 @9:x1 *2",
			"0 p0 pid 1|0 p1 pid 3|3 cb x1 false|9 cb x1 false|12 p1.1|12 p1 s2|12 p2 pid 9"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if c := tc.check(t); c.saves() != tc.fewer {
				t.Errorf("%d handoffs saved, want %d", c.saves(), tc.fewer)
			}
		})
	}
}

// TestContinuationSharded: on the shards of a sharded engine every leg keeps
// the queue and the continuation is asked under the span gate.
func TestContinuationSharded(t *testing.T) {
	prog := kNodes(func(n, k int) string {
		if k == 40 {
			return ""
		}
		return "P .c250"
	}, func(n, k int) string {
		if k == 40 {
			return ""
		}
		return fmt.Sprintf("C%d .u%d .c%d", 300*(n+1), 3*n, 700*(k%3))
	}, kCharger)
	kRow{"", prog, ""}.check(t, kSharded...)
}

// kFunc is a func as a Continuation.
type kFunc func(p *Proc) (Next, Duration)

func (f kFunc) Continue(p *Proc) (Next, Duration) { return f(p) }

// TestContinuationEdges: the ways a continuation must fail cleanly.
func TestContinuationEdges(t *testing.T) {
	raised := func(e *Engine) (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}
	// A panic in a continuation the kernel loop asked ends Run on the
	// caller's goroutine, like a callback's; no process stack is unwound.
	e := New(1)
	unwound := false
	e.Spawn("other", func(p *Proc) { p.Charge(5) })
	e.Spawn("host", func(p *Proc) {
		defer func() { unwound = true }()
		p.ChargeThen(2, kFunc(func(*Proc) (Next, Duration) { panic("cboom") }))
		t.Error("process resumed after its continuation panicked")
	})
	if r := raised(e); r != "cboom" || unwound {
		t.Errorf("Run raised %v (process unwound: %v), want the continuation's panic and no unwind", r, unwound)
	}
	e.Shutdown()
	if !unwound || e.Live() != 0 {
		t.Errorf("after Shutdown: unwound = %v, live = %d", unwound, e.Live())
	}

	// A continuation runs as the kernel, also when the process asks on its
	// own stack: a Charge inside it is refused, naming the process.
	for _, first := range []Duration{0, 2} { // asked by Then at once; by the loop
		e = New(1)
		e.Spawn("other", func(p *Proc) { p.Charge(1) })
		var host *Proc
		host = e.Spawn("host", func(p *Proc) {
			k := kFunc(func(*Proc) (Next, Duration) { host.Charge(1); return NextRun, 0 })
			if first == 0 {
				p.Then(k)
			} else {
				p.ChargeThen(first, k)
			}
		})
		if r, want := raised(e), `sim: Charge called on "host" which is not the running process`; r != want {
			t.Errorf("first = %d: Run raised %v, want %q", first, r, want)
		}
		e.Shutdown()
	}

	// Like Charge and Park, the process-context calls refuse a process that
	// is not running.
	e = New(1)
	idle := e.Spawn("idle", func(p *Proc) { p.Park() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for op, call := range map[string]func(){
		"ChargeThen": func() { idle.ChargeThen(1, kFunc(nil)) },
		"ParkThen":   func() { idle.ParkThen(kFunc(nil)) },
		"Then":       func() { idle.Then(kFunc(nil)) },
	} {
		func() {
			defer func() {
				if r, want := recover(), fmt.Sprintf("sim: %s called on %q which is not the running process", op, "idle"); r != want {
					t.Errorf("%s from outside: recovered %v, want %q", op, r, want)
				}
			}()
			call()
		}()
	}
	e.Shutdown()
}

// deep3 puts p2 at the tip of a chain three calls deep — p0 is switched to
// by the trampoline, p1 by p0's tenure, p2 by p1's — and then has it do what.
func deep3(what string) string { return "c10 | c20 | " + what + " | *3" }

func TestRelayMatchesStackModel(t *testing.T) {
	rot := " | c5 c5 c5 c5 c5 c5 c5 c5"
	for _, tc := range []struct {
		name, prog string
		// Of the fast sequential run, worked out by hand (all zero: not
		// pinned): switches and handoffs, and the depth of the chain when
		// each run ended.
		switches, handoffs uint64
		ends               []int
		seq                func(t *testing.T, r *kRun) // further checks on it
	}{
		{name: "ping-pong: control returns the way it went",
			prog: "c2 c2 c2 c2 c2 c2 | c2 c2 c2 c2 c2 c2",
			// One switch per handoff: p1's next when p0's tenure dispatches it,
			// p1's yield when its own dispatches p0; plus the last unwind.
			switches: 14 + 2, handoffs: 14, ends: []int{2}},
		{name: "strict rotation: control never returns",
			prog: rot[3:] + strings.Repeat(rot, 4),
			// Each round p0 is reached by four yields and the others by a next
			// each: 8 switches for 5 handoffs, 2 - 2/n. The first round is five
			// nexts; the last ends five deep.
			switches: 5 + 8*8 + 5, handoffs: 5 * 9, ends: []int{5}},
		{name: "strict rotation past the chain's bound",
			prog: "c5 c5 c5 *20",
			// The chain stops at maxChain, 16: p16 to p19 each take the tip's
			// yield and a next from the process below, p0 fifteen yields, and
			// p1 to p15 a next each. Still 2n - 2 a round, and never deeper.
			switches: (16 + 4*2) + 3*(15+15+4*2) + 16, handoffs: 20 * 4, ends: []int{16},
			seq: func(t *testing.T, r *kRun) {
				if r.chain.maxDepth != maxChain {
					t.Errorf("the chain got %d deep, want the bound %d", r.chain.maxDepth, maxChain)
				}
			}},
		{name: "request and response nested 3 deep",
			prog: "c1 u1 p c1 u1 p c1 u1 p | p u2 p u0 p u2 p u0 p u2 p u0 | p c1 u1 p c1 u1 p c1 u1",
			// Set-up: 3 nexts, 2 yields back to p0. Then every call and every
			// reply is one switch: p0 -> p1 -> p2 -> p1 -> p0, three times. The
			// servers end parked, p0 alone on the chain.
			switches: 5 + 3*4 + 1, handoffs: 3 + 1 + 3*4, ends: []int{1}},
		{name: "target is the direct caller",
			prog: "c2 c2 | c1 c2",
			// p1's second charge crosses p0's resume, and its exit p0's second:
			// a yield each, with p0 calling p1 back in between.
			switches: 2 + 3 + 1, handoffs: 5, ends: []int{1}},
		{name: "target is the root-most process",
			prog: "c5 | c6 | c7 | c8",
			// Four nexts, then p3's tenure dispatches p0: three yields.
			switches: 4 + 3 + 3 + 4, handoffs: 4 + 4, ends: []int{4}},
		{name: "Stop from a process 3 deep", prog: deep3("c5 S c1 c1"),
			switches: 6, handoffs: 3, ends: []int{3}},
		{name: "Stop from a callback 3 deep", prog: deep3("a5:S c9 c1"),
			switches: 6, handoffs: 3, ends: []int{3}},
		{name: "RunUntil deadlines with the chain 4 deep, resumed five times",
			prog: "c20 c20 c20 c20 c20 | c1 c20 c20 c20 c20 | c2 c20 c20 c20 c20 | c3 c20 c20 c20 c20 ^10 ^30 ^50 ^70 ^90",
			// The four run one tick apart every 20 and each deadline falls after
			// p3, four deep: four yields, and the next RunUntil's trampoline
			// calls p0 afresh. The first run also starts them and unwinds to p1
			// (4 + 2 + 2 nexts and yields); the final Run is p0's last step.
			switches: 8 + 4 + 4*(4+4) + 2, handoffs: 7 + 4*4 + 1, ends: []int{4, 4, 4, 4, 4, 1}},
		{name: "body panic 3 deep", prog: deep3("c5 ! c1"),
			switches: 6, handoffs: 3, ends: []int{3}},
		{name: "kernel-callback panic 3 deep", prog: deep3("a5:! c9 c1"),
			switches: 6, handoffs: 3, ends: []int{3}},
		{name: "respawn from a process", prog: "c1 s1 c3 s1 c3 s1 c3 | c1 *1",
			seq: func(t *testing.T, r *kRun) {
				if ps := r.shards[0].procs; len(ps) != 4 || ps[1].p != ps[2].p || ps[2].p != ps[3].p {
					t.Error("the children did not recycle one pooled coroutine")
				}
			}},
		{name: "respawn from a callback within the pooled coroutine's own tenure",
			prog: "a2:s1 | c1 a1:s1 *1",
			// p0 exits and its coroutine, still the kernel, fires the callback
			// that respawns onto it: every incarnation finds itself in pending.
			seq: func(t *testing.T, r *kRun) {
				if len(r.shards[0].procs) != kMaxProcs || r.switches != 2 || r.handoffs != kMaxProcs {
					t.Errorf("%d incarnations, %d switches, %d handoffs; want %d, the trampoline's 2, %d",
						len(r.shards[0].procs), r.switches, r.handoffs, kMaxProcs, kMaxProcs)
				}
			}},
		{name: "respawn from a process onto a pooled coroutine mid-chain",
			prog: "c1 s2 c9 | p s3 c1 c1 | u1 | c1 *2",
			// p0 spawns p2, which wakes p1 and exits; its coroutine calls p1's
			// next and waits, pooled, in the chain. p1 respawns onto it: p3's
			// dispatch unwinds one call and finds the coroutine there.
			seq: kMidChainRespawn},
		{name: "respawn from a callback onto a pooled coroutine mid-chain",
			prog: "c1 s2 c9 | p a0:s3 c1 c1 | u1 | c1 *2",
			seq:  kMidChainRespawn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			atProcs(t, func(t *testing.T) {
				r := kRow{"", tc.prog, ""}.check(t).runs[kFast]
				if tc.handoffs != 0 && (r.switches != tc.switches || r.handoffs != tc.handoffs || !slices.Equal(r.chain.ends, tc.ends)) {
					t.Errorf("%d switches, %d handoffs, runs ended %v deep; want %d, %d, %v",
						r.switches, r.handoffs, r.chain.ends, tc.switches, tc.handoffs, tc.ends)
				}
				if tc.seq != nil {
					tc.seq(t, r)
				}
			})
		})
	}
}

// kMidChainRespawn: p3 runs on p2's coroutine, and got it by an unwind —
// one yield — not by a next: the chain was 3 deep and is 2 deep under p3.
func kMidChainRespawn(t *testing.T, r *kRun) {
	ps := r.shards[0].procs
	if len(ps) != 4 || ps[2].p != ps[3].p {
		t.Fatal("p3 did not recycle p2's coroutine")
	}
	if r.chain.maxDepth != 3 || r.switches != 4+1+1+3+3 {
		// p0, p1, back to p0, p2: four. p1 called from the pooled p2: one. p3: one
		// yield. p1 and p3 alternate: next, yield, next. p0's resume, from p1's
		// post-exit tenure: two yields; the end of the run: one.
		t.Errorf("chain %d deep at most, %d switches; want 3 and 12", r.chain.maxDepth, r.switches)
	}
}

// TestRelayGoexit: runtime.Goexit in a process three calls deep travels down
// the chain — iter.Pull re-raises it in each caller — and ends the goroutine
// that called Run. Every coroutine it passed through is finished; Shutdown
// still reaps the rest.
func TestRelayGoexit(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		r := kRow{"", "c10 | c20 | c5 G c1 | p", ""}.check(t).runs[kFast]
		if r.outcome != "goexit" || len(r.chain.stack) != 3 || r.switches != 5 {
			// p3 started and parked inside p2's first tenure: a next and a yield.
			t.Fatalf("outcome %q, chain %d deep, %d switches; want goexit, 3, 5", r.outcome, len(r.chain.stack), r.switches)
		}
	})
}

// The kernel's unit behaviours, each a program held to the oracle in every
// mode, its log pinning the instants and values the name claims.

func TestChargeAdvancesTime(t *testing.T) { kRow{"", "c10 c25", "0 p0 pid 1|10 p0.1|35 p0.2"}.check(t) }

func TestChargeZeroYields(t *testing.T) {
	kRow{"", "c0 | c0", "0 p0 pid 1|0 p1 pid 3|0 p0.1|0 p1.1"}.check(t)
}

func TestParkUnpark(t *testing.T) {
	kRow{"", "p | c42 u0", "0 p0 pid 1|0 p1 pid 3|42 p1.1|42 p1 u0|42 p0.1"}.check(t)
}

// TestQuiescenceLeavesParkedProcs: Run returns with the process live and
// parked, and Shutdown reaps it.
func TestQuiescenceLeavesParkedProcs(t *testing.T) {
	if c := (kRow{"", "p", "0 p0 pid 1"}).check(t); c.loop.snap.live != 1 {
		t.Errorf("live = %d, want 1 parked process", c.loop.snap.live)
	}
}

func TestShutdownReleasesChargeWaiters(t *testing.T) { kRow{"", "c4095 ^1 #", "0 p0 pid 1"}.check(t) }

func TestPanicPropagates(t *testing.T) {
	if c := (kRow{"", "c1 !", "0 p0 pid 1|1 p0.1|1 p0 !"}).check(t); c.loop.outcome != "fail p0: boom" {
		t.Errorf("outcome %q, want p0's panic", c.loop.outcome)
	}
}

func TestSpawnFromProc(t *testing.T) {
	kRow{"", "c5 s1 c100 | c3 *1", "0 p0 pid 1|5 p0.1|5 p0 s1|5 p1 pid 4|8 p1.1|105 p0.2"}.check(t)
}

func TestChargeInterruptibleCompletes(t *testing.T) {
	kRow{"", "i20", "0 p0 pid 1|20 p0.1 rem 0"}.check(t)
}

func TestChargeInterruptiblePreempted(t *testing.T) {
	kRow{"", "i100 @30:x0", "0 p0 pid 1|30 cb x0 true|30 p0.1 rem 70"}.check(t)
}

func TestInterruptOutsideChargeFails(t *testing.T) {
	kRow{"", "p @5:x0 @5:u0", "0 p0 pid 1|5 cb x0 false|5 cb u0|5 p0.1"}.check(t)
}

func TestInterruptTwiceOnlyFirstCounts(t *testing.T) {
	kRow{"", "i50 @10:x0 @10:x0", "0 p0 pid 1|10 cb x0 true|10 cb x0 false|10 p0.1 rem 40"}.check(t)
}

// TestInterruptResumeLoop: a process re-charging the remainder makes
// progress across interrupts and loses no time.
func TestInterruptResumeLoop(t *testing.T) {
	kRow{"", "i90 i70 i40 @20:x0 @50:x0", "0 p0 pid 1|20 cb x0 true|20 p0.1 rem 70|50 cb x0 true|50 p0.2 rem 40|90 p0.3 rem 0"}.check(t)
}

func TestCounters(t *testing.T) {
	if s := (kRow{"", "c1 c1", "0 p0 pid 1|1 p0.1|2 p0.2"}).check(t).loop.snap; s.events != 3 || s.dispatches != 3 {
		t.Fatalf("events %d, dispatches %d; want 3, 3", s.events, s.dispatches)
	}
}

// TestRespawnWithinPostExitTenure: a finished process's coroutine keeps the
// kernel role; a callback it fires respawns onto its own pooled Proc, and
// the loop it is running dispatches that Proc. The coroutine must find
// itself in sh.pending and run the new body: a handoff, but no switch.
func TestRespawnWithinPostExitTenure(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		r := kRow{"", "a0:s1 | c1 *1", "0 p0 pid 1|0 p0 a0:s1|0 cb s1|0 p1 pid 4|1 p1.1"}.check(t).runs[kFast]
		if ps := r.shards[0].procs; ps[0].p != ps[1].p {
			t.Fatal("respawn did not recycle the pooled Proc")
		}
		// p0, p1, and p1's charge resume (in place); the only switches are the
		// trampoline's next and the yield that ends the run.
		if d, h, s := r.last().dispatches, r.handoffs, r.switches; d != 3 || h != 2 || s != 2 {
			t.Fatalf("dispatches/handoffs/switches = %d/%d/%d, want 3/2/2", d, h, s)
		}
	})
}

// TestPanicsStayOffTheSwitch: a body panic is reported by Run as a
// *PanicError and a kernel-callback panic is re-raised by Run on its
// caller's goroutine, also when they happen on a process coroutine several
// switches deep; neither may travel through next(). The process whose
// tenure the callback ran in is not resumed.
func TestPanicsStayOffTheSwitch(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for _, tc := range []struct {
			kRow
			outcome string
		}{
			{kRow{"", "c2 | c1 !", "0 p0 pid 1|0 p1 pid 3|1 p1.1|1 p1 !"}, "fail p1: boom"},
			{kRow{"", "a1:! c5", "0 p0 pid 1|0 p0 a1:!|1 cb !"}, "panic boom"},
		} {
			if r := tc.check(t).runs[kFast]; r.outcome != tc.outcome {
				t.Errorf("%s: outcome %q, want %q", tc.prog, r.outcome, tc.outcome)
			}
		}
	})
}

// TestStopFromProcess: Stop called by the running process ends the run at
// its next yield, leaving it and its peer suspended for Shutdown.
func TestStopFromProcess(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		row := kRow{"", "c1 c1 c1 c1 c1 | c1 c1 c1 S c1", "0 p0 pid 1|0 p1 pid 3|1 p0.1|1 p1.1|2 p0.2|2 p1.2|3 p0.3|3 p1.3|3 p1 S"}
		if s := row.check(t).loop.snap; s.now != 3 || s.live != 2 {
			t.Fatalf("now = %v, live = %d; want 3, 2", s.now, s.live)
		}
	})
}

// TestRunUntilResumesSameCoroutines: every RunUntil starts a fresh
// trampoline over the same suspended coroutines — processes carry on where
// they stopped and no goroutine is created or lost between calls.
func TestRunUntilResumesSameCoroutines(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		ticker := strings.Repeat("c1 ", 60)
		c := kRow{"", ticker + "|" + ticker + "^10 ^20 ^30 ^40 ^50 #", ""}.check(t)
		if log := strings.Join(c.loop.log, "|"); !strings.HasSuffix(log, "|50 p0.50|50 p1.50") {
			t.Fatalf("the tickers did not tick 50 times each by the last deadline: %s", log)
		}
		// The two tickers alternate, so every dispatch is a handoff, and one
		// switch: the second ticker's next or its yield back to the first.
		// Each deadline unwinds both.
		r := c.runs[kFast]
		if d, h, s := r.last().dispatches, r.handoffs, r.switches; d != 102 || h != d || s != h+5*2 {
			t.Fatalf("dispatches/handoffs/switches = %d/%d/%d, want 102/102/112", d, h, s)
		}
	})
}
