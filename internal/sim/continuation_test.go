package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// A contStep is one thing a process does first thing after a resume, before
// it needs its stack — what a Continuation may do in its place:
//
//	'c' charge arg
//	'p' park
//	'a' log, and schedule a logging callback arg later
//	'n' spawn a child that logs its pid and charges arg
//	'w' unpark r, if parked, which logs and charges arg
type contStep struct {
	kind byte
	arg  Duration
}

// A contSeg is one stretch of p's program: how it is entered — 'T' as it
// stands, 'C' behind a charge of arg, 'P' behind a park, 'S' as
// ChargeSeq(arg, arg2) with no steps — then the steps, then p logs, which
// takes its stack.
type contSeg struct {
	enter     byte
	arg, arg2 Duration
	steps     []contStep
}

// contScript is the steps as a Continuation; do performs the ones that are
// neither a charge nor a park.
type contScript struct {
	steps []contStep
	do    func(contStep)
}

func (k *contScript) Continue(*Proc) (Next, Duration) {
	for len(k.steps) > 0 {
		s := k.steps[0]
		k.steps = k.steps[1:]
		switch s.kind {
		case 'c':
			return NextCharge, s.arg
		case 'p':
			return NextPark, 0
		}
		k.do(s)
	}
	return NextRun, 0
}

// A contScenario is one differential run: p runs its segments; around it
// are a plain charger q out of phase, a parked process r that steps wake,
// and kernel callbacks scheduled before Run — seqCall's kinds, and
//
//	'v' unparks p, if parked
type contScenario struct {
	segs    []contSeg
	qPhase  Duration
	qSteps  []Duration
	calls   []seqCall
	until   []Time // RunUntil deadlines, ascending
	noFinal bool   // no Run after them: Shutdown finds p wherever it is
}

// contMode picks the engine under test. The reference is {cont: false,
// queue: true}: p does every step itself, every resume through the queue.
type contMode struct{ cont, queue bool }

var (
	contReference = contMode{cont: false, queue: true}
	contSubjects  = []contMode{{false, false}, {true, true}, {true, false}}
)

func (sc contScenario) run(t testing.TB, m contMode, observed bool) seqOutcome {
	t.Helper()
	e := New(1)
	sh := e.Shard(0)
	sh.queueOnly = m.queue
	rec := &seqRecorder{}
	if observed {
		rec.W = &rec.buf
		e.SetTracer(rec)
		e.SetProbe(rec)
	}
	var out seqOutcome
	logf := func(format string, args ...any) {
		out.log = append(out.log, fmt.Sprintf("%d ", sh.Now())+fmt.Sprintf(format, args...))
	}
	var rArg Duration
	r := sh.Spawn("r", func(r *Proc) {
		for {
			r.Park()
			logf("r woke")
			r.Charge(rArg)
		}
	})
	children := 0
	do := func(s contStep) {
		switch s.kind {
		case 'a':
			logf("act")
			sh.After(s.arg, func() { logf("acted") })
		case 'n':
			children++
			sh.Spawn(fmt.Sprintf("c%d", children), func(q *Proc) {
				logf("%s pid %d", q.Name(), q.ID())
				q.Charge(s.arg)
			})
		case 'w':
			if r.Parked() {
				rArg = s.arg
				r.Unpark()
			}
		}
	}
	p := sh.Spawn("p", func(p *Proc) {
		for i, seg := range sc.segs {
			switch k := (&contScript{seg.steps, do}); {
			case seg.enter == 'S' && m.cont:
				p.ChargeSeq(seg.arg, seg.arg2)
			case seg.enter == 'S':
				p.Charge(seg.arg)
				p.Charge(seg.arg2)
			case !m.cont:
				steps := seg.steps
				switch seg.enter {
				case 'C':
					steps = append([]contStep{{'c', seg.arg}}, steps...)
				case 'P':
					steps = append([]contStep{{'p', 0}}, steps...)
				}
				for _, s := range steps {
					switch s.kind {
					case 'c':
						p.Charge(s.arg)
					case 'p':
						p.Park()
					default:
						do(s)
					}
				}
			case seg.enter == 'C':
				p.ChargeThen(seg.arg, k)
			case seg.enter == 'P':
				p.ParkThen(k)
			default:
				p.Then(k)
			}
			logf("p.%d", i)
		}
		// The pid is the seq count: every resume drew one, asked or run.
		sh.Spawn("z", func(z *Proc) { logf("z pid %d", z.ID()) })
	})
	if sc.qSteps != nil {
		sh.Spawn("q", func(q *Proc) {
			if sc.qPhase > 0 {
				q.Charge(sc.qPhase)
			}
			for k, d := range sc.qSteps {
				q.Charge(d)
				logf("q.%d", k)
			}
		})
	}
	for _, c := range sc.calls {
		sh.At(c.at, func() {
			switch c.kind {
			case 't':
				logf("timer")
			case 's':
				sh.After(c.arg, func() { logf("scheduled") })
			case 'n', 'w':
				do(contStep{c.kind, c.arg})
			case 'v':
				if p.Parked() {
					logf("wake p")
					p.Unpark()
				}
			case 'i':
				logf("interrupt %v", p.Interrupt())
			case 'x':
				logf("stop")
				e.Stop()
			}
		})
	}
	snap := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		out.snaps = append(out.snaps, seqSnap{e.Now(), e.Events(), e.Dispatches(), e.Charged(), e.Live()})
	}
	for _, d := range sc.until {
		snap(e.RunUntil(d))
	}
	if !sc.noFinal {
		snap(e.Run())
	}
	out.handoffs, out.elided = e.Handoffs(), e.Elided()
	e.Shutdown() // part of the transcript: the kills, in pid order
	if e.Live() != 0 {
		t.Errorf("%+v: %d processes live after Shutdown", m, e.Live())
	}
	out.trace = rec.buf.String()
	return out
}

// checkContEquivalent runs the scenario under the reference and every
// subject, observed and not, and requires all of it equal: side effects in
// order with their instants, every snapshot (Events, Dispatches, Charged,
// live processes), pids, the transcript of tracer and probe records down to
// Shutdown's. Handoffs are the host's business and may only go down.
func checkContEquivalent(t testing.TB, sc contScenario) (ref, sub seqOutcome) {
	t.Helper()
	ref = sc.run(t, contReference, true)
	if bare := sc.run(t, contReference, false); !reflect.DeepEqual(bare.log, ref.log) || !reflect.DeepEqual(bare.snaps, ref.snaps) {
		t.Errorf("the tracer and probe changed the reference run:\n observed %v %+v\n bare     %v %+v", ref.log, ref.snaps, bare.log, bare.snaps)
	}
	for _, m := range contSubjects {
		for _, observed := range []bool{true, false} {
			sub = sc.run(t, m, observed)
			if !reflect.DeepEqual(sub.log, ref.log) {
				t.Errorf("%+v observed=%v: side effects differ:\n ref %v\n got %v", m, observed, ref.log, sub.log)
			}
			if !reflect.DeepEqual(sub.snaps, ref.snaps) {
				t.Errorf("%+v observed=%v: engine state differs:\n ref %+v\n got %+v", m, observed, ref.snaps, sub.snaps)
			}
			if observed && sub.trace != ref.trace {
				t.Errorf("%+v: transcripts differ:\n--- ref ---\n%s--- got ---\n%s", m, ref.trace, sub.trace)
			}
			if sub.handoffs > ref.handoffs || (!m.cont && sub.handoffs != ref.handoffs) {
				t.Errorf("%+v observed=%v: %d handoffs, reference %d", m, observed, sub.handoffs, ref.handoffs)
			}
			if sub.elided != 0 {
				t.Errorf("%+v observed=%v: elided %d events; a continuation counts each event where it happens", m, observed, sub.elided)
			}
		}
	}
	return ref, sub
}

func TestContinuationMatchesTheProcess(t *testing.T) {
	steps := func(s ...contStep) []contStep { return s }
	q := []Duration{3, 3, 3, 3, 3, 3} // resumes at 3, 6, ... keep another coroutine in play
	for _, tc := range []struct {
		name string
		sc   contScenario
		log  string // the reference's side effects, worked out by hand
		// fewer is how many handoffs the continuation saves: the resumes p
		// would have answered by suspending again, and the ones back to
		// whoever p, then holding the kernel, would have dispatched next.
		fewer uint64
	}{
		{"run at once: Then with no steps is nothing",
			contScenario{segs: []contSeg{{enter: 'T'}}},
			"0 p.0|0 z pid 5", 0},
		{"nothing else pending: every leg in place, actions between them",
			contScenario{segs: []contSeg{{enter: 'C', arg: 5, steps: steps(contStep{'a', 4}, contStep{'c', 7})}}},
			"5 act|9 acted|12 p.0|12 z pid 8", 0},
		{"run, charge, park, charge: a wake, the restore half, the hand-over",
			contScenario{qSteps: q, calls: []seqCall{{at: 10, kind: 'v'}},
				segs: []contSeg{{enter: 'T'}, {enter: 'C', arg: 2, steps: steps(contStep{'p', 0}, contStep{'c', 4}, contStep{'w', 1})}}},
			"0 p.0|3 q.0|6 q.1|9 q.2|10 wake p|12 q.3|14 p.1|14 r woke|14 z pid 17|15 q.4|18 q.5", 4},
		{"parked with nothing to do: woken to park again is no switch",
			contScenario{qSteps: q, calls: []seqCall{{at: 4, kind: 'v'}, {at: 7, kind: 'v'}, {at: 11, kind: 'v'}},
				segs: []contSeg{{enter: 'P', steps: steps(contStep{'p', 0}, contStep{'p', 0})}}},
			"3 q.0|4 wake p|6 q.1|7 wake p|9 q.2|11 wake p|11 p.0|11 z pid 17|12 q.3|15 q.4|18 q.5", 4},
		{"equal-time ties: a callback, q's resume and p's leg at one instant",
			contScenario{qSteps: q, calls: []seqCall{{at: 6, kind: 't'}, {at: 9, kind: 's', arg: 0}},
				segs: []contSeg{{enter: 'C', arg: 6, steps: steps(contStep{'a', 3}, contStep{'c', 3}, contStep{'n', 3})}}},
			"3 q.0|6 timer|6 act|6 q.1|9 acted|9 p.0|9 q.2|9 scheduled|9 c1 pid 16|9 z pid 18|12 q.3|15 q.4|18 q.5", 2},
		{"ChargeSeq is a continuation: its second leg between two chains",
			contScenario{qSteps: q,
				segs: []contSeg{{enter: 'S', arg: 4, arg2: 4}, {enter: 'C', arg: 0, steps: steps(contStep{'c', 0})}, {enter: 'S', arg: 0, arg2: 5}}},
			"3 q.0|6 q.1|8 p.0|8 p.1|9 q.2|12 q.3|13 p.2|13 z pid 18|15 q.4|18 q.5", 2},
		{"Stop mid-chain: the rest is never asked for",
			contScenario{qSteps: q, calls: []seqCall{{at: 5, kind: 'x'}},
				segs: []contSeg{{enter: 'C', arg: 4, steps: steps(contStep{'c', 4}, contStep{'a', 1})}}},
			"3 q.0|5 stop", 1},
		{"deadlines on each leg, then Shutdown mid-chain, parked with a continuation",
			contScenario{qSteps: q, until: []Time{2, 4, 5, 9}, noFinal: true,
				segs: []contSeg{{enter: 'C', arg: 4, steps: steps(contStep{'c', 1}, contStep{'p', 0}, contStep{'a', 1})}}},
			"3 q.0|6 q.1|9 q.2", 2},
		{"Interrupt mid-chain is refused",
			contScenario{calls: []seqCall{{at: 3, kind: 'i'}, {at: 9, kind: 'i'}},
				segs: []contSeg{{enter: 'C', arg: 6, steps: steps(contStep{'c', 6})}}},
			"3 interrupt false|9 interrupt false|12 p.0|12 z pid 9", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, sub := checkContEquivalent(t, tc.sc)
			if got := strings.Join(ref.log, "|"); got != tc.log {
				t.Errorf("side effects\n got  %s\n want %s", got, tc.log)
			}
			if ref.handoffs-sub.handoffs != tc.fewer {
				t.Errorf("handoffs %d -> %d, want %d fewer", ref.handoffs, sub.handoffs, tc.fewer)
			}
		})
	}
}

// TestContinuationSharded: on the shards of a sharded engine every leg keeps
// the queue and the continuation is asked under the span gate; the
// canonical transcript and the counters are the sequential engine's, and
// the process's own.
func TestContinuationSharded(t *testing.T) {
	run := func(cfg ShardConfig, cont bool) (string, seqSnap) {
		e := NewShardedConfig(3, cfg)
		defer e.Shutdown()
		tn := newToyNet(e, 4, Micros(2), 0) // the window hook; no flights
		tr := NewCanonicalTracer()
		e.SetTracer(tr)
		for n := 0; n < 4; n++ {
			sh := tn.shardOf(n)
			sleeper := sh.Spawn(fmt.Sprintf("s%d", n), func(p *Proc) {
				for k := 0; k < 40; k++ {
					if cont {
						p.ParkThen(&contScript{steps: []contStep{{'c', 250}}})
					} else {
						p.Park()
						p.Charge(250)
					}
				}
			})
			wake := func(contStep) {
				if sleeper.Parked() {
					sleeper.Unpark()
				}
			}
			sh.Spawn(fmt.Sprintf("n%d", n), func(p *Proc) {
				for k := 0; k < 40; k++ {
					a, b := Duration(300*(n+1)), Duration(700*(k%3))
					if cont {
						p.ChargeThen(a, &contScript{[]contStep{{'w', 0}, {'c', b}}, wake})
					} else {
						p.Charge(a)
						wake(contStep{})
						p.Charge(b)
					}
				}
			})
			sh.Spawn(fmt.Sprintf("m%d", n), func(p *Proc) {
				for k := 0; k < 60; k++ {
					p.Charge(Duration(450 + 100*n))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return tr.Text(), seqSnap{0, e.Events(), e.Dispatches(), e.Charged(), e.Live()}
	}
	wantText, wantSnap := run(ShardConfig{Shards: 1}, false)
	for _, cfg := range []ShardConfig{{Shards: 1}, {Shards: 2}, {Shards: 2, Mode: Optimistic}, {Shards: 4, Mode: Optimistic}} {
		if text, snap := run(cfg, true); text != wantText || snap != wantSnap {
			t.Errorf("%+v: %+v, the process's own, sequential: %+v (transcripts equal: %v)", cfg, snap, wantSnap, text == wantText)
		}
	}
}

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
		p.ChargeThen(2, &contScript{[]contStep{{'a', 0}}, func(contStep) { panic("cboom") }})
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
			k := &contScript{[]contStep{{'a', 0}}, func(contStep) { host.Charge(1) }}
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
		"ChargeThen": func() { idle.ChargeThen(1, &contScript{}) },
		"ParkThen":   func() { idle.ParkThen(&contScript{}) },
		"Then":       func() { idle.Then(&contScript{}) },
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

// fuzzContScenario decodes p's program from prog — pairs of an opcode and
// an argument, single nanoseconds throughout so that ties are the common
// case — and callbacks and deadlines from stream.
func fuzzContScenario(prog, stream []byte, qStep, qPhase uint8) contScenario {
	sc := contScenario{qPhase: Duration(qPhase % 8)}
	for i := 0; i+1 < len(prog) && i < 64; i += 2 {
		op, arg := prog[i]%10, Duration(prog[i+1]%8)
		if op < 4 || len(sc.segs) == 0 {
			seg := contSeg{enter: "TCPS"[op%4], arg: arg, arg2: Duration(prog[i+1]>>4) % 8}
			sc.segs = append(sc.segs, seg)
			continue
		}
		seg := &sc.segs[len(sc.segs)-1]
		if seg.enter != 'S' {
			seg.steps = append(seg.steps, contStep{"ccpanw"[op-4], arg})
		}
	}
	if qStep%4 != 0 { // one scenario in four has no second charger
		for k := 0; k < 12; k++ {
			sc.qSteps = append(sc.qSteps, Duration(qStep%8)+Duration(k%2))
		}
	}
	var at Time
	for i := 0; i+1 < len(stream) && i < 64; i += 2 {
		at += Time(stream[i] % 6)
		f := stream[i+1]
		if kind := "vvvtsnwixu"[f%10]; kind == 'u' {
			sc.until = append(sc.until, at)
		} else {
			sc.calls = append(sc.calls, seqCall{at: at, kind: kind, arg: Duration(f>>4) % 8})
		}
	}
	sc.noFinal = len(stream)%2 == 1
	return sc
}

func FuzzContinuation(f *testing.F) {
	// The table's shapes are the checked-in corpus (testdata/fuzz); this is
	// a charge, then an action and a second charge in the process's place.
	f.Add([]byte{1, 5, 7, 4, 4, 7}, []byte{}, uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, prog, stream []byte, qStep, qPhase uint8) {
		checkContEquivalent(t, fuzzContScenario(prog, stream, qStep, qPhase))
	})
}
