package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// A seqScenario is one differential run of the two charge fast paths. The
// process p runs its chains back to back; around it are a plain charger q
// out of phase, a parked process r, and kernel callbacks scheduled before
// Run, so at any instant they fire before the resumes the run schedules.
type seqScenario struct {
	phase  Duration      // p charges this before its first chain
	chains [][2]Duration // each one ChargeSeq(a, b)
	qPhase Duration
	qSteps []Duration // q's plain charges; nil for no q
	calls  []seqCall
	until  []Time // RunUntil deadlines, ascending, before the final Run
}

// seqCall is a kernel callback at an instant:
//
//	't' logs itself
//	's' schedules a logging callback arg later
//	'n' spawns a child that logs its pid and runs the chain (arg, 1)
//	'w' unparks r, if parked, which logs and charges arg
//	'i' logs p.Interrupt()
//	'x' calls Stop
type seqCall struct {
	at   Time
	kind byte
	arg  Duration
}

// seqMode picks the engine under test. The reference — the parent kernel —
// is {chain: false, queue: true}: two plain charges, every resume through
// the queue (Shard.queueOnly, the switch sharded engines set).
type seqMode struct{ chain, queue bool }

var (
	seqReference = seqMode{chain: false, queue: true}
	// Each fast path alone, then both: the kernel as shipped, last.
	seqSubjects = []seqMode{{false, false}, {true, true}, {true, false}}
)

// seqSnap is the engine as a Run or RunUntil left it.
type seqSnap struct {
	now                Time
	events, dispatches uint64
	charged            Duration
	live               int
}

type seqOutcome struct {
	log      []string // side effects, in order, each with its instant
	snaps    []seqSnap
	trace    string // one transcript of tracer and probe records
	handoffs uint64
	elided   uint64
}

// seqRecorder is a WriterTracer and a Probe writing one transcript, so the
// order of tracer records against probe records is compared too.
type seqRecorder struct {
	WriterTracer
	buf bytes.Buffer
}

func (r *seqRecorder) Charged(p *Proc, start Time, d Duration) {
	fmt.Fprintf(&r.buf, "%v charged %s %d\n", start, p.Name(), d)
}

func (r *seqRecorder) Spawned(p *Proc) { fmt.Fprintf(&r.buf, "spawned %s %d\n", p.Name(), p.ID()) }

// run plays the scenario. With observed set a tracer and a probe are
// installed: both fast paths run under them, there is no stepwise fallback.
func (sc seqScenario) run(t testing.TB, m seqMode, observed bool) seqOutcome {
	t.Helper()
	e := New(1)
	defer e.Shutdown()
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
	chain := func(p *Proc, a, b Duration) {
		if m.chain {
			p.ChargeSeq(a, b)
		} else {
			p.Charge(a)
			p.Charge(b)
		}
	}
	p := sh.Spawn("p", func(p *Proc) {
		if sc.phase > 0 {
			p.Charge(sc.phase)
		}
		for k, c := range sc.chains {
			chain(p, c[0], c[1])
			logf("p.%d", k)
		}
		// The pid is the seq count: every resume drew one, queued or not.
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
	var rArg Duration
	r := sh.Spawn("r", func(r *Proc) {
		for {
			r.Park()
			logf("r woke")
			r.Charge(rArg)
		}
	})
	children := 0
	for _, c := range sc.calls {
		sh.At(c.at, func() {
			switch c.kind {
			case 't':
				logf("timer")
			case 's':
				sh.After(c.arg, func() { logf("scheduled") })
			case 'n':
				children++
				sh.Spawn(fmt.Sprintf("c%d", children), func(q *Proc) {
					logf("%s pid %d", q.Name(), q.ID())
					chain(q, c.arg, 1)
					logf("%s done", q.Name())
				})
			case 'w':
				if r.Parked() {
					rArg = c.arg
					r.Unpark()
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
	snap(e.Run())
	out.trace, out.handoffs, out.elided = rec.buf.String(), e.Handoffs(), e.Elided()
	return out
}

// checkSeqEquivalent runs the scenario under the reference and every
// subject, observed and not, and requires all of it equal: side effects in
// order with their instants, every snapshot, the transcript. Handoffs are
// the host's business: the in-place path alone leaves them as they were, a
// chain may only lower them. It returns the reference's outcome and the
// shipped kernel's.
func checkSeqEquivalent(t testing.TB, sc seqScenario) (ref, sub seqOutcome) {
	t.Helper()
	ref = sc.run(t, seqReference, true)
	if bare := sc.run(t, seqReference, false); !reflect.DeepEqual(bare.log, ref.log) || !reflect.DeepEqual(bare.snaps, ref.snaps) {
		t.Errorf("the tracer and probe changed the reference run:\n observed %v %+v\n bare     %v %+v", ref.log, ref.snaps, bare.log, bare.snaps)
	}
	for _, m := range seqSubjects {
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
			if sub.handoffs > ref.handoffs || (!m.chain && sub.handoffs != ref.handoffs) {
				t.Errorf("%+v observed=%v: %d handoffs, reference %d", m, observed, sub.handoffs, ref.handoffs)
			}
			if sub.elided != 0 {
				t.Errorf("%+v observed=%v: elided %d events; both paths count each event where it happens", m, observed, sub.elided)
			}
		}
	}
	return ref, sub
}

func TestChargeSeqMatchesTwoCharges(t *testing.T) {
	one := func(a, b Duration) [][2]Duration { return [][2]Duration{{a, b}} }
	for _, tc := range []struct {
		name string
		sc   seqScenario
		log  string // the reference's side effects, worked out by hand
		// events is the final count; fewer is how many handoffs the chain
		// saves, which takes another coroutine holding the kernel when the
		// first resume surfaces.
		events uint64
		fewer  uint64
	}{
		{"nothing else pending: both legs in place",
			seqScenario{chains: one(5, 7)},
			"12 p.0|12 z pid 7", 3 + 2, 0},
		{"timer exactly on the first resume",
			seqScenario{phase: 3, chains: one(5, 7), calls: []seqCall{{at: 8, kind: 't'}}},
			"8 timer|15 p.0|15 z pid 9", 3 + 3 + 1, 0},
		{"timer exactly on the second resume",
			seqScenario{phase: 3, chains: one(5, 7), calls: []seqCall{{at: 15, kind: 't'}}},
			"15 timer|15 p.0|15 z pid 9", 3 + 3 + 1, 0},
		{"event scheduled during the first leg for the second resume's instant",
			// Charge(a+b) would draw the final resume's seq before the
			// callback's and resume p first.
			seqScenario{chains: one(6, 4), calls: []seqCall{{at: 2, kind: 's', arg: 8}}},
			"10 scheduled|10 p.0|10 z pid 9", 3 + 2 + 2, 0},
		{"second process charging out of phase",
			seqScenario{chains: [][2]Duration{{10, 10}, {10, 10}}, qPhase: 5, qSteps: []Duration{10, 10, 10, 10}},
			"15 q.0|20 p.0|25 q.1|35 q.2|40 p.1|40 z pid 16|45 q.3", 4 + 4 + 5, 4},
		{"zero first leg",
			seqScenario{chains: one(0, 4), qSteps: []Duration{0, 4}},
			"0 q.0|4 p.0|4 q.1|4 z pid 11", 4 + 2 + 2, 1},
		{"zero second leg",
			seqScenario{chains: one(4, 0), qSteps: []Duration{4, 0}},
			"4 q.0|4 p.0|4 q.1|4 z pid 11", 4 + 2 + 2, 1},
		{"both legs zero",
			seqScenario{chains: one(0, 0), calls: []seqCall{{at: 0, kind: 't'}}},
			"0 timer|0 p.0|0 z pid 8", 3 + 2 + 1, 0},
		{"Interrupt mid-chain is refused",
			seqScenario{chains: one(6, 6), calls: []seqCall{{at: 3, kind: 'i'}, {at: 9, kind: 'i'}}},
			"3 interrupt false|9 interrupt false|12 p.0|12 z pid 9", 3 + 2 + 2, 0},
		{"Stop inside the first leg",
			seqScenario{chains: one(6, 6), calls: []seqCall{{at: 3, kind: 'x'}}},
			"3 stop", 2 + 1, 0},
		{"Stop inside the second leg",
			seqScenario{chains: one(6, 6), calls: []seqCall{{at: 9, kind: 'x'}}},
			"9 stop", 2 + 1 + 1, 1},
		{"deadlines inside each leg, on each resume and past the end",
			seqScenario{phase: 1, chains: [][2]Duration{{6, 6}, {6, 6}}, until: []Time{4, 7, 10, 13, 30}},
			"13 p.0|25 p.1|25 z pid 10", 3 + 5, 1},
		{"pooled Procs reused after chains, parked process woken mid-chain",
			seqScenario{chains: one(5, 5), calls: []seqCall{
				{at: 2, kind: 'n', arg: 3}, {at: 4, kind: 'w', arg: 2}, {at: 7, kind: 'n', arg: 2},
				{at: 20, kind: 'n', arg: 0}, {at: 20, kind: 'n', arg: 4}, {at: 30, kind: 'w', arg: 9}}},
			"2 c1 pid 12|4 r woke|6 c1 done|7 c2 pid 19|10 p.0|10 c2 done|10 z pid 23|20 c3 pid 25|20 c4 pid 27|21 c3 done|25 c4 done|30 r woke",
			3 + 2 + 6 + 4*3 + 2*2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, sub := checkSeqEquivalent(t, tc.sc)
			if got := strings.Join(ref.log, "|"); got != tc.log {
				t.Errorf("side effects\n got  %s\n want %s", got, tc.log)
			}
			if last := ref.snaps[len(ref.snaps)-1]; last.events != tc.events {
				t.Errorf("events = %d, want %d", last.events, tc.events)
			}
			if ref.handoffs-sub.handoffs != tc.fewer {
				t.Errorf("handoffs %d -> %d, want %d fewer", ref.handoffs, sub.handoffs, tc.fewer)
			}
		})
	}
}

// TestChargeSeqSharded: on the shards of a sharded engine every charge
// keeps the queue and the kernel's re-arm runs under the span gate; the
// canonical transcript and the counters are the sequential engine's.
func TestChargeSeqSharded(t *testing.T) {
	run := func(cfg ShardConfig) (string, seqSnap) {
		e := NewShardedConfig(3, cfg)
		defer e.Shutdown()
		tn := newToyNet(e, 4, Micros(2), 0) // the window hook; no flights
		tr := NewCanonicalTracer()
		e.SetTracer(tr)
		for n := 0; n < 4; n++ {
			sh := tn.shardOf(n)
			sh.Spawn(fmt.Sprintf("n%d", n), func(p *Proc) {
				for k := 0; k < 40; k++ {
					p.ChargeSeq(Duration(300*(n+1)), Duration(700*(k%3)))
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
		// Not Now: a sharded engine's shard 0 stops at its own last event.
		return tr.Text(), seqSnap{0, e.Events(), e.Dispatches(), e.Charged(), e.Live()}
	}
	wantText, wantSnap := run(ShardConfig{Shards: 1})
	for _, cfg := range []ShardConfig{{Shards: 2}, {Shards: 2, Mode: Optimistic}, {Shards: 4, Mode: Optimistic}} {
		if text, snap := run(cfg); text != wantText || snap != wantSnap {
			t.Errorf("%+v: %+v, sequential %+v (transcripts equal: %v)", cfg, snap, wantSnap, text == wantText)
		}
	}
}

// fuzzSeqScenario decodes three chains, a q of eight charges and a stream
// of callbacks and deadlines, all in single nanoseconds so that a callback
// on a resume instant is the common case, not the rare one.
func fuzzSeqScenario(a, b, phase, qStep, qPhase uint8, stream []byte) seqScenario {
	da, db := Duration(a%16), Duration(b%16)
	sc := seqScenario{
		phase:  Duration(phase % 16),
		chains: [][2]Duration{{da, db}, {db, da}, {(da + 5) % 16, 0}},
		qPhase: Duration(qPhase % 16),
	}
	if qStep%4 != 0 { // one scenario in four has no second process
		for k := 0; k < 8; k++ {
			sc.qSteps = append(sc.qSteps, Duration(qStep%16)+Duration(k%2))
		}
	}
	var at Time
	for i := 0; i+1 < len(stream) && i < 48; i += 2 {
		at += Time(stream[i] % 12)
		f := stream[i+1]
		if kind := "tsnwixuu"[f%8]; kind == 'u' {
			sc.until = append(sc.until, at)
		} else {
			sc.calls = append(sc.calls, seqCall{at: at, kind: kind, arg: Duration(f>>3) % 12})
		}
	}
	return sc
}

func FuzzChargeSeq(f *testing.F) {
	// The table's shapes are the checked-in corpus (testdata/fuzz); this is
	// the scenario with nothing but the three processes.
	f.Add(uint8(5), uint8(7), uint8(0), uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, a, b, phase, qStep, qPhase uint8, stream []byte) {
		checkSeqEquivalent(t, fuzzSeqScenario(a, b, phase, qStep, qPhase, stream))
	})
}
