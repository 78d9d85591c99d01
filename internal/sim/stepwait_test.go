package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// A stepScenario is one differential run of the step-wait: waiters that
// each go through a sequence of waits, wakes aimed at them, and timers
// that do nothing but show where they fell in the order of side effects.
// Every wake and timer is scheduled before Run, so at any instant they
// fire before the resumes scheduled during the run — the position a
// delivery has by class. That is StepWake's precondition for a wake that
// lands exactly on a step boundary, and it keeps every tie between a
// waiter and a callback the same on both sides.
type stepScenario struct {
	waiters []stepWaiter
	wakes   []stepWake
	timers  []Time
}

type stepWaiter struct {
	phase Duration   // charged before the first wait, which starts at this instant
	steps []Duration // one wait per entry, each starting where the last resumed
}

type stepWake struct {
	at       Time
	waiter   int
	delivery bool // AtDelivery rather than At
}

// stepEffect is one logged side effect; who is the waiter that resumed,
// or -1 for a callback.
type stepEffect struct {
	t    Time
	who  int
	text string
}

type stepOutcome struct {
	log                []stepEffect
	now                Time
	events, dispatches uint64
	elided             uint64
	charged            Duration
}

type funcAction func()

func (f funcAction) Run() { f() }

// run plays the scenario on a sequential engine. The reference side is the
// loop StepWait's doc comment promises, the subject side the primitive.
// Waits that the scenario's own wakes leave open are closed by tail wakes
// spaced wider than any step, so the reference terminates.
func (sc stepScenario) run(t testing.TB, subject bool, tr Tracer) stepOutcome {
	t.Helper()
	e := New(1)
	defer e.Shutdown()
	e.SetTracer(tr)
	sh := e.Shard(0)
	var out stepOutcome
	procs := make([]*Proc, len(sc.waiters))
	woken := make([]bool, len(sc.waiters))
	var end Time
	gap := Duration(1)
	for i, w := range sc.waiters {
		end = max(end, Time(w.phase))
		procs[i] = sh.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			if w.phase > 0 {
				p.Charge(w.phase)
			}
			for r, step := range w.steps {
				if subject {
					p.StepWait(step)
				} else {
					woken[i] = false
					for !woken[i] {
						p.Charge(step)
					}
				}
				out.log = append(out.log, stepEffect{p.Now(), i, fmt.Sprintf("w%d.%d", i, r)})
			}
		})
		for _, step := range w.steps {
			gap = max(gap, step+1)
		}
	}
	wake := func(wk stepWake) {
		fn := func() {
			out.log = append(out.log, stepEffect{sh.Now(), -1, fmt.Sprintf("wake w%d", wk.waiter)})
			if subject {
				procs[wk.waiter].StepWake()
			} else {
				woken[wk.waiter] = true
			}
		}
		if wk.delivery {
			sh.AtDelivery(wk.at, uint64(wk.waiter), funcAction(fn))
		} else {
			sh.At(wk.at, fn)
		}
	}
	for _, wk := range sc.wakes {
		end = max(end, wk.at)
		wake(wk)
	}
	for _, at := range sc.timers {
		end = max(end, at)
		sh.At(at, func() { out.log = append(out.log, stepEffect{sh.Now(), -1, "timer"}) })
	}
	for i, w := range sc.waiters {
		for r := range w.steps {
			wake(stepWake{at: end.Add(Duration(r+1) * gap), waiter: i, delivery: true})
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Live() != 0 {
		t.Fatalf("%d waiters never finished", e.Live())
	}
	out.now, out.events, out.dispatches = e.Now(), e.Events(), e.Dispatches()
	out.elided, out.charged = e.Elided(), e.Charged()
	return out
}

// canonical sorts each run of same-instant resumes by waiter. Two waiters
// resuming at one instant are the one tie the step-wait orders by wake
// time where the loop orders by the previous step's start; they stand for
// processes on different nodes, which share nothing, so only their order
// against callbacks is an observable.
func canonical(log []stepEffect) []stepEffect {
	log = append([]stepEffect(nil), log...)
	for i := 0; i < len(log); {
		j := i + 1
		for log[i].who >= 0 && j < len(log) && log[j].who >= 0 && log[j].t == log[i].t {
			j++
		}
		sort.SliceStable(log[i:j], func(a, b int) bool { return log[i+a].who < log[i+b].who })
		i = j
	}
	return log
}

// checkStepEquivalent requires everything but the host-side counter to be
// equal: side effects and their order, Now, Events, Dispatches, Charged.
func checkStepEquivalent(t testing.TB, ref, sub stepOutcome) {
	t.Helper()
	if r, s := canonical(ref.log), canonical(sub.log); !reflect.DeepEqual(r, s) {
		t.Errorf("side effects differ:\n loop %v\n wait %v", r, s)
	}
	if ref.now != sub.now || ref.events != sub.events || ref.dispatches != sub.dispatches || ref.charged != sub.charged {
		t.Errorf("loop: now %v events %d dispatches %d charged %v\nwait: now %v events %d dispatches %d charged %v",
			ref.now, ref.events, ref.dispatches, ref.charged, sub.now, sub.events, sub.dispatches, sub.charged)
	}
	if ref.elided != 0 {
		t.Errorf("the charge loop elided %d events", ref.elided)
	}
}

func TestStepWaitMatchesChargeLoop(t *testing.T) {
	one := func(phase, step Duration) []stepWaiter {
		return []stepWaiter{{phase: phase, steps: []Duration{step}}}
	}
	for _, tc := range []struct {
		name    string
		sc      stepScenario
		resumes map[string]Time // the instants worked out by hand
		elided  uint64
	}{
		{"wake mid-step",
			stepScenario{waiters: one(5, 10), wakes: []stepWake{{at: 32, delivery: true}}},
			map[string]Time{"w0.0": 35}, 2},
		{"delivery exactly on a grid instant",
			stepScenario{waiters: one(5, 10), wakes: []stepWake{{at: 35, delivery: true}}},
			map[string]Time{"w0.0": 35}, 2},
		{"wake at the start instant is seen one step later",
			stepScenario{waiters: one(0, 10), wakes: []stepWake{{at: 0}}},
			map[string]Time{"w0.0": 10}, 0},
		{"wake before the wait starts is lost",
			stepScenario{waiters: one(5, 10), wakes: []stepWake{{at: 5}, {at: 21}}},
			map[string]Time{"w0.0": 25}, 1},
		{"second wake before the resume is a no-op",
			stepScenario{
				waiters: []stepWaiter{{steps: []Duration{10, 10}}},
				wakes:   []stepWake{{at: 12, delivery: true}, {at: 15, delivery: true}, {at: 41}},
			},
			map[string]Time{"w0.0": 20, "w0.1": 50}, 1 + 2},
		{"two waiters out of phase",
			stepScenario{
				waiters: []stepWaiter{{phase: 0, steps: []Duration{10}}, {phase: 3, steps: []Duration{7}}},
				wakes:   []stepWake{{at: 29, waiter: 0, delivery: true}, {at: 18, waiter: 1}},
			},
			map[string]Time{"w0.0": 30, "w1.0": 24}, 2 + 2},
		{"two waiters resuming at one instant",
			stepScenario{
				waiters: []stepWaiter{{phase: 0, steps: []Duration{10}}, {phase: 2, steps: []Duration{4}}},
				wakes:   []stepWake{{at: 29, waiter: 0}, {at: 27, waiter: 1}},
			},
			map[string]Time{"w0.0": 30, "w1.0": 30}, 2 + 6},
		{"timer on the resume instant",
			stepScenario{waiters: one(0, 10), wakes: []stepWake{{at: 25, delivery: true}}, timers: []Time{30}},
			map[string]Time{"w0.0": 30}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, sub := tc.sc.run(t, false, nil), tc.sc.run(t, true, nil)
			checkStepEquivalent(t, ref, sub)
			got := map[string]Time{}
			for _, ef := range sub.log {
				if ef.who >= 0 {
					got[ef.text] = ef.t
				}
			}
			if !reflect.DeepEqual(got, tc.resumes) {
				t.Errorf("resumed at %v, want %v", got, tc.resumes)
			}
			if sub.elided != tc.elided {
				t.Errorf("elided %d events, want %d", sub.elided, tc.elided)
			}
			// Under a tracer the wait is the loop: the transcript is the
			// reference's, byte for byte, and nothing is elided.
			var rb, sb bytes.Buffer
			tref, tsub := tc.sc.run(t, false, NewWriterTracer(&rb)), tc.sc.run(t, true, NewWriterTracer(&sb))
			if rb.String() != sb.String() {
				t.Errorf("traced transcripts differ:\n loop:\n%s wait:\n%s", &rb, &sb)
			}
			if !reflect.DeepEqual(tref, tsub) {
				t.Errorf("traced outcomes differ:\n loop %+v\n wait %+v", tref, tsub)
			}
			if !reflect.DeepEqual(tref, ref) {
				t.Errorf("the tracer changed the reference run:\n traced   %+v\n untraced %+v", tref, ref)
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

// fuzzScenario decodes two waiters of three waits each and a stream of
// wakes and timers, all in single nanoseconds so that grid coincidences
// are the common case, not the rare one.
func fuzzScenario(stepA, stepB, phaseA, phaseB uint8, stream []byte) stepScenario {
	waits := func(step uint8) []Duration {
		s := Duration(step%16) + 1
		return []Duration{s, s%16 + 1, (s+6)%16 + 1}
	}
	sc := stepScenario{waiters: []stepWaiter{
		{phase: Duration(phaseA % 32), steps: waits(stepA)},
		{phase: Duration(phaseB % 32), steps: waits(stepB)},
	}}
	var at Time
	for i := 0; i+1 < len(stream) && i < 64; i += 2 {
		at += Time(stream[i] % 24)
		if f := stream[i+1]; f&4 != 0 {
			sc.timers = append(sc.timers, at)
		} else {
			sc.wakes = append(sc.wakes, stepWake{at: at, waiter: int(f & 1), delivery: f&2 != 0})
		}
	}
	return sc
}

func FuzzStepWait(f *testing.F) {
	// The table's cases are the checked-in corpus (testdata/fuzz); this is
	// the scenario with no wakes but the tail's.
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, stepA, stepB, phaseA, phaseB uint8, stream []byte) {
		sc := fuzzScenario(stepA, stepB, phaseA, phaseB, stream)
		ref := sc.run(t, false, nil)
		checkStepEquivalent(t, ref, sc.run(t, true, nil))
		if traced := sc.run(t, true, NewHashTracer()); !reflect.DeepEqual(traced, ref) {
			t.Errorf("traced wait differs from the untraced loop:\n wait %+v\n loop %+v", traced, ref)
		}
	})
}
