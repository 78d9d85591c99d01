package oam

import (
	"testing"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

// strategyProbe records the strategy each Attempt and Settled reports.
type strategyProbe struct {
	attempts, settles []Strategy
}

func (p *strategyProbe) Attempt(_ sim.Time, _ int, _ string, s Strategy) {
	p.attempts = append(p.attempts, s)
}

func (p *strategyProbe) Settled(_ sim.Time, _ int, _ string, _ Outcome, _ Reason, s Strategy) {
	p.settles = append(p.settles, s)
}

// TestProbeReportsStrategyUsed: the strategy a dispatch settles with is
// the one it attempted with, also when the adaptive controller has
// switched the node from Rerun to Continuation — Settled used to report
// the configured strategy instead of the one that ran.
func TestProbeReportsStrategyUsed(t *testing.T) {
	const calls = ctlWindow + 8
	budget := sim.Micros(10)
	finished := 0
	// The handler outruns even the adaptive ceiling (budgetMaxMul times the
	// budget), so every call aborts TooLong however far the controller
	// raises it, and the first controller window ends with preferLazy set.
	r := newRig(t, Options{Strategy: Rerun, Adaptive: true, HandlerBudget: budget},
		func(e *Env, pkt *cm5.Packet) {
			e.Compute((budgetMaxMul + 1) * budget)
			finished++
		})
	probe := &strategyProbe{}
	r.d.SetProbe(probe)
	_, err := r.u.SPMD(func(c threads.Ctx, node int) {
		ep := r.u.Endpoint(node)
		if node == 0 {
			for i := 0; i < calls; i++ {
				ep.Send(c, 1, r.call, [4]uint64{}, nil)
			}
			return
		}
		for finished < calls {
			c.S.Yield(c)
			ep.Poll(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.attempts) != calls || len(probe.settles) != calls {
		t.Fatalf("%d attempts, %d settles, want %d each", len(probe.attempts), len(probe.settles), calls)
	}
	lazy := 0
	for i, s := range probe.attempts {
		if probe.settles[i] != s {
			t.Errorf("dispatch %d attempted with %v but settled with %v", i, s, probe.settles[i])
		}
		if s == Continuation {
			lazy++
		}
	}
	if lazy == 0 {
		t.Fatal("the controller never switched to Continuation; the scenario does not exercise the switch")
	}
}

// TestProbeReportsMultiactiveFallback: multiactive dispatch falls back
// from Continuation to Rerun, and says so to the probe.
func TestProbeReportsMultiactiveFallback(t *testing.T) {
	r := newMultiRig(t, Options{Strategy: Continuation, Cores: 2}, func(e *Env, tag uint64) {})
	probe := &strategyProbe{}
	r.d.SetProbe(probe)
	_, err := r.u.SPMD(func(c threads.Ctx, node int) {
		if node == 0 {
			r.send(c, 0, 0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.attempts) != 1 || probe.attempts[0] != Rerun || len(probe.settles) != 1 || probe.settles[0] != Rerun {
		t.Fatalf("attempts %v settles %v, want one Rerun each", probe.attempts, probe.settles)
	}
}

// parityCase is one way an optimistic attempt can end.
type parityCase struct {
	name    string
	opts    Options
	nicCap  int // 0 = the default cost model's
	outcome Outcome
	reason  Reason
	body    func(r *parityRig, e *Env)
}

// parityRig is a 3-node universe whose node 1 serves one call, through
// Run or through RunMulti; node 2 is a slow sink for the NetworkFull case.
type parityRig struct {
	u        *am.Universe
	d        *Dispatcher
	mu       *threads.Mutex // held by node 1's main while the attempt runs
	cmu      *threads.Mutex
	cv       *threads.Cond
	ready    bool
	sink     am.HandlerID
	settled  int
	finished int
	outcome  Outcome
	reason   Reason
}

var parityCases = []parityCase{
	{name: "complete", outcome: Completed,
		body: func(r *parityRig, e *Env) { e.Compute(sim.Micros(1)) }},
	{name: "lock-busy", outcome: Promoted, reason: LockBusy,
		body: func(r *parityRig, e *Env) { e.Lock(r.mu); e.Unlock(r.mu) }},
	{name: "cond-false", outcome: Promoted, reason: CondFalse,
		body: func(r *parityRig, e *Env) {
			e.Lock(r.cmu)
			e.Await(r.cv, func() bool { return r.ready })
			e.Unlock(r.cmu)
		}},
	{name: "network-full", opts: Options{StrictNetAbort: true}, nicCap: 1, outcome: Promoted, reason: NetworkFull,
		body: func(r *parityRig, e *Env) { e.Send(2, r.sink, [4]uint64{}, nil) }},
	{name: "too-long", opts: Options{HandlerBudget: sim.Micros(50)}, outcome: Promoted, reason: TooLong,
		body: func(r *parityRig, e *Env) { e.Compute(sim.Micros(200)) }},
	{name: "nack", opts: Options{Strategy: Nack}, outcome: NackNeeded, reason: LockBusy,
		body: func(r *parityRig, e *Env) { e.Lock(r.mu); e.Unlock(r.mu) }},
}

// runParity serves one call of pc on node 1 and returns the dispatcher's
// counters.
func runParity(t *testing.T, pc parityCase, multi bool) Stats {
	t.Helper()
	eng := sim.New(31)
	defer eng.Shutdown()
	cost := cm5.DefaultCostModel()
	if pc.nicCap > 0 {
		cost.NICQueueCap = pc.nicCap
	}
	u := am.NewUniverse(eng, 3, cost)
	opts := pc.opts
	if multi {
		opts.Cores = 2
	}
	r := &parityRig{u: u, d: NewDispatcher(opts)}
	r.mu = threads.NewMutex(u.Scheduler(1))
	r.cmu = threads.NewMutex(u.Scheduler(1))
	r.cv = threads.NewCond(r.cmu)
	r.sink = u.Register("sink", func(threads.Ctx, *cm5.Packet) {})
	body := func(e *Env) {
		pc.body(r, e)
		r.finished++
	}
	settle := func(_ threads.Ctx, _ Frame, o Outcome, re Reason) {
		r.outcome, r.reason = o, re
		r.settled++
	}
	call := u.Register("call", func(c threads.Ctx, pkt *cm5.Packet) {
		if multi {
			r.d.RunMulti(c, u.Endpoint(1), "call", 0, 0, false, body, Frame{}, settle)
			return
		}
		o, re := r.d.Run(c, u.Endpoint(1), "call", body)
		settle(c, Frame{}, o, re)
	})
	want := 1
	if pc.outcome == NackNeeded {
		want = 0 // a nacked body never runs to its end
	}
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		switch node {
		case 0:
			if pc.reason == NetworkFull {
				ep.Send(c, 2, r.sink, [4]uint64{}, nil) // fill node 2's queue
			}
			ep.Send(c, 1, call, [4]uint64{}, nil)
		case 1:
			r.mu.Lock(c)
			for r.settled == 0 {
				ep.Poll(c)
			}
			r.mu.Unlock(c)
			r.cmu.Lock(c)
			r.ready = true
			r.cv.Signal(c)
			r.cmu.Unlock(c)
			for r.finished < want {
				c.S.Yield(c)
				ep.Poll(c)
			}
		case 2:
			c.P.Charge(sim.Micros(300)) // keep the queue full for a while
		}
	})
	if err != nil {
		t.Fatalf("%s (multi=%v): %v", pc.name, multi, err)
	}
	if r.settled != 1 || r.outcome != pc.outcome || r.reason != pc.reason {
		t.Fatalf("%s (multi=%v): settled %d times as %v/%v, want once as %v/%v",
			pc.name, multi, r.settled, r.outcome, r.reason, pc.outcome, pc.reason)
	}
	if r.finished != want {
		t.Fatalf("%s (multi=%v): body finished %d times, want %d", pc.name, multi, r.finished, want)
	}
	return r.d.Stats()
}

// TestDispatchParity drives the same body — a completion, each abort
// reason, a nack — through single-active Run and through RunMulti on two
// cores, and requires the same counters from both: they share one attempt
// core, and this pins what it accounts for.
func TestDispatchParity(t *testing.T) {
	for _, pc := range parityCases {
		single := runParity(t, pc, false)
		multi := runParity(t, pc, true)
		if multi.CompatAdmitted != 1 || multi.CompatQueued != 0 {
			t.Errorf("%s: multiactive admission %d admitted / %d queued, want 1 / 0",
				pc.name, multi.CompatAdmitted, multi.CompatQueued)
		}
		multi.CompatAdmitted = 0
		if single != multi {
			t.Errorf("%s: counters differ\n single-active %v\n multiactive   %v", pc.name, single, multi)
		}
		var want Stats
		want.Total = 1
		switch pc.outcome {
		case Completed:
			want.Succeeded = 1
		case Promoted:
			want.Promoted, want.ByReason[pc.reason] = 1, 1
		case NackNeeded:
			want.Nacked, want.ByReason[pc.reason] = 1, 1
		}
		if single != want {
			t.Errorf("%s: counters %v, want %v", pc.name, single, want)
		}
	}
}
