package exp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/kv"
	"repro/internal/apps/sched"
	"repro/internal/apps/sor"
	"repro/internal/apps/triangle"
	"repro/internal/apps/tsp"
	"repro/internal/apps/water"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/obs"
	"repro/internal/reliable"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// FuzzEquivalence is the engine contract as one test: an engine is legal
// iff a run on it cannot be told from the same run on the serial
// cooperative kernel (Observationally Cooperative Multithreading,
// PAPERS.md). An input decodes to a tuple — what runs and how it executes
// — and the run must match the same tuple on the sequential engine under a
// canonical tracer: result struct, the runner's own statistics (record and
// fault hashes, kv's ledgers), Charged(), Events() and, traced, the
// schedule's trace hash; and, fault-free at cores > 1, the answer of the
// cores = 1 run. The two kernel fast paths each meet their slow twin on an
// axis: a sharded engine queues every charge (queueOnly), so sharded
// against sequential is the in-place charge against the queue, and an
// observer makes StepWait step, so untraced against traced is the elided
// wait against the loop.
//
// An input is one byte per axis in this order, each taken modulo the
// axis's size (a missing byte reads 0):
//
//	runner    kv sched sor triangle tsp tsp-chaos water
//	size      the runner's two presets, shrunk from the quick sizes
//	seed      added to the preset's seed
//	sys       AM ORPC TRPC (ORPC where the runner has no choice)
//	strategy  rerun continuation nack (tsp under ORPC only)
//	fault     the runner's plans: none lossy partition slow crash flap
//	cores     1 2 4
//	shards    1 2 4
//	span      1 or 32 lookaheads (sharded engines only)
//	observer  none, canonical tracer, obs.Collector (sequential only)
//
// Plain go test runs the pinned tuples of testdata/fuzz/FuzzEquivalence,
// each named for the configuration it pins (its bytes are the axis indices
// above), and 48 fixed draws.
func FuzzEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(25))
	for range 48 {
		b := make([]byte, 10)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		t.Parallel()
		checkEquivalence(t, decodeTuple(data))
	})
}

type fault uint8

const (
	noFault fault = iota
	lossy
	partition // the victim cut off for the whole run
	slow      // a slow window on the victim
	crash
	flap // the victim cut off for a window that heals
)

var faultNames = [...]string{"none", "lossy", "partition", "slow", "crash", "flap"}

type observer uint8

const (
	unobserved observer = iota
	traced
	collected
)

var observerNames = [...]string{"none", "tracer", "collector"}

// tuple is one drawn run, normalized: an axis the runner does not take
// holds its default, so equal runs are equal tuples.
type tuple struct {
	runner   int
	size     int
	seed     int64
	sys      apps.System
	strategy oam.Strategy
	fault    fault
	cores    int
	shards   int
	wide     bool
	observer observer
}

func (tp tuple) String() string {
	span := 1
	if tp.wide {
		span = 32
	}
	return fmt.Sprintf("%s size=%d seed=+%d %v %v fault=%s cores=%d shards=%d span=%d observer=%s",
		eqRunners[tp.runner].name, tp.size, tp.seed, tp.sys, tp.strategy, faultNames[tp.fault],
		tp.cores, tp.shards, span, observerNames[tp.observer])
}

func decodeTuple(b []byte) tuple {
	next := func(n int) int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0]) % n
		b = b[1:]
		return v
	}
	tp := tuple{runner: next(len(eqRunners))}
	r := &eqRunners[tp.runner]
	tp.size = next(2)
	tp.seed = int64(next(256))
	tp.sys = apps.Systems[next(3)]
	tp.strategy = oam.Strategy(next(3))
	tp.fault = r.faults[next(len(r.faults))]
	tp.cores = [...]int{1, 2, 4}[next(3)]
	tp.shards = [...]int{1, 2, 4}[next(3)]
	tp.wide = next(2) == 1
	tp.observer = observer(next(3))
	if !r.systems {
		tp.sys = apps.ORPC
	}
	if r.name != "tsp" || tp.sys != apps.ORPC {
		tp.strategy = oam.Rerun
	}
	if tp.shards == 1 {
		tp.wide = false
	} else if tp.observer == collected {
		tp.observer = traced // the collector is not shard-safe
	}
	return tp
}

// plan is the tuple's fault plan on a machine whose last node, victim, is
// the one that crashes, is cut off or is slowed; at is an instant inside
// the run. Lossy, partition, crash and flap are the plans Chaos and Sched
// build; slow adds the fault-plan edge they lack, where spans are cut.
func (tp tuple) plan(victim int, at sim.Time) *cm5.FaultPlan {
	seed := 42 + tp.seed
	switch tp.fault {
	case lossy:
		return &cm5.FaultPlan{Seed: seed, DropProb: 0.02, DupProb: 0.01}
	case partition:
		return &cm5.FaultPlan{Seed: seed, Partitions: []cm5.Partition{
			{Src: -1, Dst: victim, From: 0, To: sim.Time(math.MaxInt64)},
			{Src: victim, Dst: -1, From: 0, To: sim.Time(math.MaxInt64)},
		}}
	case slow:
		return &cm5.FaultPlan{Seed: seed, Slow: []cm5.SlowWindow{{Node: victim, From: at, To: 3 * at, Extra: sim.Micros(50)}}}
	case crash:
		return &cm5.FaultPlan{Seed: seed, Crashes: []cm5.Crash{{Node: victim, At: at}}}
	case flap:
		return &cm5.FaultPlan{Seed: seed, Partitions: []cm5.Partition{
			{Src: -1, Dst: victim, From: at, To: 2 * at},
			{Src: victim, Dst: -1, From: at, To: 2 * at},
		}}
	}
	return nil
}

// eqRunner is one application entry point of the tuples.
type eqRunner struct {
	name    string
	systems bool    // takes a communication system (ORPC otherwise)
	waits   bool    // its AM mains wait in am.Endpoint.PollUntil, so an unobserved AM run elides
	placed  bool    // its answer is which agent ran each job, which cores (a model parameter) may move
	faults  []fault // the plans it takes, none first
	// run makes tp's run at s (its Run carries the engine options and the
	// observer's hook) and returns the runner's own statistics, if any; c
	// is the collector under a collected tuple, for the runners whose
	// Config takes it as a probe.
	run func(tp tuple, s Scale, c *obs.Collector) (apps.Result, any, error)
}

var allFaults = []fault{noFault, lossy, partition, slow, crash, flap}

// eqRunners: every preset runs on at least four nodes, so a tuple's shard
// count is never clamped.
var eqRunners = []eqRunner{
	{name: "kv", systems: true, faults: allFaults, run: func(tp tuple, s Scale, c *obs.Collector) (apps.Result, any, error) {
		cfg := kv.Config{System: tp.sys, Seed: 11 + tp.seed, Servers: 4, Clients: 8, Duration: sim.Micros(2000), RunOptions: s.Run}
		if tp.size == 1 {
			cfg.Clients, cfg.Duration, cfg.Mode, cfg.ZipfS = 16, sim.Micros(8000), kv.Bursty, 0.9
		}
		cfg.Fault = tp.plan(cfg.Servers+cfg.Clients-1, sim.Time(sim.Millisecond))
		if c != nil {
			cfg.Probe = c
		}
		res, st, err := kv.Run(cfg)
		if err == nil {
			err = kv.CheckInvariants(&st)
		}
		return res, st, err
	}},
	{name: "sched", placed: true, faults: allFaults, run: func(tp tuple, s Scale, c *obs.Collector) (apps.Result, any, error) {
		const agents = 3
		cfg := sched.Config{Jobs: 6, Seed: 5 + tp.seed, RunOptions: s.Run, Fault: tp.plan(agents, sim.Time(2*sim.Millisecond))}
		if tp.size == 1 {
			cfg.Jobs, cfg.LeaseTimeout = 10, sim.Micros(10000)
		}
		if c != nil {
			cfg.Probe = c
		}
		res, st, err := sched.Run(agents, cfg)
		if err == nil {
			err = sched.CheckInvariants(st.Record, cfg.Jobs, agents, true)
		}
		if err == nil && st.Accepted != uint64(cfg.Jobs) {
			err = fmt.Errorf("accepted %d completions, want %d", st.Accepted, cfg.Jobs)
		}
		return res, st, err
	}},
	{name: "sor", systems: true, waits: true, faults: []fault{noFault}, run: func(tp tuple, s Scale, _ *obs.Collector) (apps.Result, any, error) {
		cfg := s.sor()
		cfg.Rows, cfg.Iters = [2]int{24, 40}[tp.size], 4
		cfg.Seed += tp.seed
		res, err := sor.Run(tp.sys, 4, cfg)
		return res, nil, err
	}},
	{name: "triangle", systems: true, faults: []fault{noFault, lossy, slow}, run: func(tp tuple, s Scale, _ *obs.Collector) (apps.Result, any, error) {
		cfg := s.triangle()
		cfg.Empty = [2]int{-1, 1}[tp.size]
		cfg.Seed += tp.seed
		if cfg.Fault = tp.plan(3, sim.Time(sim.Millisecond)); cfg.Fault != nil {
			cfg.Reliable = &reliable.Options{}
		}
		res, err := triangle.Run(tp.sys, 4, cfg)
		return res, nil, err
	}},
	{name: "tsp", systems: true, waits: true, faults: []fault{noFault}, run: func(tp tuple, s Scale, _ *obs.Collector) (apps.Result, any, error) {
		cfg := s.tsp()
		cfg.Cities = [2]int{7, 8}[tp.size]
		cfg.Seed += tp.seed
		cfg.Strategy = tp.strategy
		res, err := tsp.Run(tp.sys, 3, cfg)
		return res, nil, err
	}},
	{name: "tsp-chaos", faults: allFaults, run: func(tp tuple, s Scale, _ *obs.Collector) (apps.Result, any, error) {
		cfg := tsp.ChaosConfig{Cities: [2]int{8, 9}[tp.size], Seed: 12 + tp.seed, RunOptions: s.Run,
			Fault: tp.plan(3, sim.Time(10*sim.Millisecond))}
		res, st, err := tsp.RunChaos(3, cfg)
		return res, st, err
	}},
	{name: "water", systems: true, waits: true, faults: []fault{noFault}, run: func(tp tuple, s Scale, _ *obs.Collector) (apps.Result, any, error) {
		cfg := s.water()
		cfg.Mols, cfg.Iters = [2]int{32, 64}[tp.size], 2
		cfg.Seed += tp.seed
		res, err := water.Run(tp.sys, 4, true, cfg)
		return res, nil, err
	}},
}

// fingerprint is what the contract compares. Trace is the canonical
// schedule trace's hash, 0 untraced.
type fingerprint struct {
	Result  apps.Result
	Stats   any
	Charged sim.Duration
	Events  uint64
	Trace   uint64
}

// observe makes tp's run and fingerprints it, checking on the way what
// every run owes: Observe fires once, on an engine of the requested shape
// and, under an RPC system, with an RPC runtime; an observed run elides
// nothing, and an unobserved AM run of a waiting runner does.
func (tp tuple) observe() (fingerprint, error) {
	r := &eqRunners[tp.runner]
	var (
		eng   *sim.Engine
		fired int
		noRT  bool
		tr    *sim.CanonicalTracer
		c     *obs.Collector
	)
	switch tp.observer {
	case traced:
		tr = sim.NewCanonicalTracer()
	case collected:
		c = obs.New(obs.Options{Trace: true, Metrics: true, Profile: true})
	}
	ro := apps.RunOptions{Shards: tp.shards, Optimistic: tp.wide, Cores: tp.cores, Observe: func(u *am.Universe, rt *rpc.Runtime) {
		fired++
		eng, noRT = u.Machine().Engine(), rt == nil
		if tr != nil {
			eng.SetSink(tr)
		}
		if c != nil {
			c.Attach(u, rt)
		}
	}}
	res, stats, err := r.run(tp, Scale{Quick: true, Run: ro}, c)
	if err != nil {
		return fingerprint{}, err
	}
	mode := sim.Conservative
	if tp.wide {
		mode = sim.Optimistic
	}
	switch {
	case fired != 1:
		return fingerprint{}, fmt.Errorf("Observe fired %d times, want 1", fired)
	case eng.Shards() != tp.shards || eng.Mode() != mode:
		return fingerprint{}, fmt.Errorf("engine has %d shards in mode %v, want %d in %v", eng.Shards(), eng.Mode(), tp.shards, mode)
	case noRT && tp.sys != apps.AM:
		return fingerprint{}, fmt.Errorf("Observe got no RPC runtime under %v", tp.sys)
	case tp.observer != unobserved && eng.Elided() != 0:
		return fingerprint{}, fmt.Errorf("%d events elided under an observer, which is owed every one", eng.Elided())
	case tp.observer == unobserved && tp.sys == apps.AM && r.waits && eng.Elided() == 0:
		return fingerprint{}, fmt.Errorf("nothing elided: the unobserved AM run did not take the wait it is here to cover")
	}
	fp := fingerprint{Result: res, Stats: stats, Charged: eng.Charged(), Events: eng.Events()}
	if tr != nil {
		fp.Trace = tr.Hash()
	}
	return fp, nil
}

// checkEquivalence runs tp against its reference, the same tuple on the
// sequential engine under a canonical tracer.
func checkEquivalence(t *testing.T, tp tuple) {
	got, err := tp.observe()
	if err != nil {
		t.Fatalf("%v: %v", tp, err)
	}
	ref := tp
	ref.shards, ref.wide, ref.observer = 1, false, traced
	if ref != tp {
		want, err := ref.observe()
		if err != nil {
			t.Fatalf("%v: reference run: %v", tp, err)
		}
		if tp.observer != traced {
			want.Trace = 0
		}
		if d := diff(got, want); len(d) > 0 {
			t.Errorf("%v differs from the sequential traced run:\n\t%s", tp, strings.Join(d, "\n\t"))
		}
	}
	if tp.cores > 1 && tp.fault == noFault && !eqRunners[tp.runner].placed {
		one := ref
		one.cores = 1
		base, err := one.observe()
		if err != nil {
			t.Fatalf("%v: cores=1 run: %v", tp, err)
		}
		if got.Result.Answer != base.Result.Answer {
			t.Errorf("%v: answer %#x, want the cores=1 run's %#x", tp, got.Result.Answer, base.Result.Answer)
		}
	}
}

// diff names the fields where two values of one struct type differ, down
// through nested structs ("Stats.Rel.Retransmits: 3, want 4").
func diff(got, want any) []string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	var out []string
	for i := range g.NumField() {
		gf, wf := g.Field(i), w.Field(i)
		if reflect.DeepEqual(gf.Interface(), wf.Interface()) {
			continue
		}
		name := g.Type().Field(i).Name
		if gf.Kind() == reflect.Interface {
			gf, wf = gf.Elem(), wf.Elem()
		}
		switch gf.Kind() {
		case reflect.Struct:
			for _, d := range diff(gf.Interface(), wf.Interface()) {
				out = append(out, name+"."+d)
			}
		case reflect.Slice:
			out = append(out, fmt.Sprintf("%s differs (%d entries, want %d)", name, gf.Len(), wf.Len()))
		default:
			out = append(out, fmt.Sprintf("%s: %v, want %v", name, gf, wf))
		}
	}
	return out
}

// TestScaleRunReachesApps pins the bug class of an experiment that drops
// Scale.Run: the experiments that reach the applications only through it
// print the sequential rows at 2 shards and span width 32, and every run
// they make gets that engine.
func TestScaleRunReachesApps(t *testing.T) {
	for _, e := range []struct {
		name string
		rows func(Scale) (any, error)
	}{
		{"appablation", func(s Scale) (any, error) { return AppAblation(s) }},
		{"sorsizes", func(s Scale) (any, error) { return SORSizes(s) }},
	} {
		seq, err := e.rows(Scale{Quick: true, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		runs := 0
		s := Scale{Quick: true, Workers: 1, Run: apps.RunOptions{Shards: 2, Optimistic: true, Observe: func(u *am.Universe, _ *rpc.Runtime) {
			runs++
			if eng := u.Machine().Engine(); eng.Shards() != 2 || eng.Mode() != sim.Optimistic {
				t.Errorf("%s: run %d got a %d-shard %v engine, want 2 shards in %v", e.name, runs, eng.Shards(), eng.Mode(), sim.Optimistic)
			}
		}}}
		rows, err := e.rows(s)
		if err != nil {
			t.Fatalf("%s (shards=2, optimistic): %v", e.name, err)
		}
		if runs == 0 {
			t.Fatalf("%s: the run options never reached an application run", e.name)
		}
		if !reflect.DeepEqual(rows, seq) {
			t.Errorf("%s: rows at shards=2 optimistic differ from sequential:\n got %+v\nwant %+v", e.name, rows, seq)
		}
	}
}

// TestElisionIsLive: Figure 2's quick tsp/AM cell at 7 slaves — the kind
// of run the benchmark's apps_quick used to spend most of its host time
// in — is almost nothing but polls that cannot succeed, and the kernel
// executes none of them; under a tracer it executes them all.
func TestElisionIsLive(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var eng *sim.Engine
		cfg := Scale{Quick: true}.tsp()
		cfg.Observe = func(u *am.Universe, _ *rpc.Runtime) {
			eng = u.Machine().Engine()
			if traced {
				eng.SetSink(sim.NewHashTracer())
			}
		}
		if _, err := tsp.Run(apps.AM, 7, cfg); err != nil {
			t.Fatal(err)
		}
		events, elided := eng.Events(), eng.Elided()
		if traced && elided != 0 {
			t.Errorf("traced: %d of %d events elided, want none", elided, events)
		}
		if !traced && 10*elided < 9*events {
			t.Errorf("untraced: %d of %d events elided, want at least 90%%", elided, events)
		}
	}
}
