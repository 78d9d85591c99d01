package exp

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/sor"
	"repro/internal/apps/triangle"
	"repro/internal/apps/tsp"
	"repro/internal/apps/water"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// shardCounts is the sweep of the sharded-equivalence suite: the
// sequential kernel plus two genuinely parallel widths.
var shardCounts = []int{1, 2, 4}

// appRecord captures everything the equivalence contract pins for one
// run: the application's own result (answer, virtual elapsed, every
// statistic), the engine's charged virtual CPU time and event count, and
// — for a traced run — the FNV hash of the canonical schedule trace (every
// process resume/yield/exit with its timestamp: a byte-exact transcript of
// the schedule). elided is not pinned; it says which wait path ran.
type appRecord struct {
	res       apps.Result
	charged   sim.Duration
	events    uint64
	elided    uint64
	traceHash uint64
	traceLen  int
}

// appCell is one row of the application equivalence matrix.
type appCell struct {
	app string
	sys apps.System
}

func (c appCell) String() string { return c.app + "/" + c.sys.String() }

// appCells: every application under ORPC, and under hand-coded AM the
// three whose mains wait in am.Endpoint.PollUntil (triangle/AM never
// waits for a message).
var appCells = []appCell{
	{"triangle", apps.ORPC}, {"tsp", apps.ORPC}, {"sor", apps.ORPC}, {"water", apps.ORPC},
	{"tsp", apps.AM}, {"sor", apps.AM}, {"water", apps.AM},
}

// runShardedApp runs one cell at the given shard count and span width,
// with a canonical tracer attached or not. The tracer is more than an
// observer here: it forces every PollUntil wait through the stepwise
// path, so the two settings exercise the two implementations of the wait.
func runShardedApp(t *testing.T, cell appCell, shards int, optimistic, traced bool) appRecord {
	t.Helper()
	tr := sim.NewCanonicalTracer()
	var eng *sim.Engine
	ro := apps.RunOptions{Shards: shards, Optimistic: optimistic, Observe: func(u *am.Universe, _ *rpc.Runtime) {
		eng = u.Machine().Engine()
		if traced {
			eng.SetTracer(tr)
		}
	}}
	// The quick sizes of sizes.go, shrunk further where a size run at every
	// cell of the matrix would dominate the package's test time.
	sc := Scale{Quick: true, Run: ro}
	var res apps.Result
	var err error
	switch cell.app {
	case "triangle":
		res, err = triangle.Run(cell.sys, 4, sc.triangle())
	case "tsp":
		cfg := sc.tsp()
		cfg.Cities = 9
		res, err = tsp.Run(cell.sys, 3, cfg)
	case "sor":
		cfg := sc.sor()
		cfg.Rows, cfg.Iters = 24, 4
		res, err = sor.Run(cell.sys, 4, cfg)
	case "water":
		cfg := sc.water()
		cfg.Iters = 2
		res, err = water.Run(cell.sys, 4, true, cfg)
	default:
		t.Fatalf("unknown app %q", cell.app)
	}
	if err != nil {
		t.Fatalf("%v (shards=%d): %v", cell, shards, err)
	}
	if eng == nil {
		t.Fatalf("%v (shards=%d): Observe hook never ran", cell, shards)
	}
	if eng.Shards() != shards {
		t.Fatalf("%v: engine has %d shards, want %d", cell, eng.Shards(), shards)
	}
	return appRecord{res: res, charged: eng.Charged(), events: eng.Events(), elided: eng.Elided(),
		traceHash: tr.Hash(), traceLen: len(tr.Text())}
}

// checkAppCells is the application equivalence matrix at one span width:
// every cell at every shard count, traced and — for the AM cells —
// untraced, against the sequential traced run: same result struct (answer,
// elapsed virtual time, every counter), same Charged() and Events(), and
// for the traced runs a canonical schedule trace that hashes identically.
// Traced against untraced is the stepwise wait against the elided one.
func checkAppCells(t *testing.T, optimistic bool) {
	t.Helper()
	for _, cell := range appCells {
		seq := runShardedApp(t, cell, 1, false, true)
		if seq.traceLen == 0 {
			t.Fatalf("%v: sequential run produced an empty schedule trace", cell)
		}
		for _, s := range shardCounts {
			for _, traced := range []bool{true, false} {
				if (s == 1 && traced) || (!traced && cell.sys != apps.AM) {
					continue // the first is seq; ORPC never waits in PollUntil
				}
				got := runShardedApp(t, cell, s, optimistic && s > 1, traced)
				label := fmt.Sprintf("%v shards=%d optimistic=%v traced=%v", cell, s, optimistic, traced)
				if got.res != seq.res {
					t.Errorf("%s: result differs from sequential:\n got %+v\nwant %+v", label, got.res, seq.res)
				}
				if got.charged != seq.charged || got.events != seq.events {
					t.Errorf("%s: Charged() %v Events() %d, want %v %d", label, got.charged, got.events, seq.charged, seq.events)
				}
				if traced && (got.traceHash != seq.traceHash || got.traceLen != seq.traceLen) {
					t.Errorf("%s: schedule trace (hash %#x, %d bytes) differs from sequential (hash %#x, %d bytes)",
						label, got.traceHash, got.traceLen, seq.traceHash, seq.traceLen)
				}
				if traced && got.elided != 0 {
					t.Errorf("%s: %d events elided under a tracer, which is owed every one", label, got.elided)
				}
				if !traced && got.elided == 0 {
					t.Errorf("%s: nothing elided: the untraced run did not take the wait it is here to cover", label)
				}
			}
		}
	}
}

// shardedScale is the quick scale at the given engine configuration. The
// harness runs one cell at a time so the cells' shard runners have the
// host to themselves.
func shardedScale(shards int, optimistic bool) Scale {
	return Scale{Quick: true, Workers: 1, Run: apps.RunOptions{Shards: shards, Optimistic: optimistic}}
}

// checkScaleExperiments runs the experiments that reach the applications
// only through Scale.Run — no per-app harness of their own in this file —
// sequentially and at every parallel shard count, requiring identical
// rows and that every application run got an engine of the requested
// shape.
func checkScaleExperiments(t *testing.T, optimistic bool) {
	t.Helper()
	for _, e := range []struct {
		name string
		rows func(Scale) (any, error)
	}{
		{"appablation", func(s Scale) (any, error) { return AppAblation(s) }},
		{"sorsizes", func(s Scale) (any, error) { return SORSizes(s) }},
	} {
		var seq any
		for _, shards := range shardCounts {
			s := shardedScale(shards, optimistic && shards > 1)
			runs := 0
			s.Run.Observe = func(u *am.Universe, _ *rpc.Runtime) {
				runs++
				eng := u.Machine().Engine()
				if eng.Shards() != shards || (eng.Mode() == sim.Optimistic) != s.Run.Optimistic {
					t.Errorf("%s: run %d got a %d-shard %v engine, want %d shards, optimistic=%v",
						e.name, runs, eng.Shards(), eng.Mode(), shards, s.Run.Optimistic)
				}
			}
			rows, err := e.rows(s)
			if err != nil {
				t.Fatalf("%s (shards=%d): %v", e.name, shards, err)
			}
			if runs == 0 {
				t.Fatalf("%s (shards=%d): the run options never reached an application run", e.name, shards)
			}
			if shards == 1 {
				seq = rows
			} else if !reflect.DeepEqual(rows, seq) {
				t.Errorf("%s: rows at shards=%d optimistic=%v differ from sequential:\n got %+v\nwant %+v",
					e.name, shards, s.Run.Optimistic, rows, seq)
			}
		}
	}
}

// TestShardedEquivalenceApps: for every application cell, a sharded run
// at the lockstep width is indistinguishable from the sequential one, and
// an untraced run from a traced one (see checkAppCells).
func TestShardedEquivalenceApps(t *testing.T) {
	t.Parallel()
	checkAppCells(t, false)
	checkScaleExperiments(t, false)
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
				eng.SetTracer(sim.NewHashTracer())
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

// TestShardedEquivalenceChaos: the full quick chaos sweep — loss,
// duplication, a mid-run crash, and a permanent partition — produces
// byte-identical rows (including the fault-trace hashes) at every shard
// count.
func TestShardedEquivalenceChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chaos sweep three times")
	}
	t.Parallel()
	var seq []ChaosRow
	for _, s := range shardCounts {
		rows, err := Chaos(shardedScale(s, false))
		if err != nil {
			t.Fatalf("chaos sweep (shards=%d): %v", s, err)
		}
		for i, r := range rows {
			if !r.OK {
				t.Errorf("chaos row %d (shards=%d): wrong answer", i, s)
			}
		}
		if s == 1 {
			seq = rows
			continue
		}
		if !reflect.DeepEqual(rows, seq) {
			for i := range rows {
				if rows[i] != seq[i] {
					t.Errorf("chaos row %d at shards=%d differs from sequential:\n got %+v\nwant %+v",
						i, s, rows[i], seq[i])
				}
			}
		}
	}
}
