package exp

import (
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
// statistic), the engine's charged virtual CPU time, and the FNV hash of
// the canonical schedule trace (every process resume/yield/exit with its
// timestamp — a byte-exact transcript of the schedule).
type appRecord struct {
	res       apps.Result
	charged   sim.Duration
	traceHash uint64
	traceLen  int
}

// runShardedApp runs one app under ORPC at the given shard count and
// scheduling mode with a canonical tracer attached.
func runShardedApp(t *testing.T, app string, shards int, optimistic bool) appRecord {
	t.Helper()
	tr := sim.NewCanonicalTracer()
	var eng *sim.Engine
	ro := apps.RunOptions{Shards: shards, Optimistic: optimistic, Observe: func(u *am.Universe, _ *rpc.Runtime) {
		eng = u.Machine().Engine()
		eng.SetTracer(tr)
	}}
	var res apps.Result
	var err error
	switch app {
	case "triangle":
		res, err = triangle.Run(apps.ORPC, 4, triangle.Config{
			Side: 5, Empty: -1, Seed: 101, RunOptions: ro})
	case "tsp":
		res, err = tsp.Run(apps.ORPC, 3, tsp.Config{
			Cities: 9, Seed: 102, RunOptions: ro})
	case "sor":
		res, err = sor.Run(apps.ORPC, 4, sor.Config{
			Rows: 24, Cols: 16, Iters: 4, Seed: 11, RunOptions: ro})
	case "water":
		res, err = water.Run(apps.ORPC, 4, true, water.Config{
			Mols: 64, Iters: 2, Seed: 103, RunOptions: ro})
	default:
		t.Fatalf("unknown app %q", app)
	}
	if err != nil {
		t.Fatalf("%s (shards=%d): %v", app, shards, err)
	}
	if eng == nil {
		t.Fatalf("%s (shards=%d): Observe hook never ran", app, shards)
	}
	if eng.Shards() != shards {
		t.Fatalf("%s: engine has %d shards, want %d", app, eng.Shards(), shards)
	}
	text := tr.Text()
	return appRecord{res: res, charged: eng.Charged(), traceHash: tr.Hash(), traceLen: len(text)}
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

// TestShardedEquivalenceApps: for all four applications, a sharded run is
// indistinguishable from the sequential one — same result struct (answer,
// elapsed virtual time, every counter), same Charged(), and a canonical
// schedule trace that hashes identically.
func TestShardedEquivalenceApps(t *testing.T) {
	t.Parallel()
	for _, app := range []string{"triangle", "tsp", "sor", "water"} {
		seq := runShardedApp(t, app, 1, false)
		if seq.traceLen == 0 {
			t.Fatalf("%s: sequential run produced an empty schedule trace", app)
		}
		for _, s := range shardCounts[1:] {
			got := runShardedApp(t, app, s, false)
			if got.res != seq.res {
				t.Errorf("%s: result at shards=%d differs from sequential:\n got %+v\nwant %+v",
					app, s, got.res, seq.res)
			}
			if got.charged != seq.charged {
				t.Errorf("%s: Charged() at shards=%d = %v, want %v", app, s, got.charged, seq.charged)
			}
			if got.traceHash != seq.traceHash || got.traceLen != seq.traceLen {
				t.Errorf("%s: schedule trace at shards=%d (hash %#x, %d bytes) differs from sequential (hash %#x, %d bytes)",
					app, s, got.traceHash, got.traceLen, seq.traceHash, seq.traceLen)
			}
		}
	}
	checkScaleExperiments(t, false)
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
