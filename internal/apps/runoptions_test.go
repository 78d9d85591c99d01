package apps_test

import (
	"testing"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/kv"
	"repro/internal/apps/sched"
	"repro/internal/apps/sor"
	"repro/internal/apps/triangle"
	"repro/internal/apps/tsp"
	"repro/internal/apps/water"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// runners are the seven application entry points, each reduced to "run a
// small instance under ORPC with these RunOptions".
var runners = []struct {
	name string
	run  func(apps.RunOptions) (apps.Result, error)
}{
	{"kv", func(o apps.RunOptions) (apps.Result, error) {
		res, _, err := kv.Run(kv.Config{System: apps.ORPC, Seed: 17, Clients: 8, Duration: sim.Micros(2000), RunOptions: o})
		return res, err
	}},
	{"sched", func(o apps.RunOptions) (apps.Result, error) {
		res, _, err := sched.Run(3, sched.Config{Jobs: 6, Seed: 5, RunOptions: o})
		return res, err
	}},
	{"sor", func(o apps.RunOptions) (apps.Result, error) {
		return sor.Run(apps.ORPC, 4, sor.Config{Rows: 24, Cols: 16, Iters: 4, Seed: 11, RunOptions: o})
	}},
	{"triangle", func(o apps.RunOptions) (apps.Result, error) {
		return triangle.Run(apps.ORPC, 4, triangle.Config{Side: 5, Empty: -1, Seed: 101, RunOptions: o})
	}},
	{"tsp", func(o apps.RunOptions) (apps.Result, error) {
		return tsp.Run(apps.ORPC, 3, tsp.Config{Cities: 8, Seed: 102, RunOptions: o})
	}},
	{"tsp-chaos", func(o apps.RunOptions) (apps.Result, error) {
		res, _, err := tsp.RunChaos(3, tsp.ChaosConfig{Cities: 8, Seed: 12, RunOptions: o})
		return res, err
	}},
	{"water", func(o apps.RunOptions) (apps.Result, error) {
		return water.Run(apps.ORPC, 4, true, water.Config{Mols: 32, Iters: 2, Seed: 103, RunOptions: o})
	}},
}

// TestRunOptions: every runner honours the one embedded RunOptions. The
// Observe hook fires exactly once, with an RPC runtime and an engine of
// the requested shape, and neither the answer nor the virtual elapsed
// time moves with the engine configuration. Cores is not an engine
// switch — multiactive dispatch overlaps handlers in virtual time — so
// under Cores:2 only the answer is pinned.
func TestRunOptions(t *testing.T) {
	options := []struct {
		name string
		o    apps.RunOptions
	}{
		{"zero", apps.RunOptions{}},
		{"shards2", apps.RunOptions{Shards: 2}},
		{"shards2-optimistic", apps.RunOptions{Shards: 2, Optimistic: true}},
		{"cores2", apps.RunOptions{Cores: 2}},
	}
	for _, r := range runners {
		var base apps.Result
		for _, opt := range options {
			wantShards, wantMode := 1, sim.Conservative
			if opt.o.Shards > 1 {
				wantShards = opt.o.Shards
				if opt.o.Optimistic {
					wantMode = sim.Optimistic
				}
			}
			fired := 0
			o := opt.o
			o.Observe = func(u *am.Universe, rt *rpc.Runtime) {
				fired++
				if rt == nil {
					t.Errorf("%s/%s: Observe got no RPC runtime", r.name, opt.name)
				}
				eng := u.Machine().Engine()
				if eng.Shards() != wantShards || eng.Mode() != wantMode {
					t.Errorf("%s/%s: engine has %d shards in mode %v, want %d in %v",
						r.name, opt.name, eng.Shards(), eng.Mode(), wantShards, wantMode)
				}
			}
			res, err := r.run(o)
			if err != nil {
				t.Fatalf("%s/%s: %v", r.name, opt.name, err)
			}
			if fired != 1 {
				t.Errorf("%s/%s: Observe fired %d times, want 1", r.name, opt.name, fired)
			}
			if opt.name == "zero" {
				base = res
				continue
			}
			if res.Answer != base.Answer {
				t.Errorf("%s/%s: answer %d, want %d", r.name, opt.name, res.Answer, base.Answer)
			}
			if opt.o.Cores <= 1 && res.Elapsed != base.Elapsed {
				t.Errorf("%s/%s: elapsed %v, want %v", r.name, opt.name, res.Elapsed, base.Elapsed)
			}
		}
	}
}
