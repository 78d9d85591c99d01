package kv_test

import (
	"testing"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/kv"
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// TestMultiactiveRun: with Cores > 1 the service still satisfies every
// invariant, and the compatibility matrix actually admits concurrent
// handlers (reads overlap; disjoint-key writers overlap).
func TestMultiactiveRun(t *testing.T) {
	for _, cores := range []int{2, 4} {
		cfg := smallCfg(apps.ORPC)
		cfg.Cores = cores
		cfg.ZipfS = 0.9
		var rt *rpc.Runtime
		cfg.Observe = func(_ *am.Universe, r *rpc.Runtime) { rt = r }
		_, st, err := kv.Run(cfg)
		if err != nil {
			t.Fatalf("cores=%d: %v", cores, err)
		}
		if err := kv.CheckInvariants(&st); err != nil {
			t.Fatalf("cores=%d: %v", cores, err)
		}
		if st.Arrivals == 0 || st.OK == 0 {
			t.Fatalf("cores=%d: no traffic: %d arrivals, %d ok", cores, st.Arrivals, st.OK)
		}
		ds := rt.Dispatcher().Stats()
		if ds.CompatAdmitted == 0 {
			t.Fatalf("cores=%d: no dispatch was compat-admitted: %v", cores, ds)
		}
		if ds.CompatAdmitted+ds.CompatQueued != ds.Total {
			t.Fatalf("cores=%d: admitted %d + queued %d != total %d",
				cores, ds.CompatAdmitted, ds.CompatQueued, ds.Total)
		}
	}
}

// TestMultiactiveAdaptive: the adaptive controller engages under
// multiactive load and its decisions replay bit-identically.
func TestMultiactiveAdaptive(t *testing.T) {
	cfg := smallCfg(apps.ORPC)
	cfg.Cores = 2
	cfg.Adaptive = true
	cfg.RateX = 3
	cfg.Duration = sim.Micros(8000)
	run := func(shards int) (uint64, oam.Stats) {
		c := cfg
		c.Shards = shards
		var rt *rpc.Runtime
		c.Observe = func(_ *am.Universe, r *rpc.Runtime) { rt = r }
		res, st, err := kv.Run(c)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if err := kv.CheckInvariants(&st); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res.Answer, rt.Dispatcher().Stats()
	}
	a1, d1 := run(1)
	a2, d2 := run(2)
	if a1 != a2 || d1 != d2 {
		t.Fatalf("adaptive run diverged across shards: answer %016x/%016x stats %v vs %v", a1, a2, d1, d2)
	}
}
