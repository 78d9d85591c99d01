package kv_test

import (
	"testing"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/kv"
	"repro/internal/rpc"
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
