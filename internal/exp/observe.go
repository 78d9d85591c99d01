package exp

import (
	"fmt"
	"sort"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/kv"
	"repro/internal/apps/sched"
	"repro/internal/apps/sor"
	"repro/internal/apps/triangle"
	"repro/internal/apps/tsp"
	"repro/internal/apps/water"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// ObserveSpec selects one observed application run.
type ObserveSpec struct {
	App   string      // triangle | tsp | sor | water | sched | kv
	Sys   apps.System // communication system (default ORPC)
	Nodes int         // machine size (0 = the app's default)
	Quick bool        // shrink the problem like the quick figure runs
	Cores int         // simulated cores per node (apps.RunOptions.Cores)
}

// ParseSystem maps a -sys flag value to an apps.System.
func ParseSystem(s string) (apps.System, error) {
	switch s {
	case "", "orpc", "ORPC":
		return apps.ORPC, nil
	case "am", "AM":
		return apps.AM, nil
	case "trpc", "TRPC":
		return apps.TRPC, nil
	}
	return 0, fmt.Errorf("unknown system %q (am, orpc, trpc)", s)
}

// ObservedApps lists the applications RunObserved accepts, sorted.
func ObservedApps() []string {
	names := make([]string, 0, len(observedRuns))
	for n := range observedRuns {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// observedRuns maps app name to a runner over sc, whose Observe hook
// attaches the collector, that adds the collector as the app's own probe
// where the app defines one.
var observedRuns = map[string]func(spec ObserveSpec, sc Scale, c *obs.Collector) (apps.Result, error){
	"triangle": func(spec ObserveSpec, sc Scale, c *obs.Collector) (apps.Result, error) {
		return triangle.Run(spec.Sys, spec.Nodes, sc.triangle())
	},
	"tsp": func(spec ObserveSpec, sc Scale, c *obs.Collector) (apps.Result, error) {
		// -p counts processors; the master occupies node 0.
		return tsp.Run(spec.Sys, spec.Nodes-1, sc.tsp())
	},
	"sor": func(spec ObserveSpec, sc Scale, c *obs.Collector) (apps.Result, error) {
		return sor.Run(spec.Sys, spec.Nodes, sc.sor())
	},
	"water": func(spec ObserveSpec, sc Scale, c *obs.Collector) (apps.Result, error) {
		return water.Run(spec.Sys, spec.Nodes, false, sc.water())
	},
	"sched": func(spec ObserveSpec, sc Scale, c *obs.Collector) (apps.Result, error) {
		// The control plane always runs ORPC; spec.Sys is ignored. The
		// collector doubles as the control-plane probe, so the trace grows
		// a "sched" track of heartbeats, outages, and lease spans.
		cfg := sched.Config{Jobs: 16, Seed: 104, RunOptions: sc.Run, Probe: c}
		if spec.Quick {
			cfg.Jobs = 8
		}
		res, _, err := sched.Run(spec.Nodes-1, cfg)
		return res, err
	},
	"kv": func(spec ObserveSpec, sc Scale, c *obs.Collector) (apps.Result, error) {
		// -p counts total nodes; a quarter (at least one) serve, the rest
		// are clients. The collector doubles as the service probe, so the
		// trace grows a "kv" track of sheds and failed arrivals and the
		// metrics report carries the SLO latency histogram.
		servers := spec.Nodes / 4
		if servers < 1 {
			servers = 1
		}
		cfg := kv.Config{
			System:     spec.Sys,
			Seed:       105,
			Servers:    servers,
			Clients:    spec.Nodes - servers,
			RunOptions: sc.Run,
			Probe:      c,
		}
		if spec.Quick {
			cfg.Duration = sim.Micros(5000)
		}
		res, _, err := kv.Run(cfg)
		return res, err
	},
}

// RunObserved runs one application with an obs.Collector attached and
// returns the collector (holding whichever sinks opts selected) alongside
// the application result.
func RunObserved(spec ObserveSpec, opts obs.Options) (*obs.Collector, apps.Result, error) {
	c := obs.New(opts)
	res, err := runObserved(spec, c, c.Attach)
	if err != nil {
		return nil, apps.Result{}, err
	}
	return c, res, nil
}

// runObserved is RunObserved with the collector made and attach as the
// Observe hook.
func runObserved(spec ObserveSpec, c *obs.Collector, attach func(*am.Universe, *rpc.Runtime)) (apps.Result, error) {
	run, ok := observedRuns[spec.App]
	if !ok {
		return apps.Result{}, fmt.Errorf("unknown app %q (have %v)", spec.App, ObservedApps())
	}
	if spec.Nodes <= 0 {
		spec.Nodes = 8
	}
	if (spec.App == "tsp" || spec.App == "sched" || spec.App == "kv") && spec.Nodes < 2 {
		return apps.Result{}, fmt.Errorf("%s needs at least 2 nodes (a master and a worker)", spec.App)
	}
	// The sequential kernel: the collector is not shard-safe, so the spec
	// has no Shards to ask for. Scale's size methods (sizes.go) configure
	// the paper workloads.
	return run(spec, Scale{Quick: spec.Quick, Run: apps.RunOptions{Cores: spec.Cores, Observe: attach}}, c)
}
