// Command oamlab regenerates every table and figure of the paper's
// evaluation (section 4) on the simulated machine:
//
//	oamlab [-quick] [-maxp N] [-csv] [-par N] [-shards N] [-optimistic] [-cores K] [-cpuprofile F] [-memprofile F] <experiment>...
//
// Run `oamlab -help` for the experiment list; it is generated from the
// same command table that drives dispatch, so it cannot go stale.
//
// sched runs the cluster-scheduler control plane (internal/apps/sched)
// over a fault-mix x lease-timeout x heartbeat-period grid and
// replay-checks every cell's event record against the control plane's
// safety and liveness invariants (placed-exactly-once, monotonic lease
// epochs, no placement on dead agents, all jobs completed).
//
// kv runs the sharded key-value/lock service (internal/apps/kv) under
// open-loop load through the saturation knee, comparing AM, ORPC and
// TRPC goodput and SLO latency, and replay-checks every cell's lease
// record and per-client arrival ledger.
//
// Observability subcommands (see internal/obs):
//
//	oamlab [-quick] trace <app> [-p N] [-sys am|orpc|trpc] [-o file]
//	oamlab [-quick] metrics <app> [-p N] [-sys am|orpc|trpc] [-top N]
//
// trace records one application run (triangle, tsp, sor, water, sched,
// kv) and writes a Chrome trace-event JSON timeline — load it in
// Perfetto (https://ui.perfetto.dev) — with one process per node and
// tracks for cpu burns, handler runs, optimistic dispatches/aborts, RPC
// calls, packet flights and thread lifetimes. metrics prints the
// per-node counter/gauge/histogram registry and a virtual-time profile
// of the same run. Both are deterministic: the same seed yields
// byte-identical output.
//
// -quick shrinks the problem sizes so the suite runs in seconds; the
// default runs the paper's sizes (the Triangle figure alone simulates
// over a million RPCs per configuration and takes minutes).
//
// -maxp caps the machine sizes the figure and table sweeps visit. The
// experiments that run one fixed machine ignore it or shrink to fit, but
// never below what they need: chaos and sched remove a tsp slave or an
// agent mid-run and keep a second one to finish (three nodes), and the
// chaos table says so in a note when that floor overrode the flag.
//
// -par sets how many experiment cells run concurrently (default: all
// CPUs). Each cell owns a private simulation engine and results merge in
// a fixed order, so the output is byte-identical at any setting; only
// wall-clock time changes.
//
// -shards runs every simulation engine sharded: each run's nodes are
// partitioned across N shards (-1 = one per CPU) that execute in
// parallel over commit spans one network lookahead wide — the lockstep
// schedule, a barrier per window. -optimistic widens the spans to 32
// lookaheads: shards run ahead of each other up to a proven-safe horizon
// and rendezvous only at span commits. It is the same scheduler at a
// different width, so it is a usage error without -shards. Results are
// bit-identical to the sequential kernel at any value of either flag; the
// harness automatically shrinks -par so cells x shards never exceeds
// GOMAXPROCS. The observed trace/metrics subcommands need the
// single-threaded kernel (their probes are not shard-safe) and reject
// -shards N rather than ignore it.
//
// -cores gives every simulated node K cores: services that declare a
// compatibility matrix (kv) dispatch compatible handlers concurrently in
// virtual time (multiactive OAM). Simulated cores cost no host CPUs.
// Results are bit-identical across -shards and -optimistic for a fixed
// -cores value.
//
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments, for finding host-side hot spots in the simulation kernel.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/exp"
	"repro/internal/obs"
)

// runCtx is what one experiment's runner gets: the scale and output
// plumbing of this invocation.
type runCtx struct {
	scale exp.Scale
	emit  func(*exp.Table, error)
	svg   func(base, title string, rows []exp.FigRow)
	fig2  []exp.FigRow // Figure 2's rows, kept for table2
}

// command is one row of the subcommand table. The table is the single
// source of truth: dispatch, the "all" and "micro" groups, the
// unknown-name diagnostic and the -help listing are all generated from
// it, so registering an experiment is one entry here.
type command struct {
	name  string
	about string
	all   bool // member of the "all" group
	micro bool // member of the "micro" group
	run   func(*runCtx)
}

var commands = []command{
	{"table1", "Table 1: primitive operation costs", true, true,
		func(rc *runCtx) { rc.emit(exp.Table1Table(), nil) }},
	{"bulk", "bulk-transfer costs", true, true,
		func(rc *runCtx) { rc.emit(exp.BulkTable(), nil) }},
	{"abortcost", "abort and undo-log costs", true, true,
		func(rc *runCtx) { rc.emit(exp.AbortCostTable(), nil) }},
	{"fig1", "Figure 1: Triangle puzzle speedup", true, false,
		func(rc *runCtx) {
			t, rows, err := exp.Fig1Triangle(rc.scale)
			rc.emit(t, err)
			rc.svg("fig1", "Figure 1: Triangle puzzle", rows)
		}},
	{"fig2", "Figure 2: TSP speedup", true, false,
		func(rc *runCtx) {
			t, rows, err := exp.Fig2TSP(rc.scale)
			rc.emit(t, err)
			rc.svg("fig2", "Figure 2: TSP", rows)
			rc.fig2 = rows
		}},
	{"table2", "Table 2: OAM success rates", true, false,
		func(rc *runCtx) {
			if rc.fig2 == nil { // asked for without fig2 before it: run the sweep now
				_, rows, err := exp.Fig2TSP(rc.scale)
				if err != nil {
					rc.emit(nil, err)
					return
				}
				rc.fig2 = rows
			}
			rc.emit(exp.Table2(rc.fig2), nil)
		}},
	{"fig3", "Figure 3: SOR speedup", true, false,
		func(rc *runCtx) {
			t, rows, err := exp.Fig3SOR(rc.scale)
			rc.emit(t, err)
			rc.svg("fig3", "Figure 3: SOR", rows)
		}},
	{"fig4", "Figure 4: Water speedup", true, false,
		func(rc *runCtx) {
			t, rows, err := exp.Fig4Water(rc.scale)
			rc.emit(t, err)
			rc.svg("fig4", "Figure 4: Water (per iteration)", rows)
		}},
	{"table3", "Table 3: application OAM statistics", true, false,
		func(rc *runCtx) { rc.emit(exp.Table3(rc.scale)) }},
	{"ablation", "scheduling-strategy ablation", true, false,
		func(rc *runCtx) { rc.emit(exp.AblationTable(), nil) }},
	{"appablation", "per-application strategy ablation", true, false,
		func(rc *runCtx) { rc.emit(exp.AppAblationTable(rc.scale)) }},
	{"schedpolicy", "promoted-thread scheduling policies", true, false,
		func(rc *runCtx) { rc.emit(exp.SchedPolicyTable(), nil) }},
	{"budget", "handler-budget sweep", true, false,
		func(rc *runCtx) { rc.emit(exp.BudgetTable(), nil) }},
	{"buffering", "message-buffering strategies", true, false,
		func(rc *runCtx) { rc.emit(exp.BufferingTable(), nil) }},
	{"interrupts", "interrupt- vs polling-driven delivery", true, false,
		func(rc *runCtx) { rc.emit(exp.InterruptsTable(), nil) }},
	{"sorsizes", "SOR problem-size sweep", true, false,
		func(rc *runCtx) { rc.emit(exp.SORSizesTable(rc.scale)) }},
	{"chaos", "fault-injection sweep with per-node recovery counters", true, false,
		func(rc *runCtx) {
			rc.emit(exp.ChaosTable(rc.scale))
			rc.emit(exp.ChaosNodeTable(rc.scale))
		}},
	{"sched", "cluster-scheduler control plane under chaos", true, false,
		func(rc *runCtx) { rc.emit(exp.SchedTable(rc.scale)) }},
	{"kv", "sharded key-value service under open-loop load", true, false,
		func(rc *runCtx) { rc.emit(exp.KVTable(rc.scale)) }},
	{"kvmulti", "multiactive kv dispatch: goodput and p999 vs simulated cores", true, false,
		func(rc *runCtx) { rc.emit(exp.KVMultiactiveTable(rc.scale)) }},
	{"micro", "group: every microbenchmark table", false, false, nil},
	{"all", "group: every experiment", false, false, nil},
	{"trace", "record one observed app run as a Chrome trace", false, false, nil},
	{"metrics", "print one observed app run's metrics and profile", false, false, nil},
}

// subcommands lists every name the command line accepts, generated from
// the command table for the unknown-name diagnostic.
var subcommands = func() []string {
	names := make([]string, len(commands))
	for i, c := range commands {
		names[i] = c.name
	}
	return names
}()

// findCommand resolves a subcommand name against the table.
func findCommand(name string) *command {
	for i := range commands {
		if commands[i].name == name {
			return &commands[i]
		}
	}
	return nil
}

// group expands a group name ("all", "micro") into its member commands,
// in table order; nil for non-group names.
func group(name string) []*command {
	var out []*command
	for i := range commands {
		c := &commands[i]
		if (name == "all" && c.all) || (name == "micro" && c.micro) {
			out = append(out, c)
		}
	}
	return out
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("oamlab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "reduced problem sizes")
	maxp := fs.Int("maxp", 0, "cap the largest machine size (0 = experiment default)")
	csv := fs.Bool("csv", false, "emit CSV instead of formatted tables")
	svgdir := fs.String("svgdir", "", "also render figures as SVG into this directory")
	par := fs.Int("par", 0, "concurrent experiment cells (0 = all CPUs, 1 = sequential)")
	shards := fs.Int("shards", 1, "engine shards per run (1 = sequential kernel, -1 = one per CPU)")
	optimistic := fs.Bool("optimistic", false, "sharded engines commit spans 32 lookaheads wide instead of 1 (lockstep); needs -shards")
	cores := fs.Int("cores", 1, "simulated cores per node (>1 enables multiactive dispatch where a compatibility matrix is declared)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: oamlab [flags] <experiment>...\n\nexperiments:\n")
		for _, c := range commands {
			fmt.Fprintf(stderr, "  %-12s %s\n", c.name, c.about)
		}
		fmt.Fprintf(stderr, "\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *optimistic && (*shards == 0 || *shards == 1) {
		fmt.Fprintf(stderr, "oamlab: -optimistic only widens a sharded engine's commit spans; it needs -shards N (N > 1, or -1 for one per CPU)\n")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "oamlab: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "oamlab: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "oamlab: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "oamlab: memprofile: %v\n", err)
			}
		}()
	}

	scale := exp.Scale{
		Quick:   *quick,
		MaxP:    *maxp,
		Run:     apps.RunOptions{Shards: *shards, Optimistic: *optimistic, Cores: *cores},
		Workers: *par,
	}
	names := fs.Args()
	if len(names) == 0 {
		names = []string{"all"}
	}

	// trace/metrics are observed single-app runs with their own flags;
	// they consume the rest of the command line.
	if names[0] == "trace" || names[0] == "metrics" {
		if *shards != 0 && *shards != 1 {
			fmt.Fprintf(stderr, "oamlab: %s runs on the sequential kernel only (its probes are not shard-safe); drop -shards %d\n",
				names[0], *shards)
			return 2
		}
		return runObserve(names[0], names[1:], exp.ObserveSpec{Quick: *quick, Cores: *cores}, stdout, stderr)
	}

	code := 0
	rc := &runCtx{scale: scale}
	fail := func(format string, args ...any) {
		if code == 0 {
			fmt.Fprintf(stderr, "oamlab: "+format+"\n", args...)
			code = 1
		}
	}
	rc.emit = func(t *exp.Table, err error) {
		if code != 0 {
			return
		}
		if err != nil {
			fail("%v", err)
			return
		}
		if *csv {
			t.CSV(stdout)
			fmt.Fprintln(stdout)
		} else {
			t.Print(stdout)
		}
	}
	rc.svg = func(base, title string, rows []exp.FigRow) {
		if *svgdir == "" || rows == nil || code != 0 {
			return
		}
		if err := exp.WriteFigSVGs(*svgdir, base, title, rows); err != nil {
			fail("svg: %v", err)
			return
		}
		fmt.Fprintf(stderr, "[%s SVGs written to %s]\n", base, *svgdir)
	}

	run := func(c *command) {
		if code != 0 {
			return
		}
		start := time.Now()
		c.run(rc)
		if code == 0 {
			fmt.Fprintf(stderr, "[%s done in %v]\n", c.name, time.Since(start).Round(time.Millisecond))
		}
	}

	for _, name := range names {
		c := findCommand(name)
		switch {
		case c == nil:
			fmt.Fprintf(stderr, "oamlab: unknown experiment %q (subcommands: %s)\n",
				name, strings.Join(subcommands, ", "))
			return 2
		case name == "trace" || name == "metrics":
			fmt.Fprintf(stderr, "oamlab: %s must be the first argument\n", name)
			return 2
		case c.run == nil: // a group entry
			for _, m := range group(name) {
				run(m)
			}
		default:
			run(c)
		}
	}
	return code
}

// runObserve implements the trace and metrics subcommands: run one
// application with an obs.Collector attached and write the selected
// sink.
func runObserve(kind string, args []string, spec exp.ObserveSpec, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("oamlab "+kind, flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := fs.Int("p", 8, "machine size (processors)")
	sysName := fs.String("sys", "orpc", "communication system: am, orpc, trpc")
	out := fs.String("o", "", "trace: output file (default trace_<app>.json)")
	top := fs.Int("top", 30, "metrics: profile rows to print (0 = all)")
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintf(stderr, "oamlab: usage: oamlab [-quick] %s <app> [flags]; apps: %s\n",
			kind, strings.Join(exp.ObservedApps(), ", "))
		return 2
	}
	app := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	sys, err := exp.ParseSystem(*sysName)
	if err != nil {
		fmt.Fprintf(stderr, "oamlab: %v\n", err)
		return 2
	}
	spec.App, spec.Sys, spec.Nodes = app, sys, *p

	opts := obs.Options{Trace: kind == "trace"}
	if kind == "metrics" {
		opts.Metrics = true
		opts.Profile = true
	}
	start := time.Now()
	c, res, err := exp.RunObserved(spec, opts)
	if err != nil {
		fmt.Fprintf(stderr, "oamlab: %s: %v\n", kind, err)
		return 1
	}

	switch kind {
	case "trace":
		path := *out
		if path == "" {
			path = "trace_" + app + ".json"
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(stderr, "oamlab: trace: %v\n", err)
			return 1
		}
		werr := c.WriteTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "oamlab: trace: %v\n", werr)
			return 1
		}
		fmt.Fprintf(stderr, "[trace of %s/%v on %d nodes written to %s — open in https://ui.perfetto.dev]\n",
			app, res.System, res.Nodes, path)
	case "metrics":
		if err := c.WriteMetrics(stdout); err != nil {
			fmt.Fprintf(stderr, "oamlab: metrics: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout)
		if err := c.WriteProfile(stdout, *top); err != nil {
			fmt.Fprintf(stderr, "oamlab: metrics: %v\n", err)
			return 1
		}
	}
	eng := c.Engine()
	fmt.Fprintf(stderr, "[%s %s done in %v: %v on %d nodes ran %s of virtual time; kernel: %d events, %d dispatches, %d handoffs, %d switches, %d elided]\n",
		kind, app, time.Since(start).Round(time.Millisecond), res.System, res.Nodes, res.Elapsed,
		eng.Events(), eng.Dispatches(), eng.Handoffs(), eng.Switches(), eng.Elided())
	return 0
}
