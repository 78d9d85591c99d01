package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	pinHost(io.Discard) // the same host configuration the command measures under
	os.Exit(m.Run())
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclared holds BENCHMARK.json and the tables in this package to
// each other: every name the command can emit is declared, with the
// same unit, direction and bound.
func TestDeclared(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := b.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.name)
		}
	}
	same := func(kind string, declared []jsonMetric, specs []metricSpec, bounded bool) {
		if len(declared) != len(specs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(declared), len(specs))
		}
		seen := map[string]bool{}
		for i, s := range specs {
			d := declared[i]
			if d.Name != s.name || d.Unit != s.unit || d.Better != s.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the command %+v", kind, i, d, s)
			}
			if bounded != (d.Bound != nil) || bounded && *d.Bound != s.bound {
				t.Errorf("%s %s: bound mismatch", kind, s.name)
			}
			if bounded && (s.bound <= 0 || s.bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, s.name, s.bound)
			}
			if !nameRE.MatchString(s.name) || !unitRE.MatchString(s.unit) || seen[s.name] {
				t.Errorf("%s %s: bad or repeated name, or bad unit %q", kind, s.name, s.unit)
			}
			if s.better != "lower" && s.better != "higher" {
				t.Errorf("%s %s: better is %q", kind, s.name, s.better)
			}
			seen[s.name] = true
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Error("the first end-to-end metric must be setup_s, in s, lower is better")
	}
	for _, s := range endToEnd[1:] {
		if s.bound > endToEnd[0].bound {
			t.Errorf("%s has a larger bound than setup_s", s.name)
		}
	}
}

// exact lists the end-to-end metrics that are simulated statistics or
// counts: they must repeat bit for bit at a fixed seed.
var exact = map[string]bool{
	"sim_lat_p50_us": true, "sim_lat_p99_us": true, "sim_goodput_per_ms": true,
	"sim_ok_frac": true, "sim_threads_per_op": true, "oam_success_pct": true,
}

// TestWorkloads takes every workload through the command's own code
// path, two reps and then one more from a fresh start: each rep passes
// its checks (the second must reproduce the first), every end-to-end
// metric is reported and never zero, and the simulated statistics of
// the two measurements are identical.
func TestWorkloads(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			var runs [2][]metricValue
			for i := range runs {
				m, err := measure(spec.make(17), plan{reps: 2 - i})
				if err != nil {
					t.Fatal(err)
				}
				if m.firstFail != nil || m.failed != 0 {
					t.Fatalf("%d reps failed their checks: %v", m.failed, m.firstFail)
				}
				if m.reps != 2-i {
					t.Fatalf("%d timed reps, want %d", m.reps, 2-i)
				}
				runs[i] = endToEndValues(m)
			}
			if len(runs[0]) != len(endToEnd) {
				t.Fatalf("%d end-to-end metrics reported, %d declared", len(runs[0]), len(endToEnd))
			}
			for i, v := range runs[0] {
				if v.name != endToEnd[i].name || v.unit != endToEnd[i].unit {
					t.Errorf("metric %d is %s [%s], declared %s [%s]", i, v.name, v.unit, endToEnd[i].name, endToEnd[i].unit)
				}
				if v.value <= 0 || math.IsNaN(v.value) || math.IsInf(v.value, 0) {
					t.Errorf("%s = %v: end-to-end metrics are never zero", v.name, v.value)
				}
				if exact[v.name] && v.value != runs[1][i].value {
					t.Errorf("%s = %v then %v: simulated statistics must repeat exactly", v.name, v.value, runs[1][i].value)
				}
			}
		})
	}
}

// TestTable1 pins what the null workloads read at the default seed.
func TestTable1(t *testing.T) {
	for name, want := range map[string][3]float64{
		"null_orpc": {13.6, 14.0, 4.0 / 4000}, // two SPMD mains per phase, no thread per call
		"null_trpc": {20.6, 73.9, 1 + 6.0/4000},
	} {
		spec, _ := findWorkload(name)
		m, err := measure(spec.make(17), plan{reps: 1})
		if err != nil || m.firstFail != nil {
			t.Fatal(name, err, m.firstFail)
		}
		got := map[string]float64{}
		for _, v := range endToEndValues(m) {
			got[v.name] = v.value
		}
		if got["sim_lat_p50_us"] != want[0] || got["sim_lat_p99_us"] != want[1] {
			t.Errorf("%s reads %v / %v us, want %v / %v", name, got["sim_lat_p50_us"], got["sim_lat_p99_us"], want[0], want[1])
		}
		if math.Abs(got["sim_threads_per_op"]-want[2]) > 1e-12 {
			t.Errorf("%s creates %v threads per op, want %v", name, got["sim_threads_per_op"], want[2])
		}
	}
}

// TestTraced runs a traced measurement end to end: every declared
// per-layer metric comes out, the ladder is monotone and telescopes to
// the ORPC call with no residual, and the trace file loads.
func TestTraced(t *testing.T) {
	spec, _ := findWorkload("kv_multi")
	tr := newTracer()
	wl := spec.make(17)
	m, err := measure(wl, plan{reps: 2, trace: tr})
	if err != nil || m.firstFail != nil {
		t.Fatal(err, m.firstFail)
	}
	x := extras{ladder: runLadder(0, 2, tr)}
	x.measureSharded(wl.(*kvWorkload), m, tr)
	got := map[string]float64{}
	for i, v := range perLayerValues(m, &x) {
		if v.name != perLayer[i].name || v.unit != perLayer[i].unit {
			t.Errorf("metric %d is %s [%s], declared %s [%s]", i, v.name, v.unit, perLayer[i].name, perLayer[i].unit)
		}
		if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			t.Errorf("%s = %v", v.name, v.value)
		}
		got[v.name] = v.value
	}
	if got["oam.compat_admitted"] == 0 {
		t.Error("kv_multi admitted nothing through the compatibility matrix")
	}
	if got["sim.shard2_windows"] == 0 || got["sim.shard2_conservative_ratio"] == 0 {
		t.Error("the sharded reps reported no windows")
	}

	// Host times are noisy at two batches, so monotonicity is asserted
	// on what repeats exactly: the kernel events one round trip costs.
	l := x.ladder
	var sum float64
	for i, r := range chain {
		if l.ns[r] <= 0 {
			t.Errorf("rung %s took %v ns", r, l.ns[r])
		}
		if i > 0 && l.events[r] < l.events[chain[i-1]] {
			t.Errorf("rung %s costs %v events per trip, fewer than %s beneath it (%v)", r, l.events[r], chain[i-1], l.events[chain[i-1]])
		}
		sum += l.self(r)
	}
	if top := got["rpc.ns_per_call_orpc"]; math.Abs(sum-top) > 1e-6*top {
		t.Errorf("ladder self times sum to %v, rpc.ns_per_call_orpc is %v", sum, top)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range file.TraceEvents {
		names[ev.Name] = true
		if ev.Ph != "X" || ev.Dur < 0 || ev.Args.Parent < 0 || ev.Args.Parent >= ev.Args.ID {
			t.Fatalf("bad span %+v", ev)
		}
	}
	for _, want := range []string{"workload", "rep", "build", "run", "check", "ladder", "rpc"} {
		if !names[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}
