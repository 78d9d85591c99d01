package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeTable1 golden-checks the header of a cheap experiment.
func TestSmokeTable1(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-quick", "table1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "Table 1") {
		t.Errorf("missing table title:\n%s", got)
	}
	if !strings.Contains(errb.String(), "[table1 done in ") {
		t.Errorf("missing completion line:\n%s", errb.String())
	}
}

// TestSmokeCSV: CSV mode emits a comma-joined header row.
func TestSmokeCSV(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-quick", "-csv", "abortcost"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Case,Cost (us)") {
		t.Errorf("missing CSV header:\n%s", out.String())
	}
}

// TestSmokeProfiles: -cpuprofile and -memprofile write non-empty pprof
// files covering the run.
func TestSmokeProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errb bytes.Buffer
	code := realMain([]string{"-quick", "-cpuprofile", cpu, "-memprofile", mem, "table1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

// TestSmokeProfileBadPath: an unwritable profile path fails cleanly.
func TestSmokeProfileBadPath(t *testing.T) {
	var out, errb bytes.Buffer
	code := realMain([]string{"-quick", "-cpuprofile", t.TempDir() + "/no/such/dir/cpu.pprof", "table1"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "cpuprofile") {
		t.Errorf("missing diagnostic:\n%s", errb.String())
	}
}

// TestSmokeUnknownExperiment: bad names exit 2 without output.
func TestSmokeUnknownExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown experiment "nosuch"`) {
		t.Errorf("missing diagnostic:\n%s", errb.String())
	}
}

// TestBenchCommandGone: the host-performance report moved to `go run
// ./bench` and `go test -bench`; its subcommand is an unknown experiment
// (the listing it gets back is generated from the command table) and its
// -benchout flag an unknown flag.
func TestBenchCommandGone(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-quick", "bench"}, &out, &errb); code != 2 {
		t.Fatalf("bench: exit %d, want 2; stderr:\n%s", code, errb.String())
	}
	diag := errb.String()
	if !strings.Contains(diag, `unknown experiment "bench"`) {
		t.Errorf("missing diagnostic:\n%s", diag)
	}
	for _, c := range commands {
		if !strings.Contains(diag, c.name) {
			t.Errorf("diagnostic does not list subcommand %q:\n%s", c.name, diag)
		}
	}
	errb.Reset()
	if code := realMain([]string{"-benchout", "x.json", "table1"}, &out, &errb); code != 2 {
		t.Fatalf("-benchout: exit %d, want 2; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "flag provided but not defined: -benchout") {
		t.Errorf("missing diagnostic:\n%s", errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("rejected invocations wrote to stdout:\n%s", out.String())
	}
}

// TestUnknownListsSubcommands: the unknown-name diagnostic names every
// registered subcommand (including trace and metrics) so a typo is
// self-correcting.
func TestUnknownListsSubcommands(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	diag := errb.String()
	for _, name := range subcommands {
		if !strings.Contains(diag, name) {
			t.Errorf("diagnostic does not list subcommand %q:\n%s", name, diag)
		}
	}
}

// TestSmokeKV runs the key-value service grid at quick scale and
// golden-checks the table header and that every system shows up.
func TestSmokeKV(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-quick", "kv"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{"KV service under open-loop load", "steady", "lossy", "AM", "ORPC", "TRPC", "p999(us)"} {
		if !strings.Contains(got, want) {
			t.Errorf("kv output missing %q:\n%s", want, got)
		}
	}
	if !strings.Contains(errb.String(), "[kv done in ") {
		t.Errorf("missing completion line:\n%s", errb.String())
	}
}

// TestCommandTable: the subcommand table is internally consistent —
// groups are non-empty and expand to runnable members, every
// non-group, non-observed entry has a runner, and names are unique.
func TestCommandTable(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range commands {
		if seen[c.name] {
			t.Errorf("duplicate subcommand %q", c.name)
		}
		seen[c.name] = true
		if c.about == "" {
			t.Errorf("subcommand %q has no description", c.name)
		}
		isGroup := c.name == "all" || c.name == "micro"
		isObserved := c.name == "trace" || c.name == "metrics"
		if (c.run == nil) != (isGroup || isObserved) {
			t.Errorf("subcommand %q: runner/group mismatch", c.name)
		}
	}
	for _, g := range []string{"all", "micro"} {
		members := group(g)
		if len(members) == 0 {
			t.Fatalf("group %q is empty", g)
		}
		for _, m := range members {
			if m.run == nil {
				t.Errorf("group %q contains non-runnable %q", g, m.name)
			}
		}
	}
	for _, name := range []string{"kv", "kvmulti"} {
		c := findCommand(name)
		if c == nil || c.run == nil {
			t.Fatalf("subcommand %q not registered", name)
		}
		if !c.all {
			t.Errorf("subcommand %q not in the all group", name)
		}
	}
}

// TestUsageListsSubcommands: -help usage is generated from the command
// table, so it names every subcommand with its description.
func TestUsageListsSubcommands(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-help"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	usage := errb.String()
	for _, c := range commands {
		if !strings.Contains(usage, c.name) || !strings.Contains(usage, c.about) {
			t.Errorf("usage does not describe subcommand %q:\n%s", c.name, usage)
		}
	}
}

// TestSmokeTrace: the trace subcommand writes a valid Chrome trace-event
// JSON file with events for every node.
func TestSmokeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out, errb bytes.Buffer
	code := realMain([]string{"-quick", "trace", "tsp", "-p", "4", "-o", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	if !strings.Contains(errb.String(), "perfetto") {
		t.Errorf("missing Perfetto pointer:\n%s", errb.String())
	}
}

// TestSmokeMetrics: the metrics subcommand prints the instrument
// registry and the virtual-time profile, and on stderr, away from what the
// goldens compare, what the run cost the kernel.
func TestSmokeMetrics(t *testing.T) {
	var out, errb bytes.Buffer
	code := realMain([]string{"-quick", "metrics", "triangle", "-p", "4"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{"counter am/handlers_run", "gauge", "hist", "virtual CPU profile:"} {
		if !strings.Contains(got, want) {
			t.Errorf("metrics output missing %q:\n%s", want, got)
		}
	}
	var ev, d, h, sw, el uint64
	if i := strings.Index(errb.String(), "kernel: "); i < 0 {
		t.Errorf("no kernel counts on the closing line:\n%s", errb.String())
	} else if _, err := fmt.Sscanf(errb.String()[i:], "kernel: %d events, %d dispatches, %d handoffs, %d switches, %d elided]", &ev, &d, &h, &sw, &el); err != nil || !(ev >= d && d > h && h > 0 && sw >= h) || strings.Contains(got, "kernel:") {
		t.Errorf("kernel counts %d %d %d %d %d (%v) implausible, or on stdout:\n%s", ev, d, h, sw, el, err, errb.String())
	}
}

// TestObserveBadApp: trace with a bogus app fails with a diagnostic.
func TestObserveBadApp(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"trace", "nosuch"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), `unknown app "nosuch"`) {
		t.Errorf("missing diagnostic:\n%s", errb.String())
	}
}

// TestObserveRejectsShards: an engine flag that cannot take effect is a
// usage error naming the flag — not a silent sequential run. trace and
// metrics cannot run sharded yet, so they reject -shards N; -optimistic
// only sizes a sharded engine's commit spans, so it needs -shards to
// resolve parallel (-shards -1 does, per host).
func TestObserveRejectsShards(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-shards", []string{"-quick", "-shards", "2", "trace", "tsp"}},
		{"-shards", []string{"-quick", "-shards", "-1", "-optimistic", "metrics", "tsp"}},
		{"-optimistic", []string{"-quick", "-optimistic", "table1"}},
		{"-optimistic", []string{"-quick", "-shards", "1", "-optimistic", "kv"}},
		{"-optimistic", []string{"-quick", "-optimistic", "trace", "tsp"}},
	} {
		var out, errb bytes.Buffer
		if code := realMain(c.args, &out, &errb); code != 2 {
			t.Fatalf("%v: exit %d, want 2; stderr:\n%s", c.args, code, errb.String())
		}
		if !strings.Contains(errb.String(), c.flag) {
			t.Errorf("%v: diagnostic does not name %s:\n%s", c.args, c.flag, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote to stdout:\n%s", c.args, out.String())
		}
	}
}

// TestSmokeChaos runs the fault-injection sweep at quick scale and
// golden-checks both tables' headers and that every row validated.
func TestSmokeChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep simulates several lossy runs")
	}
	var out, errb bytes.Buffer
	if code := realMain([]string{"-quick", "chaos"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"Chaos sweep",
		"Drop%  Crashes",
		"Retx",
		"GaveUp",
		"Per-node fault and recovery counters",
		"(crashed)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("chaos output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "NO") {
		t.Errorf("a chaos row failed validation:\n%s", got)
	}
}

// TestMaxPFloor: -maxp truncates the sweeps, not the chaos experiment's
// one fixed machine — whose crash, partition and flap rows remove the
// last tsp slave and need a second to finish. Below that floor the whole
// suite still exits 0 and the chaos table says the flag was overridden;
// at the floor nothing is said and the output is the pinned one.
func TestMaxPFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite twice")
	}
	for _, maxp := range []string{"1", "2"} {
		var out, errb bytes.Buffer
		if code := realMain([]string{"-quick", "-maxp", maxp, "all"}, &out, &errb); code != 0 {
			t.Fatalf("-maxp %s all: exit %d, stderr:\n%s", maxp, code, errb.String())
		}
		if want := "note: -maxp " + maxp + " is below this sweep's floor: tsp ran on 2 slaves"; !strings.Contains(out.String(), want) {
			t.Errorf("-maxp %s all: chaos table lacks %q", maxp, want)
		}
	}
	var out, errb bytes.Buffer
	if code := realMain([]string{"-quick", "-maxp", "3", "chaos"}, &out, &errb); code != 0 {
		t.Fatalf("-maxp 3 chaos: exit %d, stderr:\n%s", code, errb.String())
	}
	const want = "2ece5cfc36f6e6ddcd233a4b86f4c0fc8031cf5dd240dbd643cfe42e72dd4e4b"
	if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != want {
		t.Errorf("-maxp 3 chaos: stdout sha256 %s, want %s:\n%s", got, want, out.String())
	}
}

// TestTable2FromFig2: table2 is a view of Figure 2's rows — asked for
// after fig2 it reuses them, alone it runs the sweep itself, and both
// print the same table.
func TestTable2FromFig2(t *testing.T) {
	run := func(args ...string) string {
		var out, errb bytes.Buffer
		if code := realMain(append([]string{"-quick"}, args...), &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", args, code, errb.String())
		}
		return out.String()
	}
	if both, want := run("fig2", "table2"), run("fig2")+run("table2"); both != want {
		t.Errorf("fig2 table2 printed:\n%s\nwant fig2 then table2:\n%s", both, want)
	}
}
