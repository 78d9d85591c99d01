// Command bench is the repository's benchmark: six deterministic
// workloads measured on two clocks. Host time is taken from the fast
// decile of per-rep wall time at GOMAXPROCS=1; simulated statistics
// repeat exactly at a fixed seed. See README.md in this directory.
//
//	go run ./bench                        all workloads, one process each
//	go run ./bench -workload kv_steady    one workload, end-to-end metrics
//	go run ./bench -workload kv_steady -trace 1   its per-layer metrics and a trace file
//	go run ./bench -aa                    run everything twice and compare
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// warmup is the untimed lead-in of every measurement: a process started
// right after a build ran up to twice as slow for its first second.
const warmup = 2 * time.Second

// result is the last line a workload run prints: the contract's JSON.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run in this process (default: all, one child process each)")
	seed := fs.Int64("seed", 17, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 16, "length of the timed window")
	trace := fs.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics and .bench_out/trace-<workload>.json; other: per-layer metrics and a trace at that path")
	aa := fs.Bool("aa", false, "run each workload twice in fresh processes and fail if an end-to-end metric moves by more than its bound")
	fs.Parse(os.Args[1:])
	if fs.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}

	var specs []workloadSpec
	if *name == "" {
		specs = workloads
	} else if spec, ok := findWorkload(*name); ok {
		specs = []workloadSpec{spec}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	args := []string{"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds)}

	switch {
	case *aa:
		os.Exit(selfCheck(specs, args))
	case *name == "":
		os.Exit(runAll(specs, append(args, "-trace", *trace)))
	}

	pinHost(os.Stdout)
	res, err := runWorkload(specs[0], *seed, time.Duration(*seconds)*time.Second, *trace, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// pinHost forces the one configuration the numbers are valid for and
// prints the host fingerprint. The simulation kernel is one logical
// thread handing off between goroutines; a second P only adds
// cross-thread wake-ups (kv rep 19 ms at 1 P, 26 ms at 2 P on the host
// that sized this benchmark).
func pinHost(w io.Writer) {
	runtime.GOMAXPROCS(1)
	if got := runtime.GOMAXPROCS(0); got != 1 {
		fatal(fmt.Errorf("cannot pin GOMAXPROCS to 1 (runtime reports %d)", got))
	}
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	fmt.Fprintf(w, "# host: %s %s/%s num_cpu=%d GOMAXPROCS=1 (forced) GOGC=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), gogc)
}

// runWorkload measures one workload in this process and prints every
// metric by name. With tracing off it reports the end-to-end metrics;
// with tracing on, the per-layer metrics and a trace file.
func runWorkload(spec workloadSpec, seed int64, timed time.Duration, trace string, w io.Writer) (*result, error) {
	fmt.Fprintf(w, "# workload %s seed=%d: %s\n", spec.name, seed, spec.why)
	var values []metricValue
	var m *measured
	var err error
	if trace == "0" {
		if m, err = measure(spec.make(seed), plan{warm: warmup, timed: timed}); err != nil {
			return nil, err
		}
		values = endToEndValues(m)
	} else {
		path := trace
		if trace == "1" {
			path = ".bench_out/trace-" + spec.name + ".json"
		}
		tr := newTracer()
		wl := spec.make(seed)
		// A quarter of the window repeats the workload for its counters
		// and spans; half of it climbs the ladder.
		if m, err = measure(wl, plan{warm: warmup, timed: timed / 4, trace: tr}); err != nil {
			return nil, err
		}
		x := extras{ladder: runLadder(timed/2, 3, tr)}
		if kvw, ok := wl.(*kvWorkload); ok {
			x.measureSharded(kvw, m, tr)
		}
		values = perLayerValues(m, &x)
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(w, "# trace: %d spans in %s\n", len(tr.events), path)
	}
	res := &result{
		Correct:   m.firstFail == nil,
		Attempted: m.ops,
		Failed:    uint64(m.failed) * m.first.ops,
		Metrics:   map[string]jsonValue{},
	}
	if m.firstFail != nil {
		fmt.Fprintf(w, "# FAILED correctness check: %v\n", m.firstFail)
	}
	printed := values
	if trace == "0" {
		printed = append(printed, noiseReport(m)...)
	}
	for _, v := range printed {
		fmt.Fprintf(w, "%-34s %20.6f %-9s reps=%d\n", v.name, v.value, v.unit, m.reps)
	}
	for _, v := range values {
		if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", v.name, v.value)
		}
		res.Metrics[v.name] = jsonValue{v.value, v.unit}
	}
	return res, nil
}

// child runs this program again with args and returns what it printed
// and the result on its last line.
func child(args []string, echo io.Writer) ([]byte, *result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.MultiWriter(&out, echo)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // Run waits for the child to end
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return nil, nil, runErr
		}
		return nil, nil, fmt.Errorf("child printed no result: %w", err)
	}
	return out.Bytes(), &res, nil
}

// runAll runs every workload in a process of its own, so that none
// inherits another's heap, and closes with one result over all of them;
// its metrics are named <workload>/<metric>.
func runAll(specs []workloadSpec, args []string) int {
	all := result{Correct: true, Metrics: map[string]jsonValue{}}
	for _, spec := range specs {
		_, res, err := child(append([]string{"-workload", spec.name}, args...), os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", spec.name, err)
			return 2
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, v := range res.Metrics {
			all.Metrics[spec.name+"/"+name] = v
		}
	}
	line, _ := json.Marshal(all)
	fmt.Printf("%s\n", line)
	if !all.Correct {
		return 1
	}
	return 0
}

// selfCheck is the A/A test: identical code, two fresh processes per
// workload. It prints both columns beside bench.rep_spread_pct and
// fails, naming the metric, when one moves by more than its bound.
func selfCheck(specs []workloadSpec, args []string) int {
	bad := 0
	for _, spec := range specs {
		var runs [2]*result
		var spread [2]float64
		for i := range runs {
			out, res, err := child(append([]string{"-workload", spec.name, "-trace", "0"}, args...), io.Discard)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", spec.name, err)
				return 2
			}
			if !res.Correct {
				fmt.Printf("FAIL %s: run %d failed its correctness checks\n", spec.name, i+1)
				bad++
			}
			runs[i], spread[i] = res, printedValue(out, "bench.rep_spread_pct")
		}
		fmt.Printf("%s (bench.rep_spread_pct %.2f / %.2f)\n", spec.name, spread[0], spread[1])
		for _, ms := range endToEnd {
			a, b := runs[0].Metrics[ms.name].Value, runs[1].Metrics[ms.name].Value
			diff := math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
			verdict := "ok"
			if diff > ms.bound {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("  %-4s %-22s %18.6f %18.6f %-9s differ %.2f%% (bound %.0f%%)\n",
				verdict, ms.name, a, b, ms.unit, 100*diff, 100*ms.bound)
		}
	}
	if bad > 0 {
		fmt.Printf("A/A check FAILED: %d metric(s) outside their bounds\n", bad)
		return 1
	}
	fmt.Println("A/A check passed")
	return 0
}

// printedValue finds a metric among the lines a workload run printed.
func printedValue(out []byte, name string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		var v float64
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == name {
			fmt.Sscan(f[1], &v)
			return v
		}
	}
	return math.NaN()
}
