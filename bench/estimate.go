package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/sim"
)

// plan sizes one measurement. The estimator runs reps back to back from
// one goroutine: an untimed warm-up, then a timed window in which every
// host-time metric is taken from the fast decile of per-rep wall time,
// never from total elapsed (see README, "Estimator").
type plan struct {
	warm  time.Duration
	timed time.Duration
	reps  int     // when > 0, time exactly this many reps instead of a window
	trace *tracer // nil when not tracing
}

// measured is a finished measurement of one workload.
type measured struct {
	first     sample // the first timed rep: every virtual statistic comes from it
	lat       []sim.Duration
	walls     []float64   // per-rep wall ns of untraced timed reps
	builds    []float64   // per-rep build-span ns
	traced    []float64   // per-rep wall ns of reps whose spans were recorded
	checks    []float64   // per-rep ns spent in the correctness check
	cellHost  [][]float64 // apps_quick: per-rep host ns of each application run
	reps      int
	failed    int // reps that failed a correctness check
	ops       uint64
	mallocs   uint64
	bytes     uint64
	coldRep   time.Duration // the very first rep of the process
	firstFail error
}

// quantile returns the q-quantile of v by nearest rank. v is sorted in
// place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

func measure(w workload, p plan) (*measured, error) {
	m := &measured{}
	root := p.trace.begin("workload", time.Now(), 0)
	var m0, m1 runtime.MemStats
	one := func(timed bool) {
		// The collector runs between reps, outside every timed span, so
		// each rep starts from the same heap.
		runtime.GC()
		record := timed && p.trace != nil && m.reps%2 == 1
		runtime.ReadMemStats(&m0)
		s := w.rep()
		runtime.ReadMemStats(&m1)
		checkStart := time.Now()
		err := w.check(&s)
		checkEnd := time.Now()
		if m.coldRep == 0 {
			m.coldRep = s.wall()
		}
		if err != nil && m.firstFail == nil {
			m.firstFail = err
		}
		if !timed {
			return
		}
		if m.reps == 0 {
			m.first = s
			m.lat = append([]sim.Duration(nil), s.lat...)
			m.first.lat, m.first.cells = nil, append([]appCell(nil), s.cells...)
		}
		m.reps++
		m.ops += s.ops
		if err != nil {
			m.failed++
		}
		m.mallocs += m1.Mallocs - m0.Mallocs
		m.bytes += m1.TotalAlloc - m0.TotalAlloc
		m.builds = append(m.builds, float64(s.build))
		m.checks = append(m.checks, float64(checkEnd.Sub(checkStart)))
		if m.cellHost == nil {
			m.cellHost = make([][]float64, len(s.cells))
		}
		for i, c := range s.cells {
			m.cellHost[i] = append(m.cellHost[i], float64(c.host))
		}
		if record {
			m.traced = append(m.traced, float64(s.wall()))
			rep := p.trace.span("rep", s.start, checkEnd.Sub(s.start), root)
			p.trace.span("build", s.start, s.build, rep)
			p.trace.span("run", s.start.Add(s.build), s.run, rep)
			if s.shutdown > 0 {
				p.trace.span("shutdown", s.start.Add(s.build+s.run), s.shutdown, rep)
			}
			p.trace.span("check", checkStart, checkEnd.Sub(checkStart), rep)
		} else {
			m.walls = append(m.walls, float64(s.wall()))
		}
	}
	for start := time.Now(); time.Since(start) < p.warm; {
		one(false)
	}
	if err := w.once(); err != nil {
		return nil, fmt.Errorf("once-per-process check: %w", err)
	}
	for start := time.Now(); m.reps < p.reps || p.reps == 0 && (m.reps == 0 || time.Since(start) < p.timed); {
		one(true)
	}
	p.trace.end(root, time.Now())
	return m, nil
}
