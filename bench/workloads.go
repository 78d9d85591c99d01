package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/kv"
	"repro/internal/apps/sor"
	"repro/internal/apps/triangle"
	"repro/internal/apps/tsp"
	"repro/internal/apps/water"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// A workload is a fixed, deterministic repetition ("rep"): the same
// seed builds the same simulation and must produce the same virtual
// outcome every time. rep runs one repetition and times its own build
// and run spans; check, which the estimator calls outside every timed
// span, validates the outcome of the rep that just ran. once runs a
// single time per process, after the warm-up and before any rep is
// timed.
type workload interface {
	rep() sample
	check(s *sample) error
	once() error
}

// workloadSpec is one row of the workload table; why is echoed into
// BENCHMARK.json and checked against it by the package test.
type workloadSpec struct {
	name string
	why  string
	make func(seed int64) workload
}

var workloads = []workloadSpec{
	{"null_orpc", "2-node closed loop of null ORPC calls, idle then busy server: per-message cost of sim, cm5, am, inline oam and rpc; creates no thread per call",
		func(seed int64) workload { return newNullWorkload(seed, rpc.ORPC) }},
	{"null_trpc", "the same loop under thread-per-call RPC: thread create and context switch on every call, so a gain on the optimistic path that taxes threads shows",
		func(seed int64) workload { return newNullWorkload(seed, rpc.TRPC) }},
	{"kv_steady", "kv service at 70% of the ORPC knee on a perfect network, open loop in virtual time: stubs, reliable transport and CAS promotions with no shed or retransmit",
		func(seed int64) workload { return newKVWorkload(kvSteady(seed)) }},
	{"kv_lossy", "the same service at 0.8x that rate with 10% drops and 5% duplicates: retransmit timers, duplicate suppression, call timeouts and the dedup fence; the recovery path",
		func(seed int64) workload { return newKVWorkload(kvLossy(seed)) }},
	{"kv_multi", "read-heavy Zipf kv cell at 1.5x the steady rate on 4 simulated cores per server: multiactive admission and core assignment, which single-active workloads bypass",
		func(seed int64) workload { return newKVWorkload(kvMulti(seed)) }},
	{"apps_quick", "triangle, tsp, sor and water at reduced sizes under AM, ORPC and TRPC on 8 nodes: compute charges, bulk transfers and collectives; stands in for oamlab -quick all",
		func(seed int64) workload { return newAppsWorkload(seed) }},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// sample is what one rep reports. Wall-clock spans are host time;
// everything else is virtual and must repeat exactly from rep to rep.
type sample struct {
	start                time.Time
	build, run, shutdown time.Duration // host spans; rep wall time is their sum
	ops, ok              uint64        // operations attempted / completed OK
	simSpan              sim.Duration  // virtual time the OK operations are spread over
	lat                  []sim.Duration
	fingerprint          uint64 // folds every virtual outcome that must repeat
	n                    counts
	cells                []appCell // apps_quick only: one per app x system
	shardWindows         uint64    // sharded kv reps only
	shardBarrier         time.Duration
}

func (s *sample) wall() time.Duration { return s.build + s.run + s.shutdown }

// counts are the layers' own public Stats() after a rep.
type counts struct {
	events, handoffs uint64
	charged          sim.Duration

	packets, fullRejects uint64
	maxQueue             int

	created, switchHalves, starts, liveStarts uint64

	handlers, drainSpins uint64

	oams, oamOK, promoted, lockBusy, tooLong           uint64
	compatAdmitted, compatQueued, budgetUp, budgetDown uint64

	retries, timeouts, giveups, stale uint64

	retransmits, dupsSuppressed, acks, relGaveUp uint64

	sheds, shedGiveups, timeoutGiveups, drops, dedupHits uint64
}

// addUniverse folds in every counter reachable from a finished run's
// universe and (when the system has one) RPC runtime.
func (n *counts) addUniverse(u *am.Universe, rt *rpc.Runtime) {
	eng := u.Machine().Engine()
	n.events += eng.Events()
	n.handoffs += eng.Handoffs()
	n.charged += eng.Charged()
	net := u.Machine().Stats()
	n.packets += net.SmallSent + net.BulkSent
	n.fullRejects += net.FullRejects
	if net.MaxQueueSeen > n.maxQueue {
		n.maxQueue = net.MaxQueueSeen
	}
	for i := 0; i < u.N(); i++ {
		st := u.Scheduler(i).Stats()
		n.created += st.Created
		n.switchHalves += st.SwitchHalves
		n.starts += st.Starts
		n.liveStarts += st.LiveStackStart
	}
	as := u.Stats()
	n.handlers += as.HandlersRun
	n.drainSpins += as.DrainSpins
	if rt == nil {
		return
	}
	for _, d := range []*oam.Dispatcher{rt.Dispatcher(), rt.AsyncDispatcher()} {
		st := d.Stats()
		n.oams += st.Total
		n.oamOK += st.Succeeded
		n.promoted += st.Promoted
		n.lockBusy += st.ByReason[oam.LockBusy]
		n.tooLong += st.ByReason[oam.TooLong]
		n.compatAdmitted += st.CompatAdmitted
		n.compatQueued += st.CompatQueued
		n.budgetUp += st.BudgetRaised
		n.budgetDown += st.BudgetLowered
	}
	n.stale += rt.StaleReplies()
}

// fnvOffset starts a fingerprint; mix folds values into it (FNV-1a over
// 64-bit words, the repo's idiom for record hashes).
const fnvOffset = 14695981039346656037

func mix(h uint64, vs ...uint64) uint64 {
	for _, v := range vs {
		h ^= v
		h *= 1099511628211
	}
	return h
}

// repeatCheck remembers the first rep's fingerprint and fails any later
// rep that differs.
type repeatCheck struct {
	have  bool
	first uint64
}

func (r *repeatCheck) check(fp uint64) error {
	if !r.have {
		r.have, r.first = true, fp
		return nil
	}
	if fp != r.first {
		return fmt.Errorf("rep fingerprint %016x differs from the first rep's %016x", fp, r.first)
	}
	return nil
}

// ---- null RPC -------------------------------------------------------

const nullTrips = 2000 // calls per phase; a rep is an idle phase then a busy phase

// table1 is what the repo's Table 1 reads for a null round trip, in
// virtual microseconds at one decimal: idle server, then busy server.
var table1 = map[rpc.Mode][2]float64{rpc.ORPC: {13.6, 14.0}, rpc.TRPC: {20.6, 73.9}}

// nullWorkload is the Table 1 loop, built the way exp/micro.go:nullRPC
// builds it, once against an idle server and once against a server
// spinning in poll-and-yield. The seed only seeds the engine: a null
// RPC on a perfect network draws nothing from it.
type nullWorkload struct {
	seed          int64
	mode          rpc.Mode
	trips         int
	lat           []sim.Duration
	phaseMean     [2]float64 // virtual us per call, idle then busy
	served, calls [2]uint64
	repeat        repeatCheck
}

func newNullWorkload(seed int64, mode rpc.Mode) *nullWorkload {
	return &nullWorkload{seed: seed, mode: mode, trips: nullTrips}
}

func (w *nullWorkload) once() error { return nil }

func (w *nullWorkload) rep() sample {
	s := sample{start: time.Now()}
	w.lat = w.lat[:0]
	fp := uint64(fnvOffset)
	for phase, busy := range []bool{false, true} {
		t0 := time.Now()
		eng := sim.New(w.seed)
		u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
		rt := rpc.New(u, rpc.Options{Mode: w.mode})
		counter := uint64(0)
		inc := rt.Define("inc", func(e *oam.Env, caller int, arg []byte) []byte {
			counter++
			return nil
		})
		stop := false
		done := rt.DefineAsync("done", func(e *oam.Env, caller int, arg []byte) []byte {
			stop = true
			return nil
		})
		var total sim.Duration
		t1 := time.Now()
		elapsed, err := u.SPMD(func(c threads.Ctx, node int) {
			if node == 1 {
				if busy {
					ep := u.Endpoint(1)
					for !stop {
						ep.Poll(c)
						c.S.Yield(c)
					}
				}
				return
			}
			start := c.P.Now()
			for i := 0; i < w.trips; i++ {
				t := c.P.Now()
				inc.Call(c, 1, nil)
				w.lat = append(w.lat, c.P.Now().Sub(t))
			}
			total = c.P.Now().Sub(start)
			done.CallAsync(c, 1, nil)
		})
		t2 := time.Now()
		eng.Shutdown()
		t3 := time.Now()
		s.build += t1.Sub(t0)
		s.run += t2.Sub(t1)
		s.shutdown += t3.Sub(t2)
		if err != nil {
			counter = 0 // a deadlock fails the trip-count check
		}
		s.ops += uint64(w.trips)
		s.ok += counter
		s.simSpan += total
		s.n.addUniverse(u, rt)
		st := inc.Stats()
		s.n.retries += st.Retries
		w.served[phase], w.calls[phase] = counter, st.Calls
		w.phaseMean[phase] = us(total) / float64(w.trips)
		fp = mix(fp, counter, uint64(total), uint64(elapsed), eng.Events())
	}
	s.lat = w.lat
	s.fingerprint = fp
	return s
}

func (w *nullWorkload) check(s *sample) error {
	for phase, want := range table1[w.mode] {
		if n := uint64(w.trips); w.served[phase] != n || w.calls[phase] != n {
			return fmt.Errorf("phase %d: %d calls issued, %d served, want %d", phase, w.calls[phase], w.served[phase], n)
		}
		if got := math.Round(w.phaseMean[phase]*10) / 10; got != want {
			return fmt.Errorf("phase %d: null %v round trip reads %.1f us, Table 1 says %.1f", phase, w.mode, got, want)
		}
	}
	return w.repeat.check(s.fingerprint)
}

// ---- kv service -----------------------------------------------------

// The kv cells run a 24 ms arrival window: at 12 ms the arrival count
// (about 1400) moved goodput by 4.6% and p99 by 8% from seed to seed.
func kvBase(seed int64) kv.Config {
	return kv.Config{System: apps.ORPC, Seed: seed, Servers: 4, Clients: 48,
		Duration: sim.Micros(24000), RateX: 1}
}

func kvSteady(seed int64) kv.Config { return kvBase(seed) }

// kvLossy stays below the knee on purpose. Above it the service
// collapses at a seed-dependent moment (sheds and timeouts feed retries
// and retransmits back into the queues): at 1.5x load with 1% drops,
// ten seeds gave sim_ok_frac from 0.43 to 1.00, which no bound can
// hold. Heavy loss below the knee exercises the same recovery code —
// retransmit timers, duplicate suppression, call timeouts and the
// dedup fence — and repeats from seed to seed.
func kvLossy(seed int64) kv.Config {
	cfg := kvBase(seed)
	cfg.RateX = 0.8
	cfg.CallTimeout = sim.Micros(400)
	cfg.Fault = &cm5.FaultPlan{Seed: seed, DropProb: 0.10, DupProb: 0.05}
	return cfg
}

// kvMulti is the cores=4 cell of exp.KVMultiactiveBench at 1.5x load:
// at its 2x the median latency moved 9-12% from seed to seed.
func kvMulti(seed int64) kv.Config {
	cfg := kvBase(seed)
	cfg.RateX = 1.5
	cfg.Cores = 4
	cfg.ZipfS = 1.1
	cfg.MixGet, cfg.MixPut, cfg.MixCas = 900, 60, 40
	cfg.WorkGet = sim.Micros(8)
	cfg.HandlerBudget = sim.Micros(24)
	return cfg
}

// kvWorkload drives kv.Run and watches it only through Config.Observe
// (to learn when the simulation starts and to keep the universe for its
// counters) and Config.Probe (for exact per-request latencies).
type kvWorkload struct {
	cfg      kv.Config
	u        *am.Universe
	rt       *rpc.Runtime
	simStart time.Time
	lat      []sim.Duration
	res      apps.Result
	st       kv.Stats
	err      error
	repeat   repeatCheck
}

func newKVWorkload(cfg kv.Config) *kvWorkload {
	w := &kvWorkload{cfg: cfg}
	w.cfg.Probe = w
	w.cfg.Observe = func(u *am.Universe, rt *rpc.Runtime) {
		w.u, w.rt = u, rt
		w.simStart = time.Now()
	}
	return w
}

func (w *kvWorkload) RequestDone(t sim.Time, client int, op kv.Op, out kv.Outcome, lat sim.Duration) {
	if out != kv.OutcomeDrop { // a drop never entered the service and reports no latency
		w.lat = append(w.lat, lat)
	}
}

func (w *kvWorkload) ServerShed(t sim.Time, server, depth int) {}

func (w *kvWorkload) rep() sample { return w.runWith(w.cfg) }

func (w *kvWorkload) runWith(cfg kv.Config) sample {
	w.lat = w.lat[:0]
	s := sample{start: time.Now()}
	w.res, w.st, w.err = kv.Run(cfg)
	end := time.Now()
	s.build = w.simStart.Sub(s.start)
	s.run = end.Sub(w.simStart) // kv.Run shuts its engine down before returning
	if w.err != nil {
		return s
	}
	st := &w.st
	s.ops, s.ok = st.Arrivals, st.OK
	s.simSpan = cfg.Duration // the repo's goodput convention: OK per arrival-window millisecond
	s.lat = w.lat
	s.n.addUniverse(w.u, w.rt)
	s.n.retries, s.n.timeouts, s.n.giveups = st.Retries, st.Timeouts, st.CallGiveUps
	s.n.retransmits, s.n.dupsSuppressed = st.Rel.Retransmits, st.Rel.DupsSuppressed
	s.n.acks, s.n.relGaveUp = st.Rel.AcksSent, st.Rel.GaveUp
	s.n.sheds, s.n.shedGiveups, s.n.timeoutGiveups, s.n.drops = st.Sheds, st.ShedGiveUps, st.TimeoutGiveUps, st.Drops
	for _, ps := range st.PerServer {
		s.n.dedupHits += ps.DedupHits
	}
	s.shardWindows, s.shardBarrier = w.u.Machine().Engine().WindowStats()
	s.fingerprint = mix(w.hashes(), s.n.events)
	return s
}

// hashes folds the outcomes that must be identical at any shard count.
func (w *kvWorkload) hashes() uint64 {
	return mix(fnvOffset, w.res.Answer, w.st.RecordHash, w.st.FaultHash,
		uint64(w.res.Elapsed), w.st.Arrivals, w.st.OK, w.st.Sheds)
}

func (w *kvWorkload) check(s *sample) error {
	if w.err != nil {
		return w.err
	}
	if err := kv.CheckInvariants(&w.st); err != nil {
		return err
	}
	if uint64(len(s.lat))+w.st.Drops != w.st.Arrivals {
		return fmt.Errorf("kv: probe saw %d completions + %d drops, ledger has %d arrivals", len(s.lat), w.st.Drops, w.st.Arrivals)
	}
	return w.repeat.check(s.fingerprint)
}

// once holds the kernel's contract up against this workload: two shards,
// conservative and optimistic, must give the sequential run's hashes.
func (w *kvWorkload) once() error {
	w.rep()
	if w.err != nil {
		return w.err
	}
	want := w.hashes()
	for _, optimistic := range []bool{false, true} {
		w.sharded(optimistic)
		if w.err != nil {
			return w.err
		}
		if got := w.hashes(); got != want {
			return fmt.Errorf("kv: shards=2 optimistic=%v gives hash %016x, sequential %016x", optimistic, got, want)
		}
	}
	return nil
}

// sharded runs the rep on two shards. The latency probe is detached:
// shards call probes concurrently and it appends to one slice.
func (w *kvWorkload) sharded(optimistic bool) sample {
	cfg := w.cfg
	cfg.Shards, cfg.Optimistic, cfg.Probe = 2, optimistic, nil
	return w.runWith(cfg)
}

// ---- applications ---------------------------------------------------

// appCell is one application run of an apps_quick rep.
type appCell struct {
	app     string
	sys     apps.System
	simTime sim.Duration
	host    time.Duration
	answer  uint64
}

// appsWorkload runs the four evaluation applications at the reduced
// sizes of the root bench_test.go under each system on 8 nodes. The
// seed offsets every application's own seed, so a new seed is a new TSP
// instance and a new set of water molecules.
type appsWorkload struct {
	tri    triangle.Config
	tsp    tsp.Config
	sor    sor.Config
	water  water.Config
	runs   []appRun
	want   map[string]uint64 // sequential answers, by app
	cells  []appCell
	lat    []sim.Duration
	errs   []error
	repeat repeatCheck

	// One application run at a time: Observe marks the end of its build
	// span and hands over the universe whose counters the rep reads.
	cur   *sample
	begin time.Time
	u     *am.Universe
	rt    *rpc.Runtime
}

const appNodes = 8

type appRun struct {
	app string
	run func(apps.System) (apps.Result, error)
}

func newAppsWorkload(seed int64) *appsWorkload {
	w := &appsWorkload{
		tri:   triangle.Config{Side: 5, Empty: -1, Seed: 101 + seed},
		tsp:   tsp.Config{Cities: 9, Seed: 102 + seed},
		sor:   sor.Config{Rows: 66, Cols: 16, Iters: 30, Eps: 1e-9, Seed: 11 + seed},
		water: water.Config{Mols: 64, Iters: 5, Seed: 103 + seed},
	}
	observe := func(u *am.Universe, rt *rpc.Runtime) { w.observed(u, rt) }
	w.tri.Observe, w.tsp.Observe, w.sor.Observe, w.water.Observe = observe, observe, observe, observe
	w.runs = []appRun{
		{"triangle", func(sys apps.System) (apps.Result, error) { return triangle.Run(sys, appNodes, w.tri) }},
		{"tsp", func(sys apps.System) (apps.Result, error) { return tsp.Run(sys, appNodes, w.tsp) }},
		{"sor", func(sys apps.System) (apps.Result, error) { return sor.Run(sys, appNodes, w.sor) }},
		{"water", func(sys apps.System) (apps.Result, error) { return water.Run(sys, appNodes, false, w.water) }},
	}
	// Every rep's answers must equal the sequential solvers'.
	w.want = map[string]uint64{
		"triangle": w.tri.BoardCounts().Solutions,
		"tsp":      uint64(tsp.NewProblem(w.tsp.Cities, w.tsp.Seed).SolveSeq().Best),
		"sor":      sor.SolveSeq(w.sor).Checksum,
		"water":    water.SolveSeq(w.water).Checksum,
	}
	return w
}

func (w *appsWorkload) once() error { return nil }

func (w *appsWorkload) observed(u *am.Universe, rt *rpc.Runtime) {
	w.u, w.rt = u, rt
	now := time.Now()
	w.cur.build += now.Sub(w.begin)
	w.begin = now
}

func (w *appsWorkload) rep() sample {
	s := sample{start: time.Now()}
	w.cur = &s
	w.cells, w.lat, w.errs = w.cells[:0], w.lat[:0], w.errs[:0]
	fp := uint64(fnvOffset)
	for _, r := range w.runs {
		for _, sys := range apps.Systems {
			t0 := time.Now()
			w.begin = t0
			res, err := r.run(sys)
			end := time.Now()
			s.run += end.Sub(w.begin)
			s.ops++
			if err != nil {
				w.errs = append(w.errs, fmt.Errorf("%s/%v: %w", r.app, sys, err))
				continue
			}
			s.ok++
			s.simSpan += res.Elapsed
			s.n.addUniverse(w.u, w.rt)
			w.lat = append(w.lat, res.Elapsed)
			w.cells = append(w.cells, appCell{app: r.app, sys: sys, simTime: res.Elapsed, host: end.Sub(t0), answer: res.Answer})
			fp = mix(fp, res.Answer, uint64(res.Elapsed), res.OAMs, res.Successes)
		}
	}
	s.lat, s.cells = w.lat, w.cells
	s.fingerprint = mix(fp, s.n.events)
	return s
}

func (w *appsWorkload) check(s *sample) error {
	if len(w.errs) > 0 {
		return w.errs[0]
	}
	for _, c := range s.cells {
		if c.answer != w.want[c.app] {
			return fmt.Errorf("%s/%v: answer %x, sequential solver says %x", c.app, c.sys, c.answer, w.want[c.app])
		}
	}
	return w.repeat.check(s.fingerprint)
}
