package exp

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/kv"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// kvLatBounds are the SLO buckets the sweep's latency probe uses —
// quantiles resolve to bucket upper bounds, so these are the service's
// reportable SLO levels.
var kvLatBounds = []sim.Duration{
	sim.Micros(10), sim.Micros(30), sim.Micros(100), sim.Micros(300),
	sim.Micros(1000), sim.Micros(3000), sim.Micros(10000), sim.Micros(30000),
	sim.Micros(100000),
}

// kvLatProbe feeds request latencies into a pre-materialized histogram.
// Materialize matters: clients observe from their own engine shards
// concurrently, so the per-node rows must exist before the run starts.
type kvLatProbe struct {
	h *obs.Histogram
}

func newKVLatProbe(nodes int) *kvLatProbe {
	r := obs.NewRegistry(nodes)
	h := r.NewHistogram("kv/latency", kvLatBounds...)
	h.Materialize()
	return &kvLatProbe{h: h}
}

func (p *kvLatProbe) RequestDone(t sim.Time, client int, op kv.Op, out kv.Outcome, lat sim.Duration) {
	if out != kv.OutcomeDrop {
		p.h.Observe(client, lat)
	}
}

func (p *kvLatProbe) ServerShed(t sim.Time, server, depth int) {}

// KVRow is one cell of the service grid: one communication system under
// one load scenario, with its invariants replay-checked and its SLO
// quantiles read from the latency histogram. Offered and Goodput are in
// requests per virtual millisecond; the gap between them is what the
// saturated service sheds, drops, or times out.
type KVRow struct {
	Scenario string
	System   apps.System
	RateX    float64

	Arrivals       uint64
	OK             uint64
	Drops          uint64
	ShedGiveUps    uint64
	TimeoutGiveUps uint64
	Sheds          uint64 // server-side admission rejections (pre-give-up)
	Promoted       uint64 // optimistic dispatches promoted to threads
	Threads        uint64 // threads created machine-wide

	Offered float64 // arrivals per virtual ms
	Goodput float64 // completed requests per virtual ms

	P50, P99, P999 sim.Duration

	RecHash   uint64 // lease event-record hash; shard-count invariant
	FaultHash uint64 // fault-trace hash; 0 for clean cells
}

// kvScenario is one named load shape of the grid.
type kvScenario struct {
	name  string
	rateX float64
	shape func(*kv.Config)
}

// kvCell runs one configuration, checks its invariants, and reduces it
// to a row.
func kvCell(ro apps.RunOptions, scenario string, sys apps.System, rateX float64, shape func(*kv.Config), clients int, dur sim.Duration) (KVRow, error) {
	cfg := kv.Config{
		System:     sys,
		Seed:       17,
		Clients:    clients,
		Duration:   dur,
		RateX:      rateX,
		RunOptions: ro,
	}
	if shape != nil {
		shape(&cfg)
	}
	probe := newKVLatProbe(cfg.Servers + clients)
	cfg.Probe = probe
	res, st, err := kv.Run(cfg)
	if err != nil {
		return KVRow{}, fmt.Errorf("kv %s/%v: %w", scenario, sys, err)
	}
	if err := kv.CheckInvariants(&st); err != nil {
		return KVRow{}, fmt.Errorf("kv %s/%v: %w", scenario, sys, err)
	}
	ms := float64(cfg.Duration) / float64(sim.Millisecond)
	p50, p99, p999 := probe.h.Percentiles()
	row := KVRow{
		Scenario: scenario, System: sys, RateX: rateX,
		Arrivals: st.Arrivals, OK: st.OK, Drops: st.Drops,
		ShedGiveUps: st.ShedGiveUps, TimeoutGiveUps: st.TimeoutGiveUps,
		Sheds: st.Sheds, Promoted: st.Promoted, Threads: res.ThreadsCreated,
		Offered: float64(st.Arrivals) / ms,
		Goodput: float64(st.OK) / ms,
		P50:     p50, P99: p99, P999: p999,
		RecHash: st.RecordHash,
	}
	if cfg.Fault != nil {
		row.FaultHash = st.FaultHash
	}
	return row, nil
}

// kvDefaultServers mirrors kv.Config's default partition count; the
// probe needs the node count before withDefaults runs.
func kvShape(mutate func(*kv.Config)) func(*kv.Config) {
	return func(cfg *kv.Config) {
		if cfg.Servers == 0 {
			cfg.Servers = 4
		}
		if mutate != nil {
			mutate(cfg)
		}
	}
}

// KV sweeps the service grid: every communication system through the
// saturation knee on steady uniform load, then through the shaped
// scenarios — bursty, diurnal, Zipf-skewed, lossy network, and (at full
// scale) a wide fleet of mostly-idle clients. Every cell's event record
// and client ledgers pass kv.CheckInvariants or the sweep fails.
func KV(scale Scale) ([]KVRow, error) {
	clients, dur := 48, sim.Duration(sim.Micros(12000))
	mults := []float64{0.25, 0.5, 1, 1.5, 2, 3}
	if scale.Quick {
		clients, dur = 32, sim.Duration(sim.Micros(8000))
		mults = []float64{0.5, 2}
	}
	type cell struct {
		sc  kvScenario
		sys apps.System
	}
	var cells []cell
	for _, m := range mults {
		sc := kvScenario{name: "steady", rateX: m, shape: kvShape(nil)}
		for _, sys := range apps.Systems {
			cells = append(cells, cell{sc, sys})
		}
	}
	shaped := []kvScenario{
		{"bursty", 1.5, kvShape(func(c *kv.Config) { c.Mode = kv.Bursty })},
		{"diurnal", 1.5, kvShape(func(c *kv.Config) { c.Mode = kv.Diurnal })},
		{"zipf", 1.5, kvShape(func(c *kv.Config) { c.ZipfS = 1.1 })},
		{"lossy", 1, kvShape(func(c *kv.Config) {
			c.Fault = &cm5.FaultPlan{Seed: 42, DropProb: 0.01, DupProb: 0.005}
		})},
	}
	if scale.Quick {
		shaped = shaped[3:] // keep the lossy cell: it exercises dedup + FaultHash
	}
	if !scale.Quick {
		// The fleet scenario: 16x the clients at 1/16 the per-client rate
		// — the same aggregate load spread over a wide, mostly-idle fleet.
		shaped = append(shaped, kvScenario{"fleet", 1, kvShape(func(c *kv.Config) {
			c.Clients = 768
			c.MeanIAT = sim.Micros(6400)
		})})
	}
	for _, sc := range shaped {
		for _, sys := range apps.Systems {
			cells = append(cells, cell{sc, sys})
		}
	}

	rows := make([]KVRow, len(cells))
	err := scale.forEach(len(cells), func(i int) error {
		cl := cells[i]
		nClients, nDur := clients, dur
		// Scenario shapes may override Clients; pre-apply to size the probe.
		tmp := kv.Config{Clients: clients}
		cl.sc.shape(&tmp)
		if tmp.Clients != clients {
			nClients = tmp.Clients
		}
		row, err := kvCell(scale.Run, cl.sc.name, cl.sys, cl.sc.rateX, cl.sc.shape, nClients, nDur)
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// KVTable formats the service grid.
func KVTable(scale Scale) (*Table, error) {
	rows, err := KV(scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "KV service under open-loop load: offered vs goodput through the saturation knee, SLO latency, exact shed accounting",
		Columns: []string{"Scenario", "Sys", "RateX", "Arrivals", "OK", "Drop", "ShedGU", "TimeGU",
			"Sheds", "Promoted", "Threads", "Off(/ms)", "Good(/ms)",
			"p50(us)", "p99(us)", "p999(us)", "RecHash", "FaultHash"},
		Notes: []string{
			"open-loop arrivals: every cell's per-client ledger satisfies",
			"arrivals == ok + drops + shed-give-ups + timeout-give-ups, and every",
			"server's lease record replays cleanly through kv.CheckInvariants",
			"quantiles are bucket upper bounds (never under-reported); RecHash and",
			"FaultHash are bit-identical at any shard count",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Scenario, r.System.String(), f2(r.RateX),
			u64(r.Arrivals), u64(r.OK), u64(r.Drops), u64(r.ShedGiveUps), u64(r.TimeoutGiveUps),
			u64(r.Sheds), u64(r.Promoted), u64(r.Threads),
			f1(r.Offered), f1(r.Goodput),
			us(r.P50), us(r.P99), us(r.P999),
			fmt.Sprintf("%016x", r.RecHash),
			fmt.Sprintf("%016x", r.FaultHash),
		})
	}
	return t, nil
}

// kvOccProbe integrates the dispatcher's multiactive core-occupancy
// track. Rows are pre-materialized per node and each node's row is only
// touched from its own engine shard, so the probe is shard-safe the same
// way kvLatProbe's histogram is. The Probe half is a no-op: only the
// MultiProbe callbacks matter here.
type kvOccProbe struct {
	cores int
	nodes []occWindow
}

// occWindow accumulates one node's busy-core time integral over its
// active span (first to last occupancy transition).
type occWindow struct {
	started  bool
	first    sim.Time
	last     sim.Time
	busy     int
	busyArea sim.Duration // integral of busy cores over time
}

func newKVOccProbe(nodes, cores int) *kvOccProbe {
	return &kvOccProbe{cores: cores, nodes: make([]occWindow, nodes)}
}

func (p *kvOccProbe) Attempt(sim.Time, int, string, oam.Strategy) {}
func (p *kvOccProbe) Settled(sim.Time, int, string, oam.Outcome, oam.Reason, oam.Strategy) {
}
func (p *kvOccProbe) CompatQueueDepth(sim.Time, int, int) {}

func (p *kvOccProbe) CoreOccupancy(t sim.Time, node int, busy int) {
	w := &p.nodes[node]
	if !w.started {
		w.started, w.first = true, t
	} else {
		w.busyArea += sim.Duration(t-w.last) * sim.Duration(w.busy)
	}
	w.last, w.busy = t, busy
}

// Fraction reduces the track to one number: busy-core time over core
// capacity, summed across every node that dispatched multiactively.
// Zero when no node did (the single-active cell bypasses RunMulti).
func (p *kvOccProbe) Fraction() float64 {
	var area, capacity sim.Duration
	for i := range p.nodes {
		w := &p.nodes[i]
		if !w.started || w.last == w.first {
			continue
		}
		area += w.busyArea
		capacity += sim.Duration(w.last-w.first) * sim.Duration(p.cores)
	}
	if capacity <= 0 {
		return 0
	}
	return float64(area) / float64(capacity)
}

// KVMultiactive is the multiactive-dispatch sweep: one read-heavy Zipf
// cell (gets dominate a skewed key space and their service time is raised
// until the handler slot is the bottleneck) run at 1, 2, and 4 simulated
// cores per server. Every reported quantity is virtual time, so the sweep
// is deterministic on any host — simulated cores are free in host CPUs,
// they only parallelize virtual service time — and Valid only says the
// single-active cell carried traffic.
type KVMultiactive struct {
	Cores []int
	// The cell configuration, for the table's notes: a fixed handler
	// budget isolates the core count as the only variable.
	HandlerBudgetUs float64
	WorkGetUs       float64
	RateX           float64
	ZipfS           float64
	MixPerMille     [3]int // get, put, cas

	GoodputPerMs []float64
	P999Us       []float64
	// OccupancyFrac is each cell's time-weighted busy-core fraction:
	// busy-core time / (cores x active span), summed over servers. The
	// cores=1 cell dispatches single-active, so its entry is 0.
	OccupancyFrac  []float64
	CompatAdmitted []uint64
	CompatQueued   []uint64
	// SpeedupAtMax is goodput at the top core count over single-active
	// goodput; P999RatioAtMax is the matching tail-latency ratio (< 1
	// means multiactive shortened the tail).
	SpeedupAtMax   float64
	P999RatioAtMax float64
	Valid          bool
}

// kvMultiactiveCores is the core-count sweep of the pass.
var kvMultiactiveCores = []int{1, 2, 4}

// KVMultiactiveBench sweeps the read-heavy Zipf cell over simulated
// core counts. The load is sized so the single-active cell saturates
// its servers' one handler slot (offered get work alone exceeds one
// core), which is exactly where compatible-read admission pays.
func KVMultiactiveBench(scale Scale) (KVMultiactive, error) {
	const (
		servers = 4
		clients = 48
		rateX   = 2
		zipfS   = 1.1
	)
	var (
		workGet = sim.Duration(sim.Micros(8))
		budget  = sim.Duration(sim.Micros(24))
		mix     = [3]int{900, 60, 40}
	)
	dur := sim.Duration(sim.Micros(12000))
	if scale.Quick {
		dur = sim.Duration(sim.Micros(6000))
	}
	n := len(kvMultiactiveCores)
	m := KVMultiactive{
		Cores:           kvMultiactiveCores,
		HandlerBudgetUs: float64(budget) / float64(sim.Microsecond),
		WorkGetUs:       float64(workGet) / float64(sim.Microsecond),
		RateX:           rateX,
		ZipfS:           zipfS,
		MixPerMille:     mix,
		GoodputPerMs:    make([]float64, n),
		P999Us:          make([]float64, n),
		OccupancyFrac:   make([]float64, n),
		CompatAdmitted:  make([]uint64, n),
		CompatQueued:    make([]uint64, n),
	}
	err := scale.forEach(n, func(i int) error {
		cores := kvMultiactiveCores[i]
		probe := newKVOccProbe(servers+clients, cores)
		var rt *rpc.Runtime
		shape := func(c *kv.Config) {
			c.Servers = servers
			c.Cores = cores
			c.ZipfS = zipfS
			c.MixGet, c.MixPut, c.MixCas = mix[0], mix[1], mix[2]
			c.WorkGet = workGet
			c.HandlerBudget = budget
			c.Observe = func(_ *am.Universe, r *rpc.Runtime) {
				rt = r
				r.Dispatcher().SetProbe(probe)
			}
		}
		row, err := kvCell(scale.Run, "multiactive", apps.ORPC, rateX, shape, clients, dur)
		if err != nil {
			return err
		}
		m.GoodputPerMs[i] = row.Goodput
		m.P999Us[i] = float64(row.P999) / float64(sim.Microsecond)
		m.OccupancyFrac[i] = probe.Fraction()
		if rt != nil {
			st := rt.Dispatcher().Stats()
			m.CompatAdmitted[i] = st.CompatAdmitted
			m.CompatQueued[i] = st.CompatQueued
		}
		return nil
	})
	if err != nil {
		return m, err
	}
	last := n - 1
	if m.GoodputPerMs[0] > 0 {
		m.SpeedupAtMax = m.GoodputPerMs[last] / m.GoodputPerMs[0]
	}
	if m.P999Us[0] > 0 {
		m.P999RatioAtMax = m.P999Us[last] / m.P999Us[0]
	}
	m.Valid = m.SpeedupAtMax > 0
	return m, nil
}

// KVMultiactiveTable formats the core-count sweep.
func KVMultiactiveTable(scale Scale) (*Table, error) {
	m, err := KVMultiactiveBench(scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf(
			"Multiactive dispatch on the read-heavy Zipf kv cell: %.2fx goodput and %.2fx p999 at %d cores vs single-active",
			m.SpeedupAtMax, m.P999RatioAtMax, m.Cores[len(m.Cores)-1]),
		Columns: []string{"Cores", "Good(/ms)", "p999(us)", "Occupancy", "CompatAdm", "CompatQ"},
		Notes: []string{
			fmt.Sprintf("cell: %d%%/%d%%/%d%% get/put/cas per-mille, zipf s=%.1f, %.0f us gets, %.0fx load",
				m.MixPerMille[0], m.MixPerMille[1], m.MixPerMille[2], m.ZipfS, m.WorkGetUs, m.RateX),
			"simulated cores cost no host CPUs; all columns are virtual-time, deterministic on any host",
			"occupancy is busy-core time over core capacity across the servers' active spans (0 single-active)",
		},
	}
	for i, cores := range m.Cores {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", cores), f1(m.GoodputPerMs[i]), f1(m.P999Us[i]),
			f2(m.OccupancyFrac[i]), u64(m.CompatAdmitted[i]), u64(m.CompatQueued[i]),
		})
	}
	return t, nil
}
