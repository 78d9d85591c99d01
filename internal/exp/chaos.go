package exp

import (
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/apps/triangle"
	"repro/internal/apps/tsp"
	"repro/internal/cm5"
	"repro/internal/reliable"
	"repro/internal/sim"
)

// ChaosRow is one fault-injection measurement: an application run under a
// seeded fault plan, validated against the sequential reference answer.
type ChaosRow struct {
	App            string
	DropPct        float64
	Crashes        int
	Partitioned    int // slaves cut off for the whole run
	Flapped        int // slaves cut off for a window that heals
	Elapsed        sim.Duration
	Dropped        uint64 // packets the network lost (all loss kinds)
	Duplicated     uint64
	Retransmits    uint64
	DupsSuppressed uint64
	GaveUp         uint64
	Reissued       uint64 // master lease re-issues (tsp only)
	Timeouts       uint64 // client call-deadline expirations (tsp only)
	SuccPct        float64
	OK             bool   // answer matched the sequential reference
	FaultHash      uint64 // fault-trace hash (tsp only; 0 = no fault layer)
}

// chaosSlaves is the sweep's TSP machine. Chaos runs one fixed machine,
// it is not a sweep MaxP truncates: the crash, partition and flap rows
// take the last slave away, so a second one must be left to finish the
// search. floored reports that this kept the machine above what MaxP
// asked for.
func chaosSlaves(scale Scale) (slaves int, floored bool) {
	slaves = 8
	if scale.Quick {
		slaves = 3
	}
	if scale.MaxP > 0 {
		slaves = min(slaves, scale.MaxP-1)
	}
	if slaves < 2 {
		return 2, true
	}
	return slaves, false
}

// Chaos sweeps drop rate x crash count over the two irregular
// applications and checks that reliable delivery plus graceful
// degradation keep every answer bit-exact. Triangle runs loss-only (its
// level quiesce has no crash recovery); TSP additionally survives one
// slave crashing mid-run via the master's lease watchdog.
func Chaos(scale Scale) ([]ChaosRow, error) {
	drops := []float64{0, 0.01, 0.02, 0.05}

	triCfg := scale.triangle()
	triCfg.Seed = 7
	triNodes := 8
	tspCities := 12
	tspSlaves, _ := chaosSlaves(scale)
	crashAt := sim.Time(100 * sim.Millisecond)
	flapFrom, flapTo := sim.Time(60*sim.Millisecond), sim.Time(120*sim.Millisecond)
	if scale.Quick {
		triNodes = 4
		tspCities = 9
		// Early enough that the crashed slave always holds an unfinished
		// lease, so every crash row exercises the watchdog re-issue path.
		crashAt = sim.Time(15 * sim.Millisecond)
		// The flap window opens while the slave holds a lease and closes
		// well before the search ends, so the row proves recovery, not
		// just degradation.
		flapFrom, flapTo = sim.Time(10*sim.Millisecond), sim.Time(20*sim.Millisecond)
	}
	if scale.MaxP > 0 {
		triNodes = min(triNodes, scale.MaxP)
	}

	// Flatten the sweep into an ordered job list so the cells can fan out
	// across the worker pool and still merge in sweep order.
	type job struct {
		tri     bool
		drop    float64
		crashes int
		part    bool // permanently partition the last slave
		flap    bool // partition the last slave for a healing window
	}
	var jobs []job
	for _, drop := range drops {
		jobs = append(jobs, job{tri: true, drop: drop})
	}
	for _, crashes := range []int{0, 1} {
		for _, drop := range drops {
			if crashes == 0 && drop == 0 {
				// Covered (fault-free) by the regular TSP experiments.
				continue
			}
			jobs = append(jobs, job{drop: drop, crashes: crashes})
		}
	}
	// The MaxAttempts-exhausted path: one slave unreachable for the whole
	// run (every link to and from it blackholed). Its calls time out, every
	// reliable message toward it is abandoned after MaxAttempts, and the
	// remaining slaves finish the search — bounded degradation, not a hang.
	jobs = append(jobs, job{part: true})
	// The flapping partition: the same slave cut off in both directions for
	// a window that heals mid-run. Unlike the permanent partition, this row
	// must *recover*: leases stranded during the window are re-issued, the
	// healed slave rejoins the search, and any late duplicate work it
	// reports is absorbed idempotently — with the answer still exact.
	jobs = append(jobs, job{flap: true})

	triWant := triCfg.BoardCounts().Solutions
	tspWant := uint64(tsp.NewProblem(tspCities, 12).SolveSeq().Best)
	rows := make([]ChaosRow, len(jobs))
	err := scale.forEach(len(jobs), func(i int) error {
		j := jobs[i]
		if j.tri {
			cfg := triCfg
			if j.drop > 0 {
				cfg.Fault = &cm5.FaultPlan{Seed: 21, DropProb: j.drop, DupProb: j.drop / 2}
				cfg.Reliable = &reliable.Options{}
			}
			res, err := triangle.Run(apps.ORPC, triNodes, cfg)
			if err != nil {
				return fmt.Errorf("chaos triangle drop=%g: %w", j.drop, err)
			}
			// Triangle's Run does not return fault counters; loss shows up
			// indirectly as elapsed-time inflation, so only the tsp rows
			// carry the full breakdown.
			rows[i] = ChaosRow{
				App: "triangle", DropPct: j.drop * 100,
				Elapsed: res.Elapsed, SuccPct: res.SuccessPercent(),
				OK: res.Answer == triWant,
			}
			return nil
		}
		plan := &cm5.FaultPlan{Seed: 42, DropProb: j.drop, DupProb: j.drop / 2}
		if j.crashes == 1 {
			plan.Crashes = []cm5.Crash{{Node: tspSlaves, At: crashAt}}
		}
		part, flap := 0, 0
		if j.part {
			part = 1
			plan = &cm5.FaultPlan{Seed: 63, Partitions: []cm5.Partition{
				{Src: -1, Dst: tspSlaves, From: 0, To: sim.Time(math.MaxInt64)},
				{Src: tspSlaves, Dst: -1, From: 0, To: sim.Time(math.MaxInt64)},
			}}
		}
		if j.flap {
			flap = 1
			plan = &cm5.FaultPlan{Seed: 77, Partitions: []cm5.Partition{
				{Src: -1, Dst: tspSlaves, From: flapFrom, To: flapTo},
				{Src: tspSlaves, Dst: -1, From: flapFrom, To: flapTo},
			}}
		}
		cfg := tsp.ChaosConfig{Cities: tspCities, Seed: 12, RunOptions: scale.Run, Fault: plan}
		res, st, err := tsp.RunChaos(tspSlaves, cfg)
		if err != nil {
			return fmt.Errorf("chaos tsp drop=%g crashes=%d part=%d flap=%d: %w", j.drop, j.crashes, part, flap, err)
		}
		rows[i] = ChaosRow{
			App: "tsp", DropPct: j.drop * 100, Crashes: j.crashes, Partitioned: part, Flapped: flap,
			Elapsed: res.Elapsed,
			Dropped: st.Fault.Lost(), Duplicated: st.Fault.Duplicated,
			Retransmits: st.Rel.Retransmits, DupsSuppressed: st.Rel.DupsSuppressed,
			GaveUp: st.Rel.GaveUp, Reissued: st.Reissued, Timeouts: st.Timeouts,
			SuccPct:   res.SuccessPercent(),
			OK:        res.Answer == tspWant,
			FaultHash: st.FaultHash,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ChaosTable formats the fault-injection sweep.
func ChaosTable(scale Scale) (*Table, error) {
	rows, err := Chaos(scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Chaos sweep: drop rate x crashes, answers checked against the sequential reference",
		Columns: []string{"App", "Drop%", "Crashes", "Part", "Flap", "Elapsed(ms)", "Lost",
			"Dup'd", "Retx", "DupSupp", "GaveUp", "Reissued", "Timeouts", "Succ%", "OK"},
		Notes: []string{
			"dup rate is half the drop rate; triangle rows are loss-only (no crash recovery)",
			"tsp crash rows kill one slave mid-run; the master's lease watchdog re-issues its jobs",
			"the Part row cuts one slave off entirely: senders exhaust MaxAttempts and give up",
			"the Flap row cuts the slave off for a window that heals: it rejoins and the answer stays exact",
		},
	}
	if slaves, floored := chaosSlaves(scale); floored {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"-maxp %d is below this sweep's floor: tsp ran on %d slaves, so that one survives the crash, Part and Flap rows",
			scale.MaxP, slaves))
	}
	for _, r := range rows {
		ok := "yes"
		if !r.OK {
			ok = "NO"
		}
		t.Rows = append(t.Rows, []string{
			r.App, f1(r.DropPct), itoa(r.Crashes), itoa(r.Partitioned), itoa(r.Flapped),
			fmt.Sprintf("%.2f", float64(r.Elapsed)/1e6),
			u64(r.Dropped), u64(r.Duplicated), u64(r.Retransmits),
			u64(r.DupsSuppressed), u64(r.GaveUp), u64(r.Reissued),
			u64(r.Timeouts), f1(r.SuccPct), ok,
		})
	}
	return t, nil
}

// ChaosNodeTable runs the headline scenario (2% loss, 1% duplication, one
// slave crash) once and breaks the fault and retransmission counters down
// per node: losses, duplicates, retransmits, and give-ups attribute to the
// sender; suppressed duplicates to the receiver; blackholed packets to the
// crashed node they died at.
func ChaosNodeTable(scale Scale) (*Table, error) {
	cities, slaves := 12, 8
	crashAt := sim.Time(100 * sim.Millisecond)
	if scale.Quick {
		cities, slaves = 9, 3
		crashAt = sim.Time(30 * sim.Millisecond)
	}
	cfg := tsp.ChaosConfig{
		Cities: cities, Seed: 12, RunOptions: scale.Run,
		Fault: &cm5.FaultPlan{
			Seed: 42, DropProb: 0.02, DupProb: 0.01,
			Crashes: []cm5.Crash{{Node: slaves, At: crashAt}},
		},
	}
	res, st, err := tsp.RunChaos(slaves, cfg)
	if err != nil {
		return nil, fmt.Errorf("chaos per-node: %w", err)
	}
	t := &Table{
		Title: fmt.Sprintf("Per-node fault and recovery counters: tsp %d cities, %d slaves, 2%% loss, slave %d crashes",
			cities, slaves, slaves),
		Columns: []string{"Node", "Role", "Lost", "Dup'd", "Blackholed",
			"Retx", "DupSupp", "GaveUp"},
		Notes: []string{
			fmt.Sprintf("elapsed %.2f ms, %d lease re-issues, answer %d",
				float64(res.Elapsed)/1e6, st.Reissued, res.Answer),
		},
	}
	for i := range st.NodeFaults {
		role := "slave"
		if i == 0 {
			role = "master"
		}
		if st.CrashedAt[i] {
			role += " (crashed)"
		}
		nf, nr := st.NodeFaults[i], st.NodeRel[i]
		t.Rows = append(t.Rows, []string{
			itoa(i), role, u64(nf.Dropped), u64(nf.Duplicated), u64(nf.Blackholed),
			u64(nr.Retransmits), u64(nr.DupsSuppressed), u64(nr.GaveUp),
		})
	}
	return t, nil
}
