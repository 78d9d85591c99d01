package sched

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cm5"
	"repro/internal/sim"
)

func mustRun(t *testing.T, agents int, cfg Config) (apps.Result, Stats) {
	t.Helper()
	res, st, err := Run(agents, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	jobs := cfg.Jobs
	if cfg.Specs != nil {
		jobs = len(cfg.Specs)
	}
	if ierr := CheckInvariants(st.Record, jobs, agents, true); ierr != nil {
		t.Fatalf("invariants: %v", ierr)
	}
	if st.Accepted != uint64(jobs) {
		t.Fatalf("Accepted = %d, want %d", st.Accepted, jobs)
	}
	return res, st
}

func TestCleanRun(t *testing.T) {
	_, st := mustRun(t, 3, Config{Jobs: 12, Seed: 1})
	if st.Placements != 12 {
		t.Errorf("Placements = %d, want 12 (no churn on a clean network)", st.Placements)
	}
	if st.Expiries != 0 || st.Migrations != 0 || st.PlaceFails != 0 {
		t.Errorf("clean network reclaimed leases: expiries=%d migrations=%d placefails=%d",
			st.Expiries, st.Migrations, st.PlaceFails)
	}
	if st.DeadDeclared != 0 {
		t.Errorf("DeadDeclared = %d, want 0", st.DeadDeclared)
	}
	if st.StaleCompletions != 0 || st.DupCompletions != 0 {
		t.Errorf("clean network fenced completions: stale=%d dup=%d",
			st.StaleCompletions, st.DupCompletions)
	}
	if st.Heartbeats == 0 {
		t.Error("no heartbeats recorded")
	}
}

func TestExplicitSpecs(t *testing.T) {
	specs := []JobSpec{
		{CPU: 4, Mem: 8, Dur: sim.Micros(400)},
		{CPU: 2, Mem: 2, Dur: sim.Micros(300)},
		{CPU: 8, Mem: 16, Dur: sim.Micros(500)},
	}
	_, st := mustRun(t, 2, Config{Specs: specs, Seed: 7})
	if st.Placements != 3 {
		t.Errorf("Placements = %d, want 3", st.Placements)
	}
}

func TestRejectsOversizedJob(t *testing.T) {
	_, _, err := Run(2, Config{Specs: []JobSpec{{CPU: 9, Mem: 1, Dur: sim.Micros(100)}}})
	if err == nil || !strings.Contains(err.Error(), "exceeds the agent inventory") {
		t.Fatalf("err = %v, want inventory rejection", err)
	}
}

func TestLossyNetwork(t *testing.T) {
	_, st := mustRun(t, 3, Config{
		Jobs: 10, Seed: 2,
		Fault: &cm5.FaultPlan{Seed: 42, DropProb: 0.03, DupProb: 0.03},
	})
	if st.Rel.Retransmits == 0 {
		t.Error("lossy network produced no retransmits")
	}
}

func TestCrashMigratesLeases(t *testing.T) {
	// Two agents, light load so the detector's interarrival mean stays
	// near the heartbeat period; agent 1 crashes while holding leases.
	specs := []JobSpec{
		{CPU: 2, Mem: 2, Dur: sim.Micros(6000)},
		{CPU: 2, Mem: 2, Dur: sim.Micros(6000)},
		{CPU: 2, Mem: 2, Dur: sim.Micros(6000)},
		{CPU: 2, Mem: 2, Dur: sim.Micros(6000)},
	}
	_, st := mustRun(t, 2, Config{
		Specs: specs, Seed: 3,
		Fault: &cm5.FaultPlan{Seed: 9, Crashes: []cm5.Crash{{Node: 1, At: sim.Time(2 * sim.Millisecond)}}},
	})
	if st.DeadDeclared == 0 {
		t.Error("crashed agent was never declared dead")
	}
	if st.Migrations == 0 && st.Expiries == 0 {
		t.Error("no lease was reclaimed off the crashed agent")
	}
	// The survivor must have run everything.
	for _, ev := range st.Record {
		if ev.Kind == EvDone && ev.Agent != 2 {
			t.Errorf("completion accepted from crashed agent: %v", ev)
		}
	}
	if !st.CrashedAt[1] || st.CrashedAt[2] {
		t.Errorf("CrashedAt = %v, want only agent 1", st.CrashedAt)
	}
}

func TestFlappingPartitionRecovers(t *testing.T) {
	// Agent 1 is cut off from the scheduler (both directions) while
	// holding a long job; the detector declares it dead mid-window and
	// readmits it on heal. One agent stays lightly loaded so heartbeat
	// interarrival stays near the configured period and phi trips well
	// inside the window.
	from, to := sim.Time(2*sim.Millisecond), sim.Time(14*sim.Millisecond)
	flap := &cm5.FaultPlan{Seed: 11, Partitions: []cm5.Partition{
		{Src: 1, Dst: 0, From: from, To: to},
		{Src: 0, Dst: 1, From: from, To: to},
	}}
	specs := []JobSpec{
		{CPU: 4, Mem: 4, Dur: sim.Micros(8000)},
		{CPU: 4, Mem: 4, Dur: sim.Micros(8000)},
		{CPU: 4, Mem: 4, Dur: sim.Micros(8000)},
	}
	_, st := mustRun(t, 3, Config{Specs: specs, Seed: 4, Fault: flap})
	if st.DeadDeclared == 0 {
		t.Error("partitioned agent was never declared dead")
	}
	if st.Recovered == 0 {
		t.Error("healed agent was never readmitted")
	}
	var deadEvents, aliveEvents int
	for _, ev := range st.Record {
		switch ev.Kind {
		case EvDead:
			deadEvents++
		case EvAlive:
			aliveEvents++
		}
	}
	if deadEvents == 0 || aliveEvents == 0 {
		t.Errorf("record has %d dead / %d alive transitions, want both > 0", deadEvents, aliveEvents)
	}
}

// --- CheckInvariants unit tests on synthetic records ---

func TestCheckInvariantsViolations(t *testing.T) {
	cases := []struct {
		name string
		rec  []Event
		want string
	}{
		{"double-accept",
			[]Event{
				{T: 1, Kind: EvPlace, Job: 0, Agent: 1, Epoch: 1},
				{T: 2, Kind: EvDone, Job: 0, Agent: 1, Epoch: 1},
				{T: 3, Kind: EvPlace, Job: 0, Agent: 2, Epoch: 2},
			},
			"placed again after its completion"},
		{"fencing-breach",
			[]Event{
				{T: 1, Kind: EvPlace, Job: 0, Agent: 1, Epoch: 1},
				{T: 2, Kind: EvExpire, Job: 0, Agent: 1, Epoch: 1, Why: ReasonTimeout},
				{T: 3, Kind: EvPlace, Job: 0, Agent: 2, Epoch: 2},
				{T: 4, Kind: EvDone, Job: 0, Agent: 1, Epoch: 1},
			},
			"fencing breach"},
		{"dead-placement",
			[]Event{
				{T: 1, Kind: EvDead, Job: -1, Agent: 1},
				{T: 2, Kind: EvPlace, Job: 0, Agent: 1, Epoch: 1},
			},
			"declared dead"},
		{"epoch-regression",
			[]Event{
				{T: 1, Kind: EvPlace, Job: 0, Agent: 1, Epoch: 2},
				{T: 2, Kind: EvExpire, Job: 0, Agent: 1, Epoch: 2, Why: ReasonTimeout},
				{T: 3, Kind: EvPlace, Job: 0, Agent: 2, Epoch: 2},
			},
			"not monotonic"},
		{"time-regression",
			[]Event{
				{T: 5, Kind: EvPlace, Job: 0, Agent: 1, Epoch: 1},
				{T: 4, Kind: EvDone, Job: 0, Agent: 1, Epoch: 1},
			},
			"backwards"},
		{"valid-completion-fenced",
			[]Event{
				{T: 1, Kind: EvPlace, Job: 0, Agent: 1, Epoch: 1},
				{T: 2, Kind: EvStale, Job: 0, Agent: 1, Epoch: 1},
			},
			"rejected as stale"},
		{"double-dead",
			[]Event{
				{T: 1, Kind: EvDead, Job: -1, Agent: 1},
				{T: 2, Kind: EvDead, Job: -1, Agent: 1},
			},
			"already dead"},
	}
	for _, tc := range cases {
		err := CheckInvariants(tc.rec, 1, 2, false)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckInvariantsAcceptsMigration(t *testing.T) {
	rec := []Event{
		{T: 1, Kind: EvPlace, Job: 0, Agent: 1, Epoch: 1},
		{T: 2, Kind: EvDead, Job: -1, Agent: 1},
		// A reclaim may legally reference a dead agent's lease.
		{T: 2, Kind: EvExpire, Job: 0, Agent: 1, Epoch: 1, Why: ReasonDead},
		{T: 3, Kind: EvPlace, Job: 0, Agent: 2, Epoch: 2},
		// The old agent's stale completion is fenced.
		{T: 4, Kind: EvAlive, Job: -1, Agent: 1},
		{T: 5, Kind: EvStale, Job: 0, Agent: 1, Epoch: 1},
		{T: 6, Kind: EvDone, Job: 0, Agent: 2, Epoch: 2},
	}
	if err := CheckInvariants(rec, 1, 2, true); err != nil {
		t.Fatalf("legal migration record rejected: %v", err)
	}
}

func TestCheckInvariantsLiveness(t *testing.T) {
	rec := []Event{{T: 1, Kind: EvPlace, Job: 0, Agent: 1, Epoch: 1}}
	if err := CheckInvariants(rec, 1, 1, true); err == nil ||
		!strings.Contains(err.Error(), "liveness") {
		t.Fatalf("err = %v, want liveness violation", err)
	}
	if err := CheckInvariants(rec, 1, 1, false); err != nil {
		t.Fatalf("safety-only check failed: %v", err)
	}
}

func TestRecordHashSensitivity(t *testing.T) {
	a := []Event{{T: 1, Kind: EvPlace, Job: 0, Agent: 1, Epoch: 1}}
	b := []Event{{T: 1, Kind: EvPlace, Job: 0, Agent: 2, Epoch: 1}}
	if RecordHash(a) == RecordHash(b) {
		t.Error("hash insensitive to agent")
	}
	if RecordHash(nil) != RecordHash([]Event{}) {
		t.Error("empty record hash unstable")
	}
}
