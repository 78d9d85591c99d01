package kv_test

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/kv"
	"repro/internal/cm5"
	"repro/internal/sim"
)

func smallCfg(sys apps.System) kv.Config {
	return kv.Config{
		System:   sys,
		Seed:     7,
		Clients:  16,
		Duration: sim.Micros(5000),
	}
}

// TestRunAllSystems: the same workload completes under all three
// communication systems with the invariants intact and real goodput.
func TestRunAllSystems(t *testing.T) {
	for _, sys := range apps.Systems {
		res, st, err := kv.Run(smallCfg(sys))
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		if err := kv.CheckInvariants(&st); err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		if st.Arrivals == 0 || st.OK == 0 {
			t.Fatalf("%v: no traffic: %d arrivals, %d ok", sys, st.Arrivals, st.OK)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%v: elapsed %v", sys, res.Elapsed)
		}
		if sys == apps.AM && st.Promoted != 0 {
			t.Fatalf("AM promoted %d dispatches; its handlers must have no abort points", st.Promoted)
		}
		var grants uint64
		for _, s := range st.PerServer {
			grants += s.Grants
		}
		if grants == 0 {
			t.Fatalf("%v: no lock traffic exercised", sys)
		}
	}
}

// TestDedupUnderFaults: packet loss forces idempotent retries whose
// first attempt already executed; the server dedup cache must absorb
// the re-executions so at-most-once application (Applied == VerSum)
// survives. The run is long and lossy enough that retries demonstrably
// happened.
func TestDedupUnderFaults(t *testing.T) {
	cfg := smallCfg(apps.ORPC)
	cfg.Duration = sim.Micros(10000)
	// Loss heavy enough, and a deadline tight enough, that the reliable
	// transport cannot always recover a reply before the client retries.
	cfg.Fault = &cm5.FaultPlan{Seed: 3, DropProb: 0.25}
	cfg.CallTimeout = sim.Micros(400)
	_, st, err := kv.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.CheckInvariants(&st); err != nil {
		t.Fatal(err)
	}
	if st.Fault.Lost() == 0 {
		t.Fatal("fault plan injected no losses")
	}
	if st.Timeouts == 0 {
		t.Fatal("no call timeouts: the dedup path was never stressed")
	}
	var hits uint64
	for _, s := range st.PerServer {
		hits += s.DedupHits
	}
	if hits == 0 {
		t.Fatal("no dedup hits: no retry re-executed on the server")
	}
}

// TestLeaseLifecycle: with a hold longer than the TTL, leases expire on
// the server and the late unlocks fail — and both sides agree on how
// often.
func TestLeaseLifecycle(t *testing.T) {
	cfg := smallCfg(apps.ORPC)
	cfg.Duration = sim.Micros(10000)
	cfg.Keys = 4 // force lock collisions
	cfg.LockTTL = sim.Micros(300)
	cfg.LockHold = sim.Micros(1000) // dwell past the TTL: every lease expires
	_, st, err := kv.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.CheckInvariants(&st); err != nil {
		t.Fatal(err)
	}
	var grants, releases, expiries uint64
	for _, s := range st.PerServer {
		grants += s.Grants
		releases += s.Releases
		expiries += s.Expiries
	}
	if grants == 0 {
		t.Fatal("no leases granted")
	}
	if expiries == 0 {
		t.Fatal("no lease expired despite a hold past the TTL")
	}
	var unlockFails uint64
	for _, c := range st.PerClient {
		unlockFails += c.UnlockFails
	}
	if unlockFails == 0 {
		t.Fatal("no unlock failed despite server-side expiries")
	}
}

// TestRequestAllocBudget: heap objects per request of a whole run of the
// benchmark's kv_steady cell, machine set-up included. A
// request's thread descriptor and its body come off free lists (the
// scheduler's, the client's), so what is left is what outlives a call —
// request and reply buffers — and the stub's retry closure.
func TestRequestAllocBudget(t *testing.T) {
	cfg := kv.Config{System: apps.ORPC, Seed: 17, Servers: 4, Clients: 48, Duration: sim.Micros(24000), RateX: 1}
	if _, _, err := kv.Run(cfg); err != nil { // warm: lazy runtime and package state
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, st, err := kv.Run(cfg)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(m1.Mallocs-m0.Mallocs) / float64(st.OK)
	t.Logf("%.3f objects per completed request (%d requests)", got, st.OK)
	if got > 4.6 {
		t.Fatalf("a completed request allocates %.3f objects, want <= 4.6", got)
	}
}
