// Package apps holds the shared vocabulary of the four evaluation
// applications (Triangle puzzle, TSP, SOR, Water): which communication
// system a run uses and what a run reports. The applications themselves
// live in subpackages.
package apps

import (
	"fmt"
	"runtime"

	"repro/internal/am"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// ResolveShards normalizes a run's requested shard count for an n-node
// machine: 0 or 1 means sequential, negative means auto (one shard per
// CPU), and the result never exceeds the node count (an empty shard is
// pure barrier overhead). Every run produces bit-identical results at any
// shard count; shards only change wall-clock time.
func ResolveShards(shards, nodes int) int {
	if shards < 0 {
		shards = runtime.NumCPU()
	}
	if shards < 1 {
		shards = 1
	}
	if shards > nodes {
		shards = nodes
	}
	return shards
}

// RunOptions are the switches that say how a run executes, not what it
// computes: every application Config embeds one, the experiment harness
// carries one in exp.Scale, and cmd/oamlab fills it once from its flags.
// The zero value is the paper's setup — sequential kernel, one core per
// node, unobserved. Results are bit-identical at any Shards/Optimistic
// for a fixed Cores.
type RunOptions struct {
	// Shards selects the engine's shard count: 0 or 1 sequential,
	// negative auto (one per CPU), clamped to the node count. Only
	// wall-clock time changes.
	Shards int
	// Optimistic widens a sharded engine's commit spans from one network
	// lookahead (the lockstep schedule) to 32 (sim.Optimistic). It is the
	// same scheduler either way and does nothing unless Shards resolves
	// parallel.
	Optimistic bool
	// Cores gives each simulated node this many cores. Values > 1 route
	// synchronous ORPC dispatches through the multiactive path
	// (oam.Options.Cores); an application that declares no compatibility
	// matrix still serializes its handlers there and computes the same
	// answer, but each runs on a core process that overlaps the poller,
	// so virtual timings move. Simulated cores cost no host CPUs.
	Cores int
	// Observe, if non-nil, is called once the universe and the RPC
	// runtime (nil under hand-coded AM) are built, before the program
	// starts, so an observer can install its sink.
	Observe func(*am.Universe, *rpc.Runtime)
}

// Engine builds the simulation engine for a nodes-node run (see
// ResolveShards for how Shards is normalized).
func (o RunOptions) Engine(seed int64, nodes int) *sim.Engine {
	mode := sim.Conservative
	if o.Optimistic {
		mode = sim.Optimistic
	}
	return sim.NewShardedConfig(seed, sim.ShardConfig{Shards: ResolveShards(o.Shards, nodes), Mode: mode})
}

// Attach hands the built universe and runtime to the Observe hook, if
// one is set.
func (o RunOptions) Attach(u *am.Universe, rt *rpc.Runtime) {
	if o.Observe != nil {
		o.Observe(u, rt)
	}
}

// System selects the communication system of a run, matching the three
// implementations the paper compares.
type System uint8

const (
	// AM is the hand-coded Active Messages implementation.
	AM System = iota
	// ORPC is Optimistic RPC: stubs over Optimistic Active Messages.
	ORPC
	// TRPC is Traditional RPC: a thread per incoming call.
	TRPC
)

func (s System) String() string {
	switch s {
	case AM:
		return "AM"
	case ORPC:
		return "ORPC"
	case TRPC:
		return "TRPC"
	default:
		return fmt.Sprintf("System(%d)", uint8(s))
	}
}

// RPCMode is the rpc dispatch discipline of an RPC system (TRPC creates a
// thread per call; everything else dispatches optimistically).
func (s System) RPCMode() rpc.Mode {
	if s == TRPC {
		return rpc.TRPC
	}
	return rpc.ORPC
}

// Systems lists all three in the paper's presentation order.
var Systems = []System{AM, ORPC, TRPC}

// Result is what one application run reports.
type Result struct {
	System  System
	Nodes   int
	Elapsed sim.Duration // parallel virtual running time
	Answer  uint64       // application answer/checksum for validation

	// OAM statistics (ORPC runs; zero otherwise). These are the columns
	// of Tables 2 and 3.
	OAMs      uint64
	Successes uint64

	// Thread statistics.
	ThreadsCreated uint64
	LiveStackPct   float64

	// Network statistics.
	SmallSent uint64
	BulkSent  uint64
	BytesSent uint64
}

// SuccessPercent is the "% Successes" column of Tables 2 and 3.
func (r *Result) SuccessPercent() float64 {
	if r.OAMs == 0 {
		return 100
	}
	return 100 * float64(r.Successes) / float64(r.OAMs)
}

// Speedup computes speedup relative to the sequential running time.
func (r *Result) Speedup(seq sim.Duration) float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(seq) / float64(r.Elapsed)
}

// Service is an application poll point ("carefully tuned polling", section
// 4): it drains pending messages, running their handlers, and then yields
// once so that any threads the messages created (TRPC dispatch, OAM
// promotions) run before the computation resumes — the paper's "run remote
// procedure calls first" discipline.
func Service(c threads.Ctx, ep *am.Endpoint) {
	ep.PollAll(c)
	if c.T != nil {
		// Run any threads the messages created (TRPC dispatch, OAM
		// promotions) and any threads woken by this computation's own
		// signals. A yield with nothing runnable costs only the check.
		c.S.Yield(c)
	}
}

// Hash is an FNV-1a accumulator over 64-bit words (the same idiom as the
// machine's fault-trace hash): the applications fold their event records
// and answers into one, so equal hashes across engines mean identical
// decisions at identical virtual times. Start from HashInit.
type Hash uint64

// HashInit is the FNV-1a offset basis.
const HashInit Hash = 14695981039346656037

// Mix folds v into the hash, low byte first.
func (h Hash) Mix(v uint64) Hash {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h ^= Hash(v & 0xff)
		h *= prime
		v >>= 8
	}
	return h
}

// FillResult populates the statistics fields of r from a finished run's
// universe and dispatch counters.
func FillResult(r *Result, u *am.Universe, oams, successes uint64) {
	r.OAMs = oams
	r.Successes = successes
	net := u.Machine().Stats()
	r.SmallSent = net.SmallSent
	r.BulkSent = net.BulkSent
	r.BytesSent = net.BytesSent
	var created, starts, live uint64
	for i := 0; i < u.N(); i++ {
		st := u.Scheduler(i).Stats()
		created += st.Created
		starts += st.Starts
		live += st.LiveStackStart
	}
	r.ThreadsCreated = created
	if starts > 0 {
		r.LiveStackPct = 100 * float64(live) / float64(starts)
	} else {
		r.LiveStackPct = 100
	}
}
