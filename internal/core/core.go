// Package core is the library's public face: it assembles the simulated
// CM-5-class machine, the user-level thread package, the Active Messages
// layer, and the Optimistic RPC runtime into one object — a Cluster — so
// applications can be written the way the paper's section 3 envisions:
// define remote procedures, then run an SPMD program that calls them with
// ordinary threads, mutexes, and condition variables.
//
// Everything here is re-exported from the subsystem packages (sim, cm5,
// threads, am, oam, rpc); use those directly for lower-level control.
package core

import (
	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// Convenient aliases so applications import only package core.
type (
	// Ctx is an execution context on a node (thread or handler).
	Ctx = threads.Ctx
	// Env is the capability a remote procedure body runs against.
	Env = oam.Env
	// Mutex is a node-local lock usable by threads and (via try-lock)
	// optimistic handlers.
	Mutex = threads.Mutex
	// Cond is a condition variable tied to a Mutex.
	Cond = threads.Cond
	// Flag is a single-waiter completion flag.
	Flag = threads.Flag
	// Thread is a user-level thread.
	Thread = threads.Thread
	// Proc is a defined remote procedure.
	Proc = rpc.Proc
	// Duration is virtual time.
	Duration = sim.Duration
	// Time is an absolute virtual timestamp.
	Time = sim.Time
)

// Mode aliases for Options.
const (
	ORPC = rpc.ORPC
	TRPC = rpc.TRPC
)

// Micros converts microseconds to a Duration.
func Micros(us float64) Duration { return sim.Micros(us) }

// Options configures a Cluster. Like the paper's prototype it reruns
// aborted handlers, has no handler time budget, and runs on the default
// CM-5 cost model; build on rpc and oam directly to vary those.
type Options struct {
	// Nodes is the machine size (default 2).
	Nodes int
	// Seed drives the deterministic simulation (default 1).
	Seed int64
	// Mode selects ORPC (default) or TRPC dispatch.
	Mode rpc.Mode
}

// Cluster is a ready-to-run simulated machine with an RPC runtime.
type Cluster struct {
	eng *sim.Engine
	u   *am.Universe
	rt  *rpc.Runtime
}

// NewCluster builds a cluster. Define procedures before calling Run.
func NewCluster(opts Options) *Cluster {
	if opts.Nodes == 0 {
		opts.Nodes = 2
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	eng := sim.New(opts.Seed)
	u := am.NewUniverse(eng, opts.Nodes, cm5.DefaultCostModel())
	rt := rpc.New(u, rpc.Options{Mode: opts.Mode, OAM: oam.Options{}})
	return &Cluster{eng: eng, u: u, rt: rt}
}

// Universe exposes the Active Messages layer beneath the RPC runtime.
func (c *Cluster) Universe() *am.Universe { return c.u }

// Define registers a synchronous remote procedure; see rpc.Runtime.Define.
func (c *Cluster) Define(name string, impl rpc.Impl) *rpc.Proc {
	return c.rt.Define(name, impl)
}

// DefineAsync registers a fire-and-forget remote procedure.
func (c *Cluster) DefineAsync(name string, impl rpc.Impl) *rpc.Proc {
	return c.rt.DefineAsync(name, impl)
}

// NewMutex creates a mutex on node's scheduler.
func (c *Cluster) NewMutex(node int) *Mutex {
	return threads.NewMutex(c.u.Scheduler(node))
}

// NewCond creates a condition variable on mutex m.
func (c *Cluster) NewCond(m *Mutex) *Cond { return threads.NewCond(m) }

// Run executes body as the main thread of every node and returns the
// parallel virtual running time. It may be called once per cluster; the
// cluster is shut down afterwards.
func (c *Cluster) Run(body func(ctx Ctx, node int)) (Duration, error) {
	defer c.eng.Shutdown()
	end, err := c.u.SPMD(body)
	return Duration(end), err
}

// OAMStats reports the cluster-wide optimistic dispatch counters,
// combining the synchronous and asynchronous dispatchers.
func (c *Cluster) OAMStats() oam.Stats {
	s := c.rt.Dispatcher().Stats()
	a := c.rt.AsyncDispatcher().Stats()
	s.Total += a.Total
	s.Succeeded += a.Succeeded
	s.Promoted += a.Promoted
	s.Nacked += a.Nacked
	for i := range s.ByReason {
		s.ByReason[i] += a.ByReason[i]
	}
	return s
}

// Enc returns a wire-format encoder (for hand-written stubs; generated
// stubs from cmd/stubgen marshal automatically).
func Enc(capacity int) *rpc.Enc { return rpc.NewEnc(capacity) }

// Dec returns a wire-format decoder.
func Dec(b []byte) *rpc.Dec { return rpc.NewDec(b) }
