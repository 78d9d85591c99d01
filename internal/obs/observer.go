package obs

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// Options selects which sinks a Collector maintains. Each sink costs
// host time and memory during the run; an unselected sink is simply nil
// and its updates are skipped.
type Options struct {
	Trace   bool // build a Chrome trace-event / Perfetto timeline
	Metrics bool // maintain the typed per-node instrument registry
	Profile bool // attribute virtual CPU time to procedure names
}

// Collector is the sim.Sink of a whole stack: it routes every layer's
// records into the selected sinks. Create one with New, wire it with
// Attach before the simulation starts, and read the sinks after the run.
// It also implements the kv and sched application probes.
type Collector struct {
	opts Options
	u    *am.Universe
	eng  *sim.Engine

	reg  *Registry
	prof *Profile
	tb   *traceBuilder

	procNode map[uint64]int       // sim proc id → node (from threads.RecBound)
	unbound  map[uint64]bool      // spawned procs not bound yet, counted on node 0
	threadID map[threadKey]uint64 // live thread → its async span id
	nextID   uint64               // thread-lifetime async ids
	flightID uint64               // packet-flight async ids

	// Per node, the open handler runs, optimistic dispatches and calls;
	// each closes the latest one its own process opened.
	handlers, dispatches, calls [][]openSpan

	// Metrics instruments: all nil, and so updated as no-ops, without
	// Options.Metrics.
	cResumes, cExits, cSpawns            *Counter
	cSent, cDelivered, cLost, cBackpress *Counter
	cHandlers                            *Counter
	cAttempts, cCompleted, cPromoted     *Counter
	cNacked                              *Counter
	cAbortReason                         [4]*Counter
	cCalls, cTimeouts, cRetries, cStale  *Counter
	cThCreated, cThStarted, cThLive      *Counter
	cThExited                            *Counter
	cSchedBeats, cSchedDead, cSchedAlive *Counter
	cSchedPlaced                         *Counter
	cSchedReclaims                       [3]*Counter
	cSchedAccepted, cSchedRejected       *Counter
	cKVDone                              [4]*Counter
	cKVSheds                             *Counter
	gNicDepth, gReadyDepth               *Gauge
	gCoresBusy, gCompatQueue             *Gauge
	hHandler, hWire, hCall, hKVLat       *Histogram

	// Scheduler control-plane trace state (see sched.go).
	schedMeta bool   // sched track metadata emitted
	schedSeq  uint64 // lease/outage async span ids
	leaseID   map[leaseKey]uint64
	outageID  map[int]uint64

	// KV service trace state (see kv.go).
	kvMeta map[int]bool // per node, kv track metadata emitted
}

// openSpan is a span not yet closed: the process that opened it, and when.
type openSpan struct {
	proc  uint64
	start sim.Time
}

// begin opens a span of r's process on r's node.
func begin(spans [][]openSpan, r sim.Record) {
	spans[r.Node] = append(spans[r.Node], openSpan{r.Proc.ID(), r.T})
}

// end closes the latest span r's process opened on r's node and returns
// its start.
func end(spans [][]openSpan, r sim.Record) sim.Time {
	st := spans[r.Node]
	i := len(st) - 1
	for st[i].proc != r.Proc.ID() {
		i--
	}
	start := st[i].start
	spans[r.Node] = slices.Delete(st, i, i+1)
	return start
}

// threadKey names a live thread: its node and descriptor number.
type threadKey struct {
	node int
	slot uint64
}

// abortReasons enumerates oam.Reason values in order, for per-reason
// counters and trace tags.
var abortReasons = [4]oam.Reason{oam.LockBusy, oam.CondFalse, oam.NetworkFull, oam.TooLong}

// New returns a collector with the selected sinks.
func New(opts Options) *Collector {
	c := &Collector{
		opts:     opts,
		procNode: make(map[uint64]int),
		unbound:  make(map[uint64]bool),
		threadID: make(map[threadKey]uint64),
		leaseID:  make(map[leaseKey]uint64),
		outageID: make(map[int]uint64),
	}
	if opts.Profile {
		c.prof = NewProfile()
	}
	if opts.Trace {
		c.tb = &traceBuilder{}
	}
	return c
}

// Attach installs the collector as the sink of u's engine, before the
// simulation starts. The runtime needs no wiring of its own: its records
// reach the engine's sink like every layer's, and the parameter keeps
// Attach an apps.RunOptions.Observe hook. The collector keeps per-node
// state unguarded, so the engine must be sequential.
func (c *Collector) Attach(u *am.Universe, _ *rpc.Runtime) {
	c.u = u
	c.eng = u.Machine().Engine()
	if c.eng.Shards() > 1 {
		panic("obs: a collector requires a sequential engine (shards=1)")
	}
	n := u.N()
	c.handlers = make([][]openSpan, n)
	c.dispatches = make([][]openSpan, n)
	c.calls = make([][]openSpan, n)

	if c.opts.Metrics {
		r := NewRegistry(n)
		c.reg = r
		c.cResumes = r.NewCounter("sim/resumes")
		c.cExits = r.NewCounter("sim/exits")
		c.cSpawns = r.NewCounter("sim/spawns")
		c.cSent = r.NewCounter("cm5/packets_sent")
		c.cDelivered = r.NewCounter("cm5/packets_delivered")
		c.cLost = r.NewCounter("cm5/packets_lost")
		c.cBackpress = r.NewCounter("cm5/backpressure")
		c.cHandlers = r.NewCounter("am/handlers_run")
		c.cAttempts = r.NewCounter("oam/attempts")
		c.cCompleted = r.NewCounter("oam/completed")
		c.cPromoted = r.NewCounter("oam/promoted")
		c.cNacked = r.NewCounter("oam/nacked")
		for i, reason := range abortReasons {
			c.cAbortReason[i] = r.NewCounter("oam/abort/" + reason.String())
		}
		c.cCalls = r.NewCounter("rpc/calls")
		c.cTimeouts = r.NewCounter("rpc/timeouts")
		c.cRetries = r.NewCounter("rpc/retries")
		c.cStale = r.NewCounter("rpc/stale_replies")
		c.cSchedBeats = r.NewCounter("sched/heartbeats")
		c.cSchedDead = r.NewCounter("sched/agent_dead")
		c.cSchedAlive = r.NewCounter("sched/agent_recovered")
		c.cSchedPlaced = r.NewCounter("sched/leases_placed")
		for i, why := range reclaimReasons {
			c.cSchedReclaims[i] = r.NewCounter("sched/reclaim/" + why.String())
		}
		c.cSchedAccepted = r.NewCounter("sched/completions_accepted")
		c.cSchedRejected = r.NewCounter("sched/completions_fenced")
		for i, out := range kvOutcomes {
			c.cKVDone[i] = r.NewCounter("kv/done/" + out.String())
		}
		c.cKVSheds = r.NewCounter("kv/sheds")
		c.cThCreated = r.NewCounter("threads/created")
		c.cThStarted = r.NewCounter("threads/started")
		c.cThLive = r.NewCounter("threads/live_stack_starts")
		c.cThExited = r.NewCounter("threads/exited")
		c.gNicDepth = r.NewGauge("cm5/nic_depth")
		c.gReadyDepth = r.NewGauge("threads/ready_depth")
		c.gCoresBusy = r.NewGauge("oam/cores_busy")
		c.gCompatQueue = r.NewGauge("oam/compat_queue")
		c.hHandler = r.NewHistogram("am/handler_time",
			sim.Micros(1), sim.Micros(3), sim.Micros(10), sim.Micros(30),
			sim.Micros(100), sim.Micros(300), sim.Micros(1000))
		c.hWire = r.NewHistogram("cm5/wire_latency",
			sim.Micros(1), sim.Micros(2), sim.Micros(5), sim.Micros(10),
			sim.Micros(50), sim.Micros(200))
		c.hCall = r.NewHistogram("rpc/call_time",
			sim.Micros(10), sim.Micros(30), sim.Micros(100), sim.Micros(300),
			sim.Micros(1000), sim.Micros(10000))
		c.hKVLat = r.NewHistogram("kv/latency", kvLatBounds...)
	}

	if c.tb != nil {
		for i := 0; i < n; i++ {
			c.tb.procMeta(i, fmt.Sprintf("node %d", i))
			for _, tn := range tidNames {
				c.tb.threadMeta(i, tn.tid, tn.name)
			}
		}
	}

	// Observed from here: a node's scheduler is made on first use, its
	// idle process spawned then.
	c.eng.SetSink(c)
	for i := 0; i < n; i++ {
		c.bind(i, u.Scheduler(i).Idle())
	}
}

// bind records that p runs on node; a spawn counted on node 0 while p
// was unbound moves there.
func (c *Collector) bind(node int, p *sim.Proc) {
	c.procNode[p.ID()] = node
	if c.unbound[p.ID()] {
		delete(c.unbound, p.ID())
		c.cSpawns.move(0, node)
	}
}

// node resolves a proc to the node whose CPU it represents; ok is false
// for procs not bound to any node (none exist in the current stack, but
// the collector must not guess).
func (c *Collector) node(p *sim.Proc) (int, bool) {
	n, ok := c.procNode[p.ID()]
	return n, ok
}

// Engine returns the engine under observation: its Charged is the total the
// profile must account for exactly, its event and switch counters are what
// the run cost the host.
func (c *Collector) Engine() *sim.Engine { return c.eng }

// Registry returns the metrics sink (nil unless Options.Metrics).
func (c *Collector) Registry() *Registry { return c.reg }

// Profile returns the profiler sink (nil unless Options.Profile).
func (c *Collector) Profile() *Profile { return c.prof }

// WriteTrace writes the accumulated Perfetto JSON document.
func (c *Collector) WriteTrace(w io.Writer) error {
	if c.tb == nil {
		return fmt.Errorf("obs: collector has no trace sink")
	}
	return c.tb.writeDoc(w)
}

// WriteMetrics renders the instrument registry as text.
func (c *Collector) WriteMetrics(w io.Writer) error {
	if c.reg == nil {
		return fmt.Errorf("obs: collector has no metrics sink")
	}
	return c.reg.Write(w)
}

// WriteProfile renders the top-n virtual-CPU profile table.
func (c *Collector) WriteProfile(w io.Writer, n int) error {
	if c.prof == nil {
		return fmt.Errorf("obs: collector has no profile sink")
	}
	return c.prof.Write(w, n)
}

// Observe routes one record to its layer's instruments.
func (c *Collector) Observe(r sim.Record) {
	switch r.Layer {
	case sim.LayerSim:
		c.observeSim(r)
	case sim.LayerCM5:
		c.observeNet(r)
	case sim.LayerThreads:
		c.observeThreads(r)
	case sim.LayerAM:
		c.observeHandler(r)
	case sim.LayerOAM:
		c.observeOAM(r)
	case sim.LayerRPC:
		c.observeRPC(r)
	}
}

func (c *Collector) observeSim(r sim.Record) {
	switch r.Kind {
	case sim.RecResume:
		if n, ok := c.node(r.Proc); ok {
			c.cResumes.Inc(n)
		}
	case sim.RecExit:
		delete(c.unbound, r.Proc.ID()) // never bound: its spawn stays on node 0
		if n, ok := c.node(r.Proc); ok {
			c.cExits.Inc(n)
		}
	case sim.RecCharge:
		start, d := sim.Time(r.A), sim.Duration(r.B)
		if c.prof != nil {
			c.prof.Add(r.Proc.Name(), d)
		}
		if c.tb != nil && d > 0 {
			if n, ok := c.node(r.Proc); ok {
				c.tb.span(r.Proc.Name(), "cpu", start, d, n, tidCPU, "")
			}
		}
	case sim.RecSpawn:
		// Counted where the process is bound, which comes after the spawn;
		// until then, and for good if it never is, on node 0.
		c.cSpawns.Inc(0)
		c.unbound[r.Proc.ID()] = true
	}
}

func (c *Collector) observeNet(r sim.Record) {
	switch r.Kind {
	case cm5.RecSent, cm5.RecDup:
		busy, wire := sim.Duration(r.A), sim.Duration(r.B)
		if r.Kind == cm5.RecSent {
			c.cSent.Inc(r.Node)
			c.hWire.Observe(r.Node, wire)
		}
		if c.tb != nil {
			name := c.u.HandlerName(am.HandlerID(r.ID))
			if r.Kind == cm5.RecDup {
				name += " (dup)"
			}
			args := fmt.Sprintf(`{"src":%d,"dst":%d,"bytes":%d}`, r.Node, r.Peer, r.N)
			// The flight's timestamps are fully determined at injection
			// time: the packet leaves when the sender's busy window ends
			// and lands wire later, so both async endpoints are emitted here.
			c.flightID++
			c.tb.asyncBegin(name, "flight", r.T.Add(busy), r.Node, tidNet, c.flightID, args)
			c.tb.asyncEnd(name, "flight", r.T.Add(busy+wire), r.Node, tidNet, c.flightID)
		}
	case cm5.RecDelivered:
		c.cDelivered.Inc(r.Node)
		c.gNicDepth.Set(r.Node, int64(r.N))
		if c.tb != nil {
			c.tb.counter("nic_depth", r.T, r.Node, int64(r.N))
		}
	case cm5.RecLost:
		c.cLost.Inc(r.Node)
		if c.tb != nil {
			c.tb.instant("lost: "+cm5.FaultKind(r.ID).String(), "fault", r.T, r.Node, tidNet,
				fmt.Sprintf(`{"dst":%d}`, r.Peer))
		}
	case cm5.RecBackpressure:
		c.cBackpress.Inc(r.Node)
		if c.tb != nil {
			c.tb.instant("backpressure", "fault", r.T, r.Node, tidNet,
				fmt.Sprintf(`{"dst":%d}`, r.Peer))
		}
	}
}

func (c *Collector) observeThreads(r sim.Record) {
	switch r.Kind {
	case threads.RecCreated:
		c.cThCreated.Inc(r.Node)
		if c.tb != nil {
			c.nextID++
			c.threadID[threadKey{r.Node, r.ID}] = c.nextID
			c.tb.asyncBegin(r.Name, "thread", r.T, r.Node, tidThreads, c.nextID, "")
		}
	case threads.RecStarted, threads.RecStartedLive:
		c.cThStarted.Inc(r.Node)
		if r.Kind == threads.RecStartedLive {
			c.cThLive.Inc(r.Node)
		}
	case threads.RecExited:
		c.cThExited.Inc(r.Node)
		if c.tb != nil {
			k := threadKey{r.Node, r.ID}
			if id, ok := c.threadID[k]; ok {
				c.tb.asyncEnd(r.Name, "thread", r.T, r.Node, tidThreads, id)
				delete(c.threadID, k)
			}
		}
	case threads.RecReady:
		c.gReadyDepth.Set(r.Node, int64(r.N))
		if c.tb != nil {
			c.tb.counter("ready_depth", r.T, r.Node, int64(r.N))
		}
	case threads.RecBound:
		c.bind(r.Node, r.Proc)
	}
}

func (c *Collector) observeHandler(r sim.Record) {
	node := r.Node
	if r.Kind == am.RecHandlerStart {
		begin(c.handlers, r)
		return
	}
	start := end(c.handlers, r)
	c.cHandlers.Inc(node)
	c.hHandler.Observe(node, r.T.Sub(start))
	if c.tb != nil {
		c.tb.span(c.u.HandlerName(am.HandlerID(r.ID)), "handler", start, r.T.Sub(start), node, tidHandler,
			fmt.Sprintf(`{"depth":%d}`, r.N))
	}
}

func (c *Collector) observeOAM(r sim.Record) {
	node := r.Node
	switch r.Kind {
	case oam.RecAttempt:
		c.cAttempts.Inc(node)
		begin(c.dispatches, r)
	case oam.RecCompleted, oam.RecPromoted, oam.RecNacked:
		c.settled(r)
	case oam.RecCores:
		c.gCoresBusy.Set(node, int64(r.N))
		if c.tb != nil {
			c.tb.counter("cores_busy", r.T, node, int64(r.N))
		}
	case oam.RecCompatQueue:
		c.gCompatQueue.Set(node, int64(r.N))
		if c.tb != nil {
			c.tb.counter("compat_queue", r.T, node, int64(r.N))
		}
	}
}

// settled closes an optimistic dispatch's span with its outcome.
func (c *Collector) settled(r sim.Record) {
	node := r.Node
	start := end(c.dispatches, r)
	outcome := oam.Outcome(r.Kind - oam.RecCompleted)
	reason, strategy := oam.Reason(r.B), oam.Strategy(r.A)
	aborted := outcome != oam.Completed
	switch outcome {
	case oam.Completed:
		c.cCompleted.Inc(node)
	case oam.Promoted:
		c.cPromoted.Inc(node)
	case oam.NackNeeded:
		c.cNacked.Inc(node)
	}
	if aborted {
		c.cAbortReason[int(reason)].Inc(node)
	}
	if c.tb != nil {
		var args string
		if aborted {
			args = fmt.Sprintf(`{"outcome":"%s","reason":"%s","strategy":"%s"}`,
				outcomeString(outcome), reason.String(), strategy.String())
		} else {
			args = fmt.Sprintf(`{"outcome":"completed","strategy":"%s"}`, strategy.String())
		}
		c.tb.span("oam "+r.Name, "oam", start, r.T.Sub(start), node, tidOAM, args)
		if aborted {
			c.tb.instant("abort: "+reason.String(), "abort", r.T, node, tidOAM,
				fmt.Sprintf(`{"proc":"%s","strategy":"%s"}`, jsonString(r.Name), strategy.String()))
		}
	}
}

// outcomeString names an oam outcome for trace args.
func outcomeString(o oam.Outcome) string {
	switch o {
	case oam.Completed:
		return "completed"
	case oam.Promoted:
		return "promoted"
	case oam.NackNeeded:
		return "nacked"
	default:
		return "unknown"
	}
}

func (c *Collector) observeRPC(r sim.Record) {
	node := r.Node
	switch r.Kind {
	case rpc.RecCallStart:
		begin(c.calls, r)
	case rpc.RecCallEnd, rpc.RecCallTimeout:
		start := end(c.calls, r)
		timedOut, retries := r.Kind == rpc.RecCallTimeout, uint64(r.N)
		c.cCalls.Inc(node)
		c.cRetries.Add(node, retries)
		if timedOut {
			c.cTimeouts.Inc(node)
		}
		c.hCall.Observe(node, r.T.Sub(start))
		if c.tb != nil {
			c.tb.span("call "+r.Name, "rpc", start, r.T.Sub(start), node, tidRPC,
				fmt.Sprintf(`{"timed_out":%t,"retries":%d}`, timedOut, retries))
		}
	case rpc.RecStale:
		c.cStale.Inc(node)
		if c.tb != nil {
			c.tb.instant("stale reply", "rpc", r.T, node, tidRPC, "")
		}
	}
}
