package obs

import (
	"fmt"
	"io"

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

// Collector implements every layer's probe interface (and sim.Tracer)
// and funnels the observations into the selected sinks. Create one with
// New, wire it with Attach before the simulation starts, and read the
// sinks after the run.
type Collector struct {
	opts Options
	u    *am.Universe
	eng  *sim.Engine

	reg  *Registry
	prof *Profile
	tb   *traceBuilder

	procNode map[uint64]int // sim proc id → node (from threads.ProcBound)
	threadID map[*threads.Thread]uint64
	nextID   uint64 // thread-lifetime async ids
	flightID uint64 // packet-flight async ids

	handlerStart [][]sim.Time // per node, stack of open handler runs
	oamStart     [][]sim.Time // per node, stack of open optimistic dispatches
	callStart    map[callKey][]sim.Time

	// Metrics instruments (nil sink ⇒ all nil).
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

type callKey struct {
	node int
	proc string
}

// abortReasons enumerates oam.Reason values in order, for per-reason
// counters and trace tags.
var abortReasons = [4]oam.Reason{oam.LockBusy, oam.CondFalse, oam.NetworkFull, oam.TooLong}

// New returns a collector with the selected sinks.
func New(opts Options) *Collector {
	c := &Collector{
		opts:      opts,
		procNode:  make(map[uint64]int),
		threadID:  make(map[*threads.Thread]uint64),
		callStart: make(map[callKey][]sim.Time),
		leaseID:   make(map[leaseKey]uint64),
		outageID:  make(map[int]uint64),
	}
	if opts.Profile {
		c.prof = NewProfile()
	}
	if opts.Trace {
		c.tb = &traceBuilder{}
	}
	return c
}

// Attach wires the collector into every layer of a universe (and, when
// non-nil, its RPC runtime). Call it after construction and before the
// simulation starts; rt may be nil for plain Active Message programs.
func (c *Collector) Attach(u *am.Universe, rt *rpc.Runtime) {
	c.u = u
	c.eng = u.Machine().Engine()
	n := u.N()
	c.handlerStart = make([][]sim.Time, n)
	c.oamStart = make([][]sim.Time, n)

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

	c.eng.SetProbe(c)
	c.eng.SetTracer(c)
	u.Machine().SetProbe(c)
	u.SetProbe(c)
	for i := 0; i < n; i++ {
		u.Scheduler(i).SetProbe(c)
	}
	if rt != nil {
		rt.SetProbe(c)
		rt.Dispatcher().SetProbe(c)
		rt.AsyncDispatcher().SetProbe(c)
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

// --- sim.Tracer ---

func (c *Collector) Resume(t sim.Time, p *sim.Proc) {
	if c.cResumes != nil {
		if n, ok := c.node(p); ok {
			c.cResumes.Inc(n)
		}
	}
}

func (c *Collector) Yield(t sim.Time, p *sim.Proc) {}

func (c *Collector) Exit(t sim.Time, p *sim.Proc) {
	if c.cExits != nil {
		if n, ok := c.node(p); ok {
			c.cExits.Inc(n)
		}
	}
}

// --- sim.Probe ---

func (c *Collector) Charged(p *sim.Proc, start sim.Time, d sim.Duration) {
	if c.prof != nil {
		c.prof.Add(p.Name(), d)
	}
	if c.tb != nil && d > 0 {
		if n, ok := c.node(p); ok {
			c.tb.span(p.Name(), "cpu", start, d, n, tidCPU, "")
		}
	}
}

func (c *Collector) Spawned(p *sim.Proc) {
	if c.cSpawns != nil {
		if n, ok := c.node(p); ok {
			c.cSpawns.Inc(n)
		} else {
			c.cSpawns.Inc(0) // pre-binding spawns count against node 0
		}
	}
}

// --- cm5.Probe ---

func (c *Collector) PacketSent(t sim.Time, pkt *cm5.Packet, busy, wire sim.Duration, dup bool, dupWire sim.Duration) {
	if c.cSent != nil {
		c.cSent.Inc(pkt.Src)
		c.hWire.Observe(pkt.Src, wire)
	}
	if c.tb != nil {
		name := c.u.HandlerName(am.HandlerID(pkt.Handler))
		args := fmt.Sprintf(`{"src":%d,"dst":%d,"bytes":%d}`, pkt.Src, pkt.Dst, len(pkt.Payload))
		// The flight's timestamps are fully determined at injection time:
		// the packet leaves when the sender's busy window ends and lands
		// wire later, so both async endpoints are emitted here.
		c.flightID++
		c.tb.asyncBegin(name, "flight", t.Add(busy), pkt.Src, tidNet, c.flightID, args)
		c.tb.asyncEnd(name, "flight", t.Add(busy+wire), pkt.Src, tidNet, c.flightID)
		if dup {
			c.flightID++
			c.tb.asyncBegin(name+" (dup)", "flight", t.Add(busy), pkt.Src, tidNet, c.flightID, args)
			c.tb.asyncEnd(name+" (dup)", "flight", t.Add(busy+dupWire), pkt.Src, tidNet, c.flightID)
		}
	}
}

func (c *Collector) PacketDelivered(t sim.Time, pkt *cm5.Packet, queueDepth int) {
	if c.cDelivered != nil {
		c.cDelivered.Inc(pkt.Dst)
		c.gNicDepth.Set(pkt.Dst, int64(queueDepth))
	}
	if c.tb != nil {
		c.tb.counter("nic_depth", t, pkt.Dst, int64(queueDepth))
	}
}

func (c *Collector) PacketLost(t sim.Time, src, dst int, kind cm5.FaultKind) {
	if c.cLost != nil {
		c.cLost.Inc(src)
	}
	if c.tb != nil {
		c.tb.instant("lost: "+kind.String(), "fault", t, src, tidNet,
			fmt.Sprintf(`{"dst":%d}`, dst))
	}
}

func (c *Collector) Backpressure(t sim.Time, src, dst int) {
	if c.cBackpress != nil {
		c.cBackpress.Inc(src)
	}
	if c.tb != nil {
		c.tb.instant("backpressure", "fault", t, src, tidNet,
			fmt.Sprintf(`{"dst":%d}`, dst))
	}
}

// --- threads.Probe ---

func (c *Collector) ThreadCreated(t sim.Time, node int, th *threads.Thread) {
	if c.cThCreated != nil {
		c.cThCreated.Inc(node)
	}
	if c.tb != nil {
		c.nextID++
		c.threadID[th] = c.nextID
		c.tb.asyncBegin(th.Name(), "thread", t, node, tidThreads, c.nextID, "")
	}
}

func (c *Collector) ThreadStarted(t sim.Time, node int, th *threads.Thread, liveStack bool) {
	if c.cThStarted != nil {
		c.cThStarted.Inc(node)
		if liveStack {
			c.cThLive.Inc(node)
		}
	}
}

func (c *Collector) ThreadExited(t sim.Time, node int, th *threads.Thread) {
	if c.cThExited != nil {
		c.cThExited.Inc(node)
	}
	if c.tb != nil {
		if id, ok := c.threadID[th]; ok {
			c.tb.asyncEnd(th.Name(), "thread", t, node, tidThreads, id)
			delete(c.threadID, th)
		}
	}
}

func (c *Collector) ReadyDepth(t sim.Time, node, depth int) {
	if c.gReadyDepth != nil {
		c.gReadyDepth.Set(node, int64(depth))
	}
	if c.tb != nil {
		c.tb.counter("ready_depth", t, node, int64(depth))
	}
}

func (c *Collector) ProcBound(node int, p *sim.Proc) {
	c.procNode[p.ID()] = node
}

// --- am.Probe ---

func (c *Collector) HandlerStart(t sim.Time, node int, h am.HandlerID, depth int) {
	c.handlerStart[node] = append(c.handlerStart[node], t)
}

func (c *Collector) HandlerEnd(t sim.Time, node int, h am.HandlerID, depth int) {
	st := c.handlerStart[node]
	start := st[len(st)-1]
	c.handlerStart[node] = st[:len(st)-1]
	if c.cHandlers != nil {
		c.cHandlers.Inc(node)
		c.hHandler.Observe(node, t.Sub(start))
	}
	if c.tb != nil {
		c.tb.span(c.u.HandlerName(h), "handler", start, t.Sub(start), node, tidHandler,
			fmt.Sprintf(`{"depth":%d}`, depth))
	}
}

// --- oam.Probe ---

func (c *Collector) Attempt(t sim.Time, node int, name string, strategy oam.Strategy) {
	if c.cAttempts != nil {
		c.cAttempts.Inc(node)
	}
	c.oamStart[node] = append(c.oamStart[node], t)
}

func (c *Collector) Settled(t sim.Time, node int, name string, outcome oam.Outcome, reason oam.Reason, strategy oam.Strategy) {
	st := c.oamStart[node]
	start := st[len(st)-1]
	c.oamStart[node] = st[:len(st)-1]
	aborted := outcome != oam.Completed
	if c.cAttempts != nil {
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
	}
	if c.tb != nil {
		var args string
		if aborted {
			args = fmt.Sprintf(`{"outcome":"%s","reason":"%s","strategy":"%s"}`,
				outcomeString(outcome), reason.String(), strategy.String())
		} else {
			args = fmt.Sprintf(`{"outcome":"completed","strategy":"%s"}`, strategy.String())
		}
		c.tb.span("oam "+name, "oam", start, t.Sub(start), node, tidOAM, args)
		if aborted {
			c.tb.instant("abort: "+reason.String(), "abort", t, node, tidOAM,
				fmt.Sprintf(`{"proc":"%s","strategy":"%s"}`, jsonString(name), strategy.String()))
		}
	}
}

// --- oam.MultiProbe (multiactive dispatch tracks) ---

func (c *Collector) CoreOccupancy(t sim.Time, node int, busy int) {
	if c.gCoresBusy != nil {
		c.gCoresBusy.Set(node, int64(busy))
	}
	if c.tb != nil {
		c.tb.counter("cores_busy", t, node, int64(busy))
	}
}

func (c *Collector) CompatQueueDepth(t sim.Time, node int, depth int) {
	if c.gCompatQueue != nil {
		c.gCompatQueue.Set(node, int64(depth))
	}
	if c.tb != nil {
		c.tb.counter("compat_queue", t, node, int64(depth))
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

// --- rpc.Probe ---

func (c *Collector) CallStart(t sim.Time, node int, proc string) {
	k := callKey{node, proc}
	c.callStart[k] = append(c.callStart[k], t)
}

func (c *Collector) CallEnd(t sim.Time, node int, proc string, timedOut bool, retries uint64) {
	k := callKey{node, proc}
	st := c.callStart[k]
	start := st[len(st)-1]
	c.callStart[k] = st[:len(st)-1]
	if c.cCalls != nil {
		c.cCalls.Inc(node)
		c.cRetries.Add(node, retries)
		if timedOut {
			c.cTimeouts.Inc(node)
		}
		c.hCall.Observe(node, t.Sub(start))
	}
	if c.tb != nil {
		c.tb.span("call "+proc, "rpc", start, t.Sub(start), node, tidRPC,
			fmt.Sprintf(`{"timed_out":%t,"retries":%d}`, timedOut, retries))
	}
}

func (c *Collector) StaleReply(t sim.Time, node int) {
	if c.cStale != nil {
		c.cStale.Inc(node)
	}
	if c.tb != nil {
		c.tb.instant("stale reply", "rpc", t, node, tidRPC, "")
	}
}
