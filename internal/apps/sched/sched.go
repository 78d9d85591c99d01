// Package sched is the chaos-hardened cluster-scheduler control plane:
// one scheduler node leases resource-counted jobs to agent nodes over
// reliable ORPC, agents drive a phi-style failure detector with periodic
// heartbeats, and leases expire, migrate off dead agents, and are fenced
// by per-job epochs so a revived agent's stale completion can never be
// accepted. Unlike the run-to-completion evaluation apps, the workload
// here is the control plane itself: it must keep making correct
// decisions while the machine drops, duplicates, partitions, slows, and
// crashes under a cm5.FaultPlan.
//
// Every control-plane transition is recorded on the scheduler node in
// its execution order, so the record — like everything else in the
// kernel — is bit-identical at any shard count. CheckInvariants replays
// the record after a run and proves the safety contract: every job's
// completion accepted exactly once, lease epochs strictly monotonic, and
// no placement on an agent the detector had declared dead at that
// virtual time.
package sched

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/reliable"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// JobSpec is one job's resource demand and runtime.
type JobSpec struct {
	CPU int // cpu units, out of agentCPU per agent
	Mem int // memory units, out of agentMem per agent
	Dur sim.Duration
}

// GenJobs derives a deterministic job table from a seed (a cm5.SplitMix
// stream): demands that fit a single default agent inventory, runtimes of
// 200 us to 1.5 ms.
func GenJobs(n int, seed int64) []JobSpec {
	out := make([]JobSpec, n)
	s := cm5.SplitMix(uint64(seed) ^ 0x6a09e667f3bcc909)
	for i := range out {
		z := s.Next()
		out[i] = JobSpec{
			CPU: 1 + int(z%4),
			Mem: 1 + int((z>>8)%8),
			Dur: sim.Micros(float64(200 + (z>>16)%1301)),
		}
	}
	return out
}

// Probe observes control-plane transitions; obs hangs its instruments
// and trace spans here. Probes are pure observers — they must not
// schedule events or charge virtual time.
type Probe interface {
	// Heartbeat fires for every fresh (non-stale) heartbeat accepted.
	Heartbeat(t sim.Time, agent int)
	// AgentDead / AgentAlive fire on detector verdict transitions.
	AgentDead(t sim.Time, agent int)
	AgentAlive(t sim.Time, agent int)
	// LeasePlaced / LeaseReclaimed bracket one lease's lifetime.
	LeasePlaced(t sim.Time, job, agent, epoch int)
	LeaseReclaimed(t sim.Time, job, agent, epoch int, why ReclaimReason)
	// CompletionAccepted / CompletionRejected report epoch-fencing
	// decisions.
	CompletionAccepted(t sim.Time, job, agent, epoch int)
	CompletionRejected(t sim.Time, job, agent, epoch int)
}

// Service parameters no caller varies.
const (
	// agentCPU / agentMem are each agent's resource inventory.
	agentCPU = 8
	agentMem = 16
	// phiThreshold is the detector's suspicion threshold, in units of
	// mean heartbeat interarrival.
	phiThreshold = 8
	// callTimeout is the per-attempt RPC deadline; callAttempts bounds
	// idempotent retries per call.
	callTimeout  = 1 * sim.Millisecond
	callAttempts = 4
	// tick is the scheduler control-loop period.
	tick = 100 * sim.Microsecond
	// maxTime aborts the run if virtual time exceeds it — a safety net
	// against fault plans with no recovery path.
	maxTime = sim.Time(60 * sim.Second)
)

// Config parameterizes a scheduler run. The reliable transport is always
// attached, at its defaults; aborted handlers rerun.
type Config struct {
	Jobs  int       // job count when Specs is nil (default 16)
	Specs []JobSpec // explicit job table; overrides Jobs
	Seed  int64
	apps.RunOptions
	// Fault is the injected fault plan (nil for a perfect network).
	Fault *cm5.FaultPlan
	// HeartbeatEvery is the agent heartbeat period (default 500 us).
	HeartbeatEvery sim.Duration
	// LeaseTimeout reclaims a placed job with no accepted completion
	// (default 20 ms — generous enough that a fully loaded agent's
	// round-robin job slices finish in time on a clean network).
	LeaseTimeout sim.Duration
	// Probe, when set, receives control-plane transitions.
	Probe Probe
}

func (cfg Config) withDefaults() Config {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 16
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = sim.Micros(500)
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = sim.Micros(20000)
	}
	return cfg
}

// Stats reports what the control plane did during a run.
type Stats struct {
	Placements   uint64 // leases issued
	Migrations   uint64 // leases reclaimed off a declared-dead agent
	Expiries     uint64 // leases reclaimed by the timeout watchdog
	PlaceFails   uint64 // leases reclaimed after a failed or refused placement call
	DeadDeclared uint64 // detector death verdicts
	Recovered    uint64 // declared-dead agents readmitted by a heartbeat

	Heartbeats       uint64 // fresh heartbeats accepted
	StaleHeartbeats  uint64 // duplicate or reordered heartbeats ignored
	Accepted         uint64 // completions accepted at the live lease epoch
	DupCompletions   uint64 // re-deliveries of the accepted completion
	StaleCompletions uint64 // completions fenced off (wrong epoch or agent)
	CompleteGiveUps  uint64 // agent runners that exhausted completion attempts

	Timeouts     uint64 // client-side call deadline expirations, all procedures
	Retries      uint64 // client-side nack retries, all procedures
	StaleReplies uint64 // replies that arrived after their call was abandoned

	Rel       reliable.Stats
	Fault     cm5.FaultStats
	FaultHash uint64

	// Record is the scheduler-side event record (see CheckInvariants);
	// RecordHash folds it into one word for cross-shard comparison.
	Record     []Event
	RecordHash uint64
	CrashedAt  []bool // per node, indexed by id (0 = scheduler)
}

// Heartbeat reply: one bool — true when every job is done and the agent
// may exit. Completion reply status codes:
const (
	completeStale    = iota // fenced off: wrong epoch or agent
	completeAccepted        // first completion at the live lease epoch
	completeDup             // re-delivery of the already-accepted completion
)

// Scheduler-side job states.
const (
	jsQueued = iota
	jsPlaced
	jsDone
)

type jobState struct {
	st        uint8
	agent     int
	epoch     int
	placedAt  sim.Time
	doneEpoch int
	doneAgent int
}

// agentBook is the scheduler's view of one agent's free inventory.
type agentBook struct {
	freeCPU int
	freeMem int
}

// master is the scheduler node's bookkeeping; every field is guarded by
// mu and only ever touched from node-0 contexts (the control loop and
// the heartbeat/completion handlers), so the event record accumulates in
// node-0 execution order.
type master struct {
	cfg       Config
	nAg       int
	mu        *threads.Mutex
	det       *detector
	specs     []JobSpec
	jobs      []jobState
	books     []agentBook // indexed by agent id; slot 0 unused
	queue     []int       // FIFO of queued job ids
	remaining int
	done      bool
	rr        int // round-robin cursor over agents
	rec       []Event
	stats     Stats
}

// record appends one event and forwards it to the probe.
func (m *master) record(ev Event) {
	m.rec = append(m.rec, ev)
	p := m.cfg.Probe
	if p == nil {
		return
	}
	switch ev.Kind {
	case EvPlace:
		p.LeasePlaced(ev.T, ev.Job, ev.Agent, ev.Epoch)
	case EvDone:
		p.CompletionAccepted(ev.T, ev.Job, ev.Agent, ev.Epoch)
	case EvStale:
		p.CompletionRejected(ev.T, ev.Job, ev.Agent, ev.Epoch)
	case EvExpire:
		p.LeaseReclaimed(ev.T, ev.Job, ev.Agent, ev.Epoch, ev.Why)
	case EvDead:
		p.AgentDead(ev.T, ev.Agent)
	case EvAlive:
		p.AgentAlive(ev.T, ev.Agent)
	}
}

// reclaim returns a placed job to the queue and frees its booked
// inventory. The job keeps its epoch; the next placement bumps it, so a
// completion from the reclaimed lease is fenced off.
func (m *master) reclaim(now sim.Time, j int, why ReclaimReason) {
	js := &m.jobs[j]
	m.books[js.agent].freeCPU += m.specs[j].CPU
	m.books[js.agent].freeMem += m.specs[j].Mem
	m.record(Event{T: now, Kind: EvExpire, Job: j, Agent: js.agent, Epoch: js.epoch, Why: why})
	js.st = jsQueued
	m.queue = append(m.queue, j)
	switch why {
	case ReasonTimeout:
		m.stats.Expiries++
	case ReasonDead:
		m.stats.Migrations++
	case ReasonPlaceFail:
		m.stats.PlaceFails++
	}
}

// pickAgent is the placement policy: round-robin first fit over agents
// the detector considers alive. Returns 0 when nothing fits right now.
func (m *master) pickAgent(s JobSpec) int {
	for i := 0; i < m.nAg; i++ {
		ag := 1 + (m.rr+i)%m.nAg
		b := &m.books[ag]
		if m.det.isAlive(ag) && b.freeCPU >= s.CPU && b.freeMem >= s.Mem {
			m.rr = (m.rr + i + 1) % m.nAg
			return ag
		}
	}
	return 0
}

type placeKey struct{ job, epoch int }

// runningJob is one live runner's lease state. Epoch is mutable: when
// the scheduler re-issues a lease to the same agent (after a timeout
// reclaim) the placement handler adopts the newer epoch into the live
// runner instead of spawning a second one, so the eventual completion
// carries the epoch the fence expects.
type runningJob struct {
	epoch int
}

// agentState is one agent node's local bookkeeping, guarded by its own
// mutex and only ever touched from that node's contexts.
type agentState struct {
	mu      *threads.Mutex
	node    *cm5.Node
	ep      *am.Endpoint
	freeCPU int
	freeMem int
	running map[int]*runningJob   // job id -> live runner
	seen    map[placeKey]struct{} // placements already accepted (idempotence)
	giveUps uint64                // runners that exhausted completion attempts
}

// hbErrLimit bounds an agent's consecutive failed heartbeats: with the
// default period that is well past any healing partition in the chaos
// grids, but still lets a run with an unreachable scheduler quiesce.
const hbErrLimit = 200

// workSlice is the agent-side compute granularity: runner threads charge
// their job's runtime in slices this long and service the endpoint
// between slices, so co-resident jobs, placements, and heartbeats all
// interleave fairly on the agent's one CPU.
const workSlice = 50 * sim.Microsecond

// Run executes the control plane on agents+1 nodes (node 0 is the
// scheduler) until every job's completion has been accepted, and returns
// the run result, the control-plane statistics, and the recorded event
// history. Robustness comes from four mechanisms:
//
//   - every message rides the reliable transport, so loss and
//     duplication cost retransmits, not correctness;
//   - agents heartbeat the scheduler's phi-style failure detector; an
//     agent that falls silent past phiThreshold mean intervals is
//     declared dead and its leases migrate, and a heartbeat from a
//     declared-dead agent readmits it;
//   - leases expire: a placed job whose completion has not been accepted
//     within LeaseTimeout is re-queued for another agent;
//   - every re-issue bumps the job's epoch, and the scheduler accepts a
//     completion only at the exact (epoch, agent) of the live lease —
//     duplicate execution is allowed, duplicate acceptance is not.
func Run(agents int, cfg Config) (apps.Result, Stats, error) {
	cfg = cfg.withDefaults()
	if agents < 1 {
		return apps.Result{}, Stats{}, fmt.Errorf("sched: need at least one agent, got %d", agents)
	}
	specs := cfg.Specs
	if specs == nil {
		specs = GenJobs(cfg.Jobs, cfg.Seed)
	}
	for j, s := range specs {
		if s.CPU < 1 || s.Mem < 0 || s.Dur <= 0 {
			return apps.Result{}, Stats{}, fmt.Errorf("sched: job %d has invalid spec %+v", j, s)
		}
		if s.CPU > agentCPU || s.Mem > agentMem {
			return apps.Result{}, Stats{}, fmt.Errorf(
				"sched: job %d (%d cpu, %d mem) exceeds the agent inventory (%d, %d)",
				j, s.CPU, s.Mem, agentCPU, agentMem)
		}
	}

	nodes := agents + 1
	eng := cfg.Engine(cfg.Seed, nodes)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, nodes, cm5.DefaultCostModel())
	u.Machine().SetFaultPlan(cfg.Fault)
	tr := reliable.Attach(u, reliable.Options{})
	rt := rpc.New(u, rpc.Options{Mode: rpc.ORPC, OAM: oam.Options{Strategy: oam.Rerun, Cores: cfg.Cores}})

	m := &master{
		cfg:       cfg,
		nAg:       agents,
		mu:        threads.NewMutex(u.Scheduler(0)),
		det:       newDetector(agents, cfg.HeartbeatEvery),
		specs:     specs,
		jobs:      make([]jobState, len(specs)),
		books:     make([]agentBook, agents+1),
		remaining: len(specs),
	}
	for i := 1; i <= agents; i++ {
		m.books[i] = agentBook{freeCPU: agentCPU, freeMem: agentMem}
	}
	for j := range specs {
		m.queue = append(m.queue, j)
	}

	ags := make([]*agentState, nodes)
	for i := 1; i < nodes; i++ {
		ags[i] = &agentState{
			mu:      threads.NewMutex(u.Scheduler(i)),
			node:    u.Endpoint(i).Node(),
			ep:      u.Endpoint(i),
			freeCPU: agentCPU,
			freeMem: agentMem,
			running: make(map[int]*runningJob),
			seen:    make(map[placeKey]struct{}),
		}
	}

	heartbeat := rt.Define("sched/heartbeat", func(e *oam.Env, caller int, arg []byte) []byte {
		seq := rpc.NewDec(arg).U64()
		now := e.Ctx().P.Now()
		e.Lock(m.mu)
		recovered, stale := m.det.beat(caller, seq, now)
		if stale {
			m.stats.StaleHeartbeats++
		} else {
			m.stats.Heartbeats++
			if cfg.Probe != nil {
				cfg.Probe.Heartbeat(now, caller)
			}
			if recovered {
				m.stats.Recovered++
				m.record(Event{T: now, Kind: EvAlive, Job: -1, Agent: caller})
			}
		}
		done := m.done
		e.Unlock(m.mu)
		enc := rpc.NewEnc(1)
		enc.Bool(done)
		return enc.Bytes()
	})

	complete := rt.Define("sched/complete", func(e *oam.Env, caller int, arg []byte) []byte {
		dec := rpc.NewDec(arg)
		job := int(dec.U32())
		epoch := int(dec.U32())
		now := e.Ctx().P.Now()
		e.Lock(m.mu)
		js := &m.jobs[job]
		status := uint8(completeStale)
		switch {
		case js.st == jsPlaced && js.agent == caller && js.epoch == epoch:
			// The fence: exactly the live lease's (agent, epoch) — a
			// completion from any reclaimed epoch can never get here.
			js.st = jsDone
			js.doneEpoch, js.doneAgent = epoch, caller
			m.books[caller].freeCPU += m.specs[job].CPU
			m.books[caller].freeMem += m.specs[job].Mem
			m.remaining--
			m.stats.Accepted++
			m.record(Event{T: now, Kind: EvDone, Job: job, Agent: caller, Epoch: epoch})
			status = completeAccepted
		case js.st == jsDone && js.doneEpoch == epoch && js.doneAgent == caller:
			// Network re-delivery (or idempotent retry) of the accepted
			// completion: acknowledge without re-accepting.
			m.stats.DupCompletions++
			status = completeDup
		default:
			m.stats.StaleCompletions++
			m.record(Event{T: now, Kind: EvStale, Job: job, Agent: caller, Epoch: epoch})
		}
		e.Unlock(m.mu)
		enc := rpc.NewEnc(1)
		enc.U8(status)
		return enc.Bytes()
	})

	// runJob burns a job's runtime on the agent in slices, servicing the
	// endpoint between slices so heartbeats and further placements keep
	// flowing, then frees local inventory and reports the completion.
	runJob := func(c threads.Ctx, a *agentState, rj *runningJob, job, cpu, mem int, dur sim.Duration) {
		for rem := dur; rem > 0; {
			if a.node.Crashed() {
				return // a dead machine frees nothing and reports nothing
			}
			d := workSlice
			if rem < d {
				d = rem
			}
			c.P.Charge(d)
			rem -= d
			apps.Service(c, a.ep)
		}
		if a.node.Crashed() {
			return
		}
		a.mu.Lock(c)
		epoch := rj.epoch // the newest adopted lease epoch
		delete(a.running, job)
		a.freeCPU += cpu
		a.freeMem += mem
		a.mu.Unlock(c)
		enc := rpc.NewEnc(8)
		enc.U32(uint32(job))
		enc.U32(uint32(epoch))
		if _, err := complete.CallIdempotent(c, 0, enc, callTimeout, callAttempts); err != nil {
			// The scheduler is unreachable: the lease will expire there
			// and the job will migrate; this runner's work is lost.
			a.mu.Lock(c)
			a.giveUps++
			a.mu.Unlock(c)
		}
	}

	place := rt.Define("agent/place", func(e *oam.Env, caller int, arg []byte) []byte {
		dec := rpc.NewDec(arg)
		job := int(dec.U32())
		epoch := int(dec.U32())
		cpu := int(dec.U32())
		mem := int(dec.U32())
		dur := sim.Duration(dec.I64())
		a := ags[e.Node()]
		e.Lock(a.mu)
		key := placeKey{job, epoch}
		accept := false
		if _, dup := a.seen[key]; dup {
			// Idempotent-retry or network duplicate of an accepted
			// placement: re-ack, no second runner.
			accept = true
		} else if rj, live := a.running[job]; live {
			// The job is already running here from an earlier epoch of
			// the same lease chain (the scheduler reclaimed on timeout
			// and re-issued to us). Adopt the newer epoch so the eventual
			// completion passes the fence, rather than spawning a second
			// runner and double-charging inventory.
			if epoch > rj.epoch {
				rj.epoch = epoch
				a.seen[key] = struct{}{}
			}
			accept = true
		} else if a.freeCPU >= cpu && a.freeMem >= mem {
			a.seen[key] = struct{}{}
			a.freeCPU -= cpu
			a.freeMem -= mem
			rj := &runningJob{epoch: epoch}
			a.running[job] = rj
			accept = true
			// The runner thread is created after the lock is held: the
			// only optimistic abort point is the Lock itself, so an
			// aborted attempt cannot have spawned it.
			c := e.Ctx()
			name := threads.Name{Prefix: "sched/job/", A: int(job), B: int(epoch), Pair: true}
			c.S.CreateNamed(c, name, false, func(c threads.Ctx) {
				runJob(c, a, rj, job, cpu, mem, dur)
			})
		}
		e.Unlock(a.mu)
		enc := rpc.NewEnc(1)
		enc.Bool(accept)
		return enc.Bytes()
	})

	cfg.Attach(u, rt)

	var runErr error
	elapsed, err := u.SPMD(func(c threads.Ctx, me int) {
		ep := u.Endpoint(me)
		if me == 0 {
			// The control loop: detect deaths, expire leases, place work.
			// Verdicts and placements both happen here, under the same
			// mutex, so a placement can never race a death declaration —
			// the no-dead-placement invariant holds by construction.
			type intent struct{ job, agent, epoch int }
			for {
				m.mu.Lock(c)
				now := c.P.Now()
				for ag := 1; ag <= agents; ag++ {
					if m.det.isAlive(ag) && m.det.phi(ag, now) >= phiThreshold {
						m.det.markDead(ag)
						m.stats.DeadDeclared++
						m.record(Event{T: now, Kind: EvDead, Job: -1, Agent: ag})
						for j := range m.jobs {
							if m.jobs[j].st == jsPlaced && m.jobs[j].agent == ag {
								m.reclaim(now, j, ReasonDead)
							}
						}
					}
				}
				for j := range m.jobs {
					if m.jobs[j].st == jsPlaced && now.Sub(m.jobs[j].placedAt) > cfg.LeaseTimeout {
						m.reclaim(now, j, ReasonTimeout)
					}
				}
				// FIFO over the queue, first fit over live agents.
				// Head-of-line blocking is deliberate: placement order
				// stays deterministic and starvation-free.
				var intents []intent
				for len(m.queue) > 0 {
					j := m.queue[0]
					ag := m.pickAgent(m.specs[j])
					if ag == 0 {
						break
					}
					m.queue = m.queue[1:]
					js := &m.jobs[j]
					js.epoch++
					js.st, js.agent, js.placedAt = jsPlaced, ag, now
					m.books[ag].freeCPU -= m.specs[j].CPU
					m.books[ag].freeMem -= m.specs[j].Mem
					m.stats.Placements++
					m.record(Event{T: now, Kind: EvPlace, Job: j, Agent: ag, Epoch: js.epoch})
					intents = append(intents, intent{j, ag, js.epoch})
				}
				if m.remaining == 0 {
					m.done = true
				}
				done := m.done
				m.mu.Unlock(c)
				if done {
					// The idle loop keeps answering heartbeats and late
					// completions until the machine drains.
					return
				}
				// Push the leases decided above; a failed or refused call
				// reclaims the lease so the job migrates at epoch+1.
				for _, in := range intents {
					enc := rpc.NewEnc(24)
					enc.U32(uint32(in.job))
					enc.U32(uint32(in.epoch))
					enc.U32(uint32(m.specs[in.job].CPU))
					enc.U32(uint32(m.specs[in.job].Mem))
					enc.I64(int64(m.specs[in.job].Dur))
					res, err := place.CallIdempotent(c, in.agent, enc, callTimeout, callAttempts)
					if err == nil && rpc.NewDec(res.Bytes()).Bool() {
						continue
					}
					m.mu.Lock(c)
					js := &m.jobs[in.job]
					if js.st == jsPlaced && js.agent == in.agent && js.epoch == in.epoch {
						m.reclaim(c.P.Now(), in.job, ReasonPlaceFail)
					}
					m.mu.Unlock(c)
				}
				if c.P.Now() > maxTime {
					m.mu.Lock(c)
					runErr = fmt.Errorf("sched: exceeded MaxTime %v with %d jobs unfinished",
						maxTime, m.remaining)
					m.done = true
					m.mu.Unlock(c)
					return
				}
				c.P.Charge(tick)
				apps.Service(c, ep)
			}
		}

		// Agent: beat until told everything is done, servicing placements
		// and runner threads between beats. Heartbeat replies double as
		// the shutdown channel.
		a := ags[me]
		var seq uint64
		errs := 0
		for {
			if a.node.Crashed() {
				return
			}
			seq++
			enc := rpc.NewEnc(8)
			enc.U64(seq)
			res, err := heartbeat.CallWithDeadline(c, 0, enc, cfg.HeartbeatEvery)
			if err != nil {
				// Partitioned or slowed: keep beating — readmission is the
				// detector's job — but bound the streak so a run with an
				// unreachable scheduler still quiesces.
				errs++
				if errs > hbErrLimit {
					return
				}
			} else {
				errs = 0
				if rpc.NewDec(res.Bytes()).Bool() {
					return
				}
			}
			// Sleep, not Charge, between beats: see Scheduler.Sleep.
			c.S.Sleep(c, cfg.HeartbeatEvery)
		}
	})
	if err != nil {
		return apps.Result{}, m.stats, fmt.Errorf("sched: %w", err)
	}

	m.stats.Record = m.rec
	m.stats.RecordHash = RecordHash(m.rec)
	for i := 1; i < nodes; i++ {
		m.stats.CompleteGiveUps += ags[i].giveUps
	}
	hbSt, plSt, cmSt := heartbeat.Stats(), place.Stats(), complete.Stats()
	m.stats.Timeouts = hbSt.Timeouts + plSt.Timeouts + cmSt.Timeouts
	m.stats.Retries = hbSt.Retries + plSt.Retries + cmSt.Retries
	m.stats.StaleReplies = rt.StaleReplies()
	m.stats.Rel = tr.Stats()
	m.stats.Fault = u.Machine().FaultStats()
	m.stats.FaultHash = u.Machine().FaultTraceHash()
	for i := 0; i < nodes; i++ {
		m.stats.CrashedAt = append(m.stats.CrashedAt, u.Machine().Crashed(i))
	}
	if runErr != nil {
		return apps.Result{}, m.stats, runErr
	}

	// The answer is a checksum of the placement outcome — which agent ran
	// each job's accepted completion, at which epoch. It must match
	// across shard counts like any other application answer.
	answer := apps.HashInit
	for j := range m.jobs {
		answer = answer.Mix(uint64(j))
		answer = answer.Mix(uint64(m.jobs[j].doneEpoch))
		answer = answer.Mix(uint64(m.jobs[j].doneAgent))
	}
	res := apps.Result{
		System:  apps.ORPC,
		Nodes:   nodes,
		Elapsed: sim.Duration(elapsed),
		Answer:  uint64(answer),
	}
	oams := hbSt.OAMs + plSt.OAMs + cmSt.OAMs
	succ := hbSt.Successes + plSt.Successes + cmSt.Successes
	apps.FillResult(&res, u, oams, succ)
	return res, m.stats, nil
}
