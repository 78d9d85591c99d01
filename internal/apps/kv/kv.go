// Package kv is the sharded key-value/lock service under open-loop
// load: the first Servers nodes each own a key partition (key mod
// Servers) and serve get/put/cas plus lease-style lock/unlock through
// stub-compiled ORPC; every remaining node is a client generating
// open-loop arrivals — Poisson at a configurable rate, optionally
// bursty, diurnal, or Zipf-skewed — from a private counter-seeded
// stream, so the offered load is a pure function of (seed, client) and
// bit-identical at any shard count.
//
// Unlike the run-to-completion evaluation apps, the interesting regime
// here is saturation: arrivals do not slow down when the service does.
// Each server protects itself with admission control — when its NIC
// queue plus in-flight thread work exceeds a budget, the handler sheds
// the request inline, replying with a retry-after hint instead of doing
// the work. Under optimistic dispatch the shed path runs before any
// abort point and costs no thread; under traditional RPC the same
// verdict is only reached after the dispatch thread has been created
// and switched to, which is precisely the regime where thread-per-call
// collapses and OAM keeps its goodput.
//
// The same body serves all three systems of the paper: ORPC runs it as
// an Optimistic Active Message (short ops commit inline; a CAS is
// deliberately over the handler budget and promotes, making the object
// lock briefly busy so concurrent ops abort LockBusy and cascade —
// contention is real, not modeled); TRPC runs it in a thread per call;
// AM omits the object lock entirely (handlers are atomic), standing in
// for the hand-coded active-message version.
//
// Every lock-lease transition is recorded on the owning server in its
// execution order; CheckInvariants replays the record and the per-client
// accounting against the service's safety contract (see events.go).
package kv

import (
	"fmt"
	"sort"

	"repro/internal/am"
	"repro/internal/apps"
	kvgen "repro/internal/apps/kv/gen"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/reliable"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// Op labels one client operation for probes.
type Op uint8

const (
	OpGet Op = iota
	OpPut
	OpCas
	OpLock
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpCas:
		return "cas"
	case OpLock:
		return "lock"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Outcome classifies one open-loop arrival, exactly once.
type Outcome uint8

const (
	// OutcomeOK: the operation completed with an answer (a denied lock
	// and a failed CAS are answers).
	OutcomeOK Outcome = iota
	// OutcomeDrop: the client's outstanding-request cap was full at
	// arrival; nothing was sent.
	OutcomeDrop
	// OutcomeShed: the server shed the request ShedRetries+1 times and
	// the client gave up.
	OutcomeShed
	// OutcomeTimeout: the transport gave up (CallIdempotent exhausted
	// its attempts).
	OutcomeTimeout
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeDrop:
		return "drop"
	case OutcomeShed:
		return "shed"
	case OutcomeTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Probe observes the service; obs hangs its instruments here. Probes
// are pure observers — they must not schedule events or charge time.
type Probe interface {
	// RequestDone fires once per arrival with its final classification.
	// client is the client's node id (Servers + client index). lat is
	// the service latency: arrival to answer for get/put/cas, arrival to
	// lease decision for lock (the hold time is the client's, not the
	// service's). Drops report zero latency.
	RequestDone(t sim.Time, client int, op Op, out Outcome, lat sim.Duration)
	// ServerShed fires once per shed verdict with the queue depth that
	// triggered it. server is the server's node id.
	ServerShed(t sim.Time, server, depth int)
}

// Config parameterizes a service run.
type Config struct {
	Servers int // key-partition owners, nodes 0..Servers-1 (default 4)
	Clients int // load generators, nodes Servers.. (default 64)
	Keys    int // key-space size (default 128)
	Seed    int64
	// RunOptions.Cores > 1 enables multiactive ORPC dispatch: handlers
	// compatible per the kv.rpc matrix (read/read always, everything else
	// across disjoint keys) run concurrently on that many simulated
	// per-node cores. The object lock is dropped in this mode — the
	// matrix is the exclusion.
	apps.RunOptions
	// System selects the communication system under test; Adaptive and
	// HandlerBudget configure the optimistic dispatcher for ORPC (abort
	// strategy: rerun). Adaptive replaces the fixed HandlerBudget with the
	// dispatcher's per-node congestion- and history-driven controller.
	System        apps.System
	Adaptive      bool
	HandlerBudget sim.Duration // default 8 us: CAS promotes, the rest commit inline
	// Fault is the injected fault plan (nil for a perfect network). The
	// reliable transport is always attached, with its default options.
	Fault *cm5.FaultPlan

	// MeanIAT is each client's mean interarrival time at RateX=1
	// (default 400 us); RateX scales the offered load (default 1); Mode
	// shapes it over time; ZipfS skews key popularity (0 uniform).
	MeanIAT sim.Duration
	RateX   float64
	Mode    LoadMode
	ZipfS   float64
	// MixGet/MixPut/MixCas set the operation mix in per-mille of
	// arrivals (defaults 600/250/50); the remainder are lock cycles.
	MixGet int
	MixPut int
	MixCas int
	// Duration is the arrival window (default 20 ms); the run then
	// drains in-flight requests.
	Duration sim.Duration

	// Budget is the server admission threshold: a request is shed when
	// the NIC queue plus in-flight thread work exceeds it (default 24).
	// Clients back off linearly on a shed reply's retry-after hint
	// (retryBase) and give up after ShedRetries retries (default 6).
	Budget      int
	ShedRetries int
	// CallTimeout bounds each of an idempotent call's callAttempts tries
	// (default 1 ms).
	CallTimeout sim.Duration

	// LockTTL is the server-side lease lifetime; LockHold is how long a
	// client sits on a granted lease before unlocking (defaults 2 ms,
	// 100 us).
	LockTTL  sim.Duration
	LockHold sim.Duration

	// WorkGet is the service CPU cost of a get (default 2 us); the other
	// operations' costs are the work* constants below.
	WorkGet sim.Duration

	// Probe, when set, receives service transitions.
	Probe Probe
}

// Service parameters no caller varies.
const (
	// maxOutstanding caps each client's in-flight requests; an arrival
	// over the cap is dropped at the source.
	maxOutstanding = 8
	// retryBase is the retry-after hint a shed reply carries.
	retryBase = 200 * sim.Microsecond
	// callAttempts is how many times an idempotent call is tried.
	callAttempts = 3
	// Per-operation service CPU costs. CAS deliberately exceeds the
	// default HandlerBudget, so it promotes.
	workPut  = 6 * sim.Microsecond
	workCas  = 10 * sim.Microsecond
	workLock = 3 * sim.Microsecond
	// maxTime aborts the drain if virtual time exceeds it.
	maxTime = sim.Time(60 * sim.Second)
)

func (cfg Config) withDefaults() Config {
	if cfg.Servers <= 0 {
		cfg.Servers = 4
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 64
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 128
	}
	if cfg.HandlerBudget <= 0 {
		cfg.HandlerBudget = sim.Micros(8)
	}
	if cfg.MeanIAT <= 0 {
		cfg.MeanIAT = sim.Micros(400)
	}
	if cfg.RateX <= 0 {
		cfg.RateX = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = sim.Micros(20000)
	}
	if cfg.MixGet <= 0 {
		cfg.MixGet = 600
	}
	if cfg.MixPut <= 0 {
		cfg.MixPut = 250
	}
	if cfg.MixCas <= 0 {
		cfg.MixCas = 50
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 24
	}
	if cfg.ShedRetries <= 0 {
		cfg.ShedRetries = 6
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = sim.Micros(1000)
	}
	if cfg.LockTTL <= 0 {
		cfg.LockTTL = sim.Micros(2000)
	}
	if cfg.LockHold <= 0 {
		cfg.LockHold = sim.Micros(100)
	}
	if cfg.WorkGet <= 0 {
		cfg.WorkGet = sim.Micros(2)
	}
	return cfg
}

// ClientCounts is one client's exact arrival accounting. For a live
// client, Arrivals == OK + Drops + ShedGiveUps + TimeoutGiveUps.
type ClientCounts struct {
	Arrivals       uint64
	OK             uint64
	Drops          uint64
	ShedGiveUps    uint64
	TimeoutGiveUps uint64

	ShedWaits   uint64 // retry-after sleeps honored
	LockDenied  uint64 // lease decisions that came back held-elsewhere
	UnlockFails uint64 // unlocks whose lease had already expired or moved
	Crashed     bool   // the client node crashed; its ledger is a frozen prefix
}

// ServerCounts is one server's ledger.
type ServerCounts struct {
	Admitted  uint64 // requests that made it past admission and executed
	Shed      uint64 // admission rejections
	Applied   uint64 // mutations applied (put writes + cas swaps)
	DedupHits uint64 // duplicate mutators answered from the dedup cache

	Grants   uint64
	Denies   uint64
	Releases uint64
	Expiries uint64

	VerSum uint64 // sum of final key versions; == Applied when at-most-once held
	Keys   int    // keys materialized on this server
}

// Stats reports what the service did during a run.
type Stats struct {
	PerClient []ClientCounts
	PerServer []ServerCounts

	// Totals over PerClient / PerServer.
	Arrivals       uint64
	OK             uint64
	Drops          uint64
	ShedGiveUps    uint64
	TimeoutGiveUps uint64
	ShedWaits      uint64
	Sheds          uint64

	Timeouts     uint64 // client-side call deadline expirations, all procedures
	Retries      uint64 // client-side nack retries, all procedures
	CallGiveUps  uint64 // CallIdempotent exhaustions, all procedures
	StaleReplies uint64 // replies that arrived after their call was abandoned
	Promoted     uint64 // optimistic dispatches promoted to threads

	Rel       reliable.Stats
	Fault     cm5.FaultStats
	FaultHash uint64

	// Records holds each server's lock-lease event record (see
	// CheckInvariants); RecordHash folds them into one word.
	Records    [][]Event
	RecordHash uint64
	CrashedAt  []bool // per node, servers first
}

// entry is one key's server-side state. Versions count applied
// mutations; lease epochs are monotonic per key and fence stale unlocks.
type entry struct {
	val        int32
	ver        uint32
	lockHeld   bool
	lockEpoch  uint32
	lockOwner  int
	lockExpiry sim.Time
}

type dedupKey struct {
	caller int
	req    uint32
}

// cached is a dedup-cache reply: the union of the mutator reply shapes.
type cached struct {
	u uint32 // put/cas version, lock epoch
	b bool   // cas swapped, unlock released
}

// serverState is one server node's bookkeeping, only ever touched from
// that node's contexts. The mutex is the paper's "object lock": nil
// under AM (handlers are atomic), the optimistic abort point under ORPC,
// a real blocking lock under TRPC.
type serverState struct {
	id       int
	mu       *threads.Mutex
	node     *cm5.Node
	deferred int // thread-mode calls admitted but not yet finished
	store    map[uint32]*entry
	dedup    map[dedupKey]cached
	rec      []Event
	n        ServerCounts
}

func (s *serverState) entry(key uint32) *entry {
	ent := s.store[key]
	if ent == nil {
		ent = &entry{}
		s.store[key] = ent
	}
	return ent
}

// clientState is one client node's bookkeeping, only ever touched from
// that node's contexts.
type clientState struct {
	rng         *rng
	phase       sim.Duration
	outstanding int
	reqCtr      uint32
	n           ClientCounts
	err         error
	free        *arrival
}

// arrival carries one request's arguments to its thread. Records recycle on
// their client's free list, with body bound once per record (rpc's
// call.expire pattern), so an arrival allocates no closure.
type arrival struct {
	op       Op
	key, req uint32
	val      int32
	start    sim.Time
	body     func(threads.Ctx)
	next     *arrival
}

type kvRun struct {
	cfg  Config
	srvs []*serverState
	cls  []*clientState
}

// admit is the admission check, shared by every handler. It runs before
// any abort point, so under optimistic dispatch a shed verdict commits
// with the handler — exactly once, without creating a thread. A nonzero
// return is the retry-after hint in microseconds.
func (r *kvRun) admit(e *oam.Env, s *serverState) uint32 {
	depth := s.node.Pending() + s.deferred
	if depth <= r.cfg.Budget {
		return 0
	}
	s.n.Shed++
	if r.cfg.Probe != nil {
		r.cfg.Probe.ServerShed(e.Ctx().P.Now(), s.id, depth)
	}
	return uint32(retryBase / sim.Microsecond)
}

// enter/leave bracket the server critical section. In thread mode the
// deferred count keeps admitted-but-blocked work visible to admission
// (the NIC queue alone goes blind once calls become threads).
func (r *kvRun) enter(e *oam.Env, s *serverState) {
	if !e.Optimistic() {
		s.deferred++
	}
	if s.mu != nil {
		e.Lock(s.mu)
	}
}

func (r *kvRun) leave(e *oam.Env, s *serverState) {
	// Reached only by executions past their last abort point, so the
	// admitted count is exact: one per request that did the work (or
	// answered it from the dedup cache).
	s.n.Admitted++
	if s.mu != nil {
		e.Unlock(s.mu)
	}
	if !e.Optimistic() {
		s.deferred--
	}
}

// Run executes the service and returns the run result and its
// statistics. The handler bodies keep every mutation after the last
// abort point (the object lock and the work charge), so an aborted
// optimistic attempt leaves no trace and the rerun-as-thread re-executes
// from a clean slate; the shed path aborts nowhere and mutates only its
// own counter, so shed accounting is exact even while partitioned.
func Run(cfg Config) (apps.Result, Stats, error) {
	cfg = cfg.withDefaults()
	nodes := cfg.Servers + cfg.Clients
	eng := cfg.Engine(cfg.Seed, nodes)
	defer eng.Shutdown()
	// Unreachable NIC cap: the service's admission budget is this
	// system's only backpressure. The machine's network-full refusal
	// reserves against a span-boundary occupancy snapshot when
	// sharded, so any run where a queue touches the cap makes send
	// admission snapshot-dependent — approximately, not bit-exactly,
	// deterministic. A saturated server's queue grows past any
	// realistic cap (threads hog the CPU between polls while the
	// reliable layer retransmits into the backlog), so congestion here
	// must surface as latency and service-level sheds, never as a
	// network refusal. The ring grows with actual occupancy, so the
	// huge cap costs nothing.
	cm := cm5.DefaultCostModel()
	cm.NICQueueCap = 1 << 20
	u := am.NewUniverse(eng, nodes, cm)
	u.Machine().SetFaultPlan(cfg.Fault)
	tr := reliable.Attach(u, reliable.Options{})

	// Multiactive only applies to optimistic dispatch: TRPC is threads,
	// AM is atomic handlers; both keep the single implicit core.
	multiactive := cfg.Cores > 1 && cfg.System != apps.TRPC && cfg.System != apps.AM
	opts := rpc.Options{Mode: rpc.ORPC, OAM: oam.Options{
		Strategy:      oam.Rerun,
		HandlerBudget: cfg.HandlerBudget,
		Adaptive:      cfg.Adaptive,
	}}
	if multiactive {
		opts.OAM.Cores = cfg.Cores
	}
	switch cfg.System {
	case apps.TRPC:
		opts.Mode = rpc.TRPC
	case apps.AM:
		// The hand-coded stand-in: no object lock, no budget — handlers
		// are atomic and never abort, so dispatch always completes inline.
		opts.OAM = oam.Options{Strategy: oam.Rerun}
	}
	rt := rpc.New(u, opts)

	r := &kvRun{cfg: cfg}
	r.srvs = make([]*serverState, cfg.Servers)
	for i := 0; i < cfg.Servers; i++ {
		s := &serverState{
			id:    i,
			node:  u.Endpoint(i).Node(),
			store: make(map[uint32]*entry),
			dedup: make(map[dedupKey]cached),
		}
		if cfg.System != apps.AM && !multiactive {
			// Under multiactive ORPC the object lock is dropped: the
			// compatibility matrix (reads overlap, writers need disjoint
			// keys) is the exclusion, enforced at admission, and a handler
			// holding a try-lock would spuriously abort its compatible
			// peers.
			s.mu = threads.NewMutex(u.Scheduler(i))
		}
		r.srvs[i] = s
	}
	r.cls = make([]*clientState, cfg.Clients)
	for i := range r.cls {
		rg := newRNG(cfg.Seed, i)
		r.cls[i] = &clientState{
			rng:   rg,
			phase: sim.Duration(rg.intn(int(burstPeriod))),
		}
	}
	zipf := newZipfTable(cfg.Keys, cfg.ZipfS)

	get := kvgen.DefineGet(rt, func(e *oam.Env, caller int, key uint32) (uint32, uint32, int32) {
		s := r.srvs[e.Node()]
		if retry := r.admit(e, s); retry != 0 {
			return retry, 0, 0
		}
		r.enter(e, s)
		e.Compute(cfg.WorkGet)
		var ver uint32
		var val int32
		if ent := s.store[key]; ent != nil { // read-only: no entry materialized
			ver, val = ent.ver, ent.val
		}
		r.leave(e, s)
		return 0, ver, val
	})

	put := kvgen.DefinePut(rt, func(e *oam.Env, caller int, key, req uint32, val int32) (uint32, uint32) {
		s := r.srvs[e.Node()]
		if retry := r.admit(e, s); retry != 0 {
			return retry, 0
		}
		r.enter(e, s)
		k := dedupKey{caller, req}
		if v, ok := s.dedup[k]; ok {
			s.n.DedupHits++
			r.leave(e, s)
			return 0, v.u
		}
		e.Compute(workPut)
		ent := s.entry(key)
		ent.ver++
		ent.val = val
		s.n.Applied++
		s.dedup[k] = cached{u: ent.ver}
		r.leave(e, s)
		return 0, ent.ver
	})

	cas := kvgen.DefineCas(rt, func(e *oam.Env, caller int, key, req, expect uint32, val int32) (uint32, uint32, bool) {
		s := r.srvs[e.Node()]
		if retry := r.admit(e, s); retry != 0 {
			return retry, 0, false
		}
		r.enter(e, s)
		k := dedupKey{caller, req}
		if v, ok := s.dedup[k]; ok {
			s.n.DedupHits++
			r.leave(e, s)
			return 0, v.u, v.b
		}
		e.Compute(workCas)
		ent := s.entry(key)
		swapped := ent.ver == expect
		if swapped {
			ent.ver++
			ent.val = val
			s.n.Applied++
		}
		s.dedup[k] = cached{u: ent.ver, b: swapped}
		r.leave(e, s)
		return 0, ent.ver, swapped
	})

	lock := kvgen.DefineLock(rt, func(e *oam.Env, caller int, key, req uint32) (uint32, uint32) {
		s := r.srvs[e.Node()]
		if retry := r.admit(e, s); retry != 0 {
			return retry, 0
		}
		r.enter(e, s)
		k := dedupKey{caller, req}
		if v, ok := s.dedup[k]; ok {
			s.n.DedupHits++
			r.leave(e, s)
			return 0, v.u
		}
		e.Compute(workLock)
		ent := s.entry(key)
		now := e.Ctx().P.Now()
		if ent.lockHeld && now >= ent.lockExpiry {
			// Lazy reaping: the expired lease dies when the next grant
			// decision observes it, in server execution order.
			s.rec = append(s.rec, Event{T: now, Kind: EvExpire, Key: key,
				Client: ent.lockOwner, Epoch: ent.lockEpoch})
			s.n.Expiries++
			ent.lockHeld = false
		}
		var epoch uint32
		if ent.lockHeld {
			s.rec = append(s.rec, Event{T: now, Kind: EvDeny, Key: key,
				Client: caller, Epoch: ent.lockEpoch})
			s.n.Denies++
		} else {
			ent.lockEpoch++
			ent.lockHeld = true
			ent.lockOwner = caller
			ent.lockExpiry = now.Add(cfg.LockTTL)
			epoch = ent.lockEpoch
			s.rec = append(s.rec, Event{T: now, Kind: EvGrant, Key: key,
				Client: caller, Epoch: epoch, Expiry: ent.lockExpiry})
			s.n.Grants++
		}
		s.dedup[k] = cached{u: epoch}
		r.leave(e, s)
		return 0, epoch
	})

	unlock := kvgen.DefineUnlock(rt, func(e *oam.Env, caller int, key, req, epoch uint32) (uint32, bool) {
		s := r.srvs[e.Node()]
		if retry := r.admit(e, s); retry != 0 {
			return retry, false
		}
		r.enter(e, s)
		k := dedupKey{caller, req}
		if v, ok := s.dedup[k]; ok {
			s.n.DedupHits++
			r.leave(e, s)
			return 0, v.b
		}
		e.Compute(workLock)
		released := false
		ent := s.store[key]
		if ent != nil && ent.lockHeld {
			// The same lazy reaping as Lock: a lease past its TTL is dead
			// and cannot be released, even by its own holder.
			if now := e.Ctx().P.Now(); now >= ent.lockExpiry {
				s.rec = append(s.rec, Event{T: now, Kind: EvExpire, Key: key,
					Client: ent.lockOwner, Epoch: ent.lockEpoch})
				s.n.Expiries++
				ent.lockHeld = false
			}
		}
		if ent != nil &&
			ent.lockHeld && ent.lockEpoch == epoch && ent.lockOwner == caller {
			// The epoch fence: an unlock from an expired-and-reissued
			// lease can never release the new holder's lease.
			ent.lockHeld = false
			s.rec = append(s.rec, Event{T: e.Ctx().P.Now(), Kind: EvRelease,
				Key: key, Client: caller, Epoch: epoch})
			s.n.Releases++
			released = true
		}
		s.dedup[k] = cached{b: released}
		r.leave(e, s)
		return 0, released
	})

	if multiactive {
		rt.SetCompat(kvgen.CompatSpec())
	}

	cfg.Attach(u, rt)

	// withShedRetry drives one idempotent call through the admission
	// protocol: honor the server's retry-after hint with linear backoff,
	// give up after ShedRetries retries.
	withShedRetry := func(c threads.Ctx, cs *clientState, call func() (uint32, error)) Outcome {
		for try := 0; ; try++ {
			st, err := call()
			if err != nil {
				return OutcomeTimeout
			}
			if st == 0 {
				return OutcomeOK
			}
			if try >= cfg.ShedRetries {
				return OutcomeShed
			}
			cs.n.ShedWaits++
			c.S.Sleep(c, sim.Micros(float64(st)*float64(try+1)))
		}
	}

	// runReq executes one arrival's operation to its final classification.
	// me is the client's node id.
	runReq := func(c threads.Ctx, cs *clientState, me int, op Op, key uint32, val int32, req uint32, start sim.Time) {
		srv := int(key) % cfg.Servers
		var out Outcome
		var lat sim.Duration
		switch op {
		case OpGet:
			out = withShedRetry(c, cs, func() (uint32, error) {
				st, _, _, err := get.CallIdempotent(c, srv, key, cfg.CallTimeout, callAttempts)
				return st, err
			})
		case OpPut:
			out = withShedRetry(c, cs, func() (uint32, error) {
				st, _, err := put.CallIdempotent(c, srv, key, req, val, cfg.CallTimeout, callAttempts)
				return st, err
			})
		case OpCas:
			// Read-modify-write: the read supplies the expected version;
			// a lost race (swapped=false) is still a completed answer.
			var expect uint32
			out = withShedRetry(c, cs, func() (uint32, error) {
				st, ver, _, err := get.CallIdempotent(c, srv, key, cfg.CallTimeout, callAttempts)
				if err == nil && st == 0 {
					expect = ver
				}
				return st, err
			})
			if out == OutcomeOK {
				out = withShedRetry(c, cs, func() (uint32, error) {
					st, _, _, err := cas.CallIdempotent(c, srv, key, req, expect, val, cfg.CallTimeout, callAttempts)
					return st, err
				})
			}
		case OpLock:
			var epoch uint32
			out = withShedRetry(c, cs, func() (uint32, error) {
				st, ep, err := lock.CallIdempotent(c, srv, key, req, cfg.CallTimeout, callAttempts)
				if err == nil && st == 0 {
					epoch = ep
				}
				return st, err
			})
			// SLO latency for locks is the time to the lease decision;
			// the hold that follows is the client's own dwell time.
			lat = c.P.Now().Sub(start)
			if out == OutcomeOK {
				if epoch == 0 {
					cs.n.LockDenied++
				} else {
					c.S.Sleep(c, cfg.LockHold)
					rel := withShedRetry(c, cs, func() (uint32, error) {
						st, ok, err := unlock.CallIdempotent(c, srv, key, req+1, epoch, cfg.CallTimeout, callAttempts)
						if err == nil && st == 0 && !ok {
							cs.n.UnlockFails++
						}
						return st, err
					})
					if rel != OutcomeOK {
						out = rel // the arrival is classified by its last failing step
					}
				}
			}
		}
		if lat == 0 {
			lat = c.P.Now().Sub(start)
		}
		switch out {
		case OutcomeOK:
			cs.n.OK++
		case OutcomeShed:
			cs.n.ShedGiveUps++
		case OutcomeTimeout:
			cs.n.TimeoutGiveUps++
		}
		if cfg.Probe != nil {
			cfg.Probe.RequestDone(c.P.Now(), me, op, out, lat)
		}
		cs.outstanding--
	}

	newArrival := func(cs *clientState, me int) *arrival {
		a := &arrival{}
		a.body = func(c threads.Ctx) {
			q := *a // started: the arguments are out and the record is free again
			a.next, cs.free = cs.free, a
			runReq(c, cs, me, q.op, q.key, q.val, q.req, q.start)
		}
		return a
	}

	elapsed, err := u.SPMD(func(c threads.Ctx, me int) {
		if me < cfg.Servers {
			return // servers serve from the scheduler idle loop
		}
		cid := me - cfg.Servers
		cs := r.cls[cid]
		node := c.Node()
		endT := sim.Time(cfg.Duration)
		// Open-loop generation: arrivals land at absolute times computed
		// from the RNG alone, never from how long the previous request
		// took. If the node falls behind its schedule (CPU saturated by
		// in-flight requests), the next arrival fires immediately — the
		// backlog is the load's problem, not the generator's. The arrival
		// count is therefore a pure function of (seed, client, mode),
		// identical across systems and shard counts.
		var next sim.Time
		for {
			gap := nextArrival(cs.rng, cfg.MeanIAT, cfg.RateX, cfg.Mode, next, cs.phase)
			next = next.Add(gap)
			if next >= endT {
				break
			}
			// Every arrival consumes the same draws whatever happens to
			// it, so the stream is a pure function of (seed, client).
			z := cs.rng.intn(1000)
			key := zipf.pick(cs.rng, cfg.Keys)
			val := int32(cs.rng.intn(1 << 16))
			if d := next.Sub(c.P.Now()); d > 0 {
				c.S.Sleep(c, d)
			}
			now := c.P.Now()
			if node.Crashed() {
				return
			}
			var op Op
			switch {
			case z < cfg.MixGet:
				op = OpGet
			case z < cfg.MixGet+cfg.MixPut:
				op = OpPut
			case z < cfg.MixGet+cfg.MixPut+cfg.MixCas:
				op = OpCas
			default:
				op = OpLock
			}
			cs.n.Arrivals++
			if cs.outstanding >= maxOutstanding {
				cs.n.Drops++
				if cfg.Probe != nil {
					cfg.Probe.RequestDone(now, me, op, OutcomeDrop, 0)
				}
				continue
			}
			cs.outstanding++
			req := cs.reqCtr
			cs.reqCtr += 2 // a lock cycle uses req and req+1
			a := cs.free
			if a == nil {
				a = newArrival(cs, me)
			}
			cs.free = a.next
			// SLO latency runs from the scheduled arrival, so client-side backlog counts against the service
			a.op, a.key, a.val, a.req, a.start = op, key, val, req, next
			name := threads.Name{Prefix: "kv/req/", A: cid, B: int(req), Pair: true}
			c.S.CreateNamed(c, name, false, a.body)
		}
		for cs.outstanding > 0 {
			if node.Crashed() {
				return
			}
			if c.P.Now() > maxTime {
				cs.err = fmt.Errorf("kv: client %d exceeded MaxTime %v with %d requests in flight",
					cid, maxTime, cs.outstanding)
				return
			}
			c.S.Sleep(c, sim.Micros(200))
		}
	})
	if err != nil {
		return apps.Result{}, Stats{}, fmt.Errorf("kv: %w", err)
	}

	var st Stats
	st.PerClient = make([]ClientCounts, cfg.Clients)
	var runErr error
	for i, cs := range r.cls {
		cs.n.Crashed = u.Machine().Crashed(cfg.Servers + i)
		st.PerClient[i] = cs.n
		st.Arrivals += cs.n.Arrivals
		st.OK += cs.n.OK
		st.Drops += cs.n.Drops
		st.ShedGiveUps += cs.n.ShedGiveUps
		st.TimeoutGiveUps += cs.n.TimeoutGiveUps
		st.ShedWaits += cs.n.ShedWaits
		if cs.err != nil && runErr == nil {
			runErr = cs.err
		}
	}
	st.PerServer = make([]ServerCounts, cfg.Servers)
	st.Records = make([][]Event, cfg.Servers)
	answer := apps.HashInit
	for i, s := range r.srvs {
		keys := make([]uint32, 0, len(s.store))
		for k := range s.store {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		answer = answer.Mix(uint64(i))
		for _, k := range keys {
			ent := s.store[k]
			s.n.VerSum += uint64(ent.ver)
			answer = answer.Mix(uint64(k))
			answer = answer.Mix(uint64(ent.ver))
			answer = answer.Mix(uint64(uint32(ent.val)))
			answer = answer.Mix(uint64(ent.lockEpoch))
		}
		s.n.Keys = len(s.store)
		st.PerServer[i] = s.n
		st.Sheds += s.n.Shed
		st.Records[i] = s.rec
	}
	st.RecordHash = RecordHash(st.Records)

	var oams, succ uint64
	for _, ps := range []rpc.ProcStats{get.Stats(), put.Stats(), cas.Stats(), lock.Stats(), unlock.Stats()} {
		st.Timeouts += ps.Timeouts
		st.Retries += ps.Retries
		st.CallGiveUps += ps.GiveUps
		st.Promoted += ps.Promoted
		oams += ps.OAMs
		succ += ps.Successes
	}
	st.StaleReplies = rt.StaleReplies()
	st.Rel = tr.Stats()
	st.Fault = u.Machine().FaultStats()
	st.FaultHash = u.Machine().FaultTraceHash()
	for i := 0; i < nodes; i++ {
		st.CrashedAt = append(st.CrashedAt, u.Machine().Crashed(i))
	}
	if runErr != nil {
		return apps.Result{}, st, runErr
	}

	res := apps.Result{
		System:  cfg.System,
		Nodes:   nodes,
		Elapsed: sim.Duration(elapsed),
		Answer:  uint64(answer),
	}
	apps.FillResult(&res, u, oams, succ)
	return res, st, nil
}
