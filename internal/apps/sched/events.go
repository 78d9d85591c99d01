package sched

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/sim"
)

// EventKind labels one control-plane transition in a run's event record.
type EventKind uint8

const (
	// EvPlace: a job was leased to an agent at a new epoch.
	EvPlace EventKind = iota
	// EvDone: a completion was accepted at the lease's current epoch.
	EvDone
	// EvStale: a completion was rejected — wrong epoch or wrong agent.
	EvStale
	// EvExpire: a lease was reclaimed (timeout, dead agent, or a failed
	// placement call) and the job re-queued.
	EvExpire
	// EvDead: the failure detector declared an agent dead.
	EvDead
	// EvAlive: a heartbeat from a declared-dead agent arrived; the
	// detector readmitted it.
	EvAlive
)

func (k EventKind) String() string {
	switch k {
	case EvPlace:
		return "place"
	case EvDone:
		return "done"
	case EvStale:
		return "stale"
	case EvExpire:
		return "expire"
	case EvDead:
		return "dead"
	case EvAlive:
		return "alive"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// ReclaimReason says why an EvExpire reclaimed its lease.
type ReclaimReason uint8

const (
	ReasonNone ReclaimReason = iota
	// ReasonTimeout: no completion arrived within LeaseTimeout.
	ReasonTimeout
	// ReasonDead: the leaseholder was declared dead.
	ReasonDead
	// ReasonPlaceFail: the placement call failed or the agent refused it.
	ReasonPlaceFail
)

func (r ReclaimReason) String() string {
	switch r {
	case ReasonNone:
		return "-"
	case ReasonTimeout:
		return "timeout"
	case ReasonDead:
		return "dead"
	case ReasonPlaceFail:
		return "placefail"
	default:
		return fmt.Sprintf("ReclaimReason(%d)", uint8(r))
	}
}

// Event is one recorded control-plane transition. All events are recorded
// on the scheduler node in its execution order, so the record — like
// everything else in the kernel — is bit-identical at any shard count.
// Job is -1 for agent-level events (EvDead, EvAlive); Epoch is 0 where it
// does not apply.
type Event struct {
	T     sim.Time
	Kind  EventKind
	Job   int
	Agent int
	Epoch int
	Why   ReclaimReason
}

func (ev Event) String() string {
	switch ev.Kind {
	case EvDead, EvAlive:
		return fmt.Sprintf("%v %s agent=%d", ev.T, ev.Kind, ev.Agent)
	case EvExpire:
		return fmt.Sprintf("%v %s job=%d agent=%d epoch=%d why=%s",
			ev.T, ev.Kind, ev.Job, ev.Agent, ev.Epoch, ev.Why)
	default:
		return fmt.Sprintf("%v %s job=%d agent=%d epoch=%d",
			ev.T, ev.Kind, ev.Job, ev.Agent, ev.Epoch)
	}
}

// RecordHash folds an event record into one FNV-1a word: equal hashes
// across shard counts mean the control plane made identical decisions at
// identical virtual times.
func RecordHash(rec []Event) uint64 {
	h := apps.HashInit
	for _, ev := range rec {
		h = h.Mix(uint64(ev.T))
		h = h.Mix(uint64(ev.Kind))
		h = h.Mix(uint64(int64(ev.Job)))
		h = h.Mix(uint64(ev.Agent))
		h = h.Mix(uint64(ev.Epoch))
		h = h.Mix(uint64(ev.Why))
	}
	return uint64(h)
}

// CheckInvariants replays an event record and verifies the control
// plane's safety contract:
//
//   - placed-exactly-once: at most one completion is ever accepted per
//     job, and never a second placement without an intervening reclaim;
//   - epoch fencing: lease epochs are strictly monotonic per job, a
//     completion is only accepted at the exact (epoch, agent) of the
//     outstanding lease, and a completion matching a live lease is never
//     rejected as stale;
//   - detector consistency: no job is placed on an agent the detector
//     had declared dead at that virtual time, and dead/alive transitions
//     alternate;
//   - the record itself is in nondecreasing virtual-time order.
//
// With requireAllDone it also checks liveness: every job's completion
// was accepted by the end of the record. Callers set it when the fault
// plan leaves a recovery path (no permanently dead or partitioned
// agents hold the only capacity).
func CheckInvariants(rec []Event, jobs, agents int, requireAllDone bool) error {
	type jobState struct {
		epoch     int
		placed    bool
		agent     int
		done      bool
		doneEpoch int
		doneAgent int
	}
	states := make([]jobState, jobs)
	dead := make([]bool, agents+1)
	var last sim.Time
	for i, ev := range rec {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("sched: invariant violation at event %d [%v]: %s",
				i, ev, fmt.Sprintf(format, args...))
		}
		if ev.T < last {
			return fail("virtual time went backwards (previous event at %v)", last)
		}
		last = ev.T
		if ev.Agent < 1 || ev.Agent > agents {
			return fail("agent out of range")
		}
		if ev.Kind != EvDead && ev.Kind != EvAlive && (ev.Job < 0 || ev.Job >= jobs) {
			return fail("job out of range")
		}
		switch ev.Kind {
		case EvDead:
			if dead[ev.Agent] {
				return fail("agent declared dead while already dead")
			}
			dead[ev.Agent] = true
		case EvAlive:
			if !dead[ev.Agent] {
				return fail("agent readmitted while already alive")
			}
			dead[ev.Agent] = false
		case EvPlace:
			s := &states[ev.Job]
			if dead[ev.Agent] {
				return fail("job placed on an agent the detector had declared dead")
			}
			if s.done {
				return fail("job placed again after its completion was accepted")
			}
			if s.placed {
				return fail("job placed twice without an intervening reclaim")
			}
			if ev.Epoch <= s.epoch {
				return fail("lease epoch not monotonic (%d after %d)", ev.Epoch, s.epoch)
			}
			s.epoch, s.agent, s.placed = ev.Epoch, ev.Agent, true
		case EvExpire:
			s := &states[ev.Job]
			if !s.placed || s.epoch != ev.Epoch || s.agent != ev.Agent {
				return fail("reclaim of a lease that was not outstanding")
			}
			s.placed = false
		case EvDone:
			s := &states[ev.Job]
			if s.done {
				return fail("second completion accepted — placed-exactly-once violated")
			}
			if !s.placed || ev.Epoch != s.epoch || ev.Agent != s.agent {
				return fail("completion accepted without a matching lease (fencing breach)")
			}
			s.done, s.placed = true, false
			s.doneEpoch, s.doneAgent = ev.Epoch, ev.Agent
		case EvStale:
			s := &states[ev.Job]
			if s.placed && ev.Epoch == s.epoch && ev.Agent == s.agent {
				return fail("completion matching the live lease rejected as stale")
			}
			if s.done && ev.Epoch == s.doneEpoch && ev.Agent == s.doneAgent {
				return fail("duplicate of the accepted completion rejected as stale")
			}
		default:
			return fail("unknown event kind")
		}
	}
	if requireAllDone {
		for j := range states {
			if !states[j].done {
				return fmt.Errorf("sched: liveness violation: job %d never completed (last epoch %d)",
					j, states[j].epoch)
			}
		}
	}
	return nil
}
