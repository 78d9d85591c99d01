package kv

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/sim"
)

// EventKind labels one lock-lease transition in a server's event record.
type EventKind uint8

const (
	// EvGrant: a lease was granted to a client at a fresh epoch.
	EvGrant EventKind = iota
	// EvRelease: the leaseholder released its lease at the live epoch.
	EvRelease
	// EvExpire: a lease ran past its TTL and was reaped (lazily, when
	// the next Lock on the key observed the expiry).
	EvExpire
	// EvDeny: a Lock found the lease live and was refused (epoch 0 in
	// the reply; an application-level outcome, not a shed).
	EvDeny
)

func (k EventKind) String() string {
	switch k {
	case EvGrant:
		return "grant"
	case EvRelease:
		return "release"
	case EvExpire:
		return "expire"
	case EvDeny:
		return "deny"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one recorded lock-lease transition. Events are recorded on
// the owning server node in its execution order, so each server's record
// — like everything else in the kernel — is bit-identical at any shard
// count. Expiry is set on grants only; Client is the requesting client
// for grants/releases/denies and the previous holder for expiries.
type Event struct {
	T      sim.Time
	Kind   EventKind
	Key    uint32
	Client int
	Epoch  uint32
	Expiry sim.Time
}

func (ev Event) String() string {
	switch ev.Kind {
	case EvGrant:
		return fmt.Sprintf("%v grant key=%d client=%d epoch=%d expiry=%v",
			ev.T, ev.Key, ev.Client, ev.Epoch, ev.Expiry)
	default:
		return fmt.Sprintf("%v %s key=%d client=%d epoch=%d",
			ev.T, ev.Kind, ev.Key, ev.Client, ev.Epoch)
	}
}

// RecordHash folds the per-server event records into one FNV-1a word:
// equal hashes across shard counts mean every server made identical
// lease decisions at identical virtual times.
func RecordHash(records [][]Event) uint64 {
	h := apps.HashInit
	for srv, rec := range records {
		h = h.Mix(uint64(srv))
		h = h.Mix(uint64(len(rec)))
		for _, ev := range rec {
			h = h.Mix(uint64(ev.T))
			h = h.Mix(uint64(ev.Kind))
			h = h.Mix(uint64(ev.Key))
			h = h.Mix(uint64(ev.Client))
			h = h.Mix(uint64(ev.Epoch))
			h = h.Mix(uint64(ev.Expiry))
		}
	}
	return uint64(h)
}

// CheckInvariants replays a run's statistics and event records and
// verifies the service's safety contract:
//
//   - exact client accounting: per client, every open-loop arrival is
//     classified exactly once — completed, dropped at the outstanding
//     cap, gave up after shed retries, or gave up on timeouts — even
//     when sheds and partitions overlap;
//   - lease exclusion: per key, grants never overlap a live lease — a
//     new grant requires the previous lease released or expired, and an
//     expiry is only reaped at or after the lease's recorded expiry
//     time;
//   - epoch fencing: lease epochs are strictly monotonic per key, and a
//     release carries the exact epoch of the live lease;
//   - denies are consistent: a Lock is only denied while a lease is
//     live;
//   - at-most-once application: each server's applied-mutation count
//     equals the sum of its keys' final versions (a duplicated or
//     retried mutation that slipped past the dedup fence would break
//     the equality);
//   - each record is in nondecreasing virtual-time order.
func CheckInvariants(st *Stats) error {
	var sum ClientCounts
	for i := range st.PerClient {
		c := &st.PerClient[i]
		// A crashed client's ledger is a frozen prefix — an arrival may
		// have been counted whose classification died with the node — so
		// the identity is only owed by clients that survived.
		if !c.Crashed && c.Arrivals != c.OK+c.Drops+c.ShedGiveUps+c.TimeoutGiveUps {
			return fmt.Errorf(
				"kv: accounting violation on client %d: %d arrivals != %d ok + %d drops + %d shed give-ups + %d timeout give-ups",
				i, c.Arrivals, c.OK, c.Drops, c.ShedGiveUps, c.TimeoutGiveUps)
		}
		sum.Arrivals += c.Arrivals
		sum.OK += c.OK
		sum.Drops += c.Drops
		sum.ShedGiveUps += c.ShedGiveUps
		sum.TimeoutGiveUps += c.TimeoutGiveUps
	}
	if sum.Arrivals != st.Arrivals || sum.OK != st.OK || sum.Drops != st.Drops ||
		sum.ShedGiveUps != st.ShedGiveUps || sum.TimeoutGiveUps != st.TimeoutGiveUps {
		return fmt.Errorf("kv: per-client counts do not sum to the run totals")
	}

	for srv := range st.PerServer {
		s := &st.PerServer[srv]
		if s.Applied != s.VerSum {
			return fmt.Errorf(
				"kv: at-most-once violation on server %d: %d mutations applied but key versions sum to %d",
				srv, s.Applied, s.VerSum)
		}
	}

	type leaseState struct {
		held   bool
		epoch  uint32
		expiry sim.Time
	}
	for srv, rec := range st.Records {
		leases := make(map[uint32]*leaseState)
		var last sim.Time
		for i, ev := range rec {
			fail := func(format string, args ...any) error {
				return fmt.Errorf("kv: invariant violation on server %d at event %d [%v]: %s",
					srv, i, ev, fmt.Sprintf(format, args...))
			}
			if ev.T < last {
				return fail("virtual time went backwards (previous event at %v)", last)
			}
			last = ev.T
			ls := leases[ev.Key]
			if ls == nil {
				ls = &leaseState{}
				leases[ev.Key] = ls
			}
			switch ev.Kind {
			case EvGrant:
				if ls.held {
					return fail("lease granted while a lease was live (epoch %d, expiry %v)",
						ls.epoch, ls.expiry)
				}
				if ev.Epoch <= ls.epoch {
					return fail("lease epoch not monotonic (%d after %d)", ev.Epoch, ls.epoch)
				}
				if ev.Expiry <= ev.T {
					return fail("lease granted already expired")
				}
				ls.held, ls.epoch, ls.expiry = true, ev.Epoch, ev.Expiry
			case EvRelease:
				if !ls.held || ev.Epoch != ls.epoch {
					return fail("release of a lease that was not live (live epoch %d)", ls.epoch)
				}
				ls.held = false
			case EvExpire:
				if !ls.held || ev.Epoch != ls.epoch {
					return fail("expiry of a lease that was not live (live epoch %d)", ls.epoch)
				}
				if ev.T < ls.expiry {
					return fail("lease reaped before its expiry %v", ls.expiry)
				}
				ls.held = false
			case EvDeny:
				if !ls.held {
					return fail("lock denied with no live lease")
				}
				if ev.T >= ls.expiry {
					return fail("lock denied on a lease already past its expiry %v", ls.expiry)
				}
			default:
				return fail("unknown event kind")
			}
		}
	}
	return nil
}
