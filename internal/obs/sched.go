package obs

import (
	"fmt"

	"repro/internal/apps/sched"
	"repro/internal/sim"
)

// tidSched is the scheduler control-plane track: heartbeats, detector
// verdicts, lease lifetimes, and fencing decisions, all on the scheduler
// node's process. Unlike the fixed tracks in tidNames, its thread_name
// metadata is emitted lazily on the first control-plane event, so traces
// of programs without a scheduler are byte-identical to before the track
// existed.
const tidSched = 7

// leaseKey identifies one lease issue for the async span pairing.
type leaseKey struct{ job, epoch int }

// reclaimReasons enumerates the reasons a lease is reclaimed, in
// sched.ReclaimReason order minus ReasonNone, for per-reason counters.
var reclaimReasons = [3]sched.ReclaimReason{
	sched.ReasonTimeout, sched.ReasonDead, sched.ReasonPlaceFail,
}

// schedTrack lazily names the control-plane track on the scheduler node.
func (c *Collector) schedTrack() {
	if !c.schedMeta {
		c.schedMeta = true
		c.tb.threadMeta(0, tidSched, "sched")
	}
}

// --- sched.Probe ---

func (c *Collector) Heartbeat(t sim.Time, agent int) {
	c.cSchedBeats.Inc(agent)
	if c.tb != nil {
		c.schedTrack()
		c.tb.instant("heartbeat", "sched", t, 0, tidSched,
			fmt.Sprintf(`{"agent":%d}`, agent))
	}
}

// AgentDead opens an outage span that AgentAlive closes; an agent that
// never recovers (a real crash) leaves its span open to the end of the
// trace, which is exactly what the outage looked like.
func (c *Collector) AgentDead(t sim.Time, agent int) {
	c.cSchedDead.Inc(agent)
	if c.tb != nil {
		c.schedTrack()
		c.schedSeq++
		c.outageID[agent] = c.schedSeq
		c.tb.asyncBegin(fmt.Sprintf("agent %d down", agent), "outage", t, 0, tidSched, c.schedSeq, "")
	}
}

func (c *Collector) AgentAlive(t sim.Time, agent int) {
	c.cSchedAlive.Inc(agent)
	if c.tb != nil {
		c.schedTrack()
		if id, ok := c.outageID[agent]; ok {
			c.tb.asyncEnd(fmt.Sprintf("agent %d down", agent), "outage", t, 0, tidSched, id)
			delete(c.outageID, agent)
		}
	}
}

func (c *Collector) LeasePlaced(t sim.Time, job, agent, epoch int) {
	c.cSchedPlaced.Inc(agent)
	if c.tb != nil {
		c.schedTrack()
		c.schedSeq++
		c.leaseID[leaseKey{job, epoch}] = c.schedSeq
		c.tb.asyncBegin(fmt.Sprintf("lease job %d", job), "lease", t, 0, tidSched, c.schedSeq,
			fmt.Sprintf(`{"agent":%d,"epoch":%d}`, agent, epoch))
	}
}

func (c *Collector) LeaseReclaimed(t sim.Time, job, agent, epoch int, why sched.ReclaimReason) {
	if why != sched.ReasonNone {
		c.cSchedReclaims[int(why)-1].Inc(agent)
	}
	if c.tb != nil {
		c.schedTrack()
		if id, ok := c.leaseID[leaseKey{job, epoch}]; ok {
			c.tb.asyncEnd(fmt.Sprintf("lease job %d", job), "lease", t, 0, tidSched, id)
			delete(c.leaseID, leaseKey{job, epoch})
		}
		c.tb.instant("reclaim: "+why.String(), "sched", t, 0, tidSched,
			fmt.Sprintf(`{"job":%d,"agent":%d,"epoch":%d}`, job, agent, epoch))
	}
}

func (c *Collector) CompletionAccepted(t sim.Time, job, agent, epoch int) {
	c.cSchedAccepted.Inc(agent)
	if c.tb != nil {
		c.schedTrack()
		if id, ok := c.leaseID[leaseKey{job, epoch}]; ok {
			c.tb.asyncEnd(fmt.Sprintf("lease job %d", job), "lease", t, 0, tidSched, id)
			delete(c.leaseID, leaseKey{job, epoch})
		}
	}
}

func (c *Collector) CompletionRejected(t sim.Time, job, agent, epoch int) {
	c.cSchedRejected.Inc(agent)
	if c.tb != nil {
		c.schedTrack()
		c.tb.instant("fenced completion", "sched", t, 0, tidSched,
			fmt.Sprintf(`{"job":%d,"agent":%d,"epoch":%d}`, job, agent, epoch))
	}
}
