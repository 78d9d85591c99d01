package obs

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// Registry is the typed instrumentation bus: a set of named counters,
// gauges and fixed-bucket virtual-time histograms, each holding one value
// (or bucket vector) per node. Instruments are registered once, up front;
// updating one is an array store with no locking (the simulation is
// single-threaded) and, after the first update, no allocation, so
// instruments may be updated from hot paths.
//
// Instrument storage is lazy: registration records only the name, and
// the per-node arrays allocate on first update (histograms allocate
// per-node bucket vectors on each node's first sample). A registry over
// a 100k-node machine whose run never updates an instrument therefore
// costs nothing per node — the O(active) rule the machine model follows.
type Registry struct {
	nodes    int
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
}

// NewRegistry creates a registry for an n-node machine.
func NewRegistry(nodes int) *Registry { return &Registry{nodes: nodes} }

// Nodes returns the node count the registry was built for.
func (r *Registry) Nodes() int { return r.nodes }

// Counter is a per-node monotonic event count.
type Counter struct {
	name  string
	nodes int
	vals  []uint64 // allocated on first update
}

// NewCounter registers a counter. Call before the simulation starts.
func (r *Registry) NewCounter(name string) *Counter {
	c := &Counter{name: name, nodes: r.nodes}
	r.counters = append(r.counters, c)
	return c
}

func (c *Counter) touch() []uint64 {
	if c.vals == nil {
		c.vals = make([]uint64, c.nodes)
	}
	return c.vals
}

// Inc adds one to node's count.
func (c *Counter) Inc(node int) { c.Add(node, 1) }

// Add adds delta to node's count. Updating a nil instrument (an
// unselected metrics sink's) does nothing, as for Gauge and Histogram.
func (c *Counter) Add(node int, delta uint64) {
	if c != nil {
		c.touch()[node] += delta
	}
}

// Value returns node's count.
func (c *Counter) Value(node int) uint64 {
	if c.vals == nil {
		return 0
	}
	return c.vals[node]
}

// Total sums the counter across nodes.
func (c *Counter) Total() uint64 {
	var t uint64
	for _, v := range c.vals {
		t += v
	}
	return t
}

// move shifts one count from node from to node to.
func (c *Counter) move(from, to int) {
	if c != nil {
		c.touch()[from]--
		c.vals[to]++
	}
}

// Counter returns the named counter, or nil when none is registered.
func (r *Registry) Counter(name string) *Counter {
	for _, c := range r.counters {
		if c.name == name {
			return c
		}
	}
	return nil
}

// CounterTotal returns the all-node total of the named counter, or 0
// when no such counter is registered.
func (r *Registry) CounterTotal(name string) uint64 {
	if c := r.Counter(name); c != nil {
		return c.Total()
	}
	return 0
}

// Gauge is a per-node instantaneous value (queue depths, outstanding
// calls). It additionally tracks the high-water mark per node.
type Gauge struct {
	name  string
	nodes int
	vals  []int64 // allocated (with max) on first update
	max   []int64
}

// NewGauge registers a gauge. Call before the simulation starts.
func (r *Registry) NewGauge(name string) *Gauge {
	g := &Gauge{name: name, nodes: r.nodes}
	r.gauges = append(r.gauges, g)
	return g
}

// Set records node's current value.
func (g *Gauge) Set(node int, v int64) {
	if g == nil {
		return
	}
	if g.vals == nil {
		g.vals = make([]int64, g.nodes)
		g.max = make([]int64, g.nodes)
	}
	g.vals[node] = v
	if v > g.max[node] {
		g.max[node] = v
	}
}

// Value returns node's current value.
func (g *Gauge) Value(node int) int64 {
	if g.vals == nil {
		return 0
	}
	return g.vals[node]
}

// Max returns node's high-water mark.
func (g *Gauge) Max(node int) int64 {
	if g.max == nil {
		return 0
	}
	return g.max[node]
}

// Histogram is a per-node fixed-bucket histogram of virtual durations.
// Bounds are upper bucket edges; a final implicit +Inf bucket catches the
// rest. After a node's first sample, observing is two array stores — no
// allocation, usable on hot paths.
type Histogram struct {
	name   string
	nodes  int
	bounds []sim.Duration
	counts [][]uint64 // [node][bucket], len(bounds)+1 buckets; rows lazy
	sums   []sim.Duration
	ns     []uint64
}

// NewHistogram registers a histogram with the given ascending upper
// bucket bounds. Call before the simulation starts.
func (r *Registry) NewHistogram(name string, bounds ...sim.Duration) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{name: name, nodes: r.nodes, bounds: bounds}
	r.hists = append(r.hists, h)
	return h
}

// Observe records one duration sample on node.
func (h *Histogram) Observe(node int, d sim.Duration) {
	if h == nil {
		return
	}
	if h.counts == nil {
		h.counts = make([][]uint64, h.nodes)
		h.sums = make([]sim.Duration, h.nodes)
		h.ns = make([]uint64, h.nodes)
	}
	row := h.counts[node]
	if row == nil {
		row = make([]uint64, len(h.bounds)+1)
		h.counts[node] = row
	}
	b := 0
	for b < len(h.bounds) && d > h.bounds[b] {
		b++
	}
	row[b]++
	h.sums[node] += d
	h.ns[node]++
}

// Count returns the number of samples observed on node.
func (h *Histogram) Count(node int) uint64 {
	if h.ns == nil {
		return 0
	}
	return h.ns[node]
}

// Sum returns the total observed duration on node.
func (h *Histogram) Sum(node int) sim.Duration {
	if h.sums == nil {
		return 0
	}
	return h.sums[node]
}

// Write renders every instrument as aligned text, instruments sorted by
// name and one row per node, so output is deterministic. It returns the
// first write error.
func (r *Registry) Write(w io.Writer) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	cs := append([]*Counter(nil), r.counters...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].name < cs[j].name })
	for _, c := range cs {
		pf("counter %-28s total %d\n", c.name, c.Total())
		for n, v := range c.vals {
			if v != 0 {
				pf("  node %-3d %d\n", n, v)
			}
		}
	}

	gs := append([]*Gauge(nil), r.gauges...)
	sort.Slice(gs, func(i, j int) bool { return gs[i].name < gs[j].name })
	for _, g := range gs {
		pf("gauge   %-28s\n", g.name)
		for n := range g.vals {
			if g.vals[n] != 0 || g.max[n] != 0 {
				pf("  node %-3d last %-6d max %d\n", n, g.vals[n], g.max[n])
			}
		}
	}

	hs := append([]*Histogram(nil), r.hists...)
	sort.Slice(hs, func(i, j int) bool { return hs[i].name < hs[j].name })
	for _, h := range hs {
		var total uint64
		var sum sim.Duration
		agg := make([]uint64, len(h.bounds)+1)
		for n := range h.counts {
			total += h.ns[n]
			sum += h.sums[n]
			for b, v := range h.counts[n] {
				agg[b] += v
			}
		}
		pf("hist    %-28s samples %-8d total %s\n", h.name, total, fmtDur(sum))
		for b, v := range agg {
			if v == 0 {
				continue
			}
			if b < len(h.bounds) {
				pf("  <= %-10s %d\n", fmtDur(h.bounds[b]), v)
			} else {
				pf("  >  %-10s %d\n", fmtDur(h.bounds[len(h.bounds)-1]), v)
			}
		}
	}
	return err
}

// fmtDur renders a virtual duration as integer microseconds with three
// decimals, using only integer arithmetic so the text is byte-identical
// across hosts.
func fmtDur(d sim.Duration) string {
	ns := int64(d)
	sign := ""
	if ns < 0 {
		sign, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03dus", sign, ns/1000, ns%1000)
}
