package sim

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"strings"
)

// Tracer observes kernel scheduling decisions. Implementations must be
// cheap; they run on the hot path of every dispatch.
type Tracer interface {
	Resume(t Time, p *Proc) // process gains the (virtual) CPU
	Yield(t Time, p *Proc)  // process yields back to the kernel
	Exit(t Time, p *Proc)   // process body returned or panicked
}

// WriterTracer logs every scheduling transition to an io.Writer; intended
// for debugging small simulations. Write errors are sticky: the first one
// stops further output and is reported by Err, so a truncated trace file
// (full disk, closed pipe) is detectable instead of silently incomplete.
type WriterTracer struct {
	W   io.Writer
	err error
}

// NewWriterTracer returns a tracer logging to w.
func NewWriterTracer(w io.Writer) *WriterTracer { return &WriterTracer{W: w} }

// Err returns the first write error encountered, or nil.
func (w *WriterTracer) Err() error { return w.err }

func (w *WriterTracer) printf(format string, t Time, name string) {
	if w.err != nil {
		return
	}
	if _, err := fmt.Fprintf(w.W, format, t, name); err != nil {
		w.err = err
	}
}

func (w *WriterTracer) Resume(t Time, p *Proc) { w.printf("%v resume %s\n", t, p.Name()) }
func (w *WriterTracer) Yield(t Time, p *Proc)  { w.printf("%v yield  %s\n", t, p.Name()) }
func (w *WriterTracer) Exit(t Time, p *Proc)   { w.printf("%v exit   %s\n", t, p.Name()) }

// Probe observes process accounting beyond the scheduling transitions a
// Tracer sees: virtual-CPU charges (with their start time, so observers
// can reconstruct burn intervals) and process spawns. Probes are pure
// observers — they must not schedule events, charge time, or otherwise
// perturb the simulation; the kernel calls them only when one is
// installed, so the disabled path stays allocation-free.
type Probe interface {
	// Charged reports that p burned d of virtual CPU starting at start.
	// For a plain Charge it fires at charge time; for an interruptible
	// charge it fires at resume time with the actually-consumed amount.
	Charged(p *Proc, start Time, d Duration)
	// Spawned reports a new process incarnation at spawn time.
	Spawned(p *Proc)
}

// HashTracer folds every scheduling transition into an FNV-1a hash. Two
// runs of a deterministic simulation must produce identical sums; the
// determinism tests rely on this.
type HashTracer struct {
	h uint64
}

// NewHashTracer returns a tracer with the standard FNV-1a offset basis.
func NewHashTracer() *HashTracer {
	f := fnv.New64a()
	return &HashTracer{h: f.Sum64()}
}

func (h *HashTracer) mix(kind byte, t Time, p *Proc) {
	const prime = 1099511628211
	h.h = (h.h ^ uint64(kind)) * prime
	h.h = (h.h ^ uint64(t)) * prime
	h.h = (h.h ^ p.id) * prime
}

func (h *HashTracer) Resume(t Time, p *Proc) { h.mix('r', t, p) }
func (h *HashTracer) Yield(t Time, p *Proc)  { h.mix('y', t, p) }
func (h *HashTracer) Exit(t Time, p *Proc)   { h.mix('x', t, p) }

// Sum returns the accumulated schedule hash.
func (h *HashTracer) Sum() uint64 { return h.h }

// CanonicalTracer buffers every scheduling transition and renders them in
// the canonical (time, process name, transition) order, independent of
// the execution interleaving within an instant. A sequential run and a
// sharded run of the same simulation produce byte-identical canonical
// text; exp's FuzzEquivalence compares exactly this.
type CanonicalTracer struct {
	recs []traceRec
}

// NewCanonicalTracer returns an empty canonical tracer.
func NewCanonicalTracer() *CanonicalTracer { return &CanonicalTracer{} }

func (c *CanonicalTracer) Resume(t Time, p *Proc) {
	c.recs = append(c.recs, traceRec{t, 0, p.Name()})
}
func (c *CanonicalTracer) Yield(t Time, p *Proc) {
	c.recs = append(c.recs, traceRec{t, 1, p.Name()})
}
func (c *CanonicalTracer) Exit(t Time, p *Proc) {
	c.recs = append(c.recs, traceRec{t, 2, p.Name()})
}

// sortCanonical puts trace records in the canonical (time, process name,
// transition) order, the one a sequential and a sharded run share; records
// equal on all three keep their order.
func sortCanonical(recs []traceRec) {
	slices.SortStableFunc(recs, func(a, b traceRec) int {
		return cmp.Or(cmp.Compare(a.t, b.t), strings.Compare(a.name, b.name), cmp.Compare(a.kind, b.kind))
	})
}

// Text returns the buffered transitions sorted canonically, formatted
// like WriterTracer output.
func (c *CanonicalTracer) Text() string {
	recs := slices.Clone(c.recs)
	sortCanonical(recs)
	var sb strings.Builder
	for _, r := range recs {
		switch r.kind {
		case 0:
			fmt.Fprintf(&sb, "%v resume %s\n", r.t, r.name)
		case 1:
			fmt.Fprintf(&sb, "%v yield  %s\n", r.t, r.name)
		default:
			fmt.Fprintf(&sb, "%v exit   %s\n", r.t, r.name)
		}
	}
	return sb.String()
}

// Hash returns the FNV-1a hash of Text.
func (c *CanonicalTracer) Hash() uint64 {
	f := fnv.New64a()
	io.WriteString(f, c.Text())
	return f.Sum64()
}
