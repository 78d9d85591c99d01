package sim

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"strings"
)

// Record is one observation: what one layer of the stack saw, at the
// instant T it was emitted. Layer says who emitted it and Kind, one of that
// layer's Rec constants, what happened; the layer's constants say which of
// the other fields they fill. Extra values ride in A and B (a charge's
// start and length, a flight's busy and wire times, an abort's strategy
// and reason).
type Record struct {
	T     Time
	Layer Layer
	Kind  Kind
	Node  int    // the node it happened on (layers above sim)
	Peer  int    // the other end: a packet's destination or source
	Proc  *Proc  // the process it is about, or that emitted it; nil when none
	Name  string // a procedure, thread or (in a sharded flush) process name
	ID    uint64 // a code: a handler, a fault kind, a thread descriptor
	N     int    // a count: bytes, a queue depth, a nesting depth, retries
	A, B  int64
}

// Layer names the stack layer that emitted a Record.
type Layer uint8

const (
	LayerSim Layer = iota
	LayerCM5
	LayerThreads
	LayerAM
	LayerOAM
	LayerRPC
)

// Kind is a layer's own record kind.
type Kind uint8

// The kernel's records. The first three are the scheduling records, in
// their canonical same-instant order; a sharded engine buffers them per
// shard and delivers them at barriers, with Proc nil and Name set (a
// pooled Proc is renamed on reuse). Every other record, of any layer, is
// delivered live on its own shard.
const (
	RecResume Kind = iota // Proc gains the (virtual) CPU
	RecYield              // Proc yields back to the kernel
	RecExit               // Proc's body returned or panicked
	// RecCharge: Proc burned B of virtual CPU starting at A. A plain
	// Charge emits it at charge time; an interruptible charge at resume
	// time, with the amount actually consumed.
	RecCharge
	RecSpawn // Proc is a new process incarnation
)

// Sink receives the observation records of every layer of an engine's
// stack (Engine.SetSink). A sink is a pure observer: it must not schedule
// events, charge time, or otherwise perturb the simulation. On a sharded
// engine the live records arrive mid-span from the shards' goroutines.
type Sink interface {
	Observe(Record)
}

// scheduling reports whether r is one of the kernel's scheduling records.
func (r *Record) scheduling() bool { return r.Layer == LayerSim && r.Kind <= RecExit }

// procName is the name of r's process, read from Proc where the record
// has one.
func (r *Record) procName() string {
	if r.Proc != nil {
		return r.Proc.Name()
	}
	return r.Name
}

// transitions are the scheduling kinds' names, padded as WriterTracer
// prints them.
var transitions = [...]string{RecResume: "resume", RecYield: "yield ", RecExit: "exit  "}

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

func (w *WriterTracer) Observe(r Record) {
	if w.err != nil || !r.scheduling() {
		return
	}
	if _, err := fmt.Fprintf(w.W, "%v %s %s\n", r.T, transitions[r.Kind], r.procName()); err != nil {
		w.err = err
	}
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

func (h *HashTracer) Observe(r Record) {
	if !r.scheduling() {
		return
	}
	const prime = 1099511628211
	var id uint64 // a sharded engine's flushed records have no Proc
	if r.Proc != nil {
		id = r.Proc.id
	}
	h.h = (h.h ^ uint64("ryx"[r.Kind])) * prime
	h.h = (h.h ^ uint64(r.T)) * prime
	h.h = (h.h ^ id) * prime
}

// Sum returns the accumulated schedule hash.
func (h *HashTracer) Sum() uint64 { return h.h }

// CanonicalTracer buffers every scheduling transition and renders them in
// the canonical (time, process name, transition) order, independent of
// the execution interleaving within an instant. A sequential run and a
// sharded run of the same simulation produce byte-identical canonical
// text; exp's FuzzEquivalence compares exactly this.
type CanonicalTracer struct {
	recs []Record
}

// NewCanonicalTracer returns an empty canonical tracer.
func NewCanonicalTracer() *CanonicalTracer { return &CanonicalTracer{} }

func (c *CanonicalTracer) Observe(r Record) {
	if r.scheduling() {
		r.Name, r.Proc = r.procName(), nil
		c.recs = append(c.recs, r)
	}
}

// sortCanonical puts scheduling records, their names captured, in the
// canonical (time, process name, transition) order, the one a sequential
// and a sharded run share; records equal on all three keep their order.
func sortCanonical(recs []Record) {
	slices.SortStableFunc(recs, func(a, b Record) int {
		return cmp.Or(cmp.Compare(a.T, b.T), strings.Compare(a.Name, b.Name), cmp.Compare(a.Kind, b.Kind))
	})
}

// Text returns the buffered transitions sorted canonically, formatted
// like WriterTracer output.
func (c *CanonicalTracer) Text() string {
	recs := slices.Clone(c.recs)
	sortCanonical(recs)
	var sb strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&sb, "%v %s %s\n", r.T, transitions[r.Kind], r.Name)
	}
	return sb.String()
}

// Hash returns the FNV-1a hash of Text.
func (c *CanonicalTracer) Hash() uint64 {
	f := fnv.New64a()
	io.WriteString(f, c.Text())
	return f.Sum64()
}
