// Package obs is the deterministic observability subsystem of the ORPC
// stack: a typed per-node metrics bus, a Chrome trace-event (Perfetto)
// timeline exporter, and a virtual-time profiler, all fed by the records
// (sim.Record) the sim, cm5, threads, am, oam and rpc packages emit to the
// engine's one sink, which a Collector is.
//
// Three rules make it safe to leave the records compiled into every layer:
//
//  1. Zero overhead when disabled. Every record is guarded by one nil
//     check of the shard's sink; with no collector attached the hot paths
//     (packet injection, handler dispatch, spawn/exit) allocate nothing
//     and the per-event cost is a predicted-not-taken branch. The alloc
//     and ns/event budget tests pin this.
//
//  2. Observation never perturbs the schedule. A collector must not
//     schedule events, charge virtual time, park or unpark processes.
//     Everything is sampled on change, from within the instrumented
//     code's own event; there is no sampler timer (one would keep the
//     event heap non-empty and break quiescence detection).
//
//  3. Determinism. Collectors only record values derived from virtual
//     time and the seeded simulation; output is rendered with integer
//     arithmetic and explicitly ordered iteration, so the same seed
//     yields byte-identical trace JSON, metrics tables and profiles on
//     any host. Golden tests pin this.
package obs
