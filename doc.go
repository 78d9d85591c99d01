// Package repro reproduces "Optimistic Active Messages: A Mechanism for
// Scheduling Communication with Computation" (Wallach, Hsieh, Johnson,
// Kaashoek, Weihl; PPoPP 1995) as a Go library: a deterministic simulated
// CM-5-class multicomputer, a user-level thread package, Active Messages,
// the Optimistic Active Messages mechanism with an Optimistic RPC runtime
// and stub compiler, the paper's four applications, and a harness that
// regenerates every table and figure of the evaluation.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-versus-measured results. cmd/oamlab runs every
// experiment at quick or full paper scale; bench/ is the host-time
// benchmark.
package repro
