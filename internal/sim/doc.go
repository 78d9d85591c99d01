// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel models virtual time with nanosecond resolution and drives a set
// of coroutine processes (Proc). Exactly one process executes at any moment;
// control transfers between the kernel and processes are explicit, so a
// simulation run is sequential and bit-for-bit reproducible regardless of
// host scheduling.
//
// Processes are runtime coroutines (iter.Pull), not scheduled goroutines:
// a process runs until it yields by charging virtual time (Charge),
// parking (Park), step-waiting (StepWait: a charge loop whose steps the
// kernel does not execute until StepWake), or returning. The event loop
// then migrates onto the yielding process's stack: it pops the next event
// off the (time, class, key, sequence) ordered queue in place, fires
// kernel callbacks inline, and continues straight back into the process
// when its own event surfaces (a Charge with nothing due before its resume
// skips even that, advancing the clock in place). When another process's
// event surfaces instead, the loop first asks the Continuation the process
// may have left behind (ChargeThen, ParkThen, Then; ChargeSeq is one) and
// does what it says in the process's place — charge again, park again —
// for as long as that needs no stack; only when it says Run, or there is
// none, does it record the process in Shard.pending and resume it by
// calling its next, staying suspended in that call until the process
// yields — or, if that process is itself waiting in such a call, yields so
// that the unwind reaches it (Shard.relay). That is the one invariant: one
// resume chain per shard — at its root the trampoline, the goroutine that
// called Run or the shard's span runner; at its tip the holder of the
// kernel role; empty whenever Run or a span has returned — and the kernel
// role moves by coroutine switch, never through a channel or the Go
// scheduler. Finished processes park their coroutine on a free list for
// reuse by Spawn, and Shutdown ends every coroutine before it returns.
//
// The switch mechanism is invisible to the simulation: the order in which
// events leave the queue is the schedule, and nothing about how control
// reaches the dispatched process feeds back into it. Because only one
// coroutine of a shard ever runs, shared state touched by processes and
// kernel callbacks needs no locking. The package requires Go 1.23.
//
// A sharded engine (NewSharded) runs several such kernels in parallel, one
// per shard, under one scheduler (optimistic.go): virtual time advances in
// commit spans, within which a shard fires an event only once it is
// provably earlier than anything another shard could still send it, and
// between which the coordinator flushes traces and fires global events.
// ShardMode picks the span width and nothing else — one lookahead
// (Conservative, the lockstep schedule) or 32 (Optimistic) — and every
// width gives the sequential kernel's results bit for bit.
//
// The package is the substrate for the CM-5 machine model (package cm5),
// the user-level thread package (package threads), and everything above
// them. It knows nothing about nodes, networks, or threads.
package sim
