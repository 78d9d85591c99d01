// Package am implements Active Messages over the simulated machine: the
// communication layer of von Eicken et al. that the paper generalizes.
//
// A message names a handler, which executes inline on the context that
// polls it off the network — there is no thread creation and no buffering
// beyond the network interface itself. Handlers run with a handler
// execution context (threads.Ctx with a nil Thread), so any attempt to
// block panics: that is the Active Messages restriction. Optimistic Active
// Messages (package oam) lifts it by promoting handlers to threads. A poll
// charges the ejection and the handler dispatch as one sim.Proc.ChargeSeq;
// a sleeping scheduler's poll is taken in steps (Eject, Dispatch), the
// first by the kernel loop, and so is the handler itself if it was
// registered as bookkeeping only (RegisterAtomic).
//
// Send follows the CM-5 CMMD convention: when the destination's input
// buffer is full, the sender drains its own incoming messages while
// retrying, which avoids distributed buffer deadlock. TrySend exposes the
// non-blocking variant whose failure is the OAM "network busy" abort
// condition. PollUntil is CMAM_wait, the hand-coded program's wait for a
// reply: poll until a handler raises the flag.
package am
