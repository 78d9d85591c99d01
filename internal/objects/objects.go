// Package objects is a miniature Orca-style shared-object system built on
// Optimistic Active Messages, reproducing the structure of the paper's
// second validation vehicle: "we have ported the Orca system to the CM-5
// and modified the compiler to run simple method calls in handlers using
// OAMs... performance improvements that ranged from 2 to 30 times".
//
// An Object lives on an owner node and is manipulated only through
// operations. Each operation has a guard (Orca's blocking condition) and
// a body; invocations from other nodes travel as RPCs, run optimistically
// in the handler when the guard holds and the object lock is free, and
// are promoted to threads when they must wait — exactly Orca's blocking
// object semantics, scheduled by the OAM mechanism instead of a thread
// per invocation.
package objects

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/threads"
)

// Object is a shared object: named state on an owner node, manipulated
// through guarded operations.
type Object struct {
	rt    *Runtime
	name  string
	owner int
	mu    *threads.Mutex
	cv    *threads.Cond
	state any
}

// Runtime manages the objects of one universe.
type Runtime struct {
	u    *am.Universe
	rpc  *rpc.Runtime
	objs map[string]*Object
}

// New builds an object runtime over an existing RPC runtime.
func New(rt *rpc.Runtime) *Runtime {
	return &Runtime{u: rt.Universe(), rpc: rt, objs: make(map[string]*Object)}
}

// NewObject creates a shared object on owner holding state. Objects must
// be created before the simulation starts.
func (r *Runtime) NewObject(name string, owner int, state any) *Object {
	if _, dup := r.objs[name]; dup {
		panic(fmt.Sprintf("objects: duplicate object %q", name))
	}
	mu := threads.NewMutex(r.u.Scheduler(owner))
	o := &Object{
		rt:    r,
		name:  name,
		owner: owner,
		mu:    mu,
		cv:    threads.NewCond(mu),
		state: state,
	}
	r.objs[name] = o
	return o
}

// Op is a guarded operation on an object. Guard is evaluated with the
// object lock held; a false guard blocks the invocation (optimistically:
// aborts it) until another operation changes the state. Body runs with
// the lock held once the guard is true; its byte result is returned to
// the caller. A nil Guard means "always ready" — Orca's non-blocking
// operations.
type Op struct {
	obj   *Object
	name  string
	proc  *rpc.Proc
	guard func(state any, arg []byte) bool
	body  func(state any, arg []byte) []byte
}

// DefineOp registers an operation on the object. All operations must be
// defined before the simulation starts.
func (o *Object) DefineOp(name string,
	guard func(state any, arg []byte) bool,
	body func(state any, arg []byte) []byte,
) *Op {
	op := &Op{obj: o, name: name, guard: guard, body: body}
	op.proc = o.rt.rpc.Define(o.name+"."+name, func(e *oam.Env, caller int, arg []byte) []byte {
		e.Lock(o.mu)
		if op.guard != nil {
			e.Await(o.cv, func() bool { return op.guard(o.state, arg) })
		}
		res := op.body(o.state, arg)
		// Any state change may enable another operation's guard.
		e.Broadcast(o.cv)
		e.Unlock(o.mu)
		return res
	})
	return op
}

// Invoke performs the operation from the calling thread, wherever it
// runs; the invocation is a remote procedure call to the owner (possibly
// the caller's own node — Orca invocations are location-transparent).
func (op *Op) Invoke(c threads.Ctx, arg *rpc.Enc) []byte {
	res := op.proc.Call(c, op.obj.owner, arg)
	return res.Bytes()
}

// Stats exposes the operation's RPC/OAM counters.
func (op *Op) Stats() rpc.ProcStats { return op.proc.Stats() }
