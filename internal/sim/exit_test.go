package sim

import (
	"bytes"
	"fmt"
	"testing"
)

// headRunner is a Runner for SpawnThen: its body, run only if the head says
// Run, carries the rest of the process on its stack.
type headRunner struct {
	name string
	body func(p *Proc)
}

func (r *headRunner) Run(p *Proc)  { r.body(p) }
func (r *headRunner) Name() string { return r.name }

// verdicts is a process's code as a list of verdicts, asked in turn.
type verdicts struct {
	steps []Next
	d     []Duration
	i     int
}

func (v *verdicts) Continue(*Proc) (Next, Duration) {
	i := v.i
	v.i++
	return v.steps[i], v.d[i]
}

// TestSpawnThenExit holds a process whose whole life is a continuation —
// charge 5, park until 12, charge 2, over — to the same steps on its
// stack: the trace bytes, Events, Dispatches and Charged are equal, the
// continuation's process is never switched to, its coroutine is pooled
// unentered and serves the next spawn. A head that says Run first enters
// its body, which asks the rest from the stack; Exit then returns there,
// and the body returns.
func TestSpawnThenExit(t *testing.T) {
	steps := []Next{NextCharge, NextPark, NextCharge, NextExit}
	ds := []Duration{5, 0, 2, 0}
	program := func(mode string) (trace string, handoffs uint64) {
		var buf bytes.Buffer
		e := New(1)
		defer e.Shutdown()
		e.SetSink(NewWriterTracer(&buf))
		sh := e.Shard(0)
		sh.Spawn("ticker", func(p *Proc) {
			for i := 0; i < 6; i++ {
				p.Charge(3)
			}
		})
		var p *Proc
		switch mode {
		case "stack":
			p = sh.Spawn("w", func(p *Proc) {
				p.Charge(5)
				p.Park()
				p.Charge(2)
			})
		case "kernel":
			p = sh.SpawnThen(&headRunner{name: "w", body: func(*Proc) { t.Error("the head's body ran") }}, &verdicts{steps: steps, d: ds})
		case "entered":
			p = sh.SpawnThen(&headRunner{name: "w", body: func(p *Proc) {
				p.Then(&verdicts{steps: steps, d: ds})
			}}, &verdicts{steps: []Next{NextRun}, d: []Duration{0}})
		}
		sh.At(12, func() { p.Unpark() })
		sh.At(20, func() {
			if !p.Dead() {
				t.Errorf("%s: the process is not over", mode)
			}
			sh.Spawn("next", func(p *Proc) { p.Charge(1) })
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s events %d dispatches %d charged %v", buf.String(), e.Events(), e.Dispatches(), e.Charged()), e.Handoffs()
	}
	sTrace, sHandoffs := program("stack")
	for _, mode := range []string{"kernel", "entered"} {
		trace, handoffs := program(mode)
		if trace != sTrace {
			t.Errorf("%s and stack runs differ:\n%s\n---\n%s", mode, trace, sTrace)
		}
		if mode == "kernel" && handoffs+2 > sHandoffs {
			t.Errorf("%d handoffs from kernel context, %d from the stack: want two fewer (the start, the wake)", handoffs, sHandoffs)
		}
	}
}
