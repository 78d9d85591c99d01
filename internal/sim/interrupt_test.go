package sim

import "testing"

func TestTimerCancel(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.AfterTimer(Micros(10), func() { fired = true })
	e.After(Micros(5), func() {
		if !tm.Cancel() {
			t.Error("cancel failed")
		}
		if tm.Cancel() {
			t.Error("double cancel succeeded")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	e := New(1)
	tm := e.AfterTimer(Micros(1), func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if tm.Cancel() {
		t.Fatal("cancel of fired timer succeeded")
	}
}
