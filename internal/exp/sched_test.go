package exp

import "testing"

// TestSchedQuick runs the quick control-plane chaos grid. Sched itself
// replays every cell's event record through the invariant checker, so a
// passing sweep already proves safety and liveness; the assertions here
// pin that the fault mixes actually exercised the machinery they name.
func TestSchedQuick(t *testing.T) {
	rows, err := Sched(Scale{Quick: true})
	if err != nil {
		t.Fatalf("sched sweep: %v", err)
	}
	if len(rows) != 8 { // 4 fault mixes x 2 lease timeouts x 1 heartbeat period
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		switch r.Fault {
		case "clean":
			if r.Dead != 0 || r.Migrations != 0 {
				t.Errorf("clean cell lease=%v: dead=%d migrations=%d, want 0",
					r.Lease, r.Dead, r.Migrations)
			}
			if r.FaultHash != 0 {
				t.Errorf("clean cell lease=%v: FaultHash=%#x, want 0 (no fault layer)",
					r.Lease, r.FaultHash)
			}
		case "lossy":
			if r.Retransmits == 0 {
				t.Errorf("lossy cell lease=%v: no retransmits", r.Lease)
			}
		case "crash":
			if r.Dead == 0 {
				t.Errorf("crash cell lease=%v: agent never declared dead", r.Lease)
			}
			if r.Migrations == 0 && r.Expiries == 0 {
				t.Errorf("crash cell lease=%v: no lease reclaimed off the crashed agent", r.Lease)
			}
		case "flap":
			if r.Dead == 0 || r.Recovered == 0 {
				t.Errorf("flap cell lease=%v: dead=%d recovered=%d, want both > 0",
					r.Lease, r.Dead, r.Recovered)
			}
		default:
			t.Errorf("unknown fault mix %q", r.Fault)
		}
		if r.Events == 0 {
			t.Errorf("%s cell lease=%v: empty event record", r.Fault, r.Lease)
		}
	}
}
