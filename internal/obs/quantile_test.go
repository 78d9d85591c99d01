package obs

import (
	"testing"

	"repro/internal/sim"
)

// TestQuantileRounding pins the bucket-boundary rounding contract: the
// quantile resolves to the upper bound of the bucket holding the sample
// of rank ceil(q*n), aggregated across nodes.
func TestQuantileRounding(t *testing.T) {
	r := NewRegistry(2)
	h := r.NewHistogram("lat", sim.Micros(10), sim.Micros(100), sim.Micros(1000))

	// 90 samples <= 10us on node 0, 9 in (10,100] on node 1, 1 in
	// (100,1000] on node 0: n=100.
	for i := 0; i < 90; i++ {
		h.Observe(0, sim.Micros(5))
	}
	for i := 0; i < 9; i++ {
		h.Observe(1, sim.Micros(50))
	}
	h.Observe(0, sim.Micros(500))

	if n := h.TotalCount(); n != 100 {
		t.Fatalf("TotalCount = %d, want 100", n)
	}
	cases := []struct {
		q    float64
		want sim.Duration
	}{
		{0.50, sim.Micros(10)},  // rank 50 in bucket <=10us
		{0.90, sim.Micros(10)},  // rank 90 is the last <=10us sample
		{0.91, sim.Micros(100)}, // rank 91 in (10,100]
		{0.99, sim.Micros(100)},
		{0.999, sim.Micros(1000)}, // rank 100: the slow sample
		{1.0, sim.Micros(1000)},
	}
	for _, c := range cases {
		got, ok := h.Quantile(c.q)
		if !ok || got != c.want {
			t.Errorf("Quantile(%v) = %v, %t; want %v, true", c.q, got, ok, c.want)
		}
	}
	p50, p99, p999 := h.Percentiles()
	if p50 != sim.Micros(10) || p99 != sim.Micros(100) || p999 != sim.Micros(1000) {
		t.Errorf("Percentiles = %v, %v, %v", p50, p99, p999)
	}
}

// TestQuantileOverflow: ranks landing in the +Inf bucket report the last
// finite bound with ok=false (a lower bound, not an upper bound).
func TestQuantileOverflow(t *testing.T) {
	r := NewRegistry(1)
	h := r.NewHistogram("lat", sim.Micros(10), sim.Micros(100))
	h.Observe(0, sim.Micros(5))
	h.Observe(0, sim.Micros(5000)) // overflow

	if got, ok := h.Quantile(0.5); !ok || got != sim.Micros(10) {
		t.Errorf("Quantile(0.5) = %v, %t; want 10us, true", got, ok)
	}
	if got, ok := h.Quantile(1.0); ok || got != sim.Micros(100) {
		t.Errorf("Quantile(1.0) = %v, %t; want 100us, false", got, ok)
	}
}

// TestQuantileEmpty: no samples yields (0, false); out-of-range q panics.
func TestQuantileEmpty(t *testing.T) {
	r := NewRegistry(1)
	h := r.NewHistogram("lat", sim.Micros(10))
	if got, ok := h.Quantile(0.99); ok || got != 0 {
		t.Errorf("empty Quantile = %v, %t; want 0, false", got, ok)
	}
	for _, q := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", q)
				}
			}()
			h.Quantile(q)
		}()
	}
}

// TestMaterialize: a materialized histogram is updatable without further
// allocation of shared rows, and values read back unchanged.
func TestMaterialize(t *testing.T) {
	h := NewRegistry(3).NewHistogram("h", sim.Micros(10))
	h.Materialize()
	h.Observe(0, sim.Micros(3))
	if h.Count(0) != 1 || h.TotalCount() != 1 {
		t.Errorf("hist after Materialize: %d/%d", h.Count(0), h.TotalCount())
	}
	h.Materialize()
	if h.TotalCount() != 1 {
		t.Error("Materialize is not idempotent")
	}
}
