package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is an absolute virtual timestamp, in nanoseconds since the start of
// the simulation. Virtual time has no relation to wall-clock time.
type Time int64

// Microsecond and friends are convenient duration units for cost models;
// the paper reports all costs in microseconds.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Micros converts a (possibly fractional) number of microseconds into a
// duration, rounded to the nearest nanosecond (2.01 is 2010 ns, not 2009).
// It is the unit used throughout the CM-5 cost model.
func Micros(us float64) time.Duration {
	return time.Duration(math.Round(us * float64(time.Microsecond)))
}

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Micros reports t as fractional microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(time.Microsecond) }

// Seconds reports t as fractional seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String formats the timestamp in microseconds, the natural unit of the
// simulated machine.
func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Micros()) }
