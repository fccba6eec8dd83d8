package main

import (
	"testing"
	"time"
)

// TestSelfTest runs the checker self-test every benchmark run starts with:
// each checker must accept the program's verified answer and reject a
// corrupted copy.
func TestSelfTest(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestWindowRate checks that only whole windows count, so a burst in the
// last, partial second does not move the rate.
func TestWindowRate(t *testing.T) {
	start := time.Unix(0, 0)
	at := func(msec int) time.Time { return start.Add(time.Duration(msec) * time.Millisecond) }
	var done []time.Time
	for i := 0; i < 20; i++ {
		done = append(done, at(100*i+50)) // ten per second for two seconds
	}
	done = append(done, at(2990), at(2995))
	if got := windowRate(start, done); got != 10 {
		t.Fatalf("windowRate = %v, want 10", got)
	}
}
