package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("new clock should be zero")
	}
	c.Advance(5 * time.Millisecond)
	c.Advance(3 * time.Millisecond)
	if c.Now() != 8*time.Millisecond {
		t.Fatalf("Now = %v", c.Now())
	}
	// Negative advances clamp to zero.
	c.Advance(-time.Hour)
	if c.Now() != 8*time.Millisecond {
		t.Fatalf("negative advance changed time: %v", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("reset failed")
	}
}

func TestClockConcurrent(t *testing.T) {
	c := NewClock()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if c.Now() != 10*1000*time.Microsecond {
		t.Fatalf("concurrent advance lost updates: %v", c.Now())
	}
}

func TestDefaultCalibrationSanity(t *testing.T) {
	cal := DefaultCalibration()
	// The paper's headline constants must be preserved.
	if cal.ORAMLinkRTT != 2*time.Millisecond {
		t.Error("ORAM RTT should be 2 ms (paper §VI)")
	}
	if cal.ORAMServerPerQuery != 25*time.Microsecond {
		t.Error("ORAM server processing should be 25 µs (paper §VI-D)")
	}
	if cal.HEVMCyclePeriod != 10*time.Nanosecond {
		t.Error("HEVM clock should be 0.1 GHz")
	}
	// ECDSA sign+verify should land near the paper's ~80 ms -ES step.
	total := cal.ECDSASign + cal.ECDSAVerify
	if total < 60*time.Millisecond || total > 100*time.Millisecond {
		t.Errorf("ECDSA round = %v, want ≈80 ms", total)
	}
	if cal.GethTimePerOp <= 0 {
		t.Error("geth calibration must be positive")
	}
}
