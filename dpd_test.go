package dpd_test

import (
	"fmt"
	"testing"

	"dpd"
)

func TestPaperInterfaceSegmentation(t *testing.T) {
	d, err := dpd.NewDPDWithWindow(32)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []int64{0x100, 0x140, 0x180, 0x1C0} // 4 loops per iteration
	var starts []int
	for i := 0; i < 200; i++ {
		start, period := d.Feed(addrs[i%4])
		if start != 0 {
			if period != 4 {
				t.Fatalf("start with period=%d, want 4", period)
			}
			starts = append(starts, i)
		}
	}
	if len(starts) < 10 {
		t.Fatalf("only %d period starts", len(starts))
	}
	for i := 1; i < len(starts); i++ {
		if starts[i]-starts[i-1] != 4 {
			t.Fatalf("starts %v not spaced by 4", starts)
		}
	}
	if d.Period() != 4 {
		t.Fatalf("Period()=%d", d.Period())
	}
}

func TestPaperInterfaceDefaultWindow(t *testing.T) {
	d := dpd.NewDPD()
	if d.Window() != 1024 {
		t.Fatalf("default window=%d, want 1024 (captures periods to 1023)", d.Window())
	}
}

func TestPaperInterfaceWindowSize(t *testing.T) {
	d := dpd.NewDPD()
	if err := d.WindowSize(16); err != nil {
		t.Fatal(err)
	}
	if d.Window() != 16 {
		t.Fatalf("window=%d after WindowSize(16)", d.Window())
	}
	if err := d.WindowSize(0); err == nil {
		t.Fatal("WindowSize(0) accepted")
	}
	if err := d.WindowSize(-3); err == nil {
		t.Fatal("negative window accepted")
	}
}

func TestPaperInterfaceNoLockReturnsZeros(t *testing.T) {
	d := dpd.NewDPD()
	for i := int64(0); i < 100; i++ {
		start, period := d.Feed(i * 997)
		if start != 0 || period != 0 {
			t.Fatalf("aperiodic stream: start=%d period=%d", start, period)
		}
	}
}

func TestPaperInterfaceReset(t *testing.T) {
	d, _ := dpd.NewDPDWithWindow(16)
	for i := 0; i < 100; i++ {
		d.Feed(int64(i % 2))
	}
	if d.Period() != 2 {
		t.Fatalf("period=%d", d.Period())
	}
	d.Reset()
	if d.Period() != 0 {
		t.Fatal("period survived reset")
	}
}

func TestNewDPDWithWindowValidation(t *testing.T) {
	if _, err := dpd.NewDPDWithWindow(1); err == nil {
		t.Fatal("window 1 accepted")
	}
}

func TestReexportedConstructors(t *testing.T) {
	for _, opts := range [][]dpd.Option{
		{dpd.WithWindow(16)},
		{dpd.WithMagnitude(0), dpd.WithWindow(16)},
		{dpd.WithLadder()},
		{dpd.WithAdaptive(dpd.DefaultAdaptivePolicy())},
	} {
		if _, err := dpd.New(opts...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dpd.NewEventPredictor(dpd.Config{Window: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := dpd.NewMagnitudePredictor(dpd.Config{Window: 16}); err != nil {
		t.Fatal(err)
	}
	if tr := dpd.NewPeriodTracker(); tr == nil {
		t.Fatal("nil tracker")
	}
	if len(dpd.DefaultLadder) == 0 {
		t.Fatal("empty default ladder")
	}
}

// ExampleDPD demonstrates the paper's Table 1 interface: feeding a stream
// of parallel-loop addresses and reacting to period starts.
func ExampleDPD() {
	d, _ := dpd.NewDPDWithWindow(16)
	loops := []int64{0xA0, 0xB0, 0xC0} // three parallel loops per iteration
	reported := false
	for i := 0; i < 60; i++ {
		start, period := d.Feed(loops[i%3])
		if start != 0 && !reported {
			fmt.Printf("parallel region identified: period %d loops\n", period)
			reported = true
		}
	}
	// Output:
	// parallel region identified: period 3 loops
}

// ExampleMagnitudeDetector demonstrates eq. (1) on a CPU-usage-like wave.
func ExampleMagnitudeDetector() {
	det := dpd.Must(dpd.WithMagnitude(0), dpd.WithWindow(100))
	var last dpd.Result
	for i := 0; i < 400; i++ {
		// 30 samples at 16 CPUs, 14 samples at 1 CPU → period 44.
		v := 1.0
		if i%44 < 30 {
			v = 16.0
		}
		last = det.Feed(dpd.MagnitudeSample(v))
	}
	fmt.Printf("periodicity m=%d\n", last.Period)
	// Output:
	// periodicity m=44
}
