package core

import (
	"testing"

	"dpd/internal/series"
)

// nestedStream builds a hydro2d-style stream: header, a run of identical
// addresses (periodicity 1), an inner pattern repeated (periodicity
// len(inner)), and a footer — the whole thing cycled (outer periodicity =
// total length).
func nestedStream(cycles int) (stream []int64, inner, outer int) {
	header := []int64{9001, 9002, 9003}
	run := series.RepeatInt([]int64{7777}, 12)
	innerPat := []int64{100, 200, 300, 400}
	footer := []int64{8001, 8002}
	var pat []int64
	pat = append(pat, header...)
	pat = append(pat, run...)
	for i := 0; i < 6; i++ {
		pat = append(pat, innerPat...)
	}
	pat = append(pat, footer...)
	outer = len(pat) // 3+12+24+2 = 41
	for i := 0; i < cycles; i++ {
		stream = append(stream, pat...)
	}
	return stream, len(innerPat), outer
}

func TestMultiScaleDetectsNestedPeriodicities(t *testing.T) {
	stream, inner, outer := nestedStream(6)
	ms := MustMultiScaleDetector([]int{8, 16, 64}, Config{})
	tr := NewPeriodTracker()
	for _, v := range stream {
		mr := ms.Feed(v)
		tr.ObserveMulti(mr, ms)
	}
	got := tr.Periods()
	want := map[int]bool{1: true, inner: true, outer: true}
	for _, w := range []int{1, inner, outer} {
		found := false
		for _, g := range got {
			if g == w {
				found = true
			}
		}
		if !found {
			t.Errorf("period %d not detected; got %v", w, got)
		}
	}
	// No spurious periods beyond the constructed ones.
	for _, g := range got {
		if !want[g] {
			t.Errorf("spurious period %d detected; got %v", g, got)
		}
	}
}

func TestMultiScalePrimaryIsLargestWindowLock(t *testing.T) {
	stream, _, outer := nestedStream(8)
	ms := MustMultiScaleDetector([]int{8, 64}, Config{})
	var last MultiResult
	for _, v := range stream {
		last = ms.Feed(v)
	}
	// By the end of the stream the large window must be locked on the
	// outer period and Primary must reflect it.
	if !last.Primary.Locked || last.Primary.Period != outer {
		t.Fatalf("Primary=%+v, want outer period %d", last.Primary, outer)
	}
}

func TestMultiScaleShortestDuringInnerPhase(t *testing.T) {
	// Feed only the inner phase: the small window locks, the big one can't.
	ms := MustMultiScaleDetector([]int{8, 512}, Config{})
	var last MultiResult
	for i := 0; i < 60; i++ {
		last = ms.Feed(int64(i % 3))
	}
	if !last.Shortest.Locked || last.Shortest.Period != 3 {
		t.Fatalf("Shortest=%+v, want period 3", last.Shortest)
	}
	if last.PerLevel[1].Locked {
		t.Fatal("512-window cannot be full after 60 samples")
	}
	// Primary falls back to the small window's lock: it is the only one.
	if !last.Primary.Locked || last.Primary.Period != 3 {
		t.Fatalf("Primary=%+v, want fallback to period 3", last.Primary)
	}
}

func TestMultiScaleLockedPeriods(t *testing.T) {
	ms := MustMultiScaleDetector([]int{8, 32}, Config{})
	for i := 0; i < 100; i++ {
		ms.Feed(int64(i % 4))
	}
	lp := ms.LockedPeriods()
	if len(lp) != 2 || lp[0] != 4 || lp[1] != 4 {
		t.Fatalf("LockedPeriods=%v, want [4 4]", lp)
	}
}

func TestMultiScaleValidation(t *testing.T) {
	if _, err := NewMultiScaleDetector([]int{}, Config{}); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := NewMultiScaleDetector([]int{16, 8}, Config{}); err == nil {
		t.Error("non-increasing ladder accepted")
	}
	if _, err := NewMultiScaleDetector([]int{8, 8}, Config{}); err == nil {
		t.Error("duplicate ladder accepted")
	}
	if _, err := NewMultiScaleDetector([]int{1, 8}, Config{}); err == nil {
		t.Error("window 1 accepted")
	}
}

func TestMultiScaleDefaultLadder(t *testing.T) {
	ms := MustMultiScaleDetector(nil, Config{})
	if ms.Levels() != len(DefaultLadder) {
		t.Fatalf("Levels=%d, want %d", ms.Levels(), len(DefaultLadder))
	}
	for i, w := range DefaultLadder {
		if ms.Level(i).Window() != w {
			t.Errorf("level %d window=%d, want %d", i, ms.Level(i).Window(), w)
		}
	}
}

func TestMultiScaleReset(t *testing.T) {
	ms := MustMultiScaleDetector([]int{8, 32}, Config{})
	for i := 0; i < 100; i++ {
		ms.Feed(int64(i % 2))
	}
	ms.Reset()
	for _, p := range ms.LockedPeriods() {
		if p != 0 {
			t.Fatal("lock survived reset")
		}
	}
	var last MultiResult
	for i := 0; i < 100; i++ {
		last = ms.Feed(int64(i % 5))
	}
	if !last.Primary.Locked || last.Primary.Period != 5 {
		t.Fatalf("unusable after reset: %+v", last.Primary)
	}
}

// TestMultiScaleLevelRefusesDirectUse: a ladder level is a view on the
// ladder's shared bank, so feeding, resetting, resizing or loading it
// directly — or wrapping it in an engine — fails loudly, and none of
// those attempts moves the ladder out of step: it keeps producing the
// results and checkpoints of an untouched twin, and its checkpoint
// still restores.
func TestMultiScaleLevelRefusesDirectUse(t *testing.T) {
	stream, _, _ := nestedStream(8)
	windows := []int{8, 16, 64}
	ms := MustMultiScaleDetector(windows, Config{})
	twin := MustMultiScaleDetector(windows, Config{})
	half := 40 // the 64-window level is still asleep
	for _, v := range stream[:half] {
		ms.Feed(v)
		twin.Feed(v)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a ladder level did not panic", what)
			}
		}()
		f()
	}
	for i := 0; i < ms.Levels(); i++ {
		lvl := ms.Level(i)
		state := lvl.AppendState(nil)
		mustPanic("Feed", func() { lvl.Feed(1) })
		mustPanic("FeedAll", func() { lvl.FeedAll([]int64{1, 2}, nil) })
		mustPanic("Reset", lvl.Reset)
		mustPanic("NewEventEngine", func() { NewEventEngine(lvl) })
		if err := lvl.Resize(lvl.Window() * 2); err == nil {
			t.Errorf("level %d: Resize succeeded", i)
		}
		if _, err := lvl.LoadState(state); err == nil {
			t.Errorf("level %d: LoadState succeeded", i)
		}
	}
	for _, v := range stream[half:] {
		got, want := ms.Feed(v), twin.Feed(v)
		for i := range want.PerLevel {
			if got.PerLevel[i] != want.PerLevel[i] {
				t.Fatalf("sample %d level %d: %+v, untouched twin %+v", want.T, i, got.PerLevel[i], want.PerLevel[i])
			}
		}
	}
	blob := ms.AppendState(nil)
	if string(blob) != string(twin.AppendState(nil)) {
		t.Fatal("ladder state differs from its untouched twin's")
	}
	restored := MustMultiScaleDetector(windows, Config{})
	if _, err := restored.LoadState(blob); err != nil {
		t.Fatalf("restore after refused level calls: %v", err)
	}
}

func TestPeriodTrackerStats(t *testing.T) {
	tr := NewPeriodTracker()
	// Simulate a lock on period 4 for 10 samples with 2 starts, window 8.
	for i := uint64(0); i < 10; i++ {
		tr.Observe(Result{Locked: true, Period: 4, Start: i%5 == 0, T: 100 + i}, 8)
	}
	s := tr.Stat(4)
	if s == nil {
		t.Fatal("period 4 not tracked")
	}
	if s.FirstAt != 100 || s.LastAt != 109 || s.Samples != 10 || s.Starts != 2 || s.Window != 8 {
		t.Fatalf("stat=%+v", *s)
	}
}

func TestPeriodTrackerWindowKeepsSmallest(t *testing.T) {
	tr := NewPeriodTracker()
	tr.Observe(Result{Locked: true, Period: 6, T: 1}, 64)
	tr.Observe(Result{Locked: true, Period: 6, T: 2}, 8)
	tr.Observe(Result{Locked: true, Period: 6, T: 3}, 32)
	if got := tr.Stat(6).Window; got != 8 {
		t.Fatalf("Window=%d, want smallest 8", got)
	}
}

func TestPeriodTrackerIgnoresUnlocked(t *testing.T) {
	tr := NewPeriodTracker()
	tr.Observe(Result{Locked: false, Period: 3}, 8)
	tr.Observe(Result{Locked: true, Period: 0}, 8)
	if len(tr.Periods()) != 0 {
		t.Fatalf("Periods=%v, want empty", tr.Periods())
	}
}

func TestPeriodTrackerSignificantFilters(t *testing.T) {
	tr := NewPeriodTracker()
	for i := uint64(0); i < 100; i++ {
		tr.Observe(Result{Locked: true, Period: 5, T: i}, 8)
	}
	tr.Observe(Result{Locked: true, Period: 13, T: 200}, 8) // one flicker
	if got := tr.SignificantPeriods(10); len(got) != 1 || got[0] != 5 {
		t.Fatalf("SignificantPeriods=%v, want [5]", got)
	}
	if got := tr.Periods(); len(got) != 2 {
		t.Fatalf("Periods=%v, want both", got)
	}
}

func TestPeriodTrackerStatsSorted(t *testing.T) {
	tr := NewPeriodTracker()
	for _, p := range []int{24, 1, 269} {
		tr.Observe(Result{Locked: true, Period: p}, 8)
	}
	stats := tr.Stats()
	if len(stats) != 3 || stats[0].Period != 1 || stats[1].Period != 24 || stats[2].Period != 269 {
		t.Fatalf("Stats order wrong: %+v", stats)
	}
}
