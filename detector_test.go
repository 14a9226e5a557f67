// Interface-conformance and differential tests for the unified Detector
// surface (ISSUE 3 tentpole): every engine constructed through dpd.New
// must satisfy Detector and produce results byte-identical to its
// pre-redesign constructor, so the API redesign provably changes no
// detection output (Table 2 periods, Figure 4 minimum, segmentation
// counts).
package dpd_test

import (
	"testing"

	"dpd"
	"dpd/internal/core"
)

// Compile-time conformance: dynamic engine types satisfy Detector.
var (
	_ dpd.Detector = (*dpd.EventEngine)(nil)
	_ dpd.Detector = (*dpd.MagnitudeEngine)(nil)
	_ dpd.Detector = (*dpd.MultiScaleEngine)(nil)
	_ dpd.Detector = (*dpd.AdaptiveEngine)(nil)
)

// eventStream is a deterministic mixed stream: aperiodic prefix, a
// period-5 phase, a glitch, then a period-3 phase.
func eventStream(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		switch {
		case i < 23:
			out[i] = int64(i) * 997
		case i < n/2:
			out[i] = int64(i % 5)
		case i == n/2:
			out[i] = -1
		default:
			out[i] = int64(i % 3)
		}
	}
	return out
}

func TestNewEventEngineMatchesLegacyConstructor(t *testing.T) {
	det := dpd.Must(dpd.WithWindow(64), dpd.WithGrace(2))
	legacy, err := core.NewEventDetector(core.Config{Window: 64, Grace: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range eventStream(600) {
		got := det.Feed(dpd.EventSample(v))
		want := legacy.Feed(v)
		if got != want {
			t.Fatalf("sample %d: New engine %+v != legacy %+v", i, got, want)
		}
	}
	st := det.Snapshot()
	if want := legacy.Locked(); (st.Period != want) || (st.Locked != (want != 0)) {
		t.Errorf("snapshot period %d (locked=%v), legacy %d", st.Period, st.Locked, want)
	}
	if st.Window != legacy.Window() {
		t.Errorf("snapshot window %d, legacy %d", st.Window, legacy.Window())
	}
	if v, ok := legacy.PredictNext(); ok != st.PredictedValid || (ok && v != st.Predicted) {
		t.Errorf("snapshot prediction (%d,%v), legacy (%d,%v)", st.Predicted, st.PredictedValid, v, ok)
	}
}

func TestNewMagnitudeEngineMatchesLegacyConstructor(t *testing.T) {
	det := dpd.Must(dpd.WithMagnitude(0), dpd.WithWindow(100), dpd.WithConfirm(3))
	legacy, err := core.NewMagnitudeDetector(core.Config{Window: 100, Confirm: 3})
	if err != nil {
		t.Fatal(err)
	}
	wave := func(i int) float64 {
		// The paper's Figure 3/4 shape: period 44.
		if i%44 < 30 {
			return 16
		}
		return 1
	}
	var last dpd.Result
	for i := 0; i < 500; i++ {
		got := det.Feed(dpd.MagnitudeSample(wave(i)))
		want := legacy.Feed(wave(i))
		if got != want {
			t.Fatalf("sample %d: New engine %+v != legacy %+v", i, got, want)
		}
		last = got
	}
	if !last.Locked || last.Period != 44 {
		t.Fatalf("figure 4 period: got %+v, want locked m=44", last)
	}
	if st := det.Snapshot(); st.Period != 44 || st.Confidence != last.Confidence {
		t.Errorf("snapshot %+v does not carry the magnitude lock", st)
	}
}

func TestNewMultiScaleEngineMatchesLegacyPrimary(t *testing.T) {
	windows := []int{8, 32, 128}
	det := dpd.Must(dpd.WithLadder(windows...))
	legacy, err := core.NewMultiScaleDetector(windows, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Nested stream: inner period 4, outer period 20.
	value := func(i int) int64 {
		if i%20 == 0 {
			return 77
		}
		return int64(i % 4)
	}
	for i := 0; i < 800; i++ {
		got := det.Feed(dpd.EventSample(value(i)))
		want := legacy.Feed(value(i)).Primary
		if got != want {
			t.Fatalf("sample %d: New engine %+v != legacy primary %+v", i, got, want)
		}
	}
	// The engine exposes the full ladder for per-level access.
	eng := det.(*dpd.MultiScaleEngine)
	if lp := eng.Ladder().LockedPeriods(); len(lp) != len(windows) {
		t.Fatalf("Ladder() reports %d levels, want %d", len(lp), len(windows))
	}
	if st := det.Snapshot(); !st.Locked || st.Period != 20 {
		t.Errorf("snapshot %+v, want outer period 20", st)
	}
}

func TestNewAdaptiveEngineMatchesLegacyConstructor(t *testing.T) {
	policy := dpd.AdaptivePolicy{MinWindow: 8, MaxWindow: 256, ShrinkAfter: 24, Headroom: 2.5, GrowAfter: 48}
	det := dpd.Must(dpd.WithAdaptive(policy))
	legacy, err := core.NewAdaptiveDetector(policy, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range eventStream(900) {
		got := det.Feed(dpd.EventSample(v))
		want := legacy.Feed(v)
		if got != want {
			t.Fatalf("sample %d: New engine %+v != legacy %+v", i, got, want)
		}
		if got, want := det.Window(), legacy.Window(); got != want {
			t.Fatalf("sample %d: window %d != legacy %d (policy diverged)", i, got, want)
		}
	}
	eng := det.(*dpd.AdaptiveEngine)
	if got, want := eng.Adaptive().Resizes(), legacy.Resizes(); got != want {
		t.Errorf("resizes %d != legacy %d", got, want)
	}
}

func TestTable1DPDMatchesNewDefault(t *testing.T) {
	// The Table-1 DPD wrapper is a shim over New(): identical output.
	shim := dpd.NewDPD()
	det := dpd.Must()
	if shim.Window() != dpd.DefaultDPDWindow || det.Window() != dpd.DefaultDPDWindow {
		t.Fatalf("defaults: shim window %d, New window %d, want %d",
			shim.Window(), det.Window(), dpd.DefaultDPDWindow)
	}
	for i := 0; i < 2200; i++ {
		v := int64(i % 5)
		start, period := shim.Feed(v)
		r := det.Feed(dpd.EventSample(v))
		wantStart := 0
		if r.Locked && r.Start {
			wantStart = 1
		}
		wantPeriod := 0
		if r.Locked {
			wantPeriod = r.Period
		}
		if start != wantStart || period != wantPeriod {
			t.Fatalf("sample %d: DPD (%d,%d) != New (%d,%d)", i, start, period, wantStart, wantPeriod)
		}
	}
	if shim.AsDetector().Snapshot() != det.Snapshot() {
		t.Errorf("DPD.AsDetector snapshot %+v != New snapshot %+v",
			shim.AsDetector().Snapshot(), det.Snapshot())
	}
}

func TestDetectorFeedAllMatchesFeed(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []dpd.Option
	}{
		{"event", []dpd.Option{dpd.WithWindow(32)}},
		{"magnitude", []dpd.Option{dpd.WithMagnitude(0.5), dpd.WithWindow(48)}},
		{"multiscale", []dpd.Option{dpd.WithLadder(8, 32)}},
		{"adaptive", []dpd.Option{dpd.WithAdaptive(dpd.AdaptivePolicy{
			MinWindow: 8, MaxWindow: 64, ShrinkAfter: 16, Headroom: 2, GrowAfter: 32})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batchDet := dpd.Must(tc.opts...)
			stepDet := dpd.Must(tc.opts...)
			samples := make([]dpd.Sample, 300)
			for i := range samples {
				samples[i] = dpd.Sample{Value: int64(i % 6), Magnitude: float64(i % 6)}
			}
			var dst []dpd.Result
			dst = batchDet.FeedAll(samples, dst)
			for i, s := range samples {
				if want := stepDet.Feed(s); dst[i] != want {
					t.Fatalf("sample %d: FeedAll %+v != Feed %+v", i, dst[i], want)
				}
			}
			if batchDet.Snapshot() != stepDet.Snapshot() {
				t.Errorf("snapshots diverge: batch %+v != step %+v", batchDet.Snapshot(), stepDet.Snapshot())
			}
		})
	}
}

func TestDetectorResetRestoresFreshState(t *testing.T) {
	det := dpd.Must(dpd.WithWindow(16))
	for i := 0; i < 100; i++ {
		det.Feed(dpd.EventSample(int64(i % 2)))
	}
	if st := det.Snapshot(); !st.Locked || st.Starts == 0 {
		t.Fatalf("setup failed to lock: %+v", st)
	}
	det.Reset()
	if st := det.Snapshot(); st != (dpd.Stat{Window: 16}) {
		t.Errorf("Reset left state behind: %+v", st)
	}
}

// TestObserverEventSequence pins the subscription semantics: lock →
// segment starts each period → unlock on a broken stream, with the
// same transitions a per-sample poller of Result would reconstruct.
func TestObserverEventSequence(t *testing.T) {
	type rec struct {
		kind   dpd.EventKind
		t      uint64
		period int
		prev   int
	}
	var events []rec
	capture := func(e *dpd.Event) {
		events = append(events, rec{e.Kind, e.T, e.Period, e.PrevPeriod})
	}
	det := dpd.Must(
		dpd.WithWindow(16),
		dpd.WithObserver(dpd.ObserverFuncs{
			Lock: capture, PeriodChange: capture, SegmentStart: capture, Unlock: capture,
		}),
	)

	// Phase 1: period 4 until sample 59; then an aperiodic burst.
	var fromPoll []rec
	var locked bool
	var period int
	for i := 0; i < 90; i++ {
		v := int64(i % 4)
		if i >= 60 {
			v = int64(1000 + i) // breaks the periodicity
		}
		r := det.Feed(dpd.EventSample(v))
		switch {
		case !locked && r.Locked:
			fromPoll = append(fromPoll, rec{dpd.EventLock, r.T, r.Period, period})
		case locked && r.Locked && r.Period != period:
			fromPoll = append(fromPoll, rec{dpd.EventPeriodChange, r.T, r.Period, period})
		case locked && !r.Locked:
			fromPoll = append(fromPoll, rec{dpd.EventUnlock, r.T, 0, period})
		}
		if r.Start {
			fromPoll = append(fromPoll, rec{dpd.EventSegmentStart, r.T, r.Period, period})
		}
		locked, period = r.Locked, r.Period
	}

	if len(events) == 0 {
		t.Fatal("observer received no events")
	}
	if len(events) != len(fromPoll) {
		t.Fatalf("observer saw %d events, poller reconstructed %d:\n  observer: %v\n  poller:   %v",
			len(events), len(fromPoll), events, fromPoll)
	}
	for i := range events {
		if events[i] != fromPoll[i] {
			t.Fatalf("event %d: observer %+v != poller %+v", i, events[i], fromPoll[i])
		}
	}
	// The sequence must begin with the lock and end with the unlock.
	if events[0].kind != dpd.EventLock {
		t.Errorf("first event %+v, want lock", events[0])
	}
	if last := events[len(events)-1]; last.kind != dpd.EventUnlock || last.prev != 4 {
		t.Errorf("last event %+v, want unlock with prev period 4", last)
	}
}

// TestObserverPeriodChange pins the re-lock transition: a stream whose
// fundamental period halves mid-run must deliver OnPeriodChange, not an
// unlock/lock pair.
func TestObserverPeriodChange(t *testing.T) {
	var changes []dpd.Event
	det := dpd.Must(
		dpd.WithWindow(32),
		dpd.WithGrace(64),
		dpd.WithObserver(dpd.ObserverFuncs{
			PeriodChange: func(e *dpd.Event) { changes = append(changes, *e) },
		}),
	)
	// Period 6 first (9,1,2,9,4,5), then its period-3 prefix (9,1,2):
	// the transition pushes a few lag-6 mismatches through the window,
	// so the grace budget carries the old lock while the shorter
	// fundamental confirms — a re-lock, not an unlock/lock pair.
	p6 := []int64{9, 1, 2, 9, 4, 5}
	for i := 0; i < 120; i++ {
		det.Feed(dpd.EventSample(p6[i%6]))
	}
	p3 := []int64{9, 1, 2}
	for i := 0; i < 120; i++ {
		det.Feed(dpd.EventSample(p3[i%3]))
	}
	if len(changes) == 0 {
		t.Fatal("no OnPeriodChange delivered")
	}
	last := changes[len(changes)-1]
	if last.Period != 3 || last.PrevPeriod != 6 {
		t.Errorf("period change %+v, want 6 → 3", last)
	}
}

// TestPoolRunsEveryEngine is the acceptance matrix: a pooled stream can
// run each of the four engines via PoolConfig.NewDetector.
func TestPoolRunsEveryEngine(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory func() dpd.Detector
		sample  func(i int) dpd.Sample
		period  int
	}{
		{
			"event",
			func() dpd.Detector { return dpd.Must(dpd.WithWindow(32)) },
			func(i int) dpd.Sample { return dpd.EventSample(int64(i % 4)) },
			4,
		},
		{
			"magnitude",
			func() dpd.Detector { return dpd.Must(dpd.WithMagnitude(0.5), dpd.WithWindow(100), dpd.WithConfirm(3)) },
			func(i int) dpd.Sample {
				if i%44 < 30 {
					return dpd.MagnitudeSample(16)
				}
				return dpd.MagnitudeSample(1)
			},
			44,
		},
		{
			"multiscale",
			func() dpd.Detector { return dpd.Must(dpd.WithLadder(8, 64)) },
			func(i int) dpd.Sample {
				if i%12 == 0 {
					return dpd.EventSample(99)
				}
				return dpd.EventSample(int64(i % 3))
			},
			12,
		},
		{
			"adaptive",
			func() dpd.Detector {
				return dpd.Must(dpd.WithAdaptive(dpd.AdaptivePolicy{
					MinWindow: 8, MaxWindow: 128, ShrinkAfter: 16, Headroom: 2.5, GrowAfter: 32}))
			},
			func(i int) dpd.Sample { return dpd.EventSample(int64(i % 7)) },
			7,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := dpd.NewPool(dpd.PoolConfig{Shards: 2, NewDetector: tc.factory})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			const key = 12345
			for i := 0; i < 500; i++ {
				s := tc.sample(i)
				p.FeedBatch([]dpd.KeyedSample{{Key: key, Value: s.Value, Magnitude: s.Magnitude}})
			}
			st, ok := p.Stat(key)
			if !ok {
				t.Fatal("stream missing")
			}
			if !st.Locked || st.Period != tc.period {
				t.Errorf("pooled %s engine: locked=%v period=%d, want %d", tc.name, st.Locked, st.Period, tc.period)
			}
		})
	}
}
