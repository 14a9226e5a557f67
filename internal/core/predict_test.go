package core

import (
	"testing"
)

func TestEventPredictorPerfectOnPeriodicStream(t *testing.T) {
	p := MustEventPredictor(Config{Window: 16})
	pat := []int64{11, 22, 33, 44, 55}
	for i := 0; i < 300; i++ {
		p.Feed(pat[i%5])
	}
	rate, scored := p.Accuracy()
	if scored < 200 {
		t.Fatalf("scored=%d, want most samples after lock", scored)
	}
	if rate != 1 {
		t.Fatalf("hit rate=%v, want 1 on an exactly periodic stream", rate)
	}
}

func TestEventPredictorPredictHorizon(t *testing.T) {
	p := MustEventPredictor(Config{Window: 16})
	pat := []int64{11, 22, 33, 44, 55}
	n := 300
	for i := 0; i < n; i++ {
		p.Feed(pat[i%5])
	}
	// Last fed sample was index n−1; prediction k ahead must equal the
	// pattern value at (n−1+k) mod 5.
	for k := 1; k <= 12; k++ {
		got, ok := p.Predict(k)
		if !ok {
			t.Fatalf("Predict(%d) not available", k)
		}
		want := pat[(n-1+k)%5]
		if got != want {
			t.Fatalf("Predict(%d)=%d, want %d", k, got, want)
		}
	}
}

func TestEventPredictorUnavailableWithoutLock(t *testing.T) {
	p := MustEventPredictor(Config{Window: 16})
	for i := int64(0); i < 100; i++ {
		p.Feed(i * 7) // aperiodic
	}
	if _, ok := p.Predict(1); ok {
		t.Fatal("prediction available without a lock")
	}
}

func TestEventPredictorPanicsOnBadHorizon(t *testing.T) {
	p := MustEventPredictor(Config{Window: 8})
	defer func() {
		if recover() == nil {
			t.Fatal("Predict(0) did not panic")
		}
	}()
	p.Predict(0)
}

func TestEventPredictorAccuracyDegradesOnPhaseChange(t *testing.T) {
	p := MustEventPredictor(Config{Window: 8})
	for i := 0; i < 100; i++ {
		p.Feed(int64(i % 4))
	}
	r1, _ := p.Accuracy()
	if r1 != 1 {
		t.Fatalf("phase-1 rate=%v", r1)
	}
	// Abrupt phase change: some predictions must miss.
	for i := 0; i < 50; i++ {
		p.Feed(int64(1000 + i%6))
	}
	rate, _ := p.Accuracy()
	if rate >= 1 {
		t.Fatal("accuracy did not degrade across a phase change")
	}
}

func TestEventPredictorReset(t *testing.T) {
	p := MustEventPredictor(Config{Window: 8})
	for i := 0; i < 100; i++ {
		p.Feed(int64(i % 2))
	}
	p.Reset()
	if _, scored := p.Accuracy(); scored != 0 {
		t.Fatal("accuracy survived reset")
	}
	if _, ok := p.Predict(1); ok {
		t.Fatal("prediction available after reset")
	}
}

func TestMagnitudePredictorExactStream(t *testing.T) {
	p := MustMagnitudePredictor(Config{Window: 24})
	pat := []float64{1.5, 2.5, 7.25, 3}
	for i := 0; i < 300; i++ {
		p.Feed(pat[i%4])
	}
	mae, scored := p.MeanAbsError()
	if scored < 200 {
		t.Fatalf("scored=%d", scored)
	}
	if mae != 0 {
		t.Fatalf("MAE=%v, want 0 on exact stream", mae)
	}
	got, ok := p.Predict(2)
	if !ok {
		t.Fatal("Predict unavailable")
	}
	want := pat[(300-1+2)%4]
	if got != want {
		t.Fatalf("Predict(2)=%v, want %v", got, want)
	}
}

func TestMagnitudePredictorHorizonWrapsPeriods(t *testing.T) {
	p := MustMagnitudePredictor(Config{Window: 24})
	pat := []float64{10, 20, 30}
	n := 200
	for i := 0; i < n; i++ {
		p.Feed(pat[i%3])
	}
	// Horizons k and k+3 must agree (period 3).
	for k := 1; k <= 3; k++ {
		a, okA := p.Predict(k)
		b, okB := p.Predict(k + 3)
		if !okA || !okB || a != b {
			t.Fatalf("horizon wrap broken: k=%d %v/%v", k, a, b)
		}
	}
}

func TestMagnitudePredictorNoLockNoForecast(t *testing.T) {
	p := MustMagnitudePredictor(Config{Window: 16})
	for i := 0; i < 100; i++ {
		p.Feed(float64(i) * 3.7) // ramp: aperiodic
	}
	if _, ok := p.Predict(1); ok {
		t.Fatal("forecast on aperiodic stream")
	}
}

func TestMagnitudePredictorReset(t *testing.T) {
	p := MustMagnitudePredictor(Config{Window: 16})
	for i := 0; i < 100; i++ {
		p.Feed(float64(i % 3))
	}
	p.Reset()
	if _, scored := p.MeanAbsError(); scored != 0 {
		t.Fatal("MAE state survived reset")
	}
	if n := p.hist.Len(); n != 0 {
		t.Fatalf("lookback history kept %d samples across reset", n)
	}
}
