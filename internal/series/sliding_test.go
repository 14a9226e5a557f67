package series

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSlidingSumWarmup(t *testing.T) {
	s := NewSlidingSum(3)
	if got := s.Push(1); got != 1 {
		t.Errorf("sum=%v, want 1", got)
	}
	if got := s.Push(2); got != 3 {
		t.Errorf("sum=%v, want 3", got)
	}
	if s.Full() {
		t.Error("Full before window filled")
	}
	if got := s.Push(3); got != 6 {
		t.Errorf("sum=%v, want 6", got)
	}
	if !s.Full() {
		t.Error("not Full after window filled")
	}
}

func TestSlidingSumEviction(t *testing.T) {
	s := NewSlidingSum(3)
	for _, v := range []float64{1, 2, 3} {
		s.Push(v)
	}
	if got := s.Push(10); got != 15 { // 2+3+10
		t.Errorf("sum=%v, want 15", got)
	}
	if got := s.Push(-5); got != 8 { // 3+10-5
		t.Errorf("sum=%v, want 8", got)
	}
}

func TestSlidingSumMean(t *testing.T) {
	s := NewSlidingSum(4)
	if s.Mean() != 0 {
		t.Errorf("empty mean=%v, want 0", s.Mean())
	}
	s.Push(2)
	s.Push(4)
	if s.Mean() != 3 {
		t.Errorf("mean=%v, want 3 over partial window", s.Mean())
	}
}

func TestSlidingSumRecomputeFixesDrift(t *testing.T) {
	s := NewSlidingSum(4)
	// Deliberately poison the accumulated sum, then recompute.
	for _, v := range []float64{1, 2, 3, 4} {
		s.Push(v)
	}
	s.sum = 1e9
	s.Recompute()
	if s.Sum() != 10 {
		t.Fatalf("recomputed sum=%v, want 10", s.Sum())
	}
}

// Property: the incremental sliding sum equals a naive window sum at every
// step. This is the exact invariant the DPD's per-lag accumulators rely on.
func TestSlidingSumPropertyMatchesNaive(t *testing.T) {
	f := func(vals []float64, wRaw uint8) bool {
		// Keep values tame so float comparison is exact-ish.
		w := int(wRaw%10) + 1
		s := NewSlidingSum(w)
		hist := make([]float64, 0, len(vals))
		for _, raw := range vals {
			v := float64(int64(raw)) // integral values: exact float addition
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				v = 1
			}
			hist = append(hist, v)
			got := s.Push(v)
			lo := len(hist) - w
			if lo < 0 {
				lo = 0
			}
			var want float64
			for _, h := range hist[lo:] {
				want += h
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSlidingCountBasics(t *testing.T) {
	c := NewSlidingCount(3)
	if c.Push(true) != 1 || c.Push(false) != 1 || c.Push(true) != 2 {
		t.Fatal("warmup counts wrong")
	}
	if !c.Full() {
		t.Fatal("not full after window pushes")
	}
	// Evicts the first true.
	if got := c.Push(false); got != 1 {
		t.Fatalf("after eviction ones=%d, want 1", got)
	}
}

func TestSlidingCountZeroRequiresFullWindow(t *testing.T) {
	c := NewSlidingCount(4)
	c.Push(false)
	c.Push(false)
	if c.Zero() {
		t.Fatal("Zero=true on partially filled window")
	}
	c.Push(false)
	c.Push(false)
	if !c.Zero() {
		t.Fatal("Zero=false on full all-match window")
	}
	c.Push(true)
	if c.Zero() {
		t.Fatal("Zero=true with a mismatch inside the window")
	}
}

func TestSlidingCountMismatchExpiry(t *testing.T) {
	c := NewSlidingCount(3)
	c.Push(true)
	c.Push(false)
	c.Push(false)
	if c.Zero() {
		t.Fatal("mismatch still in window")
	}
	c.Push(false) // the true falls out
	if !c.Zero() {
		t.Fatal("mismatch should have expired")
	}
}

func TestSlidingCountReset(t *testing.T) {
	c := NewSlidingCount(2)
	c.Push(true)
	c.Reset()
	if c.Ones() != 0 || c.Len() != 0 {
		t.Fatalf("after reset Ones=%d Len=%d", c.Ones(), c.Len())
	}
}

// Property: sliding count equals the number of true values among the last
// `window` pushes.
func TestSlidingCountPropertyMatchesNaive(t *testing.T) {
	f := func(bits []bool, wRaw uint8) bool {
		w := int(wRaw%12) + 1
		c := NewSlidingCount(w)
		for i, b := range bits {
			got := c.Push(b)
			lo := i + 1 - w
			if lo < 0 {
				lo = 0
			}
			want := 0
			for _, x := range bits[lo : i+1] {
				if x {
					want++
				}
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEWMAFirstObservationIsExact(t *testing.T) {
	e := NewEWMA(0.5)
	if got := e.Push(42); got != 42 {
		t.Fatalf("first push=%v, want 42", got)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.3)
	for i := 0; i < 200; i++ {
		e.Push(7)
	}
	if math.Abs(e.Value()-7) > 1e-9 {
		t.Fatalf("EWMA of constant 7 = %v", e.Value())
	}
}

func TestEWMATracksStep(t *testing.T) {
	e := NewEWMA(0.5)
	e.Push(0)
	for i := 0; i < 30; i++ {
		e.Push(10)
	}
	if math.Abs(e.Value()-10) > 1e-3 {
		t.Fatalf("EWMA after step = %v, want ~10", e.Value())
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%v) did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func BenchmarkSlidingSumPush(b *testing.B) {
	s := NewSlidingSum(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Push(float64(i & 0xff))
	}
}

func BenchmarkSlidingCountPush(b *testing.B) {
	c := NewSlidingCount(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Push(i%7 == 0)
	}
}
