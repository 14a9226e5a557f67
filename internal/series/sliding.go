package series

import "fmt"

// SlidingSum maintains the sum of the most recent window of values in O(1)
// per update. It is the building block for the DPD's incremental per-lag
// distance accumulators: each lag m keeps one SlidingSum of |x[t]-x[t-m]|.
type SlidingSum struct {
	ring *Ring
	sum  float64
}

// NewSlidingSum returns a sliding sum over a window of the given size.
func NewSlidingSum(window int) *SlidingSum {
	return &SlidingSum{ring: NewRing(window)}
}

// Window returns the configured window size.
func (s *SlidingSum) Window() int { return s.ring.Cap() }

// Len returns the number of values currently inside the window.
func (s *SlidingSum) Len() int { return s.ring.Len() }

// Full reports whether the window has been filled at least once.
func (s *SlidingSum) Full() bool { return s.ring.Full() }

// Push adds a value and returns the updated sum over the window.
func (s *SlidingSum) Push(v float64) float64 {
	evicted, wasFull := s.ring.Push(v)
	s.sum += v
	if wasFull {
		s.sum -= evicted
	}
	return s.sum
}

// Sum returns the current sum over the retained window.
func (s *SlidingSum) Sum() float64 { return s.sum }

// Mean returns the current mean over the retained window (0 if empty).
func (s *SlidingSum) Mean() float64 {
	if s.ring.Len() == 0 {
		return 0
	}
	return s.sum / float64(s.ring.Len())
}

// Reset discards the window contents.
func (s *SlidingSum) Reset() {
	s.ring.Reset()
	s.sum = 0
}

// Recompute recalculates the sum from the retained samples, discarding any
// accumulated floating-point drift. The DPD calls this periodically on
// long-running magnitude streams.
func (s *SlidingSum) Recompute() {
	var sum float64
	for i := 0; i < s.ring.Len(); i++ {
		sum += s.ring.At(i)
	}
	s.sum = sum
}

// SlidingCount maintains the count of non-zero entries in the most recent
// window in O(1) per update. It implements the event-stream metric
// (paper eq. 2): d(m) = sign(Σ mismatches) is zero exactly when the
// mismatch count over the window is zero.
type SlidingCount struct {
	bits  []uint8
	head  int
	count int // number of valid entries
	ones  int // number of set bits among valid entries
}

// NewSlidingCount returns a sliding non-zero counter over a window.
func NewSlidingCount(window int) *SlidingCount {
	if window <= 0 {
		panic(fmt.Sprintf("series: sliding count window must be positive, got %d", window))
	}
	return &SlidingCount{bits: make([]uint8, window)}
}

// Window returns the configured window size.
func (s *SlidingCount) Window() int { return len(s.bits) }

// Len returns the number of entries currently inside the window.
func (s *SlidingCount) Len() int { return s.count }

// Full reports whether the window has been filled at least once.
func (s *SlidingCount) Full() bool { return s.count == len(s.bits) }

// Push records whether the latest comparison mismatched and returns the
// number of mismatches now inside the window.
func (s *SlidingCount) Push(mismatch bool) int {
	var b uint8
	if mismatch {
		b = 1
	}
	if s.count < len(s.bits) {
		idx := s.head + s.count
		if idx >= len(s.bits) {
			idx -= len(s.bits)
		}
		s.bits[idx] = b
		s.count++
		s.ones += int(b)
		return s.ones
	}
	old := s.bits[s.head]
	s.bits[s.head] = b
	s.head++
	if s.head == len(s.bits) {
		s.head = 0
	}
	s.ones += int(b) - int(old)
	return s.ones
}

// Ones returns the current number of mismatches inside the window.
func (s *SlidingCount) Ones() int { return s.ones }

// Zero reports whether the window is full and contains no mismatches,
// i.e. d(m) == 0 in the sense of paper eq. (2).
func (s *SlidingCount) Zero() bool { return s.Full() && s.ones == 0 }

// Reset discards the window contents.
func (s *SlidingCount) Reset() {
	s.head = 0
	s.count = 0
	s.ones = 0
}

// EWMA is an exponentially weighted moving average with bias-corrected
// warm-up, used by the SelfAnalyzer to smooth per-iteration timings.
type EWMA struct {
	alpha float64
	value float64
	n     uint64
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("series: EWMA alpha must be in (0,1], got %g", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Push folds in a new observation and returns the updated average.
func (e *EWMA) Push(v float64) float64 {
	e.n++
	if e.n == 1 {
		e.value = v
		return v
	}
	e.value += e.alpha * (v - e.value)
	return e.value
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Count returns the number of observations folded in.
func (e *EWMA) Count() uint64 { return e.n }

// Reset discards all state.
func (e *EWMA) Reset() {
	e.value = 0
	e.n = 0
}
