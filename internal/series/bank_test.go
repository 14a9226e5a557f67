package series

import (
	"fmt"
	"math"
	"testing"
)

// countBankReference mirrors a CountBank with the legacy per-lag
// structures: one SlidingCount per lag plus an IntRing history.
type countBankReference struct {
	window, lags int
	hist         *IntRing
	counts       []*SlidingCount
	zeroRun      []int
}

func newCountBankReference(window, lags int) *countBankReference {
	r := &countBankReference{
		window:  window,
		lags:    lags,
		hist:    NewIntRing(window + lags),
		counts:  make([]*SlidingCount, lags),
		zeroRun: make([]int, lags),
	}
	for i := range r.counts {
		r.counts[i] = NewSlidingCount(window)
	}
	return r
}

func (r *countBankReference) push(v int64) {
	avail := r.hist.Len()
	for m := 1; m <= r.lags && m <= avail; m++ {
		c := r.counts[m-1]
		c.Push(v != r.hist.Last(m-1))
		if c.Zero() {
			r.zeroRun[m-1]++
		} else {
			r.zeroRun[m-1] = 0
		}
	}
	r.hist.Push(v)
}

func (r *countBankReference) firstConfirmed(confirm int) int {
	for m := 1; m <= r.lags; m++ {
		if r.zeroRun[m-1] >= confirm {
			return m
		}
	}
	return 0
}

// TestCountBankMatchesSlidingCounts drives the flat bank and the legacy
// per-lag ladder through an adversarial stream (periodic phases, noise,
// phase changes) and requires identical counts, zero states, zero runs and
// candidate answers at every step.
func TestCountBankMatchesSlidingCounts(t *testing.T) {
	const window, lags = 10, 9
	b := NewCountBank(window, lags)
	ref := newCountBankReference(window, lags)
	rng := NewRNG(42)
	for i := 0; i < 600; i++ {
		var v int64
		switch {
		case i < 150:
			v = int64(i % 4)
		case i < 300:
			v = int64(rng.Intn(3))
		case i < 450:
			v = 7 // constant run: period 1
		default:
			v = int64(i % 6)
		}
		b.Push(v)
		ref.push(v)
		for m := 1; m <= lags; m++ {
			c := ref.counts[m-1]
			if got, want := b.Full(m), c.Full(); got != want {
				t.Fatalf("step %d lag %d: Full=%v, reference %v", i, m, got, want)
			}
			if got, want := b.Ones(m), c.Ones(); got != want {
				t.Fatalf("step %d lag %d: Ones=%d, reference %d", i, m, got, want)
			}
			if got, want := b.Zero(m), c.Zero(); got != want {
				t.Fatalf("step %d lag %d: Zero=%v, reference %v", i, m, got, want)
			}
			if got, want := b.ZeroRun(m), ref.zeroRun[m-1]; got != want {
				t.Fatalf("step %d lag %d: ZeroRun=%d, reference %d", i, m, got, want)
			}
		}
		for _, confirm := range []int{1, 2, 5} {
			if got, want := b.FirstConfirmed(confirm), ref.firstConfirmed(confirm); got != want {
				t.Fatalf("step %d confirm %d: candidate %d, reference %d", i, confirm, got, want)
			}
		}
	}
}

func TestCountBankHistory(t *testing.T) {
	b := NewCountBank(6, 5)
	for i := int64(0); i < 100; i++ {
		b.Push(i)
	}
	h := b.History(nil)
	if len(h) != 11 {
		t.Fatalf("history len=%d, want window+lags=11", len(h))
	}
	for i, v := range h {
		if v != int64(89+i) {
			t.Fatalf("history[%d]=%d, want %d", i, v, 89+i)
		}
	}
	// Reusing a big-enough dst must not allocate a fresh slice.
	dst := make([]int64, 0, 16)
	h2 := b.History(dst)
	if &h2[0] != &dst[:1][0] {
		t.Fatal("History did not reuse dst")
	}
}

func TestCountBankRecent(t *testing.T) {
	b := NewCountBank(6, 5)
	for i := int64(0); i < 100; i++ {
		b.Push(i)
	}
	for back := 0; back < 11; back++ { // window+lags = 11 retained
		v, ok := b.Recent(back)
		if !ok || v != int64(99-back) {
			t.Fatalf("Recent(%d) = %d,%v, want %d,true", back, v, ok, 99-back)
		}
	}
	if _, ok := b.Recent(11); ok {
		t.Error("Recent(window+lags) claimed retention beyond the ring")
	}
	if _, ok := b.Recent(-1); ok {
		t.Error("Recent(-1) accepted")
	}
	// A bank younger than its retention depth only serves what was pushed.
	y := NewCountBank(6, 5)
	y.Push(7)
	if v, ok := y.Recent(0); !ok || v != 7 {
		t.Fatalf("young Recent(0) = %d,%v, want 7,true", v, ok)
	}
	if _, ok := y.Recent(1); ok {
		t.Error("young Recent(1) claimed a sample never pushed")
	}
}

func TestCountBankReset(t *testing.T) {
	b := NewCountBank(4, 3)
	for i := 0; i < 50; i++ {
		b.Push(int64(i % 2))
	}
	if b.FirstConfirmed(1) != 2 {
		t.Fatalf("pre-reset candidate=%d, want 2", b.FirstConfirmed(1))
	}
	b.Reset()
	if b.Len() != 0 || b.FirstConfirmed(1) != 0 {
		t.Fatal("reset did not clear state")
	}
	for i := 0; i < 50; i++ {
		b.Push(int64(i % 3))
	}
	if b.FirstConfirmed(1) != 3 {
		t.Fatalf("post-reset candidate=%d, want 3", b.FirstConfirmed(1))
	}
}

// TestCountBankManyLags exercises the multi-word bitset paths (lags > 64).
func TestCountBankManyLags(t *testing.T) {
	const window, lags = 150, 149
	b := NewCountBank(window, lags)
	ref := newCountBankReference(window, lags)
	rng := NewRNG(7)
	for i := 0; i < 800; i++ {
		var v int64
		if i < 400 {
			v = int64(i % 70) // period beyond the first bitset word
		} else {
			v = int64(rng.Intn(2))
		}
		b.Push(v)
		ref.push(v)
		if got, want := b.FirstConfirmed(1), ref.firstConfirmed(1); got != want {
			t.Fatalf("step %d: candidate %d, reference %d", i, got, want)
		}
	}
	for m := 1; m <= lags; m++ {
		if got, want := b.Ones(m), ref.counts[m-1].Ones(); got != want {
			t.Fatalf("lag %d: Ones=%d, reference %d", m, got, want)
		}
	}
}

// TestCountBankPushAllocFree: a fresh bank allocates nothing on any
// push, even one of a value it has never seen.
func TestCountBankPushAllocFree(t *testing.T) {
	for name, b := range map[string]*CountBank{
		"bank 300/256":  NewCountBank(300, 256),
		"DefaultLadder": NewCountLadder([]int{8, 32, 256, 1024}, []int{7, 31, 255, 1023}),
	} {
		v := int64(0)
		if allocs := testing.AllocsPerRun(100, func() {
			v++
			b.Push(v)
		}); allocs != 0 {
			t.Errorf("%s: %.1f allocs per push of a new value", name, allocs)
		}
	}
}

// TestSumBankMatchesSlidingSums drives the flat sum bank and the legacy
// per-lag SlidingSum ladder and requires sums to agree to float tolerance.
func TestSumBankMatchesSlidingSums(t *testing.T) {
	const window, lags = 12, 11
	b := NewSumBank(window, lags)
	hist := NewRing(window + lags)
	sums := make([]*SlidingSum, lags)
	for i := range sums {
		sums[i] = NewSlidingSum(window)
	}
	rng := NewRNG(11)
	for i := 0; i < 500; i++ {
		v := math.Floor(rng.Float64()*9) + math.Sin(float64(i)/3)
		avail := hist.Len()
		for m := 1; m <= lags && m <= avail; m++ {
			sums[m-1].Push(math.Abs(v - hist.Last(m-1)))
		}
		hist.Push(v)
		b.Push(v)
		for m := 1; m <= lags; m++ {
			if got, want := b.Full(m), sums[m-1].Full(); got != want {
				t.Fatalf("step %d lag %d: Full=%v, reference %v", i, m, got, want)
			}
			if got, want := b.Sum(m), sums[m-1].Sum(); math.Abs(got-want) > 1e-9 {
				t.Fatalf("step %d lag %d: Sum=%v, reference %v", i, m, got, want)
			}
		}
	}
	if got, want := b.ValidLags(), lags; got != want {
		t.Fatalf("ValidLags=%d, want %d", got, want)
	}
}

func TestSumBankRecomputeFixesDrift(t *testing.T) {
	b := NewSumBank(8, 4)
	for i := 0; i < 200; i++ {
		b.Push(float64(i%5) * 1e12)
	}
	// Corrupt the running sums, then Recompute must restore them exactly
	// from the retained window values.
	want := make([]float64, b.Lags())
	copy(want, b.Sums())
	b.Sums()[2] += 123
	b.Recompute()
	for i, s := range b.Sums() {
		if math.Abs(s-want[i]) > 1e-3 {
			t.Fatalf("lag %d: recomputed sum %v, want %v", i+1, s, want[i])
		}
	}
}

func TestSumBankValidLagsWarmup(t *testing.T) {
	b := NewSumBank(5, 4)
	for i := 0; i < 20; i++ {
		wantValid := i - 5
		if wantValid < 0 {
			wantValid = 0
		}
		if wantValid > 4 {
			wantValid = 4
		}
		if got := b.ValidLags(); got != wantValid {
			t.Fatalf("after %d pushes: ValidLags=%d, want %d", i, got, wantValid)
		}
		b.Push(float64(i))
	}
}

// phaseShifts returns n samples that repeat a pattern of 8 symbols whose
// period and content a seeded generator redraws every `window` samples:
// each push replaces a row built under another pattern, so about a fifth
// of its bits change, as in the nested Table 2 traces.
func phaseShifts(seed uint64, window, n int) []int64 {
	rng := NewRNG(seed)
	out := make([]int64, n)
	var pat []int64
	for i := range out {
		if i%window == 0 {
			pat = make([]int64, 2+rng.Intn(63))
			for k := range pat {
				pat[k] = int64(rng.Intn(8))
			}
		}
		out[i] = pat[i%len(pat)]
	}
	return out
}

// benchPush warms bank up on in and then times pushes cycling through it.
func benchPush(b *testing.B, bank *CountBank, in []int64) {
	for i := 0; i < 2*len(bank.hist); i++ {
		bank.Push(in[i%len(in)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Push(in[i%len(in)])
	}
}

// cycle returns one period of i % alpha.
func cycle(alpha int) []int64 {
	out := make([]int64, alpha)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// serveStreams returns the sample shape of a window-100 serving stream,
// one stream after another: i mod p plus a per-stream offset, for each
// period p of the serving benchmark's set, held for eight windows. With
// glitch > 0 a never-seen value replaces the last sample of every
// glitch-th period: the period probe misses there, and the scan runs
// until a window of clean periods has passed.
func serveStreams(glitch int) []int64 {
	var out []int64
	for k, p := range []int{4, 6, 8, 12, 16, 24, 32, 48, 64} {
		for i := 0; i < 800; i++ {
			v := int64(i%p + 1000*k)
			if glitch > 0 && (i+1)%(glitch*p) == 0 {
				v = int64(-1 - len(out))
			}
			out = append(out, v)
		}
	}
	return out
}

// BenchmarkCountBankPush: one-level banks of 99 and 1023 lags over
// cycles of 5, 62 and 300 symbols, over phaseShifts, whose rows change
// on every push, and, for 99 lags, over serving streams, locked (the
// period probe) and glitched (the scan behind a missed probe).
func BenchmarkCountBankPush(b *testing.B) {
	for _, lags := range []int{99, 1023} {
		for _, alpha := range []int{5, 62, 300} {
			b.Run(fmt.Sprintf("lags=%d/alpha=%d", lags, alpha), func(b *testing.B) {
				benchPush(b, NewCountBank(lags+1, lags), cycle(alpha))
			})
		}
		b.Run(fmt.Sprintf("lags=%d/dense", lags), func(b *testing.B) {
			benchPush(b, NewCountBank(lags+1, lags), phaseShifts(1, lags+1, 64*(lags+1)))
		})
	}
	b.Run("lags=99/serve", func(b *testing.B) {
		benchPush(b, NewCountBank(100, 99), serveStreams(0))
	})
	b.Run("lags=99/glitch", func(b *testing.B) {
		benchPush(b, NewCountBank(100, 99), serveStreams(4))
	})
}

// BenchmarkCountLadderPush: the DefaultLadder-shaped shared kernel
// (windows 8, 32, 256, 1024), one push feeding all four levels.
func BenchmarkCountLadderPush(b *testing.B) {
	inputs := []struct {
		name string
		in   []int64
	}{
		{"alpha=5", cycle(5)},
		{"alpha=62", cycle(62)},
		{"dense", phaseShifts(1, 1024, 64*1024)},
	}
	for _, c := range inputs {
		b.Run(c.name, func(b *testing.B) {
			benchPush(b, NewCountLadder([]int{8, 32, 256, 1024}, []int{7, 31, 255, 1023}), c.in)
		})
	}
}

// BenchmarkCountBankRestore: building a window-100, 99-lag bank and
// loading a checkpoint of it with 456 samples of history, as a serving
// node does for every stream it restores.
func BenchmarkCountBankRestore(b *testing.B) {
	src := NewCountBank(100, 99)
	in := newKernelStream(1, 5, 6)
	for i := 0; i < 456; i++ {
		src.Push(in.at(i))
	}
	state := src.AppendState(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCountBank(100, 99).LoadState(state); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountBankVsSlidingCounts is the before/after ablation for the
// flat-bank refactor: the same lag ladder maintained by the legacy
// per-lag SlidingCount objects.
func BenchmarkCountBankVsSlidingCounts(b *testing.B) {
	const n, m = 1024, 1023
	b.Run("flat-bank", func(b *testing.B) {
		bank := NewCountBank(n, m)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bank.Push(int64(i % 5))
		}
	})
	b.Run("per-lag-legacy", func(b *testing.B) {
		ref := newCountBankReference(n, m)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ref.push(int64(i % 5))
		}
	})
}

func BenchmarkSumBankPush(b *testing.B) {
	bank := NewSumBank(100, 99)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bank.Push(float64(i % 7))
	}
}
