package series

import (
	"math"
	"testing"
)

// TestCountBankStateRoundTrip: a restored bank must report identical
// query results AND produce identical behavior on every subsequent push
// — including wrap-cursor position, zero-run ages and window fills.
func TestCountBankStateRoundTrip(t *testing.T) {
	for _, warm := range []int{0, 1, 7, 40, 97, 300} {
		a := NewCountBank(40, 39)
		for i := 0; i < warm; i++ {
			a.Push(int64(i % 6))
		}
		buf := a.AppendState(nil)
		b := NewCountBank(40, 39)
		n, err := b.LoadState(buf)
		if err != nil {
			t.Fatalf("warm=%d: LoadState: %v", warm, err)
		}
		if n != len(buf) {
			t.Fatalf("warm=%d: consumed %d of %d bytes", warm, n, len(buf))
		}
		for i := 0; i < 200; i++ {
			v := int64((i + warm) % 6)
			a.Push(v)
			b.Push(v)
			for m := 1; m <= 39; m++ {
				if a.Zero(m) != b.Zero(m) || a.ZeroRun(m) != b.ZeroRun(m) || a.Ones(m) != b.Ones(m) || a.Full(m) != b.Full(m) {
					t.Fatalf("warm=%d push=%d lag=%d: restored bank diverged (zero %v/%v run %d/%d ones %d/%d)",
						warm, i, m, a.Zero(m), b.Zero(m), a.ZeroRun(m), b.ZeroRun(m), a.Ones(m), b.Ones(m))
				}
			}
			if a.FirstConfirmed(3) != b.FirstConfirmed(3) {
				t.Fatalf("warm=%d push=%d: FirstConfirmed diverged", warm, i)
			}
		}
	}
}

// TestCountBankStateGeometryMismatch: loading into a differently shaped
// bank must error descriptively, not corrupt state.
func TestCountBankStateGeometryMismatch(t *testing.T) {
	a := NewCountBank(32, 31)
	buf := a.AppendState(nil)
	b := NewCountBank(64, 63)
	if _, err := b.LoadState(buf); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

// TestCountBankStateTruncated: every prefix of a valid encoding must be
// rejected without panicking.
func TestCountBankStateTruncated(t *testing.T) {
	a := NewCountBank(16, 15)
	for i := 0; i < 100; i++ {
		a.Push(int64(i % 4))
	}
	buf := a.AppendState(nil)
	for cut := 0; cut < len(buf); cut += 7 {
		b := NewCountBank(16, 15)
		if _, err := b.LoadState(buf[:cut]); err == nil {
			t.Fatalf("cut=%d: truncated state accepted", cut)
		}
	}
}

// TestCountBankStateHostilePaddingBits: an encoding whose packed rows /
// zero bitset have bits set beyond the lag count must not cause
// out-of-range lag indexes on subsequent pushes.
func TestCountBankStateHostilePaddingBits(t *testing.T) {
	a := NewCountBank(8, 7) // lags 7 → one word with 57 padding bits
	for i := 0; i < 50; i++ {
		a.Push(int64(i % 3))
	}
	buf := a.AppendState(nil)
	// Corrupt: set high bits in every trailing row word and the zero set.
	// Word layout: window,lags,t,row are varints ≤ 2 bytes each here; we
	// just flip high bytes across the fixed-width tail, which covers the
	// rows and bitset regions.
	for i := len(buf) - 8*10; i < len(buf); i += 3 {
		if i >= 0 {
			buf[i] |= 0xF0
		}
	}
	b := NewCountBank(8, 7)
	if _, err := b.LoadState(buf); err != nil {
		return // rejected outright is fine too
	}
	for i := 0; i < 200; i++ { // must not panic
		b.Push(int64(i % 5))
		b.FirstConfirmed(1)
	}
}

// TestCountBankStateHostileZeroLag: a checkpoint whose zero bitset
// claims a lag whose window has not filled must not make the period
// probe shift by more lags than the push builds words for.
func TestCountBankStateHostileZeroLag(t *testing.T) {
	const window, lags = 100, 99
	a := NewCountBank(window, lags)
	a.Push(0)
	buf := a.AppendState(nil)
	// The zero bitset (two words) and zeroAt close the encoding; claim
	// lag 70, bit 5 of the second word.
	buf[len(buf)-8*lags-8] |= 1 << 5
	b := NewCountBank(window, lags)
	if _, err := b.LoadState(buf); err != nil {
		return // rejected outright is fine too
	}
	for i := 0; i < 300; i++ { // must not panic
		b.Push(int64(i % 3))
		b.FirstConfirmed(1)
	}
}

// TestSumBankStateRoundTrip: restored sums must be bit-exact so the
// subsequent incremental float trajectory is identical.
func TestSumBankStateRoundTrip(t *testing.T) {
	for _, warm := range []int{0, 3, 25, 120} {
		a := NewSumBank(24, 23)
		for i := 0; i < warm; i++ {
			a.Push(math.Sin(float64(i)) * 100)
		}
		buf := a.AppendState(nil)
		b := NewSumBank(24, 23)
		if _, err := b.LoadState(buf); err != nil {
			t.Fatalf("warm=%d: %v", warm, err)
		}
		for i := 0; i < 150; i++ {
			v := math.Sin(float64(i+warm)) * 100
			a.Push(v)
			b.Push(v)
			for m := 1; m <= 23; m++ {
				if math.Float64bits(a.Sum(m)) != math.Float64bits(b.Sum(m)) {
					t.Fatalf("warm=%d push=%d lag=%d: sum %g != %g (not bit-exact)", warm, i, m, a.Sum(m), b.Sum(m))
				}
			}
			if a.ValidLags() != b.ValidLags() {
				t.Fatalf("warm=%d push=%d: ValidLags diverged", warm, i)
			}
		}
	}
}

func TestRingStateRoundTrip(t *testing.T) {
	for _, warm := range []int{0, 2, 5, 13} {
		a := NewRing(5)
		for i := 0; i < warm; i++ {
			a.Push(float64(i) * 1.5)
		}
		buf := a.AppendState(nil)
		b := NewRing(5)
		n, err := b.LoadState(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("warm=%d: n=%d err=%v", warm, n, err)
		}
		if a.Len() != b.Len() || a.Total() != b.Total() {
			t.Fatalf("warm=%d: Len/Total diverged", warm)
		}
		for i := 0; i < a.Len(); i++ {
			if a.At(i) != b.At(i) {
				t.Fatalf("warm=%d: At(%d) %g != %g", warm, i, a.At(i), b.At(i))
			}
		}
		a.Push(99)
		b.Push(99)
		for i := 0; i < a.Len(); i++ {
			if a.At(i) != b.At(i) {
				t.Fatalf("warm=%d: post-push At(%d) diverged", warm, i)
			}
		}
	}
}

func TestIntRingStateRoundTrip(t *testing.T) {
	a := NewIntRing(4)
	for i := 0; i < 11; i++ {
		a.Push(int64(-i * 3))
	}
	buf := a.AppendState(nil)
	b := NewIntRing(4)
	if _, err := b.LoadState(buf); err != nil {
		t.Fatal(err)
	}
	a.Push(7)
	b.Push(7)
	if a.Len() != b.Len() || a.Total() != b.Total() {
		t.Fatal("Len/Total diverged")
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("At(%d): %d != %d", i, a.At(i), b.At(i))
		}
	}
}

func TestSlidingCountStateRoundTrip(t *testing.T) {
	for _, warm := range []int{0, 3, 10, 27} {
		a := NewSlidingCount(10)
		for i := 0; i < warm; i++ {
			a.Push(i%3 == 0)
		}
		buf := a.AppendState(nil)
		b := NewSlidingCount(10)
		if _, err := b.LoadState(buf); err != nil {
			t.Fatalf("warm=%d: %v", warm, err)
		}
		for i := 0; i < 40; i++ {
			ga := a.Push((i+warm)%4 == 0)
			gb := b.Push((i+warm)%4 == 0)
			if ga != gb || a.Zero() != b.Zero() || a.Full() != b.Full() {
				t.Fatalf("warm=%d push=%d: diverged (ones %d/%d)", warm, i, ga, gb)
			}
		}
	}
}

// TestRingStateCapacityMismatch mirrors the bank geometry check for
// rings and sliding counts.
func TestRingStateCapacityMismatch(t *testing.T) {
	buf := NewRing(5).AppendState(nil)
	if _, err := NewRing(6).LoadState(buf); err == nil {
		t.Fatal("ring capacity mismatch accepted")
	}
	ibuf := NewIntRing(5).AppendState(nil)
	if _, err := NewIntRing(4).LoadState(ibuf); err == nil {
		t.Fatal("int ring capacity mismatch accepted")
	}
	sbuf := NewSlidingCount(8).AppendState(nil)
	if _, err := NewSlidingCount(9).LoadState(sbuf); err == nil {
		t.Fatal("sliding count window mismatch accepted")
	}
}
