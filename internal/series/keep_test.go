package series

import (
	"bytes"
	"testing"
)

// TestPushKeptMatchesPush: PushKept pushes exactly the prefix Push would
// keep, leaving the bank byte-identical to Push of those samples with
// the same Version, stale level or not, and refuses a warming or ladder
// bank and a level with as many lags as its window.
func TestPushKeptMatchesPush(t *testing.T) {
	eight := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	repeats := []int64{1, 2, 1, 3, 1, 2, 2} // 64 mod 7 = 1: never keeps
	someKeep := []int64{2, 1, 0, 1, 0}      // stale, yet one phase keeps
	cases := []struct {
		name    string
		bank    func() *CountBank
		pattern []int64
		warm    int  // samples pushed through Push first
		glitch  int  // index into the offered samples taking a new value; -1 none
		want    int  // samples PushKept must keep of the 300 offered
		stale   bool // the level defers when offered the samples
	}{
		{"steady", func() *CountBank { return NewCountBank(64, 63) }, eight, 400, -1, 300, false},
		{"break", func() *CountBank { return NewCountBank(64, 63) }, eight, 400, 123, 123, false},
		{"break-first", func() *CountBank { return NewCountBank(64, 63) }, eight, 400, 0, 0, false},
		{"warming", func() *CountBank { return NewCountBank(64, 63) }, eight, 126, -1, 0, false},
		{"warm", func() *CountBank { return NewCountBank(64, 63) }, eight, 127, -1, 300, false},
		{"stale", func() *CountBank { return NewCountBank(64, 63) }, repeats, 1000, -1, 0, true},
		{"stale-keeps", func() *CountBank { return NewCountBank(64, 63) }, someKeep, 1001, -1, 1, true},
		{"lags-equal-window", func() *CountBank { return NewCountBank(64, 64) }, eight, 400, -1, 0, false},
		{"ladder", func() *CountBank { return NewCountLadder([]int{16, 64}, []int{15, 63}) }, eight, 400, -1, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, ref := tc.bank(), tc.bank()
			xs := make([]int64, tc.warm+300)
			for i := range xs {
				xs[i] = tc.pattern[i%len(tc.pattern)]
			}
			if tc.glitch >= 0 {
				xs[tc.warm+tc.glitch] = 99
			}
			for _, v := range xs[:tc.warm] {
				b.Push(v)
				ref.Push(v)
			}
			if b.stale != tc.stale {
				t.Fatalf("stale=%v before the offer, want %v", b.stale, tc.stale)
			}
			n := b.PushKept(xs[tc.warm:])
			if n != tc.want {
				t.Fatalf("PushKept kept %d samples, want %d", n, tc.want)
			}
			ver := ref.Version()
			for _, v := range xs[tc.warm : tc.warm+n] {
				ref.Push(v)
			}
			if ref.Version() != ver {
				t.Fatalf("Push of the kept samples moved the Version %d -> %d", ver, ref.Version())
			}
			if b.Len() != ref.Len() || b.Version() != ref.Version() {
				t.Fatalf("Len %d Version %d, Push reads %d and %d", b.Len(), b.Version(), ref.Len(), ref.Version())
			}
			for i := range b.lv {
				if got, want := b.Level(i).AppendState(nil), ref.Level(i).AppendState(nil); !bytes.Equal(got, want) {
					t.Fatalf("level %d state differs from Push's", i)
				}
			}
		})
	}
	t.Run("streak", testPushKeptStreak)
}

// keptRun is a PushKept-vs-Push stream: samples cut into runs of the
// given lengths (cycled), with event, if set, run on both banks before
// sample at.
type keptRun struct {
	window, lags int
	xs           []int64
	splits       []int
	push         int // > 0: every push-th sample takes Push though PushKept might keep it
	at           int
	event        func(b *CountBank)
}

// keptVsPush feeds c.xs to one bank by Push and to another run by run
// the way core.FeedEventRun does, PushKept for what it keeps and Push
// for the sample it refuses, and fails at the first run after which
// their state bytes, Len or Version differ. It returns how many samples
// a full streak kept without a row compare.
func keptVsPush(t *testing.T, c keptRun) (skipped int) {
	t.Helper()
	b, ref := NewCountBank(c.window, c.lags), NewCountBank(c.window, c.lags)
	for i, k := 0, 0; i < len(c.xs); k++ {
		if i == c.at && c.event != nil {
			c.event(b)
			c.event(ref)
		}
		end := min(i+c.splits[k%len(c.splits)], len(c.xs))
		if i < c.at && c.at < end {
			end = c.at
		}
		start := i
		for i < end {
			if c.push == 0 || i%c.push != 0 {
				streak := 0
				if b.kept.end == b.t {
					streak = b.kept.n
				}
				n := b.PushKept(c.xs[i:end])
				skipped += max(0, n-max(0, c.window-streak))
				i += n
				if i == end {
					break
				}
			}
			b.Push(c.xs[i])
			i++
		}
		for _, v := range c.xs[start:end] {
			ref.Push(v)
		}
		if b.Len() != ref.Len() || b.Version() != ref.Version() {
			t.Fatalf("after samples [%d,%d): Len %d Version %d, Push reads %d and %d",
				start, end, b.Len(), b.Version(), ref.Len(), ref.Version())
		}
		if got, want := b.AppendState(nil), ref.AppendState(nil); !bytes.Equal(got, want) {
			t.Fatalf("after samples [%d,%d): state differs from Push's", start, end)
		}
	}
	return skipped
}

// repeatOf returns n samples repeating pattern.
func repeatOf(pattern []int64, n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = pattern[i%len(pattern)]
	}
	return xs
}

// settling returns n samples: noise up to from, then pattern. Once the
// pattern's period p is a zero lag, the oldest rows in the ring still
// read noise, so a sample that repeats the one p back need not keep its
// row until a window of pushes has replaced them.
func settling(pattern []int64, from, n int) []int64 {
	xs := repeatOf(pattern, n)
	for i := range from {
		xs[i] = 1000 + int64(i)
	}
	return xs
}

// testPushKeptStreak: the kept streak, which keeps a sample on its
// history compare alone once a window of kept pushes has run back to
// back, leaves the bank byte-identical to Push: across run splits, when
// any other push breaks it, after a load of other rows or a Reset at
// the count it ended at, and on rows that repeat with the period
// without all being equal.
func testPushKeptStreak(t *testing.T) {
	eight := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	// Period 12, not a divisor of the window 64: a-b-a-x repeats with
	// x taking three values, so the rows of a, b and x differ, yet the
	// row of s-12 is the one s replaces (64 mod 12 is 4, and the rows
	// repeat every 4 samples).
	twelve := []int64{1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 5}
	glitched := repeatOf(eight, 3000)
	glitched[1000], glitched[2003] = 99, 98
	// The streak ends at sample 1000; the other stream's pattern
	// starts 80 samples earlier, so its lag 8 is zero there while
	// its ring still holds rows that read noise.
	const at = 1000
	other := settling(eight, at-80, 2000)
	spliced := append(repeatOf(eight, at), other[at:]...)
	otherState := func() []byte {
		b := NewCountBank(64, 63)
		for _, v := range other[:at] {
			b.Push(v)
		}
		return b.AppendState(nil)
	}()
	load := func(b *CountBank) {
		if _, err := b.LoadState(otherState); err != nil {
			t.Fatal(err)
		}
	}
	refeed := func(b *CountBank) {
		b.Reset()
		for _, v := range other[:at] {
			b.Push(v)
		}
	}
	rng := NewRNG(5)
	splits := make([]int, 64)
	for i := range splits {
		splits[i] = 1 + rng.Intn(256)
	}
	cases := []struct {
		name string
		c    keptRun
	}{
		{"splits", keptRun{window: 64, lags: 63, xs: repeatOf(eight, 3000)}},
		{"glitch-rebuilt", keptRun{window: 64, lags: 63, xs: glitched}},
		{"other-push", keptRun{window: 64, lags: 63, xs: repeatOf(eight, 3000), push: 97}},
		{"load-same-count", keptRun{window: 64, lags: 63, xs: spliced, splits: []int{at, 256}, at: at, event: load}},
		{"reset-same-count", keptRun{window: 64, lags: 63, xs: spliced, splits: []int{at, 256}, at: at, event: refeed}},
		{"periodic-rows", keptRun{window: 64, lags: 63, xs: repeatOf(twelve, 3000)}},
		{"settling", keptRun{window: 64, lags: 63, xs: settling(eight, 500, 3000)}},
		{"settling-twelve", keptRun{window: 64, lags: 40, xs: settling(twelve, 500, 3000)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			if c.splits == nil {
				c.splits = splits
			}
			if keptVsPush(t, c) == 0 {
				t.Fatal("no sample was kept past a full streak")
			}
		})
	}
	// Short windows over random patterns, glitches and settling
	// streams: every phase of the streak in few samples. A streak that
	// skipped the row compare after lags-2 pushes fails here. No input
	// can fail one of lags-1 or more: pushes from lags on only compare
	// rows that read inside the p-periodic span, and a ring in which
	// every slot but one equals the slot p behind has that one equal
	// too, around the cycle of slots p apart.
	t.Run("random", func(t *testing.T) {
		rng := NewRNG(11)
		skipped := 0
		for range 400 {
			w := 2 + rng.Intn(15)
			pat := make([]int64, 1+rng.Intn(2*w))
			for k := range pat {
				pat[k] = int64(rng.Intn(4))
			}
			xs := settling(pat, rng.Intn(200), 600)
			for range rng.Intn(4) {
				xs[rng.Intn(len(xs))] = int64(-1 - rng.Intn(3))
			}
			c := keptRun{window: w, lags: 1 + rng.Intn(w-1), xs: xs, push: rng.Intn(40)}
			c.splits = []int{1 + rng.Intn(64), 1 + rng.Intn(64), 1 + rng.Intn(64)}
			skipped += keptVsPush(t, c)
		}
		if skipped == 0 {
			t.Fatal("no sample was kept past a full streak")
		}
	})
	// With a full streak PushKept keeps a repeating sample without
	// reading a row: one flipped in the ring would refuse it otherwise.
	t.Run("skips-rows", func(t *testing.T) {
		b := NewCountBank(64, 63)
		xs := repeatOf(eight, 400)
		for _, v := range xs[:200] {
			b.Push(v)
		}
		if n := b.PushKept(xs[200:300]); n != 100 {
			t.Fatalf("PushKept kept %d of 100 samples", n)
		}
		l := b.Level(0)
		l.rows[l.row*l.wpl] ^= 1
		if n := b.PushKept(xs[300:301]); n != 1 {
			t.Fatal("a full streak compared the rows")
		}
	})
}
