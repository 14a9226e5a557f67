package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// runCase is one run-vs-feed input: a stream, its configuration, the run
// lengths it is cut into (cycled), the sample before which both sides
// reload from their own checkpoints into new engines, and the one before
// which event, if set, runs on both engines in place (out of range:
// never).
type runCase struct {
	cfg    Config
	xs     []int64
	splits []int
	reload int
	at     int
	event  func(testing.TB, *EventEngine)
}

// eventLog records every observer callback, copied out of the scratch.
type eventLog []Event

func (l *eventLog) add(e *Event) { *l = append(*l, *e) }

func (l *eventLog) observer() Observer {
	return ObserverFuncs{Lock: l.add, PeriodChange: l.add, SegmentStart: l.add, Unlock: l.add}
}

// runVsFeed feeds c.xs to one engine sample by sample through Feed and to
// another run by run through FeedEventRun, and fails at the first run
// after which their checkpoints or observed events differ. It returns
// the samples the kept loop consumed.
func runVsFeed(t testing.TB, c runCase) int {
	t.Helper()
	var feedLog, runLog eventLog
	engine := func(state []byte, log *eventLog) *EventEngine {
		e, err := NewEventEngineConfig(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if state != nil {
			if _, err := e.LoadState(state); err != nil {
				t.Fatal(err)
			}
		}
		e.SetObserver(log.observer())
		return e
	}
	feed, run := engine(nil, &feedLog), engine(nil, &runLog)
	kept := 0
	for i, k := 0, 0; i < len(c.xs); k++ {
		if i == c.reload {
			feed = engine(feed.AppendState(nil), &feedLog)
			run = engine(run.AppendState(nil), &runLog)
		}
		if i == c.at && c.event != nil {
			c.event(t, feed)
			c.event(t, run)
		}
		n := min(c.splits[k%len(c.splits)], len(c.xs)-i)
		for _, cut := range []int{c.reload, c.at} {
			if i < cut && cut < i+n {
				n = cut - i
			}
		}
		for _, v := range c.xs[i : i+n] {
			feed.Feed(Sample{Value: v})
		}
		kept += FeedEventRun(run, c.xs[i:i+n])
		i += n
		if a, b := feed.AppendState(nil), run.AppendState(nil); !bytes.Equal(a, b) {
			t.Fatalf("after samples [%d,%d): run checkpoint differs from per-sample Feed's", i-n, i)
		}
		if !slices.Equal(feedLog, runLog) {
			t.Fatalf("after samples [%d,%d): run emitted %d events, Feed %d; first difference at %d",
				i-n, i, len(runLog), len(feedLog), firstDiff(feedLog, runLog))
		}
	}
	return kept
}

func firstDiff(a, b []Event) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// periodic returns n samples repeating pattern.
func periodic(pattern []int64, n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = pattern[i%len(pattern)]
	}
	return xs
}

// randomSplits returns run lengths in [1,256].
func randomSplits(rng *rand.Rand, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = 1 + rng.Intn(256)
	}
	return s
}

// TestFeedEventRunMatchesFeed: feeding a stream through FeedEventRun in
// random runs of 1..256 samples leaves the engine's checkpoint and its
// observer's event sequence identical to per-sample Feed after every
// run, on every stream shape the kept loop can meet or must refuse.
func TestFeedEventRunMatchesFeed(t *testing.T) {
	eight := []int64{10, 11, 12, 13, 14, 15, 16, 17}
	twelve := []int64{20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31}
	steady := periodic(eight, 4000)
	glitch := slices.Clone(steady)
	glitch[1500], glitch[2701] = 99, 98
	change := append(periodic(eight, 1700), periodic(twelve, 2300)...)
	rng := rand.New(rand.NewSource(7))
	unlock := periodic(eight, 1500)
	for range 400 {
		unlock = append(unlock, rng.Int63n(1000))
	}
	unlock = append(unlock, periodic(eight, 1500)...)
	// A period with repeated values whose window is not a multiple of
	// it: the row of s-p never equals the row s replaces, so the level
	// defers its counts (stale) for as long as the lock holds.
	stale := periodic([]int64{1, 2, 1, 3, 1, 2, 2}, 4000)
	// Stale too, but one phase's row equals the one it replaces.
	staleKeeps := periodic([]int64{2, 1, 0, 1, 0}, 4000)
	w64 := Config{Window: 64}
	// Period 12 over a window of 64, with values repeating inside the
	// period: the rows repeat every 4 samples, so each sample keeps its
	// row without the rows being all equal.
	periodicRows := periodic([]int64{1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 5}, 4000)
	// The bank's kept streak ends where the first run of the steady
	// stream does, at sample at. A second stream, whose pattern starts 80
	// samples before that, holds its lock at 8 while its ring still
	// carries rows read against noise: its state is reached, in place,
	// by a load of its checkpoint at at-1 and one sample fed, and by a
	// Reset and a refeed to at. Neither may resume the streak.
	const at = 1000
	other := periodic(eight, 3000)
	for i := range at - 80 {
		other[i] = 1000 + int64(i)
	}
	otherAt := func(n int) []byte {
		e, err := NewEventEngineConfig(w64)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range other[:n] {
			e.Feed(Sample{Value: v})
		}
		return e.AppendState(nil)
	}(at - 1)
	// After the load the engine stands at at-1, so the stream goes on
	// from other[at-1].
	loaded := append(periodic(eight, at), other[at-1:]...)
	load := func(t testing.TB, e *EventEngine) {
		if _, err := e.LoadState(otherAt); err != nil {
			t.Fatal(err)
		}
	}
	refed := append(periodic(eight, at), other[at:]...)
	refeed := func(_ testing.TB, e *EventEngine) {
		e.Reset()
		for _, v := range other[:at] {
			e.Feed(Sample{Value: v})
		}
	}
	streakSplits := []int{at, 256}

	cases := []struct {
		name string
		c    runCase
		kept bool // the kept loop must consume samples
	}{
		{"steady", runCase{cfg: w64, xs: steady, reload: -1}, true},
		{"glitch", runCase{cfg: w64, xs: glitch, reload: -1}, true},
		{"glitch-grace", runCase{cfg: Config{Window: 64, Grace: 2}, xs: glitch, reload: -1}, true},
		{"period-change", runCase{cfg: w64, xs: change, reload: -1}, true},
		{"unlock", runCase{cfg: w64, xs: unlock, reload: -1}, true},
		// window+lags is 127: the second run crosses it while the lock
		// is held. On period 1 every row is zero, so the rows a warming
		// level masked to fewer lags already equal the ones that repeat
		// them, and only the window+lags guard keeps the zero lags that
		// advance records out of the kept loop.
		{"crossing", runCase{cfg: w64, xs: steady, splits: []int{120, 256}, reload: -1}, true},
		{"crossing-constant", runCase{cfg: w64, xs: periodic([]int64{5}, 4000), splits: []int{60, 256}, reload: -1}, true},
		{"reload", runCase{cfg: w64, xs: glitch, reload: 1203}, true},
		{"reload-warmup", runCase{cfg: w64, xs: steady, reload: 100}, true},
		{"stale", runCase{cfg: w64, xs: stale, reload: 2000}, false},
		{"stale-keeps", runCase{cfg: w64, xs: staleKeeps, reload: 2000}, true},
		{"lags-equal-window", runCase{cfg: Config{Window: 32, MaxLag: 32}, xs: steady, reload: -1}, false},
		{"periodic-rows", runCase{cfg: w64, xs: periodicRows, reload: -1}, true},
		{"load-in-place", runCase{cfg: w64, xs: loaded, splits: streakSplits, reload: -1, at: at, event: load}, true},
		{"reset-refeed", runCase{cfg: w64, xs: refed, splits: streakSplits, reload: -1, at: at, event: refeed}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				c := tc.c
				if c.splits == nil {
					c.splits = randomSplits(rand.New(rand.NewSource(seed)), 64)
				}
				kept := runVsFeed(t, c)
				switch {
				case tc.kept && kept == 0:
					t.Fatalf("seed %d: the kept loop consumed no sample", seed)
				case tc.name == "lags-equal-window" && kept != 0:
					t.Fatalf("seed %d: the kept loop consumed %d samples with lags >= window", seed, kept)
				}
			}
		})
	}
}

// FuzzEventRunVsFeed drives the run-vs-feed differential over random
// patterns, glitches, geometries, run splits and reload points.
func FuzzEventRunVsFeed(f *testing.F) {
	// Window 64 with 63 lags: steady with a glitch, stale, stale keeping.
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{5, 220, 99}, uint8(62), uint8(62), []byte{255, 17, 1, 200}, uint16(1000))
	f.Add([]byte{1, 2, 1, 3, 1, 2, 2}, []byte{}, uint8(62), uint8(62), []byte{119, 255}, uint16(9999))
	f.Add([]byte{2, 1, 0, 1, 0}, []byte{}, uint8(62), uint8(62), []byte{7, 250, 33}, uint16(1500))
	// A constant stream, as many lags as the window (never kept), and a
	// short window.
	f.Add([]byte{5}, []byte{}, uint8(62), uint8(62), []byte{59, 255}, uint16(4000))
	f.Add([]byte{7, 9, 7}, []byte{3, 0, 4, 3, 1, 4}, uint8(18), uint8(19), []byte{0, 63}, uint16(300))
	f.Add([]byte{1, 2, 3, 4, 5}, []byte{2, 100, 6}, uint8(7), uint8(3), []byte{31}, uint16(50))
	f.Fuzz(func(t *testing.T, pattern, noise []byte, window, lags uint8, splits []byte, reload uint16) {
		if len(pattern) == 0 || len(pattern) > 64 {
			return
		}
		cfg := Config{Window: 2 + int(window)%127}
		cfg.MaxLag = 1 + int(lags)%cfg.Window
		xs := make([]int64, 2000)
		for i := range xs {
			xs[i] = int64(pattern[i%len(pattern)])
		}
		// Each three noise bytes overwrite one sample: position, value.
		for ; len(noise) >= 3; noise = noise[3:] {
			xs[(int(noise[0])<<8|int(noise[1]))%len(xs)] = 256 + int64(noise[2])
		}
		c := runCase{cfg: cfg, xs: xs, splits: []int{256}, reload: int(reload)}
		if len(splits) > 0 {
			c.splits = make([]int, len(splits))
			for i, b := range splits {
				c.splits[i] = 1 + int(b)
			}
		}
		if kept := runVsFeed(t, c); kept != 0 && cfg.MaxLag >= cfg.Window {
			t.Fatalf("the kept loop consumed %d samples with lags >= window", kept)
		}
	})
}
