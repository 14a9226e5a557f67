package core

import (
	"fmt"
	"testing"

	"dpd/internal/series"
)

// refPolicy is the event lock policy written out plainly over the
// paper's eq. (2) curve, sharing nothing with the detector but
// NaiveCurveSign: after every sample it recomputes the curve from the
// whole history, keeps each lag's zero run itself, locks the smallest
// lag zero for at least confirm samples, spends the grace budget on
// violations and places period starts at (t-anchor) mod period.
type refPolicy struct {
	window, lags, confirm, grace int

	hist []int64
	run  []int // per lag: consecutive samples it has been zero

	locked    bool
	period    int
	anchor    uint64
	graceLeft int

	graces int // violations the grace budget covered
}

func newRefPolicy(window, lags, confirm, grace int) *refPolicy {
	return &refPolicy{window: window, lags: lags, confirm: confirm, grace: grace, run: make([]int, lags)}
}

func (r *refPolicy) feed(v int64) Result {
	t := uint64(len(r.hist))
	r.hist = append(r.hist, v)
	c := NaiveCurveSign(r.hist, r.window, r.lags)
	cand := 0
	for m := 1; m <= r.lags; m++ {
		r.run[m-1]++
		if c.At(m) != 0 { // mismatching, or NaN: not full yet
			r.run[m-1] = 0
		}
		if cand == 0 && r.run[m-1] >= r.confirm {
			cand = m
		}
	}
	lock := func(p int) Result {
		r.locked, r.period, r.anchor, r.graceLeft = true, p, t, r.grace
		return Result{Locked: true, Period: p, Start: true, Confidence: 1, T: t}
	}
	hold := func() Result {
		return Result{Locked: true, Period: r.period, Start: (t-r.anchor)%uint64(r.period) == 0, Confidence: 1, T: t}
	}
	switch {
	case !r.locked && cand > 0, r.locked && cand > 0 && cand < r.period:
		return lock(cand)
	case r.locked && r.run[r.period-1] > 0:
		r.graceLeft = r.grace
		return hold()
	case r.locked && r.graceLeft > 0:
		r.graceLeft--
		r.graces++
		return hold()
	case r.locked:
		r.locked, r.period = false, 0
		if cand > 0 {
			return lock(cand)
		}
	}
	return Result{T: t}
}

// refereeStream returns n samples of periodic regimes, each a random
// pattern of 1 to 6 values over three symbols (so a pattern often holds
// a shorter period in part, a b a c), switching now and then, with
// collision-prone noise: the streams of
// TestPropertyLockEqualsNaiveFundamental with sub-periods added.
func refereeStream(seed uint64, n int) []int64 {
	rng := series.NewRNG(seed)
	pattern := func() []int64 {
		p := make([]int64, 1+rng.Intn(6))
		for i := range p {
			p[i] = int64(100 + rng.Intn(3))
		}
		return p
	}
	pat := pattern()
	out := make([]int64, n)
	for i := range out {
		if rng.Intn(80) == 0 {
			pat = pattern()
		}
		if rng.Intn(25) == 0 {
			out[i] = int64(100 + rng.Intn(4))
		} else {
			out[i] = pat[i%len(pat)]
		}
	}
	return out
}

// refereeCoverage counts what the referee's runs exercised, so a stream
// change that stops reaching a policy branch fails instead of passing
// vacuously.
type refereeCoverage struct{ locks, holds, starts, relocks, graces, unlocks int }

func (c *refereeCoverage) add(prev, r Result) {
	switch {
	case r.Locked && !prev.Locked:
		c.locks++
	case r.Locked && r.Period != prev.Period:
		c.relocks++
	case r.Locked:
		c.holds++
	case prev.Locked:
		c.unlocks++
	}
	if r.Locked && r.Start && prev.Locked && r.Period == prev.Period {
		c.starts++
	}
}

// loadInto restores the state enc wrote into dst after warming dst on a
// stream of another period, so dst enters the load locked, with a period
// start due and a held lock of its own that the load must discard.
func loadInto(t *testing.T, at string, enc []byte, dst interface {
	LoadState([]byte) (int, error)
}, feed func(int64)) {
	t.Helper()
	for i := 0; i < 300; i++ {
		feed(int64(7 + i%3))
	}
	if _, err := dst.LoadState(enc); err != nil {
		t.Fatalf("%s: reload: %v", at, err)
	}
}

// TestDecisionReferee compares every Result field after every sample of
// EventDetector, EventEngine and each level of an {8,32} ladder against
// refPolicy, at Confirm 1, 2, 4 and Grace 0, 2, 8, on mixed streams.
// Halfway through each stream every detector's state is loaded into a
// detector warmed on another stream, which carries on.
func TestDecisionReferee(t *testing.T) {
	const n, reloadAt = 600, 300
	for _, confirm := range []int{1, 2, 4} {
		for _, grace := range []int{0, 2, 8} {
			var cov [4]refereeCoverage
			for seed := uint64(1); seed <= 12; seed++ {
				rng := series.NewRNG(seed * 7919)
				window := 8 + rng.Intn(8)
				lags := window - rng.Intn(2) // a lag per comparison, or one fewer
				cfg := Config{Window: window, MaxLag: lags, Confirm: confirm, Grace: grace}
				det := MustEventDetector(cfg)
				eng := NewEventEngine(MustEventDetector(cfg))
				ms := MustMultiScaleDetector([]int{8, 32}, Config{Confirm: confirm, Grace: grace})
				refs := []*refPolicy{
					newRefPolicy(window, lags, confirm, grace),
					newRefPolicy(window, lags, confirm, grace),
					newRefPolicy(8, 7, confirm, grace),
					newRefPolicy(32, 31, confirm, grace),
				}
				var prev [4]Result
				per := make([]Result, 2)
				for i, v := range refereeStream(seed, n) {
					at := fmt.Sprintf("confirm %d grace %d seed %d (window %d, lags %d) sample %d", confirm, grace, seed, window, lags, i)
					if i == reloadAt {
						fresh := MustEventDetector(cfg)
						loadInto(t, at, det.AppendState(nil), fresh, func(v int64) { fresh.Feed(v) })
						det = fresh
						freshEng := NewEventEngine(MustEventDetector(cfg))
						loadInto(t, at, eng.AppendState(nil), freshEng, func(v int64) { freshEng.Feed(Sample{Value: v}) })
						eng = freshEng
						freshMS := MustMultiScaleDetector([]int{8, 32}, Config{Confirm: confirm, Grace: grace})
						loadInto(t, at, ms.AppendState(nil), freshMS, func(v int64) { freshMS.Feed(v) })
						ms = freshMS
					}
					ms.FeedInto(v, per)
					got := [4]Result{det.Feed(v), eng.Feed(Sample{Value: v}), per[0], per[1]}
					for k, name := range []string{"detector", "engine", "ladder level 0", "ladder level 1"} {
						want := refs[k].feed(v)
						if got[k] != want {
							t.Fatalf("%s: %s %+v, reference %+v", at, name, got[k], want)
						}
						cov[k].add(prev[k], want)
						prev[k] = want
					}
				}
				for k, r := range refs {
					cov[k].graces += r.graces
				}
			}
			for k, c := range cov {
				if c.locks == 0 || c.holds == 0 || c.starts == 0 || c.unlocks == 0 || (grace > 0 && c.graces == 0) {
					t.Errorf("confirm %d grace %d detector %d: coverage %+v", confirm, grace, k, c)
				}
				t.Logf("confirm %d grace %d detector %d: %+v", confirm, grace, k, c)
			}
		}
	}
}
