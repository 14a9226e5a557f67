package core

import (
	"fmt"
	"math"

	"dpd/internal/series"
)

// MagnitudeDetector implements the paper's eq. (1) metric for streams
// whose sample values are meaningful magnitudes (e.g. the number of active
// CPUs): d(m) = (1/N)·Σ |x[n] − x[n−m]|. The detected periodicity is the
// lag of a significant local minimum of d.
//
// All per-lag accumulators live in one flat series.SumBank, and the curve
// analysis (zero lag, mean, local minima, harmonic suppression,
// prominence) runs as a single fused pass over the contiguous sums with a
// reusable minima scratch buffer — the whole Feed path is allocation-free.
type MagnitudeDetector struct {
	cfg  Config
	bank *series.SumBank

	scale *series.EWMA // running scale of |x|, for the zero tolerance

	lastCand int // candidate lag seen on the previous step
	candRun  int // consecutive steps the candidate has persisted

	locked    bool
	period    int
	phase     // where the current period's starts fall
	graceLeft int
	conf      float64

	t uint64

	curveBuf  []float64 // reused scratch: d(m) values of the current pass
	minimaBuf []int32   // reused scratch: local-minimum lags
}

// NewMagnitudeDetector returns a detector for magnitude streams.
func NewMagnitudeDetector(cfg Config) (*MagnitudeDetector, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	d := &MagnitudeDetector{cfg: c, scale: series.NewEWMA(0.05)}
	d.alloc()
	return d, nil
}

// MustMagnitudeDetector panics on config errors.
func MustMagnitudeDetector(cfg Config) *MagnitudeDetector {
	d, err := NewMagnitudeDetector(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

func (d *MagnitudeDetector) alloc() {
	d.bank = series.NewSumBank(d.cfg.Window, d.cfg.MaxLag)
	d.curveBuf = make([]float64, d.cfg.MaxLag)
	d.minimaBuf = make([]int32, 0, d.cfg.MaxLag)
}

// Window returns the current window size N.
func (d *MagnitudeDetector) Window() int { return d.cfg.Window }

// MaxLag returns the largest probed lag M.
func (d *MagnitudeDetector) MaxLag() int { return d.cfg.MaxLag }

// Samples returns the number of samples fed so far.
func (d *MagnitudeDetector) Samples() uint64 { return d.t }

// Locked returns the currently locked period (0 if none).
func (d *MagnitudeDetector) Locked() int {
	if !d.locked {
		return 0
	}
	return d.period
}

// Confidence returns the prominence of the current lock's minimum in
// [0,1] (0 if not locked).
func (d *MagnitudeDetector) Confidence() float64 {
	if !d.locked {
		return 0
	}
	return d.conf
}

// zeroEps is the absolute tolerance under which a distance counts as zero,
// scaled to the stream's own magnitude so that float accumulation noise on
// large-valued streams does not mask exact periodicity.
func (d *MagnitudeDetector) zeroEps() float64 {
	return 1e-9 * (1 + d.scale.Value())
}

// Feed processes one sample and returns the detection result.
func (d *MagnitudeDetector) Feed(v float64) Result {
	d.scale.Push(math.Abs(v))
	d.bank.Push(v)
	res := d.decide()
	d.t++
	return res
}

// FeedAll processes a batch of samples, writing one Result per sample into
// dst (grown if needed) and returning the filled slice. Passing a dst with
// sufficient capacity makes the batch path allocation-free.
func (d *MagnitudeDetector) FeedAll(vs []float64, dst []Result) []Result {
	if cap(dst) < len(vs) {
		dst = make([]Result, len(vs))
	}
	dst = dst[:len(vs)]
	for i, v := range vs {
		dst[i] = d.Feed(v)
	}
	return dst
}

// candidate evaluates the current curve and returns the most plausible
// periodicity lag (0 if none) together with its prominence. It is the
// fused equivalent of the former curve() + Fundamental +
// BestFundamentalMinimum + Mean + Prominence pipeline: one scan over the
// contiguous per-lag sums fills the reusable curve scratch, finds the
// first zero lag and accumulates the mean; a second tiny pass over the
// collected minima applies harmonic suppression. No allocation.
func (d *MagnitudeDetector) candidate() (int, float64) {
	valid := d.bank.ValidLags() // full lags are the prefix 1..valid
	if valid == 0 {
		return 0, 0
	}
	sums := d.bank.Sums()
	w := float64(d.cfg.Window)
	eps := d.zeroEps()
	dd := d.curveBuf

	// Pass 1: curve values, first zero lag, mean accumulator.
	firstZero := 0
	var meanSum float64
	for i := 0; i < valid; i++ {
		v := sums[i] / w
		dd[i] = v
		meanSum += v
		if firstZero == 0 && v <= eps {
			firstZero = i + 1
		}
	}
	// Exact (or numerically exact) repetition: smallest zero lag wins;
	// this covers constant streams where every distance is zero.
	if firstZero > 0 {
		return firstZero, 1
	}

	// Pass 2: strict local minima of the valid prefix. A lag qualifies if
	// it is below its left neighbor and not above its right one (a lag at
	// the valid boundary has no right neighbor and qualifies outright).
	minima := d.minimaBuf[:0]
	deepest := 0 // index into dd of the deepest minimum's lag-1
	for m := 2; m <= valid; m++ {
		v := dd[m-1]
		if v >= dd[m-2] {
			continue
		}
		if m < valid && v > dd[m] {
			continue
		}
		minima = append(minima, int32(m))
		if deepest == 0 || v < dd[deepest-1] {
			deepest = m
		}
	}
	d.minimaBuf = minima
	if len(minima) == 0 {
		return 0, 0
	}
	mean := meanSum / float64(valid)

	// Harmonic suppression: on a noisy p-periodic stream the minima at
	// p, 2p, 3p… have the same expected depth, and sampling noise can make
	// a multiple marginally deeper than the fundamental. Among minima
	// whose depth is within harmonicTol·mean of the deepest one, the
	// smallest lag wins.
	slack := harmonicTol * mean
	lag := deepest
	for _, m := range minima {
		if int(m) >= lag {
			break // minima are in increasing lag order
		}
		if dd[m-1] <= dd[deepest-1]+slack {
			lag = int(m)
			break
		}
	}

	if mean <= eps {
		return 0, 0
	}
	if dd[lag-1] > d.cfg.RelThreshold*mean {
		return 0, 0 // minimum not deep enough to be a periodicity
	}
	// Prominence: how deep the lag sits below the curve mean, in [0,1].
	p := 1 - dd[lag-1]/mean
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return lag, p
}

func (d *MagnitudeDetector) decide() Result {
	res := Result{T: d.t}

	cand, prom := d.candidate()
	if cand > 0 && cand == d.lastCand {
		d.candRun++
	} else if cand > 0 {
		d.candRun = 1
	} else {
		d.candRun = 0
	}
	d.lastCand = cand
	confirmed := cand > 0 && d.candRun >= d.cfg.Confirm

	switch {
	case !d.locked && confirmed:
		d.locked = true
		d.period = cand
		d.begin(d.t, cand)
		d.graceLeft = d.cfg.Grace
		d.conf = prom
		res.Locked, res.Period, res.Start, res.Confidence = true, cand, true, prom

	case d.locked && confirmed && cand != d.period:
		// The dominant minimum moved: re-lock and re-anchor.
		d.period = cand
		d.begin(d.t, cand)
		d.graceLeft = d.cfg.Grace
		d.conf = prom
		res.Locked, res.Period, res.Start, res.Confidence = true, cand, true, prom

	case d.locked && cand == d.period:
		d.graceLeft = d.cfg.Grace
		d.conf = prom
		res.Locked, res.Period, res.Confidence = true, d.period, prom
		res.Start = d.start(d.t, d.period)

	case d.locked && d.graceLeft > 0:
		d.graceLeft--
		res.Locked, res.Period, res.Confidence = true, d.period, d.conf
		res.Start = d.start(d.t, d.period)

	case d.locked:
		d.locked = false
		d.period = 0
	}
	return res
}

// Curve returns a copy of the current distance curve (paper Figure 4).
func (d *MagnitudeDetector) Curve() Curve {
	out := make([]float64, d.cfg.MaxLag)
	valid := d.bank.ValidLags()
	sums := d.bank.Sums()
	w := float64(d.cfg.Window)
	for i := range out {
		if i < valid {
			out[i] = sums[i] / w
		} else {
			out[i] = math.NaN()
		}
	}
	return Curve{D: out}
}

// History returns the retained samples, oldest first.
func (d *MagnitudeDetector) History() []float64 { return d.bank.History(nil) }

// Reset clears all state but keeps the configuration.
func (d *MagnitudeDetector) Reset() {
	d.bank.Reset()
	d.scale.Reset()
	d.lastCand, d.candRun = 0, 0
	d.locked, d.period, d.phase, d.graceLeft, d.conf = false, 0, phase{}, 0, 0
	d.t = 0
}

// Recompute refreshes every lag's sliding sum from its retained window,
// clearing accumulated floating-point drift on very long streams.
func (d *MagnitudeDetector) Recompute() {
	d.bank.Recompute()
}

// Resize changes the window size (DPDWindowSize), replaying retained
// history. MaxLag becomes newWindow−1.
func (d *MagnitudeDetector) Resize(newWindow int) error {
	if newWindow < 2 {
		return fmt.Errorf("core: window %d outside [2,%d]", newWindow, MaxWindow)
	}
	nc := d.cfg
	nc.Window = newWindow
	nc.MaxLag = 0
	nc, err := nc.withDefaults()
	if err != nil {
		return err
	}
	old := d.bank.History(nil)
	wasLocked, oldPeriod, oldAnchor := d.locked, d.period, d.anchor
	d.cfg = nc
	d.alloc()
	d.due = 0 // derived from the anchor on the next decide

	keep := len(old)
	max := nc.Window + nc.MaxLag
	if keep > max {
		old = old[keep-max:]
	}
	for _, v := range old {
		d.bank.Push(v)
	}

	// Keep the lock only if the replayed curve still supports it.
	d.locked = false
	d.lastCand, d.candRun = 0, 0
	if wasLocked && oldPeriod <= nc.MaxLag {
		if cand, prom := d.candidate(); cand == oldPeriod {
			d.locked = true
			d.period = oldPeriod
			d.anchor = oldAnchor
			d.graceLeft = nc.Grace
			d.conf = prom
			d.lastCand, d.candRun = cand, d.cfg.Confirm
		}
	}
	if !d.locked {
		d.period = 0
	}
	return nil
}
