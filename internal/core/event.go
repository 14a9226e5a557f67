package core

import (
	"errors"
	"fmt"
	"math"

	"dpd/internal/series"
)

// EventDetector implements the paper's eq. (2) metric for event streams
// (e.g. parallel-loop addresses): d(m) = sign(Σ |x[i] − x[i−m]|), which is
// zero exactly when the last N events repeat with lag m.
//
// All per-lag state lives in one level of a series.CountBank: feeding
// one sample builds its packed mismatch words once and applies them to
// the level's windows, with zero allocation. History of the last N + M
// samples is retained to support window resizing by replay. A detector
// of a MultiScaleDetector ladder is a view on one level of the ladder's
// shared bank: the ladder feeds the bank, the view keeps the level's
// lock state and has no bank of its own, so feeding, resetting,
// resizing or loading it directly fails instead of moving the ladder's
// levels out of step.
type EventDetector struct {
	cfg  Config
	bank *series.CountBank  // the lag kernel; nil on a ladder level
	lv   *series.CountLevel // this detector's level of the kernel

	locked    bool
	period    int
	phase     // where the current period's starts fall
	graceLeft int
	held      uint64 // the level version the lock was proved at; 0: none

	t uint64 // samples fed so far
}

// NewEventDetector returns a detector for event streams.
func NewEventDetector(cfg Config) (*EventDetector, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	d := &EventDetector{cfg: c}
	d.alloc()
	return d, nil
}

// MustEventDetector is NewEventDetector that panics on config errors; for
// use with static configurations in examples and tools.
func MustEventDetector(cfg Config) *EventDetector {
	d, err := NewEventDetector(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

func (d *EventDetector) alloc() {
	d.bank = series.NewCountBank(d.cfg.Window, d.cfg.MaxLag)
	d.lv = d.bank.Level(0)
	d.held, d.due = 0, 0 // the new level's versions prove nothing of the old one's
}

// Window returns the current window size N.
func (d *EventDetector) Window() int { return d.cfg.Window }

// MaxLag returns the largest probed lag M.
func (d *EventDetector) MaxLag() int { return d.cfg.MaxLag }

// Samples returns the number of samples fed so far.
func (d *EventDetector) Samples() uint64 { return d.t }

// Locked returns the currently locked period (0 if none).
func (d *EventDetector) Locked() int {
	if !d.locked {
		return 0
	}
	return d.period
}

// Feed processes one event sample and returns the detection result. It
// panics on a ladder level, which only its ladder feeds.
// NOTE: the body is mirrored in EventEngine.Feed (detector.go), which
// fuses it with the engine's tracking to save a call frame on the
// pooled serving path — keep the two in sync.
func (d *EventDetector) Feed(v int64) Result {
	if d.bank == nil {
		panic(d.levelMisuse("feed"))
	}
	d.bank.Push(v)
	var res Result
	d.decide(&res)
	d.t++
	return res
}

// FeedAll processes a batch of samples, writing one Result per sample into
// dst (grown if needed) and returning the filled slice. Passing a dst with
// sufficient capacity makes the batch path allocation-free.
func (d *EventDetector) FeedAll(vs []int64, dst []Result) []Result {
	if cap(dst) < len(vs) {
		dst = make([]Result, len(vs))
	}
	dst = dst[:len(vs)]
	for i, v := range vs {
		dst[i] = d.Feed(v)
	}
	return dst
}

// decide applies the lock/segmentation policy after the bank is updated,
// writing the sample's result into res: a ladder decides straight into
// its per-level slots instead of copying each result out and back.
//
// A lock on the level's smallest zero lag is reused while the level's
// Version is unchanged: no lag below the period is zero, so none can be
// confirmed, and the period's own lag is still zero, so the policy can
// only hold the lock. Without the smallest-zero-lag condition a shorter
// lag already zero but not yet zero for Confirm samples would confirm
// with no version change.
func (d *EventDetector) decide(res *Result) {
	if d.held == d.lv.Version() {
		res.Locked, res.Period, res.Confidence, res.T = true, d.period, 1, d.t
		res.Start = d.start(d.t, d.period)
		return
	}
	*res = Result{T: d.t}

	// Candidate: smallest lag that has been zero for Confirm pushes.
	cand := d.lv.FirstConfirmed(d.cfg.Confirm)

	switch {
	case !d.locked && cand > 0:
		// New lock: the current sample is defined as a period start
		// (paper Figure 6: the detection point identifies the region).
		d.locked = true
		d.lock(cand, res)

	case d.locked && cand > 0 && cand < d.period:
		// A shorter (more fundamental) periodicity emerged; re-lock.
		d.lock(cand, res)

	case d.locked && d.lv.Zero(d.period):
		// Lock holds.
		d.graceLeft = d.cfg.Grace
		res.Locked, res.Period, res.Confidence = true, d.period, 1
		res.Start = d.start(d.t, d.period)

	case d.locked && d.graceLeft > 0:
		// Violation inside the grace budget: keep the lock provisionally.
		d.graceLeft--
		res.Locked, res.Period, res.Confidence = true, d.period, 1
		res.Start = d.start(d.t, d.period)

	case d.locked:
		// Lock lost. If another confirmed lag exists, switch immediately.
		d.locked = false
		d.period = 0
		if cand > 0 {
			d.locked = true
			d.lock(cand, res)
		}
	}
	d.held = 0
	if d.locked && d.lv.FirstConfirmed(0) == d.period { // the smallest zero lag
		d.held = d.lv.Version()
	}
}

// lock (re)locks onto period p at the current sample, a period start.
func (d *EventDetector) lock(p int, res *Result) {
	d.period = p
	d.begin(d.t, p)
	d.graceLeft = d.cfg.Grace
	res.Locked, res.Period, res.Start, res.Confidence = true, p, true, 1
}

// Curve returns the current event distance curve: d(m) ∈ {0,1}, NaN for
// lags whose comparison window has not filled.
func (d *EventDetector) Curve() Curve {
	out := make([]float64, d.cfg.MaxLag)
	for m := 1; m <= d.cfg.MaxLag; m++ {
		switch {
		case !d.lv.Full(m):
			out[m-1] = math.NaN()
		case d.lv.Zero(m):
			out[m-1] = 0
		default:
			out[m-1] = 1
		}
	}
	return Curve{D: out}
}

// MismatchCount returns the raw mismatch count for lag m (diagnostics).
// It returns −1 when the lag's window has not filled yet.
func (d *EventDetector) MismatchCount(m int) int {
	if m < 1 || m > d.cfg.MaxLag || !d.lv.Full(m) {
		return -1
	}
	return d.lv.Ones(m)
}

// History returns the retained samples, oldest first (test/diagnostic aid).
func (d *EventDetector) History() []int64 { return d.lv.History(nil) }

// PredictNext returns the forecast for the next sample under the locked
// periodicity, x̂[t+1] = x[t+1−p], and whether a forecast is possible (a
// lock is held and the history is deep enough). It does not allocate, so
// it is safe on snapshot paths that must not disturb a serving hot path.
func (d *EventDetector) PredictNext() (int64, bool) {
	if !d.locked || d.period < 1 {
		return 0, false
	}
	return d.lv.Recent(d.period - 1)
}

// Reset clears all state but keeps the configuration. It panics on a
// ladder level: reset the ladder instead.
func (d *EventDetector) Reset() {
	if d.bank == nil {
		panic(d.levelMisuse("reset"))
	}
	d.bank.Reset()
	d.clearLock()
}

// clearLock clears the lock state and the sample clock.
func (d *EventDetector) clearLock() {
	d.locked = false
	d.period = 0
	d.phase = phase{}
	d.graceLeft = 0
	d.held = 0
	d.t = 0
}

// Resize changes the window size N (paper interface DPDWindowSize) and
// sets MaxLag to newWindow−1. Retained history is replayed so that the
// detector warms up as far as the kept samples allow. The absolute sample
// clock and any compatible lock survive the resize. A ladder level's
// window is fixed by its ladder.
func (d *EventDetector) Resize(newWindow int) error {
	if d.bank == nil {
		return errors.New(d.levelMisuse("resize"))
	}
	if newWindow < 2 {
		return fmt.Errorf("core: window %d outside [2,%d]", newWindow, MaxWindow)
	}
	nc := d.cfg
	nc.Window = newWindow
	nc.MaxLag = 0 // recompute as newWindow−1
	nc, err := nc.withDefaults()
	if err != nil {
		return err
	}
	old := d.lv.History(nil)
	wasLocked, oldPeriod, oldAnchor := d.locked, d.period, d.anchor
	d.cfg = nc
	d.alloc()

	// Replay retained history through the new lag bank. The absolute time
	// base d.t is preserved; replay only rebuilds window state.
	keep := len(old)
	max := nc.Window + nc.MaxLag
	if keep > max {
		old = old[keep-max:]
	}
	for _, v := range old {
		d.bank.Push(v)
	}

	// Preserve the lock only if the new window still confirms it.
	if wasLocked && oldPeriod <= nc.MaxLag && d.lv.Zero(oldPeriod) {
		d.locked = true
		d.period = oldPeriod
		d.anchor = oldAnchor // due is derived from it on the next decide
		d.graceLeft = nc.Grace
	} else {
		d.locked = false
		d.period = 0
	}
	return nil
}

// levelMisuse describes a direct call on a ladder level that would move
// it out of step with the ladder's shared bank and other levels.
func (d *EventDetector) levelMisuse(op string) string {
	return fmt.Sprintf("core: cannot %s the window-%d level of a multi-scale ladder directly; use the ladder", op, d.cfg.Window)
}
