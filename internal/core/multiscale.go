package core

import (
	"fmt"
	"sort"

	"dpd/internal/series"
)

// DefaultLadder is the window ladder used when none is given: small
// windows lock onto short inner periodicities quickly (the paper notes
// windows below 10 for very short periods), large ones capture outer
// iteration structure up to 1023 samples.
var DefaultLadder = []int{8, 32, 256, 1024}

// MultiScaleDetector runs a ladder of event detectors with increasing
// window sizes over the same stream. Nested iterative applications
// (hydro2d, turb3d in Table 2) expose different periodicities at different
// scales and phases of execution; no single window captures all of them.
//
// The levels share one lag kernel, a series.CountBank ladder: each sample
// is compared once against the largest level's lags and every level
// applies its prefix of the result. Each level detector is a view on its
// level of that bank, holding only the level's lock state. A level
// sleeps while the stream is shorter than its window — it cannot lock
// before — and on waking replays the stream from the shared history, so
// results are bit-identical to feeding every level from the start.
type MultiScaleDetector struct {
	bank    *series.CountBank
	levels  []*EventDetector
	scratch []Result // backing storage for Feed's MultiResult.PerLevel
}

// NewMultiScaleDetector builds a ladder detector. windows must be strictly
// increasing and each ≥ 2; nil selects DefaultLadder. The remaining Config
// fields (Confirm, Grace) apply to every level.
func NewMultiScaleDetector(windows []int, cfg Config) (*MultiScaleDetector, error) {
	if windows == nil {
		windows = DefaultLadder
	}
	if len(windows) == 0 {
		return nil, fmt.Errorf("core: empty window ladder")
	}
	views := make([]EventDetector, len(windows))
	lags := make([]int, len(windows))
	prev := 1
	for i, w := range windows {
		if w <= prev {
			return nil, fmt.Errorf("core: ladder windows must be strictly increasing, got %v", windows)
		}
		prev = w
		c := cfg
		c.Window = w
		c.MaxLag = 0
		c, err := c.withDefaults()
		if err != nil {
			return nil, err
		}
		views[i] = EventDetector{cfg: c}
		lags[i] = c.MaxLag
	}
	ms := &MultiScaleDetector{
		bank:    series.NewCountLadder(windows, lags),
		levels:  make([]*EventDetector, len(windows)),
		scratch: make([]Result, len(windows)),
	}
	for i := range views {
		views[i].lv = ms.bank.Level(i)
		ms.levels[i] = &views[i]
	}
	return ms, nil
}

// MustMultiScaleDetector panics on config errors.
func MustMultiScaleDetector(windows []int, cfg Config) *MultiScaleDetector {
	ms, err := NewMultiScaleDetector(windows, cfg)
	if err != nil {
		panic(err)
	}
	return ms
}

// Levels returns the number of ladder levels.
func (ms *MultiScaleDetector) Levels() int { return len(ms.levels) }

// Samples returns the number of samples fed so far.
func (ms *MultiScaleDetector) Samples() uint64 { return ms.bank.Len() }

// Level returns the i-th level detector (0 = smallest window), a view
// on the ladder's shared bank: read it, but feed, reset, resize and load
// the ladder, not the level — those calls fail on a level.
func (ms *MultiScaleDetector) Level(i int) *EventDetector { return ms.levels[i] }

// MultiResult aggregates the per-level results of one sample.
type MultiResult struct {
	// PerLevel holds each ladder level's result, smallest window first.
	// For results returned by Feed it aliases a scratch buffer owned by
	// the detector and is overwritten by the next Feed; callers that
	// retain results across samples must copy it (or use FeedInto /
	// FeedAll with their own storage).
	PerLevel []Result
	// Primary is the result of the largest-window level that is locked —
	// the outermost iterative structure, which is what the SelfAnalyzer
	// times (one outer iteration contains the whole parallel region).
	Primary Result
	// Shortest is the result of the smallest-window locked level, i.e.
	// the most fine-grained repetition currently active.
	Shortest Result
	// T is the sample index.
	T uint64
}

// Feed processes one event through every ladder level. The returned
// MultiResult's PerLevel slice aliases an internal scratch buffer (see
// MultiResult); Feed itself performs no allocation in steady state.
func (ms *MultiScaleDetector) Feed(v int64) MultiResult {
	return ms.FeedInto(v, ms.scratch)
}

// FeedInto is Feed with caller-owned PerLevel storage: per must have
// length Levels() and receives each level's result. Nothing is retained.
func (ms *MultiScaleDetector) FeedInto(v int64, per []Result) (out MultiResult) {
	ms.feed(v, per, &out)
	return out
}

// feed feeds sample v, decides every level into per and fills out,
// which must be zero. FeedInto fills its named result through it, so
// FeedInto inlines into Feed and its callers: returning one MultiResult
// through another call copies it on every sample.
func (ms *MultiScaleDetector) feed(v int64, per []Result, out *MultiResult) {
	t := ms.bank.Len()
	ms.bank.Push(v)
	awake := ms.bank.Awake()
	first, last := -1, -1 // the smallest and largest locked levels
	for i, det := range ms.levels {
		if i >= awake {
			per[i] = Result{T: t} // asleep: provably unlocked at this sample
			continue
		}
		det.t = t // a level waking now has just replayed samples 0..t-1
		det.decide(&per[i])
		det.t++
		if per[i].Locked {
			last = i
			if first < 0 {
				first = i
			}
		}
	}
	out.PerLevel, out.T = per, t
	if last < 0 {
		out.Primary.T, out.Shortest.T = t, t
	} else {
		setResult(&out.Primary, &per[last])
		setResult(&out.Shortest, &per[first])
	}
}

// setResult copies src into dst field by field. decide has just written
// src's flags a byte at a time, and the word-wide loads of a block copy
// would stall on those stores instead of forwarding them. EventEngine.Feed
// copies its result through here too, so the field list lives in one
// place.
func setResult(dst, src *Result) {
	dst.Locked = src.Locked
	dst.Period = src.Period
	dst.Start = src.Start
	dst.Confidence = src.Confidence
	dst.T = src.T
}

// FeedAll processes a batch of samples, writing one MultiResult per sample
// into dst (grown if needed) and returning the filled slice. Each element's
// PerLevel storage is reused when its capacity suffices, so feeding batches
// through a recycled dst is allocation-free in steady state.
func (ms *MultiScaleDetector) FeedAll(vs []int64, dst []MultiResult) []MultiResult {
	if cap(dst) < len(vs) {
		dst = make([]MultiResult, len(vs))
	}
	dst = dst[:len(vs)]
	for i, v := range vs {
		per := dst[i].PerLevel
		if cap(per) < len(ms.levels) {
			per = make([]Result, len(ms.levels))
		}
		dst[i] = ms.FeedInto(v, per[:len(ms.levels)])
	}
	return dst
}

// LockedPeriods returns the currently locked period of each level
// (0 entries for unlocked levels), smallest window first.
func (ms *MultiScaleDetector) LockedPeriods() []int {
	out := make([]int, len(ms.levels))
	for i, det := range ms.levels {
		out[i] = det.Locked()
	}
	return out
}

// Reset clears the shared bank and every level.
func (ms *MultiScaleDetector) Reset() {
	ms.bank.Reset()
	for _, det := range ms.levels {
		det.clearLock()
	}
}

// PeriodStat describes one distinct periodicity observed during a stream's
// lifetime, as reported in the paper's Table 2.
type PeriodStat struct {
	// Period is the periodicity in samples.
	Period int `json:"period"`
	// FirstAt is the sample index of the first confirmation.
	FirstAt uint64 `json:"first_at"`
	// LastAt is the sample index of the latest confirmation.
	LastAt uint64 `json:"last_at"`
	// Samples is the number of samples for which this period was locked.
	Samples uint64 `json:"samples"`
	// Starts is the number of period-start segmentation marks emitted.
	Starts uint64 `json:"starts"`
	// Window is the smallest detector window that confirmed the period.
	Window int `json:"window"`
}

// PeriodTracker aggregates detector results into the set of distinct
// periodicities seen over a whole stream (Table 2's "Detected
// periodicities" column).
type PeriodTracker struct {
	stats map[int]*PeriodStat
	held  []*PeriodStat // ObserveMulti: per level, the slot it last folded into
}

// NewPeriodTracker returns an empty tracker.
func NewPeriodTracker() *PeriodTracker {
	return &PeriodTracker{stats: make(map[int]*PeriodStat)}
}

// Reset clears every accumulated statistic while keeping the allocated
// period slots, so a tracker replaying streams repeatedly (a cold-start
// bench loop, a pooled stream recycled from a freelist) stops
// allocating once every recurring period owns a slot. A zeroed slot
// (Samples == 0) counts as never observed: it is skipped by Periods,
// SignificantPeriods, Stats and Stat, and re-initialized on its next
// observation.
func (pt *PeriodTracker) Reset() {
	for _, s := range pt.stats {
		s.FirstAt, s.LastAt, s.Samples, s.Starts, s.Window = 0, 0, 0, 0, 0
	}
}

// Observe folds in one result produced by a detector with the given window.
func (pt *PeriodTracker) Observe(r Result, window int) {
	if r.Locked && r.Period > 0 {
		pt.slot(r.Period).fold(&r, window)
	}
}

// ObserveMulti folds in a multi-scale result. A level holding its period
// folds into the slot it used last, without a map lookup.
func (pt *PeriodTracker) ObserveMulti(mr MultiResult, ms *MultiScaleDetector) {
	if len(pt.held) != len(mr.PerLevel) {
		pt.held = make([]*PeriodStat, len(mr.PerLevel))
	}
	for i := range mr.PerLevel {
		r := &mr.PerLevel[i]
		if !r.Locked || r.Period <= 0 {
			continue
		}
		s := pt.held[i]
		if s == nil || s.Period != r.Period {
			s = pt.slot(r.Period)
			pt.held[i] = s
		}
		s.fold(r, ms.Level(i).Window())
	}
}

// slot returns period p's statistics slot, making it on first sight.
func (pt *PeriodTracker) slot(p int) *PeriodStat {
	s := pt.stats[p]
	if s == nil {
		s = &PeriodStat{Period: p}
		pt.stats[p] = s
	}
	return s
}

// fold adds one locked result, produced by a detector with the given
// window, to the period's statistics.
func (s *PeriodStat) fold(r *Result, window int) {
	if s.Samples == 0 {
		// A new slot, or one recycled by Reset: the first observation.
		s.FirstAt, s.Window = r.T, window
	}
	s.LastAt = r.T
	s.Samples++
	if r.Start {
		s.Starts++
	}
	s.Window = min(s.Window, window)
}

// Periods returns the distinct periodicities sorted ascending.
func (pt *PeriodTracker) Periods() []int {
	out := make([]int, 0, len(pt.stats))
	for p, s := range pt.stats {
		if s.Samples > 0 {
			out = append(out, p)
		}
	}
	sort.Ints(out)
	return out
}

// SignificantPeriods returns periods that stayed locked for at least
// minSamples samples, filtering out transient flickers.
func (pt *PeriodTracker) SignificantPeriods(minSamples uint64) []int {
	return pt.AppendSignificant(minSamples, nil)
}

// AppendSignificant appends the significant periods (locked for at
// least minSamples samples) to dst in ascending order, recycled like
// append — the allocation-free form of SignificantPeriods for replay
// loops that reuse the result slice across Reset passes.
func (pt *PeriodTracker) AppendSignificant(minSamples uint64, dst []int) []int {
	for p, s := range pt.stats {
		if s.Samples >= minSamples {
			dst = append(dst, p)
		}
	}
	sort.Ints(dst)
	return dst
}

// Stat returns the statistics for period p (nil if never observed,
// including slots zeroed by Reset and not yet re-observed).
func (pt *PeriodTracker) Stat(p int) *PeriodStat {
	s := pt.stats[p]
	if s == nil || s.Samples == 0 {
		return nil
	}
	return s
}

// Stats returns all period statistics sorted by period.
func (pt *PeriodTracker) Stats() []PeriodStat {
	ps := pt.Periods()
	out := make([]PeriodStat, len(ps))
	for i, p := range ps {
		out[i] = *pt.stats[p]
	}
	return out
}
