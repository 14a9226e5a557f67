package core

import "fmt"

// Sample is one observation of a data series: the unit of work of the
// unified Detector interface. The paper distinguishes two stream kinds,
// and a Sample carries a slot for each: event engines (eq. 2 — loop
// addresses, message tags) read Value, the magnitude engine (eq. 1 —
// CPU counts, hardware counters) reads Magnitude. Exactly one slot is
// meaningful per stream; the other stays zero.
type Sample struct {
	// Value is the event-stream sample, consumed by the event,
	// multi-scale and adaptive engines.
	Value int64
	// Magnitude is the magnitude-stream sample, consumed by the
	// magnitude engine.
	Magnitude float64
}

// Detector is the unified per-stream interface: the paper's tiny
// two-call contract (Table 1: feed a sample, adjust the window)
// generalized so that every engine — event, magnitude, multi-scale
// ladder, adaptive window — presents one composable surface. All
// engines are allocation-free on the Feed path in steady state, so any
// of them can sit behind a serving pool.
//
// Implementations are not safe for concurrent use; a pool serializes
// access per stream.
type Detector interface {
	// Feed processes one sample and returns the per-sample detection
	// result (lock state, period, period-start flag).
	Feed(s Sample) Result
	// FeedAll processes a batch, writing one Result per sample into dst
	// (grown if needed) and returning the filled slice. A dst with
	// sufficient capacity makes the batch path allocation-free.
	FeedAll(vs []Sample, dst []Result) []Result
	// Snapshot returns the stream's current aggregate state. It does
	// not allocate, so it is safe on paths that must not disturb a
	// serving hot loop.
	Snapshot() Stat
	// Reset clears all detector state but keeps the configuration.
	Reset()
	// Window returns the current window size N.
	Window() int
	// Resize changes the window size at run time (paper Table 1:
	// DPDWindowSize), replaying retained history. Engines with fixed
	// window structure (the multi-scale ladder) reject it.
	Resize(n int) error
}

// Stat is a point-in-time view of one stream: the per-stream results
// the paper's runtime consumers (SelfAnalyzer, scheduler) need,
// captured without feeding. It unifies what used to be the pool's
// StreamStat with the standalone detectors' accessor methods.
type Stat struct {
	// Samples is the number of samples fed since creation or Reset.
	Samples uint64 `json:"samples"`
	// Locked reports whether a periodicity is currently established.
	Locked bool `json:"locked"`
	// Period is the locked periodicity in samples (0 when not locked).
	Period int `json:"period"`
	// Confidence is the confidence of the current lock: 1 for exact
	// (event) locks, the minimum's prominence in [0,1] for magnitude
	// locks, 0 when not locked.
	Confidence float64 `json:"confidence"`
	// Starts counts the period starts observed so far — the stream's
	// segment boundaries in the sense of the paper's Figure 6.
	Starts uint64 `json:"starts"`
	// LastStart is the stream-local sample index of the most recent
	// period start (valid when Starts > 0).
	LastStart uint64 `json:"last_start"`
	// Predicted is the forecast for the stream's next sample,
	// x̂[t+1] = x[t+1−p]; valid only when PredictedValid. Magnitude
	// engines do not forecast through Stat (use MagnitudePredictor).
	Predicted int64 `json:"predicted"`
	// PredictedValid reports whether Predicted holds a forecast.
	PredictedValid bool `json:"predicted_valid"`
	// Window is the detector's current window size N (for the
	// multi-scale ladder, the largest level's window).
	Window int `json:"window"`
}

// EventKind identifies one detector state transition delivered to an
// Observer.
type EventKind uint8

// Observer event kinds, in the order they can occur on one sample:
// a lock transition first, then the segment-start mark.
const (
	// EventLock: an unlocked detector established a periodicity.
	EventLock EventKind = iota + 1
	// EventPeriodChange: a locked detector re-locked onto a different
	// period (e.g. a shorter, more fundamental one emerged).
	EventPeriodChange
	// EventSegmentStart: the current sample begins a new period — the
	// paper's non-zero DPD return, as a push notification.
	EventSegmentStart
	// EventUnlock: the lock was lost (violations exhausted the grace
	// budget and no other confirmed lag took over).
	EventUnlock
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case EventLock:
		return "lock"
	case EventPeriodChange:
		return "period-change"
	case EventSegmentStart:
		return "segment-start"
	case EventUnlock:
		return "unlock"
	}
	return fmt.Sprintf("event-kind(%d)", uint8(k))
}

// Event describes one detector state transition. The pointer passed to
// Observer callbacks aliases a scratch owned by the engine — it is
// valid only for the duration of the callback and is overwritten by the
// next transition; callers that retain events must copy the struct.
type Event struct {
	// Kind is the transition type.
	Kind EventKind
	// T is the zero-based index of the sample that caused it.
	T uint64
	// Period is the period after the transition (0 for EventUnlock).
	Period int
	// PrevPeriod is the period before the transition (0 for EventLock
	// from an unlocked state).
	PrevPeriod int
	// Confidence is the lock confidence after the transition.
	Confidence float64
}

// Observer receives detector state transitions as they happen, so
// callers stop polling per-sample Results for the rare interesting
// moments (paper Figure 6: the detection point identifies the region).
// Callbacks run synchronously on the Feed path and must be cheap and
// allocation-free to preserve the hot-path guarantees; the *Event is a
// reused scratch (see Event).
type Observer interface {
	// OnLock fires when an unlocked detector establishes a periodicity.
	OnLock(*Event)
	// OnPeriodChange fires when a locked detector re-locks onto a
	// different period.
	OnPeriodChange(*Event)
	// OnSegmentStart fires when a sample begins a new period (including
	// the locking sample itself, after OnLock/OnPeriodChange).
	OnSegmentStart(*Event)
	// OnUnlock fires when the lock is lost.
	OnUnlock(*Event)
}

// ObserverFuncs adapts free functions to the Observer interface; nil
// fields are no-ops. The zero value is a valid do-nothing Observer.
type ObserverFuncs struct {
	// Lock handles EventLock.
	Lock func(*Event)
	// PeriodChange handles EventPeriodChange.
	PeriodChange func(*Event)
	// SegmentStart handles EventSegmentStart.
	SegmentStart func(*Event)
	// Unlock handles EventUnlock.
	Unlock func(*Event)
}

// OnLock implements Observer.
func (o ObserverFuncs) OnLock(e *Event) {
	if o.Lock != nil {
		o.Lock(e)
	}
}

// OnPeriodChange implements Observer.
func (o ObserverFuncs) OnPeriodChange(e *Event) {
	if o.PeriodChange != nil {
		o.PeriodChange(e)
	}
}

// OnSegmentStart implements Observer.
func (o ObserverFuncs) OnSegmentStart(e *Event) {
	if o.SegmentStart != nil {
		o.SegmentStart(e)
	}
}

// OnUnlock implements Observer.
func (o ObserverFuncs) OnUnlock(e *Event) {
	if o.Unlock != nil {
		o.Unlock(e)
	}
}

// track folds the per-sample Result stream into the segmentation
// counters of Stat and dispatches Observer callbacks on state
// transitions. One track is embedded in every engine adapter; the Event
// scratch is reused, so observer dispatch performs no allocation.
type track struct {
	obs Observer
	ev  *Event // reused callback scratch, allocated with the observer

	locked bool
	period int

	starts    uint64
	lastStart uint64
}

// setObserver registers obs and allocates the callback scratch; nil
// detaches. Engines keep no per-sample confidence or event state when
// unobserved, so an idle track costs three compares per sample.
func (tr *track) setObserver(obs Observer) {
	tr.obs = obs
	if obs != nil && tr.ev == nil {
		tr.ev = &Event{}
	}
}

// observe folds in one result and emits any due callbacks. The fast
// path (no transition, no start, no observer) is branch-only and kept
// well under the inliner budget, and reads the result where the engine
// wrote it rather than from a fresh copy; everything rare lives in
// slow. A lock transition always changes Period (locked results have
// Period > 0, unlocked ones 0), so comparing the period alone detects
// it.
func (tr *track) observe(r *Result) {
	if r.Start || r.Period != tr.period || tr.obs != nil {
		tr.slow(r)
	}
}

// slow handles starts, state transitions and observer dispatch.
func (tr *track) slow(r *Result) {
	if r.Start {
		tr.starts++
		tr.lastStart = r.T
	}
	if tr.obs != nil {
		switch {
		case !tr.locked && r.Locked:
			tr.emit(EventLock, r)
		case tr.locked && r.Locked && r.Period != tr.period:
			tr.emit(EventPeriodChange, r)
		case tr.locked && !r.Locked:
			tr.emit(EventUnlock, r)
		}
		if r.Start {
			tr.emit(EventSegmentStart, r)
		}
	}
	tr.locked, tr.period = r.Locked, r.Period
}

// emit fills the scratch event and dispatches one callback.
func (tr *track) emit(k EventKind, r *Result) {
	*tr.ev = Event{Kind: k, T: r.T, Period: r.Period, PrevPeriod: tr.period, Confidence: r.Confidence}
	switch k {
	case EventLock:
		tr.obs.OnLock(tr.ev)
	case EventPeriodChange:
		tr.obs.OnPeriodChange(tr.ev)
	case EventSegmentStart:
		tr.obs.OnSegmentStart(tr.ev)
	case EventUnlock:
		tr.obs.OnUnlock(tr.ev)
	}
}

// fill copies the tracked counters into a Stat; Samples and Confidence
// come from the engine itself (tracking them here too would push
// observe past the inliner budget on the hot path).
func (tr *track) fill(s *Stat) {
	s.Starts = tr.starts
	s.LastStart = tr.lastStart
}

// reset clears the tracked state but keeps the observer registration.
func (tr *track) reset() {
	if tr.ev != nil {
		*tr.ev = Event{}
	}
	tr.locked, tr.period = false, 0
	tr.starts, tr.lastStart = 0, 0
}

// phase places the starts of a lock's periods: anchor is the sample the
// phase began at, the checkpointed field, and due the next start at or
// after the current sample, or 0 until derived from anchor (after a load
// or resize), so a held lock finds its starts by one compare instead of
// (t-anchor) mod period.
type phase struct {
	anchor uint64
	due    uint64
}

// begin anchors a lock on period p at sample t, itself a period start.
func (ph *phase) begin(t uint64, p int) { ph.anchor, ph.due = t, t+uint64(p) }

// start reports whether sample t begins a period of a lock on period p
// anchored at or before t, and moves due past it. A locked detector
// calls it on every sample, so due never falls behind t.
func (ph *phase) start(t uint64, p int) bool {
	if ph.due == 0 {
		ph.due = t + (uint64(p)-(t-ph.anchor)%uint64(p))%uint64(p)
	}
	if t != ph.due {
		return false
	}
	ph.due += uint64(p)
	return true
}

// Compile-time conformance: every engine satisfies Detector.
var (
	_ Detector = (*EventEngine)(nil)
	_ Detector = (*MagnitudeEngine)(nil)
	_ Detector = (*MultiScaleEngine)(nil)
	_ Detector = (*AdaptiveEngine)(nil)
)

// EventEngine adapts an EventDetector (paper eq. 2) to the unified
// Detector interface, tracking segmentation counters and dispatching
// observer callbacks. Results are identical to feeding the wrapped
// detector directly.
type EventEngine struct {
	det *EventDetector
	tr  track
}

// NewEventEngine wraps det. The engine owns the detector: feed samples
// only through the engine, or the tracked counters go stale. It panics
// if det is a level of a multi-scale ladder, which only its ladder feeds.
func NewEventEngine(det *EventDetector) *EventEngine {
	if det.bank == nil {
		panic(det.levelMisuse("wrap in an engine"))
	}
	return &EventEngine{det: det}
}

// NewEventEngineConfig builds the detector and its engine as one
// contiguous allocation, keeping the per-sample pointer chase within a
// cache line pair — the constructor serving pools use for their default
// per-stream engines.
func NewEventEngineConfig(cfg Config) (*EventEngine, error) {
	box := &struct {
		e EventEngine
		d EventDetector
	}{}
	d, err := NewEventDetector(cfg)
	if err != nil {
		return nil, err
	}
	box.d = *d
	box.e.det = &box.d
	return &box.e, nil
}

// SetObserver registers obs for state-transition callbacks (nil
// detaches). Not safe to call concurrently with Feed.
func (e *EventEngine) SetObserver(obs Observer) { e.tr.setObserver(obs) }

// Feed implements Detector, consuming s.Value. The detector's Feed
// body is fused inline (push, decide, advance the clock — keep in sync
// with EventDetector.Feed) so the engine adds one branch, not one call
// frame, over the raw hot path; TestNewEventEngineMatchesLegacyConstructor
// pins the equivalence. The result is filled through setResult (see
// there) into the named result, which the return passes on field by
// field.
func (e *EventEngine) Feed(s Sample) (out Result) {
	d := e.det
	d.bank.Push(s.Value)
	var r Result
	d.decide(&r)
	d.t++
	e.tr.observe(&r)
	setResult(&out, &r)
	return out
}

// FeedAll implements Detector.
func (e *EventEngine) FeedAll(vs []Sample, dst []Result) []Result {
	dst = growResults(dst, len(vs))
	for i, s := range vs {
		dst[i] = e.Feed(s)
	}
	return dst
}

// Snapshot implements Detector.
func (e *EventEngine) Snapshot() Stat {
	st := Stat{Window: e.det.Window(), Samples: e.det.Samples()}
	e.tr.fill(&st)
	if p := e.det.Locked(); p != 0 {
		st.Locked, st.Period, st.Confidence = true, p, 1
	}
	if v, ok := e.det.PredictNext(); ok {
		st.Predicted, st.PredictedValid = v, true
	}
	return st
}

// Reset implements Detector.
func (e *EventEngine) Reset() {
	e.det.Reset()
	e.tr.reset()
}

// Window implements Detector.
func (e *EventEngine) Window() int { return e.det.Window() }

// Resize implements Detector, replaying retained history.
func (e *EventEngine) Resize(n int) error { return e.det.Resize(n) }

// Detector exposes the wrapped event detector (diagnostics, curve
// access). Feeding it directly bypasses the engine's tracking.
func (e *EventEngine) Detector() *EventDetector { return e.det }

// MagnitudeEngine adapts a MagnitudeDetector (paper eq. 1) to the
// unified Detector interface.
type MagnitudeEngine struct {
	det *MagnitudeDetector
	tr  track
}

// NewMagnitudeEngine wraps det; see NewEventEngine for ownership.
func NewMagnitudeEngine(det *MagnitudeDetector) *MagnitudeEngine {
	return &MagnitudeEngine{det: det}
}

// SetObserver registers obs for state-transition callbacks (nil
// detaches). Not safe to call concurrently with Feed.
func (e *MagnitudeEngine) SetObserver(obs Observer) { e.tr.setObserver(obs) }

// Feed implements Detector, consuming s.Magnitude.
func (e *MagnitudeEngine) Feed(s Sample) Result {
	r := e.det.Feed(s.Magnitude)
	e.tr.observe(&r)
	return r
}

// FeedAll implements Detector.
func (e *MagnitudeEngine) FeedAll(vs []Sample, dst []Result) []Result {
	dst = growResults(dst, len(vs))
	for i, s := range vs {
		dst[i] = e.Feed(s)
	}
	return dst
}

// Snapshot implements Detector. Magnitude streams are forecast by
// MagnitudePredictor, not through Stat, so PredictedValid is always
// false.
func (e *MagnitudeEngine) Snapshot() Stat {
	st := Stat{Window: e.det.Window(), Samples: e.det.Samples()}
	e.tr.fill(&st)
	if p := e.det.Locked(); p != 0 {
		st.Locked, st.Period, st.Confidence = true, p, e.det.Confidence()
	}
	return st
}

// Reset implements Detector.
func (e *MagnitudeEngine) Reset() {
	e.det.Reset()
	e.tr.reset()
}

// Window implements Detector.
func (e *MagnitudeEngine) Window() int { return e.det.Window() }

// Resize implements Detector, replaying retained history.
func (e *MagnitudeEngine) Resize(n int) error { return e.det.Resize(n) }

// Detector exposes the wrapped magnitude detector (curve access).
func (e *MagnitudeEngine) Detector() *MagnitudeDetector { return e.det }

// MultiScaleEngine adapts a MultiScaleDetector ladder to the unified
// Detector interface. Feed returns the ladder's Primary result — the
// outermost locked periodicity, which is what the SelfAnalyzer times;
// per-level results remain reachable through Ladder.
type MultiScaleEngine struct {
	ms *MultiScaleDetector
	tr track
}

// NewMultiScaleEngine wraps ms; see NewEventEngine for ownership.
func NewMultiScaleEngine(ms *MultiScaleDetector) *MultiScaleEngine {
	return &MultiScaleEngine{ms: ms}
}

// SetObserver registers obs for state-transition callbacks on the
// ladder's Primary result (nil detaches). Not safe to call concurrently
// with Feed.
func (e *MultiScaleEngine) SetObserver(obs Observer) { e.tr.setObserver(obs) }

// Feed implements Detector, consuming s.Value and reducing the ladder's
// per-level results to MultiResult.Primary.
func (e *MultiScaleEngine) Feed(s Sample) Result {
	r := e.ms.Feed(s.Value).Primary
	e.tr.observe(&r)
	return r
}

// FeedAll implements Detector.
func (e *MultiScaleEngine) FeedAll(vs []Sample, dst []Result) []Result {
	dst = growResults(dst, len(vs))
	for i, s := range vs {
		dst[i] = e.Feed(s)
	}
	return dst
}

// Snapshot implements Detector: lock state and prediction come from the
// largest locked level (the Primary), Window from the largest level.
func (e *MultiScaleEngine) Snapshot() Stat {
	st := Stat{Window: e.ms.Level(e.ms.Levels() - 1).Window(), Samples: e.ms.Samples()}
	e.tr.fill(&st)
	for i := e.ms.Levels() - 1; i >= 0; i-- {
		lvl := e.ms.Level(i)
		if p := lvl.Locked(); p != 0 {
			st.Locked, st.Period, st.Confidence = true, p, 1
			if v, ok := lvl.PredictNext(); ok {
				st.Predicted, st.PredictedValid = v, true
			}
			break
		}
	}
	return st
}

// Reset implements Detector.
func (e *MultiScaleEngine) Reset() {
	e.ms.Reset()
	e.tr.reset()
}

// Window implements Detector: the largest (outermost) level's window.
func (e *MultiScaleEngine) Window() int {
	return e.ms.Level(e.ms.Levels() - 1).Window()
}

// Resize implements Detector. The ladder's windows are its structure,
// so run-time resizing is rejected; build a new ladder instead.
func (e *MultiScaleEngine) Resize(n int) error {
	return fmt.Errorf("core: multi-scale ladder windows are fixed; cannot resize to %d", n)
}

// Ladder exposes the wrapped ladder (per-level results, LockedPeriods).
// Feeding it directly bypasses the engine's tracking.
func (e *MultiScaleEngine) Ladder() *MultiScaleDetector { return e.ms }

// AdaptiveEngine adapts an AdaptiveDetector (automatic window
// management, paper §3.1/§4) to the unified Detector interface.
type AdaptiveEngine struct {
	a  *AdaptiveDetector
	tr track
}

// NewAdaptiveEngine wraps a; see NewEventEngine for ownership.
func NewAdaptiveEngine(a *AdaptiveDetector) *AdaptiveEngine {
	return &AdaptiveEngine{a: a}
}

// SetObserver registers obs for state-transition callbacks (nil
// detaches). Not safe to call concurrently with Feed.
func (e *AdaptiveEngine) SetObserver(obs Observer) { e.tr.setObserver(obs) }

// Feed implements Detector, consuming s.Value under the window policy.
func (e *AdaptiveEngine) Feed(s Sample) Result {
	r := e.a.Feed(s.Value)
	e.tr.observe(&r)
	return r
}

// FeedAll implements Detector.
func (e *AdaptiveEngine) FeedAll(vs []Sample, dst []Result) []Result {
	dst = growResults(dst, len(vs))
	for i, s := range vs {
		dst[i] = e.Feed(s)
	}
	return dst
}

// Snapshot implements Detector.
func (e *AdaptiveEngine) Snapshot() Stat {
	st := Stat{Window: e.a.Window(), Samples: e.a.Detector().Samples()}
	e.tr.fill(&st)
	if p := e.a.Locked(); p != 0 {
		st.Locked, st.Period, st.Confidence = true, p, 1
	}
	if v, ok := e.a.Detector().PredictNext(); ok {
		st.Predicted, st.PredictedValid = v, true
	}
	return st
}

// Reset implements Detector, restoring the policy's maximum window.
func (e *AdaptiveEngine) Reset() {
	e.a.Reset()
	e.tr.reset()
}

// Window implements Detector: the current (policy-managed) window.
func (e *AdaptiveEngine) Window() int { return e.a.Window() }

// Resize implements Detector as a manual override; the policy resumes
// shrinking/growing from the new size.
func (e *AdaptiveEngine) Resize(n int) error { return e.a.Resize(n) }

// Adaptive exposes the wrapped adaptive detector (Resizes diagnostics).
// Feeding it directly bypasses the engine's tracking.
func (e *AdaptiveEngine) Adaptive() *AdaptiveDetector { return e.a }

// growResults returns dst resized to n, reallocating only when the
// capacity is insufficient.
func growResults(dst []Result, n int) []Result {
	if cap(dst) < n {
		dst = make([]Result, n)
	}
	return dst[:n]
}
