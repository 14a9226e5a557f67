package core

// FeedEventRun feeds vs to e in order and returns how many of them its
// kept loop consumed. It leaves e, its bank and its observer exactly as
// len(vs) calls of e.Feed would, results discarded.
//
// While the lock decision is held (see EventDetector.decide), the bank
// pushes the longest prefix of the run that keeps its row
// (series.CountBank.PushKept). A kept push moves no zero bit and no
// zeroAt, so the Version and the held decision stand. Only the clock,
// the phase and the tracker's starts move. Every other sample takes
// Feed, as does a held lock whose tracker is out of step (its detector
// fed directly), so Feed emits the transition.
func FeedEventRun(e *EventEngine, vs []int64) (kept int) {
	d := e.det
	for i := 0; i < len(vs); {
		if d.held == d.lv.Version() && e.tr.period == d.period {
			if n := d.bank.PushKept(vs[i:]); n > 0 {
				e.keep(n)
				i += n
				kept += n
				continue
			}
		}
		e.Feed(Sample{Value: vs[i]})
		i++
	}
	return kept
}

// keep advances a held lock over n samples its bank kept: the clock,
// the phase, and the tracker's starts with the same segment-start event
// per start that Feed would emit.
func (e *EventEngine) keep(n int) {
	d := e.det
	t, end := d.t, d.t+uint64(n)
	r := Result{Locked: true, Period: d.period, Confidence: 1, Start: true}
	if d.due == 0 && d.start(t, d.period) { // derives due from the anchor
		r.T = t
		e.tr.slow(&r)
	}
	for ; d.due < end; d.due += uint64(d.period) {
		r.T = d.due
		e.tr.slow(&r)
	}
	d.t = end
}
