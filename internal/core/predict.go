package core

import (
	"fmt"

	"dpd/internal/series"
)

// EventPredictor uses a locked periodicity to predict future events:
// once the stream is p-periodic, x̂[t+k] = x[t+k−p] (paper §1, use 3:
// "Given the periodicity of a data stream, future parameter values can be
// predicted").
//
// The predictor also keeps online accuracy counters so callers can gauge
// how trustworthy the current lock is. Lookback reads the detector's own
// retained history (window+MaxLag samples); the predictor keeps no ring.
type EventPredictor struct {
	det *EventDetector

	pending int64 // prediction made for the next sample
	valid   bool

	hits, misses uint64
}

// NewEventPredictor wraps an event detector. The detector is owned by the
// predictor: callers must feed samples only through Feed.
func NewEventPredictor(cfg Config) (*EventPredictor, error) {
	det, err := NewEventDetector(cfg)
	if err != nil {
		return nil, err
	}
	return &EventPredictor{det: det}, nil
}

// MustEventPredictor panics on config errors.
func MustEventPredictor(cfg Config) *EventPredictor {
	p, err := NewEventPredictor(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Feed processes the actual next sample, scores any outstanding
// prediction, and returns the detection result.
func (p *EventPredictor) Feed(v int64) Result {
	if p.valid {
		if p.pending == v {
			p.hits++
		} else {
			p.misses++
		}
		p.valid = false
	}
	r := p.det.Feed(v)

	// Form the prediction for the next sample: x̂[t+1] = x[t+1−p].
	if r.Locked && r.Period >= 1 {
		p.pending, p.valid = p.det.lv.Recent(r.Period - 1)
	}
	return r
}

// Predict returns the forecast k ≥ 1 samples ahead and whether a forecast
// is possible (a lock is held and history is deep enough).
func (p *EventPredictor) Predict(k int) (int64, bool) {
	if k < 1 {
		panic(fmt.Sprintf("core: prediction horizon %d must be >= 1", k))
	}
	period := p.det.Locked()
	if period == 0 {
		return 0, false
	}
	// x̂[t+k] = x[t + (k mod p) − p]; reduce the horizon into one period.
	off := k % period
	if off == 0 {
		off = period
	}
	return p.det.lv.Recent(period - off) // back 0 = newest retained sample
}

// Accuracy returns the online one-step hit rate and the number of scored
// predictions.
func (p *EventPredictor) Accuracy() (rate float64, scored uint64) {
	scored = p.hits + p.misses
	if scored == 0 {
		return 0, 0
	}
	return float64(p.hits) / float64(scored), scored
}

// Detector exposes the wrapped detector (read-only use).
func (p *EventPredictor) Detector() *EventDetector { return p.det }

// Reset clears all state.
func (p *EventPredictor) Reset() {
	p.det.Reset()
	p.valid = false
	p.hits, p.misses = 0, 0
}

// MagnitudePredictor is the magnitude-stream analogue of EventPredictor.
type MagnitudePredictor struct {
	det  *MagnitudeDetector
	hist *series.Ring

	pending float64
	valid   bool

	absErrSum float64
	scored    uint64
}

// NewMagnitudePredictor wraps a magnitude detector.
func NewMagnitudePredictor(cfg Config) (*MagnitudePredictor, error) {
	det, err := NewMagnitudeDetector(cfg)
	if err != nil {
		return nil, err
	}
	return &MagnitudePredictor{
		det:  det,
		hist: series.NewRing(det.MaxLag() + 1),
	}, nil
}

// MustMagnitudePredictor panics on config errors.
func MustMagnitudePredictor(cfg Config) *MagnitudePredictor {
	p, err := NewMagnitudePredictor(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Feed processes the actual next sample, scoring the pending forecast.
func (p *MagnitudePredictor) Feed(v float64) Result {
	if p.valid {
		e := p.pending - v
		if e < 0 {
			e = -e
		}
		p.absErrSum += e
		p.scored++
		p.valid = false
	}
	r := p.det.Feed(v)
	p.hist.Push(v)
	if r.Locked && r.Period >= 1 && p.hist.Len() >= r.Period {
		p.pending = p.hist.Last(r.Period - 1)
		p.valid = true
	}
	return r
}

// Predict returns the forecast k ≥ 1 samples ahead.
func (p *MagnitudePredictor) Predict(k int) (float64, bool) {
	if k < 1 {
		panic(fmt.Sprintf("core: prediction horizon %d must be >= 1", k))
	}
	period := p.det.Locked()
	if period == 0 {
		return 0, false
	}
	off := k % period
	if off == 0 {
		off = period
	}
	back := period - off
	if back >= p.hist.Len() {
		return 0, false
	}
	return p.hist.Last(back), true
}

// MeanAbsError returns the online one-step mean absolute prediction error
// and the number of scored predictions.
func (p *MagnitudePredictor) MeanAbsError() (mae float64, scored uint64) {
	if p.scored == 0 {
		return 0, 0
	}
	return p.absErrSum / float64(p.scored), p.scored
}

// Detector exposes the wrapped detector.
func (p *MagnitudePredictor) Detector() *MagnitudeDetector { return p.det }

// Reset clears all state.
func (p *MagnitudePredictor) Reset() {
	p.det.Reset()
	p.hist.Reset()
	p.valid = false
	p.absErrSum, p.scored = 0, 0
}
