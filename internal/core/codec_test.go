package core

import (
	"math"
	"testing"
)

// engineCase builds one engine of each kind plus a deterministic sample
// stream that exercises locks, period changes and (for the adaptive
// engine) policy resizes.
type engineCase struct {
	name   string
	build  func(t *testing.T) Detector
	sample func(i int) Sample
}

func codecEngineCases() []engineCase {
	return []engineCase{
		{
			"event",
			func(t *testing.T) Detector {
				d, err := NewEventDetector(Config{Window: 64, Grace: 2})
				if err != nil {
					t.Fatal(err)
				}
				return NewEventEngine(d)
			},
			func(i int) Sample {
				if i%97 == 5 {
					return Sample{Value: int64(1000 + i)} // occasional violation
				}
				return Sample{Value: int64(i % 7)}
			},
		},
		{
			"magnitude",
			func(t *testing.T) Detector {
				d, err := NewMagnitudeDetector(Config{Window: 48, Confirm: 2})
				if err != nil {
					t.Fatal(err)
				}
				return NewMagnitudeEngine(d)
			},
			func(i int) Sample {
				return Sample{Magnitude: 10 + 5*math.Sin(2*math.Pi*float64(i)/11) + 0.01*float64(i%3)}
			},
		},
		{
			"multiscale",
			func(t *testing.T) Detector {
				d, err := NewMultiScaleDetector([]int{8, 32, 128}, Config{})
				if err != nil {
					t.Fatal(err)
				}
				return NewMultiScaleEngine(d)
			},
			func(i int) Sample {
				// Nested structure: inner period 4, outer marker every 64.
				if i%64 == 0 {
					return Sample{Value: 999}
				}
				return Sample{Value: int64(i % 4)}
			},
		},
		{
			"adaptive",
			func(t *testing.T) Detector {
				policy := AdaptivePolicy{MinWindow: 8, MaxWindow: 128, ShrinkAfter: 24, Headroom: 2.5, GrowAfter: 40}
				d, err := NewAdaptiveDetector(policy, Config{Grace: 1})
				if err != nil {
					t.Fatal(err)
				}
				return NewAdaptiveEngine(d)
			},
			func(i int) Sample {
				// Phases: periodic, then noise (forces unlock + regrow),
				// then a different period.
				switch {
				case i < 300:
					return Sample{Value: int64(i % 5)}
				case i < 380:
					return Sample{Value: int64(i * 2654435761)} // noise
				default:
					return Sample{Value: int64(i % 9)}
				}
			},
		},
	}
}

// TestEngineCheckpointRoundTrip is the tentpole differential: at many
// cut points, checkpoint A → restore into B → keep feeding both; every
// subsequent Result and the final Stat must be identical, for all four
// engines.
func TestEngineCheckpointRoundTrip(t *testing.T) {
	const total = 600
	for _, tc := range codecEngineCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, cut := range []int{0, 1, 17, 100, 333, 599} {
				ref := tc.build(t)
				for i := 0; i < cut; i++ {
					ref.Feed(tc.sample(i))
				}
				buf, err := AppendCheckpoint(ref, nil)
				if err != nil {
					t.Fatalf("cut=%d: checkpoint: %v", cut, err)
				}
				restored, err := RestoreCheckpoint(buf)
				if err != nil {
					t.Fatalf("cut=%d: restore: %v", cut, err)
				}
				if got, want := restored.Snapshot(), ref.Snapshot(); got != want {
					t.Fatalf("cut=%d: restored snapshot %+v != %+v", cut, got, want)
				}
				for i := cut; i < total; i++ {
					s := tc.sample(i)
					got, want := restored.Feed(s), ref.Feed(s)
					if got != want {
						t.Fatalf("cut=%d sample=%d: restored result %+v != uninterrupted %+v", cut, i, got, want)
					}
				}
				if got, want := restored.Snapshot(), ref.Snapshot(); got != want {
					t.Fatalf("cut=%d: final snapshot %+v != %+v", cut, got, want)
				}
				if got, want := restored.Window(), ref.Window(); got != want {
					t.Fatalf("cut=%d: window %d != %d", cut, got, want)
				}
			}
		})
	}
}

// TestEngineCheckpointAfterResize: an event engine resized at run time
// checkpoints its current (not construction) configuration, and the
// restored engine continues identically.
func TestEngineCheckpointAfterResize(t *testing.T) {
	d, err := NewEventDetector(Config{Window: 128})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEventEngine(d)
	for i := 0; i < 400; i++ {
		eng.Feed(Sample{Value: int64(i % 6)})
	}
	if err := eng.Resize(32); err != nil {
		t.Fatal(err)
	}
	buf, err := AppendCheckpoint(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := DecodeSpec(buf)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Cfg.Window != 32 {
		t.Fatalf("spec window = %d after resize, want 32", spec.Cfg.Window)
	}
	restored, err := RestoreCheckpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		s := Sample{Value: int64(i % 6)}
		if got, want := restored.Feed(s), eng.Feed(s); got != want {
			t.Fatalf("sample %d: %+v != %+v", i, got, want)
		}
	}
}

// TestDecodeSpecReportsEngineAndConfig: the spec of each engine's
// checkpoint names its kind and carries its construction configuration.
func TestDecodeSpecReportsEngineAndConfig(t *testing.T) {
	for _, tc := range codecEngineCases() {
		eng := tc.build(t)
		buf, err := AppendCheckpoint(eng, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		spec, err := DecodeSpec(buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if spec.EngineName() != tc.name {
			t.Errorf("spec engine = %q, want %q", spec.EngineName(), tc.name)
		}
		switch tc.name {
		case "event":
			if spec.Cfg.Window != 64 || spec.Cfg.Grace != 2 {
				t.Errorf("event spec cfg = %+v", spec.Cfg)
			}
		case "magnitude":
			if spec.Cfg.Window != 48 || spec.Cfg.Confirm != 2 {
				t.Errorf("magnitude spec cfg = %+v", spec.Cfg)
			}
		case "multiscale":
			if len(spec.Ladder) != 3 || spec.Ladder[2] != 128 || spec.Cfg.Window != 0 {
				t.Errorf("multiscale spec = %+v", spec)
			}
		case "adaptive":
			if spec.Policy.MaxWindow != 128 || spec.Cfg.Grace != 1 || spec.Cfg.Window != 0 {
				t.Errorf("adaptive spec = %+v", spec)
			}
		}
	}
}

// TestLoadStateRejectsWrongEngine: a checkpoint restored into an engine
// of a different kind must error descriptively.
func TestLoadStateRejectsWrongEngine(t *testing.T) {
	evt := NewEventEngine(MustEventDetector(Config{Window: 32}))
	buf := evt.AppendState(nil)
	mag := NewMagnitudeEngine(MustMagnitudeDetector(Config{Window: 32}))
	if _, err := mag.LoadState(buf); err == nil {
		t.Fatal("magnitude engine accepted an event checkpoint")
	}
}

// TestRestoreRejectsVersionSkew: flipping the version byte must produce
// a descriptive error, not a misparse.
func TestRestoreRejectsVersionSkew(t *testing.T) {
	eng := NewEventEngine(MustEventDetector(Config{Window: 32}))
	buf := eng.AppendState(nil)
	buf[1] = 99 // version byte follows the tag
	if _, err := RestoreCheckpoint(buf); err == nil {
		t.Fatal("version-skewed checkpoint accepted")
	}
}

// TestRestoreTruncatedNeverPanics: every prefix of a valid checkpoint
// of every engine must error, never panic.
func TestRestoreTruncatedNeverPanics(t *testing.T) {
	for _, tc := range codecEngineCases() {
		eng := tc.build(t)
		for i := 0; i < 300; i++ {
			eng.Feed(tc.sample(i))
		}
		buf, err := AppendCheckpoint(eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		step := len(buf)/97 + 1
		for cut := 0; cut < len(buf); cut += step {
			if _, err := RestoreCheckpoint(buf[:cut]); err == nil {
				t.Fatalf("%s cut=%d: truncated checkpoint accepted", tc.name, cut)
			}
		}
	}
}

// TestCheckpointReusedBufferIdentical: appending into a reused buffer
// yields the same bytes as a fresh encode (no stale-state leakage).
func TestCheckpointReusedBufferIdentical(t *testing.T) {
	eng := NewEventEngine(MustEventDetector(Config{Window: 64}))
	for i := 0; i < 500; i++ {
		eng.Feed(Sample{Value: int64(i % 5)})
	}
	fresh, err := AppendCheckpoint(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	reused := make([]byte, 0, 2*len(fresh))
	reused, err = AppendCheckpoint(eng, reused)
	if err != nil {
		t.Fatal(err)
	}
	if string(fresh) != string(reused) {
		t.Fatal("reused-buffer encode differs from fresh encode")
	}
}

// TestAppendCheckpointRejectsForeignDetector: injected custom Detector
// implementations have no codec and must be reported, not mis-encoded.
func TestAppendCheckpointRejectsForeignDetector(t *testing.T) {
	if _, err := AppendCheckpoint(foreignDetector{}, nil); err == nil {
		t.Fatal("foreign detector type accepted")
	}
}

type foreignDetector struct{}

func (foreignDetector) Feed(Sample) Result                      { return Result{} }
func (foreignDetector) FeedAll(v []Sample, d []Result) []Result { return d }
func (foreignDetector) Snapshot() Stat                          { return Stat{} }
func (foreignDetector) Reset()                                  {}
func (foreignDetector) Window() int                             { return 0 }
func (foreignDetector) Resize(int) error                        { return nil }

// TestLoadStateRejectsAnchorPastClock: a locked event or magnitude state
// whose lock is anchored after its own clock is refused. No encoder
// writes one (a lock anchors at the sample it locks on), and it is the
// only state whose period starts the due index would place differently
// from (t-anchor) mod period.
func TestLoadStateRejectsAnchorPastClock(t *testing.T) {
	ev := MustEventDetector(Config{Window: 16})
	mag := MustMagnitudeDetector(Config{Window: 16})
	for i := 0; i < 100; i++ {
		ev.Feed(int64(i % 4))
		mag.Feed(float64(i % 4))
	}
	if ev.Locked() != 4 || mag.Locked() != 4 {
		t.Fatalf("locked on %d and %d, want 4", ev.Locked(), mag.Locked())
	}
	for _, c := range []struct {
		name   string
		anchor *uint64
		clock  uint64
		enc    func() []byte
		load   func([]byte) (int, error)
	}{
		{"event", &ev.anchor, ev.t, func() []byte { return ev.AppendState(nil) },
			func(b []byte) (int, error) { return MustEventDetector(Config{Window: 16}).LoadState(b) }},
		{"magnitude", &mag.anchor, mag.t, func() []byte { return mag.AppendState(nil) },
			func(b []byte) (int, error) { return MustMagnitudeDetector(Config{Window: 16}).LoadState(b) }},
	} {
		*c.anchor = c.clock
		if _, err := c.load(c.enc()); err != nil {
			t.Fatalf("%s: lock anchored at its clock refused: %v", c.name, err)
		}
		*c.anchor = c.clock + 1
		if _, err := c.load(c.enc()); err == nil {
			t.Fatalf("%s: lock anchored past its clock accepted", c.name)
		}
	}
}
