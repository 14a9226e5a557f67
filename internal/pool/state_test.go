package pool

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"dpd/internal/core"
	"dpd/internal/wire"
)

// feedDeterministic drives the same keyed traffic into a pool twice
// over: keys 0..streams-1, samples streamValue(key, from..to).
func feedDeterministic(p *Pool, streams, from, to int) {
	batch := make([]KeyedSample, 0, streams)
	for i := from; i < to; i++ {
		batch = batch[:0]
		for k := 0; k < streams; k++ {
			batch = append(batch, KeyedSample{Key: uint64(k), Value: streamValue(uint64(k), i)})
		}
		p.FeedBatch(batch)
	}
}

// TestPoolCheckpointRestoreDifferential: checkpoint a live pool, restore
// it onto a different shard count, keep feeding both — every stream's
// final Stat must equal the pool that never stopped.
func TestPoolCheckpointRestoreDifferential(t *testing.T) {
	const (
		streams = 64
		cut     = 200
		total   = 450
	)
	cfg := core.Config{Window: 48, Grace: 1}
	ref := Must(Config{Shards: 4, Detector: cfg})
	defer ref.Close()
	feedDeterministic(ref, streams, 0, cut)

	var sink bytes.Buffer
	if err := ref.Checkpoint(&sink); err != nil {
		t.Fatal(err)
	}
	// Restore onto a different shard count: shard count is serving
	// topology, not stream state.
	restored, err := Restore(&sink, Config{Shards: 7, Detector: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got, want := restored.Len(), streams; got != want {
		t.Fatalf("restored Len = %d, want %d", got, want)
	}

	feedDeterministic(ref, streams, cut, total)
	feedDeterministic(restored, streams, cut, total)

	for k := uint64(0); k < streams; k++ {
		got, ok := restored.Stat(k)
		if !ok {
			t.Fatalf("stream %d missing after restore", k)
		}
		want, _ := ref.Stat(k)
		if got != want {
			t.Errorf("stream %d diverged after restore:\n  restored: %+v\n  ref:      %+v", k, got, want)
		}
	}
}

// TestPoolCheckpointRestoreInjectedEngines: pools of magnitude,
// multi-scale and adaptive engines round-trip the same way.
func TestPoolCheckpointRestoreInjectedEngines(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory func() core.Detector
		sample  func(key uint64, i int) core.Sample
	}{
		{
			"magnitude",
			func() core.Detector {
				return core.NewMagnitudeEngine(core.MustMagnitudeDetector(core.Config{Window: 40}))
			},
			func(key uint64, i int) core.Sample {
				return core.Sample{Magnitude: float64((i + int(key)) % (5 + int(key%3)))}
			},
		},
		{
			"multiscale",
			func() core.Detector {
				return core.NewMultiScaleEngine(core.MustMultiScaleDetector([]int{8, 64}, core.Config{}))
			},
			func(key uint64, i int) core.Sample {
				return core.Sample{Value: int64((i + int(key)) % 6)}
			},
		},
		{
			"adaptive",
			func() core.Detector {
				return core.NewAdaptiveEngine(core.MustAdaptiveDetector(
					core.AdaptivePolicy{MinWindow: 8, MaxWindow: 64, ShrinkAfter: 16, Headroom: 2.5, GrowAfter: 32}, core.Config{}))
			},
			func(key uint64, i int) core.Sample {
				return core.Sample{Value: int64((i + int(key)) % 5)}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const streams, cut, total = 24, 150, 300
			ref := Must(Config{Shards: 3, NewDetector: tc.factory})
			defer ref.Close()
			feed := func(p *Pool, from, to int) {
				for i := from; i < to; i++ {
					for k := uint64(0); k < streams; k++ {
						p.FeedSample(k, tc.sample(k, i))
					}
				}
			}
			feed(ref, 0, cut)
			var sink bytes.Buffer
			if err := ref.Checkpoint(&sink); err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(&sink, Config{Shards: 5, NewDetector: tc.factory})
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			feed(ref, cut, total)
			feed(restored, cut, total)
			for k := uint64(0); k < streams; k++ {
				got, ok := restored.Stat(k)
				want, _ := ref.Stat(k)
				if !ok || got != want {
					t.Fatalf("stream %d: restored %+v (ok=%v) != ref %+v", k, got, ok, want)
				}
			}
		})
	}
}

// TestPoolRestoreRejectsMismatchedFactory: restoring an event-engine
// checkpoint into a magnitude-engine pool must fail descriptively.
func TestPoolRestoreRejectsMismatchedFactory(t *testing.T) {
	ref := Must(Config{Shards: 2, Detector: core.Config{Window: 32}})
	defer ref.Close()
	feedDeterministic(ref, 8, 0, 50)
	var sink bytes.Buffer
	if err := ref.Checkpoint(&sink); err != nil {
		t.Fatal(err)
	}
	_, err := Restore(&sink, Config{Shards: 2, NewDetector: func() core.Detector {
		return core.NewMagnitudeEngine(core.MustMagnitudeDetector(core.Config{Window: 32}))
	}})
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("mismatched factory: err = %v", err)
	}
	// A different window for the same engine must be rejected too.
	_, err = Restore(bytes.NewReader(sink.Bytes()), Config{Shards: 2, Detector: core.Config{Window: 64}})
	if err == nil {
		t.Fatal("mismatched window accepted")
	}
}

// TestPoolRestoreTruncated: cutting the checkpoint stream anywhere must
// error, never panic or hang.
func TestPoolRestoreTruncated(t *testing.T) {
	cfg := core.Config{Window: 32}
	ref := Must(Config{Shards: 2, Detector: cfg})
	defer ref.Close()
	feedDeterministic(ref, 8, 0, 60)
	var sink bytes.Buffer
	if err := ref.Checkpoint(&sink); err != nil {
		t.Fatal(err)
	}
	full := sink.Bytes()
	step := len(full)/61 + 1
	for cut := 0; cut < len(full); cut += step {
		if _, err := Restore(bytes.NewReader(full[:cut]), Config{Shards: 2, Detector: cfg}); err == nil {
			t.Fatalf("cut=%d: truncated pool checkpoint accepted", cut)
		}
	}
}

// TestPoolRebalancePreservesStreams: single-threaded rebalances up and
// down leave every stream's Stat exactly as a never-rebalanced pool.
func TestPoolRebalancePreservesStreams(t *testing.T) {
	const streams, phase = 48, 120
	cfg := core.Config{Window: 40}
	p := Must(Config{Shards: 4, Detector: cfg})
	defer p.Close()
	ref := Must(Config{Shards: 4, Detector: cfg})
	defer ref.Close()

	at := 0
	for _, n := range []int{9, 2, 16, 4} {
		feedDeterministic(p, streams, at, at+phase)
		feedDeterministic(ref, streams, at, at+phase)
		at += phase
		if err := p.Rebalance(n); err != nil {
			t.Fatalf("Rebalance(%d): %v", n, err)
		}
		if got := p.Shards(); got != n {
			t.Fatalf("Shards() = %d after Rebalance(%d)", got, n)
		}
		if got, want := p.Len(), streams; got != want {
			t.Fatalf("lost streams: Len = %d, want %d after Rebalance(%d)", got, want, n)
		}
	}
	feedDeterministic(p, streams, at, at+phase)
	feedDeterministic(ref, streams, at, at+phase)
	for k := uint64(0); k < streams; k++ {
		got, ok := p.Stat(k)
		want, _ := ref.Stat(k)
		if !ok || got != want {
			t.Fatalf("stream %d after rebalances: %+v (ok=%v) != %+v", k, got, ok, want)
		}
	}
}

// TestPoolRebalanceSameCountIsNoop and bounds checking.
func TestPoolRebalanceValidation(t *testing.T) {
	p := Must(Config{Shards: 3, Detector: core.Config{Window: 16}})
	defer p.Close()
	if err := p.Rebalance(3); err != nil {
		t.Fatalf("same-count rebalance: %v", err)
	}
	if err := p.Rebalance(-1); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if err := p.Rebalance(MaxShards + 1); err == nil {
		t.Fatal("oversized shard count accepted")
	}
	p.Close()
	if err := p.Rebalance(2); err == nil {
		t.Fatal("rebalance on closed pool accepted")
	}
}

// TestPoolCheckpointConcurrentWithFeeding: a checkpoint taken while
// feeders are running yields a stream set that restores cleanly — the
// per-shard quiesce must not deadlock with batch traffic.
func TestPoolCheckpointConcurrentWithFeeding(t *testing.T) {
	cfg := core.Config{Window: 32}
	p := Must(Config{Shards: 4, Detector: cfg})
	defer p.Close()
	feedDeterministic(p, 32, 0, 100)

	done := make(chan struct{})
	go func() {
		defer close(done)
		feedDeterministic(p, 32, 100, 400)
	}()
	var sink bytes.Buffer
	if err := p.Checkpoint(&sink); err != nil {
		t.Fatal(err)
	}
	<-done
	restored, err := Restore(&sink, Config{Shards: 4, Detector: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got, want := restored.Len(), 32; got != want {
		t.Fatalf("restored Len = %d, want %d", got, want)
	}
	// Every restored stream must be a valid mid-stream state: samples
	// within the fed range.
	var dst []StreamStat
	for _, st := range restored.Snapshot(dst) {
		if st.Samples < 100 || st.Samples > 400 {
			t.Fatalf("stream %d restored with %d samples, outside fed range [100,400]", st.Key, st.Samples)
		}
	}
}

// TestPoolCheckpointDeterministic: frames are written in key order, so
// a quiescent pool's checkpoint is the same bytes on every call, on
// every shard count it is restored onto, and with hot streams placed.
func TestPoolCheckpointDeterministic(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		cfg := Config{Shards: 4, Detector: core.Config{Window: 32}}
		if adaptive {
			cfg.Adaptive = adaptiveTestConfig()
		}
		p := Must(cfg)
		defer p.Close()
		feedSkewed(p, 7, 30, []uint64{1, 2, 3, 4, 5, 900, 1 << 40}, 40, map[uint64]int{}, map[uint64]int{})
		if adaptive {
			steps(p, 1)
			if st := p.AdaptiveStats(); st.HotStreams != 1 {
				t.Fatalf("promotion expected, got %+v", st)
			}
		}
		var first, again bytes.Buffer
		if err := p.Checkpoint(&first); err != nil {
			t.Fatal(err)
		}
		if err := p.Checkpoint(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("adaptive=%v: two checkpoints of a quiescent pool differ", adaptive)
		}
		for _, shards := range []int{1, 3, 8} {
			rcfg := cfg
			rcfg.Shards = shards
			r, err := Restore(bytes.NewReader(first.Bytes()), rcfg)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			err = r.Checkpoint(&got)
			r.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), first.Bytes()) {
				t.Fatalf("adaptive=%v: checkpoint after restore onto %d shards differs", adaptive, shards)
			}
		}
	}
}

// TestPoolCheckpointMemoryBounded: the bytes a checkpoint allocates
// grow with the key list (8 B per stream, sorted in place), not with
// the ~4 KB per-stream state — the state itself streams through one
// bounded chunk.
func TestPoolCheckpointMemoryBounded(t *testing.T) {
	alloc := func(streams int) uint64 {
		p := Must(Config{Shards: 4, Detector: core.Config{Window: 100}})
		defer p.Close()
		feedDeterministic(p, streams, 0, 8)
		best := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if err := p.Checkpoint(io.Discard); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	const small, large = 1 << 10, 16 << 10
	a, b := alloc(small), alloc(large)
	perStream := float64(b-a) / float64(large-small)
	t.Logf("checkpoint allocates %d B at %d streams, %d B at %d: %.1f B per extra stream", a, small, b, large, perStream)
	if perStream > 32 {
		t.Fatalf("checkpoint allocation grows %.1f B per stream, want at most 32 (the key list)", perStream)
	}
}

// TestEachStateSinkHoldsNoLock: the sink runs with no pool lock held —
// a sink that rebalances and feeds the pool (both would deadlock under
// any gate or shard lock) returns, and a checkpoint taken across those
// rebalances restores with every key exactly once.
func TestEachStateSinkHoldsNoLock(t *testing.T) {
	const streams = 400 // window-100 states: several chunks
	cfg := Config{Shards: 4, Detector: core.Config{Window: 100}}
	p := Must(cfg)
	defer p.Close()
	feedDeterministic(p, streams, 0, 50)

	done := make(chan error, 1)
	var ckpt bytes.Buffer
	go func() {
		calls := 0
		bw := bufio.NewWriter(&ckpt)
		bw.WriteString(poolMagic)
		bw.WriteByte(poolStateVersion)
		err := p.EachState(func(key uint64, state []byte) error {
			calls++
			if calls%40 == 0 {
				if err := p.Rebalance(1 + calls/40%5); err != nil {
					return err
				}
				feedDeterministic(p, streams, 50+calls, 51+calls)
			}
			payload := append(wire.AppendUvarint(nil, key), state...)
			return wire.WriteFrame(bw, payload)
		})
		if err == nil {
			err = wire.WriteFrame(bw, nil)
		}
		if err == nil {
			err = bw.Flush()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("sink calling Rebalance/FeedBatch deadlocked: EachState holds a pool lock across fn")
	}
	if ckpt.Len() < 3*stateChunk {
		t.Fatalf("checkpoint is %d bytes; the test needs at least three chunks", ckpt.Len())
	}
	r, err := Restore(&ckpt, cfg)
	if err != nil {
		t.Fatalf("checkpoint across rebalances does not restore: %v", err)
	}
	defer r.Close()
	if got := r.Len(); got != streams {
		t.Fatalf("restored %d streams, want %d", got, streams)
	}
	for k := uint64(0); k < streams; k++ {
		if _, ok := r.Stat(k); !ok {
			t.Fatalf("key %d missing from the checkpoint", k)
		}
	}
}
