package pool

import (
	"sync"
	"sync/atomic"
	"testing"

	"dpd/internal/core"
)

// periodValue is sample i of key's stream: the per-key period pattern
// replayEvent replays.
func periodValue(key uint64, i int) int64 { return int64(i % (2 + int(key%5))) }

// TestFeedBatchAsyncMatchesStandalone: one goroutine pipelines batches
// through FeedBatchAsync, reusing one batch buffer: consecutive
// single-key batches, and mixed batches whose same-key runs interleave
// (A A B A). A Rebalance, a promotion and an EvictIdle happen while
// batches are in flight. Every stream must end byte-identical to a
// standalone engine fed its own subsequence, and every done must run
// exactly once.
func TestFeedBatchAsyncMatchesStandalone(t *testing.T) {
	p := Must(Config{Shards: 2, Detector: core.Config{Window: 32}, Adaptive: adaptiveTestConfig()})
	defer p.Close()

	const hotKey = uint64(7)
	cold := []uint64{1, 2, 3, 4, 100, 2001}
	// The dead key stops at round 50 and must be evicted at round 80:
	// it shares its post-rebalance shard with a live key, so that
	// shard's clock keeps running past it.
	dead := uint64(500)
	for shardIndex(dead, 3) != shardIndex(cold[0], 3) {
		dead++
	}
	const ttl = 300 // above any live key's idle gap, below the dead key's

	fed := map[uint64]int{}
	var wg sync.WaitGroup
	var calls atomic.Int64
	done := func() { calls.Add(1); wg.Done() }
	batch := make([]KeyedSample, 0, 128)
	add := func(key uint64, n int) {
		for i := 0; i < n; i++ {
			batch = append(batch, KeyedSample{Key: key, Value: periodValue(key, fed[key])})
			fed[key]++
		}
	}
	submitted := 0
	submit := func() {
		wg.Add(1)
		submitted++
		p.FeedBatchAsync(batch, done)
		batch = batch[:0] // staged: the buffer is free again
	}

	evicted := 0
	for r := 0; r < 100; r++ {
		add(hotKey, 64)
		submit()
		for _, k := range cold {
			add(k, 8)
			submit()
		}
		add(cold[0], 8) // a second consecutive batch of one key
		submit()
		a, b := cold[r%len(cold)], cold[(r+1)%len(cold)]
		add(a, 2)
		add(b, 1)
		add(a, 1)
		add(hotKey, 3)
		add(b, 2)
		if r < 50 {
			add(dead, 2)
		}
		submit()
		switch r {
		case 30:
			if err := p.Rebalance(3); err != nil {
				t.Fatal(err)
			}
		case 60:
			steps(p, 1)
			if st := p.AdaptiveStats(); st.HotStreams != 1 || st.Hot[0].Key != hotKey {
				t.Fatalf("expected %d promoted mid-stream, got %+v", hotKey, st)
			}
		case 80:
			evicted = p.EvictIdle(ttl)
		}
	}
	wg.Wait()
	if got := calls.Load(); got != int64(submitted) {
		t.Fatalf("done ran %d times for %d batches", got, submitted)
	}
	if evicted != 1 {
		t.Fatalf("EvictIdle evicted %d streams mid-stream, want 1 (the dead key)", evicted)
	}
	if _, ok := p.Stat(dead); ok {
		t.Fatalf("dead key %d survived EvictIdle", dead)
	}
	for _, key := range append([]uint64{hotKey}, cold...) {
		requireIdentical(t, p, key, fed[key])
	}
}

// TestFeedBatchAsyncEmptyAndClose: an empty batch calls done before
// returning, a nil done is no callback, and Close waits out batches
// still in flight, so every done has run once it returns.
func TestFeedBatchAsyncEmptyAndClose(t *testing.T) {
	p := Must(Config{Shards: 2, Detector: core.Config{Window: 32}})
	ran := false
	p.FeedBatchAsync(nil, func() { ran = true })
	if !ran {
		t.Fatal("empty batch did not call done before returning")
	}
	p.FeedBatchAsync([]KeyedSample{{Key: 9}}, nil) // nil done: no callback, no hang
	var calls atomic.Int64
	batch := make([]KeyedSample, 64)
	for i := 0; i < 200; i++ {
		for j := range batch {
			batch[j] = KeyedSample{Key: uint64(j % 5), Value: int64(i % 3)}
		}
		p.FeedBatchAsync(batch, func() { calls.Add(1) })
	}
	p.Close()
	if got := calls.Load(); got != 200 {
		t.Fatalf("%d of 200 done callbacks ran before Close returned", got)
	}
	if n := p.Len(); n != 6 {
		t.Fatalf("Len %d after Close, want 6", n)
	}
}

// TestSamplerAdvanceMatchesPerSample: advancing the countdown by a run
// length elects exactly the calls that per-sample decrements elect —
// same sketch, same countdown, same RNG state after every run, for
// strides from every call to 1 in 64.
func TestSamplerAdvanceMatchesPerSample(t *testing.T) {
	for _, stride := range []int{1, 2, 8, 64} {
		run := newSampler(16, stride, 42)
		ref := newSampler(16, stride, 42)
		x := uint64(0x2545f4914f6cdd1d)
		for i := 0; i < 5000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			key, n := x%11, int(x>>20%150)+1
			run.advance(key, n)
			for j := 0; j < n; j++ {
				if ref.wait--; ref.wait == 0 {
					ref.observe(key)
					ref.reload()
				}
			}
			if run.wait != ref.wait || run.rng != ref.rng {
				t.Fatalf("stride %d run %d: countdown %d/rng %x, per-sample %d/%x",
					stride, i, run.wait, run.rng, ref.wait, ref.rng)
			}
		}
		for i := range ref.slots {
			if run.slots[i] != ref.slots[i] {
				t.Fatalf("stride %d slot %d: %+v, per-sample %+v", stride, i, run.slots[i], ref.slots[i])
			}
		}
	}
}

// TestPoolRunResolutionSamplesAsPerSample: a pool whose workers resolve
// same-key runs leaves every shard's contention sketch, countdown and
// clock exactly where a pool fed the same samples one Feed at a time
// leaves them.
func TestPoolRunResolutionSamplesAsPerSample(t *testing.T) {
	ad := adaptiveTestConfig()
	ad.SampleEvery = 8
	cfg := Config{Shards: 2, Detector: core.Config{Window: 32}, Adaptive: ad}
	runs, single := Must(cfg), Must(cfg)
	defer runs.Close()
	defer single.Close()

	fed := map[uint64]int{}
	var batch []KeyedSample
	x := uint64(0x9e3779b97f4a7c15)
	for b := 0; b < 400; b++ {
		batch = batch[:0]
		for len(batch) < 96 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			key, n := x%13, int(x>>16%20)+1
			for i := 0; i < n; i++ {
				batch = append(batch, KeyedSample{Key: key, Value: periodValue(key, fed[key])})
				fed[key]++
			}
		}
		runs.FeedBatch(batch)
		for _, ks := range batch {
			single.Feed(ks.Key, ks.Value)
		}
	}
	for i := range runs.shards {
		a, b := runs.shards[i], single.shards[i]
		a.mu.Lock()
		b.mu.Lock()
		if a.clock != b.clock || a.samp.wait != b.samp.wait || a.samp.rng != b.samp.rng {
			t.Errorf("shard %d: clock %d countdown %d rng %x, per-sample %d %d %x",
				i, a.clock, a.samp.wait, a.samp.rng, b.clock, b.samp.wait, b.samp.rng)
		}
		for j := range a.samp.slots {
			if a.samp.slots[j] != b.samp.slots[j] {
				t.Errorf("shard %d slot %d: %+v, per-sample %+v", i, j, a.samp.slots[j], b.samp.slots[j])
			}
		}
		for key, st := range a.streams {
			if st.lastFed != b.streams[key].lastFed {
				t.Errorf("stream %d lastFed %d, per-sample %d", key, st.lastFed, b.streams[key].lastFed)
			}
		}
		b.mu.Unlock()
		a.mu.Unlock()
	}
	for key, n := range fed {
		if st, _ := runs.Stat(key); st.Stat != replayEvent(t, key, n).Snapshot() {
			t.Fatalf("stream %d diverged from its standalone replay", key)
		}
	}
}
