// Allocation-regression tests: the per-sample hot path of every detector
// must be zero-allocation in steady state (ISSUE 1 tentpole). A regression
// here silently reintroduces GC pressure into the paper's "negligible
// overhead" claim (Table 3), so these are hard assertions, not benchmarks.
package dpd_test

import (
	"bufio"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"dpd"
	"dpd/internal/apps"
	"dpd/internal/core"
	"dpd/internal/obs"
	"dpd/internal/pool"
	"dpd/internal/server"
	"dpd/internal/wire"
)

func TestEventDetectorFeedSteadyStateAllocFree(t *testing.T) {
	det, err := core.NewEventDetector(core.Config{Window: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up past every lag window so all code paths are steady-state.
	for i := 0; i < 3*256; i++ {
		det.Feed(int64(i % 7))
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		det.Feed(int64(i % 7))
		i++
	}); n != 0 {
		t.Fatalf("EventDetector.Feed allocates %.1f objects/op in steady state, want 0", n)
	}
}

func TestMagnitudeDetectorFeedSteadyStateAllocFree(t *testing.T) {
	det, err := core.NewMagnitudeDetector(core.Config{Window: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		det.Feed(float64(i%44) * 0.5)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		det.Feed(float64(i%44) * 0.5)
		i++
	}); n != 0 {
		t.Fatalf("MagnitudeDetector.Feed allocates %.1f objects/op in steady state, want 0", n)
	}
}

func TestMultiScaleDetectorFeedSteadyStateAllocFree(t *testing.T) {
	ms, err := core.NewMultiScaleDetector(nil, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm past the largest ladder window so every level is awake.
	for i := 0; i < 3*1024; i++ {
		ms.Feed(int64(i % 12))
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		ms.Feed(int64(i % 12))
		i++
	}); n != 0 {
		t.Fatalf("MultiScaleDetector.Feed allocates %.1f objects/op in steady state, want 0", n)
	}
}

func TestMultiScaleDetectorBatchPathAllocFree(t *testing.T) {
	ms, err := core.NewMultiScaleDetector(nil, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]int64, 256)
	for i := range batch {
		batch[i] = int64(i % 12)
	}
	var dst []dpd.MultiResult
	// First batches allocate dst and its PerLevel backing; afterwards the
	// recycled dst must make FeedAll fully allocation-free.
	for i := 0; i < 16; i++ {
		dst = ms.FeedAll(batch, dst)
	}
	if n := testing.AllocsPerRun(100, func() {
		dst = ms.FeedAll(batch, dst)
	}); n != 0 {
		t.Fatalf("MultiScaleDetector.FeedAll allocates %.1f objects/op with recycled dst, want 0", n)
	}
}

func TestPoolFeedBatchSteadyStateAllocFree(t *testing.T) {
	p, err := dpd.NewPool(dpd.PoolConfig{Shards: 4, Detector: dpd.Config{Window: 64}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const streams = 512
	batch := make([]dpd.KeyedSample, streams)
	for i := range batch {
		batch[i].Key = uint64(i)
	}
	// Warm past window+lag fill so every stream is locked and every
	// staging buffer, freelist and map bucket has reached steady state.
	round := 0
	feed := func() {
		v := int64(round % 8)
		for j := range batch {
			batch[j].Value = v
		}
		p.FeedBatch(batch)
		round++
	}
	for round < 3*64 {
		feed()
	}
	kept := pool.KeptSamples(p)
	if n := testing.AllocsPerRun(100, feed); n != 0 {
		t.Fatalf("Pool.FeedBatch allocates %.1f objects/op in steady state, want 0", n)
	}
	assertKeptRan(t, p, kept)
}

// assertKeptRan fails unless p's event engines pushed samples through
// their kept loop since it counted kept: an alloc gate whose locked
// streams missed the run path would prove the wrong path.
func assertKeptRan(t *testing.T, p *dpd.Pool, kept uint64) {
	t.Helper()
	if pool.KeptSamples(p) == kept {
		t.Fatal("no sample took the kept loop — the gate proved the wrong path")
	}
}

func TestPoolFeedSteadyStateAllocFree(t *testing.T) {
	p, err := dpd.NewPool(dpd.PoolConfig{Shards: 2, Detector: dpd.Config{Window: 64}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 3*64; i++ {
		p.Feed(7, int64(i%5))
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		p.Feed(7, int64(i%5))
		i++
	}); n != 0 {
		t.Fatalf("Pool.Feed allocates %.1f objects/op in steady state, want 0", n)
	}
}

func TestPoolSnapshotRecycledDstAllocFree(t *testing.T) {
	p, err := dpd.NewPool(dpd.PoolConfig{Shards: 4, Detector: dpd.Config{Window: 32}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	batch := make([]dpd.KeyedSample, 128)
	for i := range batch {
		batch[i] = dpd.KeyedSample{Key: uint64(i), Value: int64(i % 4)}
	}
	p.FeedBatch(batch)
	var dst []dpd.StreamStat
	dst = p.Snapshot(dst)
	if n := testing.AllocsPerRun(100, func() {
		dst = p.Snapshot(dst)
	}); n != 0 {
		t.Fatalf("Pool.Snapshot allocates %.1f objects/op with recycled dst, want 0", n)
	}
}

func TestDPDPredictAllocFree(t *testing.T) {
	d := dpd.NewDPD()
	for i := 0; i < 1100; i++ {
		d.Feed(int64(i % 5))
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := d.Predict(); !ok {
			t.Fatal("no prediction despite lock")
		}
	}); n != 0 {
		t.Fatalf("DPD.Predict allocates %.1f objects/op, want 0", n)
	}
}

func TestDPDBatchPathAllocFree(t *testing.T) {
	d := dpd.NewDPD()
	batch := make([]int64, 256)
	for i := range batch {
		batch[i] = int64(i % 9)
	}
	var dst []dpd.Result
	for i := 0; i < 16; i++ {
		dst = d.FeedAll(batch, dst)
	}
	if n := testing.AllocsPerRun(100, func() {
		dst = d.FeedAll(batch, dst)
	}); n != 0 {
		t.Fatalf("DPD.FeedAll allocates %.1f objects/op with recycled dst, want 0", n)
	}
}

// TestCheckpointReusedBufferAllocFree: serializing an engine into a
// recycled buffer is 0 allocs/op, so a serving loop can checkpoint
// periodically without disturbing its allocation-free feed path. The
// engines are a window-256 event engine and a DefaultLadder engine fed
// the hydro2d trace, which ends in a deferred run of its 1024 level, so
// that level's counts are summed from its rows as they are encoded.
func TestCheckpointReusedBufferAllocFree(t *testing.T) {
	event := dpd.Must(dpd.WithWindow(256))
	for i := 0; i < 3*256; i++ {
		event.Feed(dpd.EventSample(int64(i % 7)))
	}
	ladder := dpd.Must(dpd.WithLadder())
	for _, v := range apps.Hydro2d().Trace().Values {
		ladder.Feed(dpd.EventSample(v))
	}
	for name, det := range map[string]dpd.Detector{"event": event, "hydro2d ladder": ladder} {
		buf, err := dpd.AppendCheckpoint(det, nil)
		if err != nil {
			t.Fatal(err)
		}
		var encErr error
		if n := testing.AllocsPerRun(1000, func() {
			buf, encErr = dpd.AppendCheckpoint(det, buf[:0])
		}); n != 0 {
			t.Fatalf("%s: AppendCheckpoint into a reused buffer allocates %.1f objects/op, want 0", name, n)
		}
		if encErr != nil {
			t.Fatal(encErr)
		}
	}
}

// TestPoolFeedBatchAllocFreeAcrossRebalance: the pool's batch feed path
// returns to 0 allocs/op immediately after a live Rebalance — migrated
// streams land pre-inserted in the new shard maps and the batch staging
// buffers keep their warmed capacities across shard-count changes.
// (testing.AllocsPerRun reads the global allocation counter, so the
// Rebalance calls — which legitimately allocate during migration — run
// between measurements, not inside them; the concurrent-correctness
// side is covered by TestPoolRebalanceUnderConcurrentFeeders in
// internal/pool under -race.)
func TestPoolFeedBatchAllocFreeAcrossRebalance(t *testing.T) {
	p, err := dpd.NewPool(dpd.PoolConfig{Shards: 4, Detector: dpd.Config{Window: 64}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const streams = 256
	batch := make([]dpd.KeyedSample, streams)
	for i := range batch {
		batch[i].Key = uint64(i)
	}
	round := 0
	feed := func() {
		v := int64(round % 8)
		for j := range batch {
			batch[j].Value = v
		}
		p.FeedBatch(batch)
		round++
	}
	warm := func(rounds int) {
		for i := 0; i < rounds; i++ {
			feed()
		}
	}
	warm(3 * 64)
	// Visit both shard shapes once so each shape's staging buffers have
	// grown to steady state.
	for _, n := range []int{6, 4, 6} {
		if err := p.Rebalance(n); err != nil {
			t.Fatal(err)
		}
		warm(4)
	}
	if n := testing.AllocsPerRun(100, feed); n != 0 {
		t.Fatalf("FeedBatch allocates %.1f objects/op at 6 shards after rebalance, want 0", n)
	}
	if err := p.Rebalance(4); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, feed); n != 0 {
		t.Fatalf("FeedBatch allocates %.1f objects/op immediately after rebalancing back to 4 shards, want 0", n)
	}
}

// TestIngestFrameDecodeAllocFree: the serving layer's frame decode path
// is 0 allocs/op in steady state (ISSUE 5) — a reused Frame recycles its
// sample and read buffers, so a connection decoding batch frames adds no
// GC pressure on top of the pool's allocation-free feed path. Both batch
// kinds and the small control frames are covered.
func TestIngestFrameDecodeAllocFree(t *testing.T) {
	var enc server.Enc
	strip := func(frame []byte) []byte {
		var d wire.Dec
		d.Reset(frame)
		d.Uvarint()
		return frame[d.Offset():]
	}
	events := make([]int64, 256)
	mags := make([]float64, 256)
	for i := range events {
		events[i] = int64(i % 9)
		mags[i] = float64(i % 9)
	}
	payloads := [][]byte{
		strip(enc.AppendEventBatch(nil, 42, events)),
		strip((&server.Enc{}).AppendMagnitudeBatch(nil, 43, mags)),
		strip((&server.Enc{}).AppendPing(nil, 7)),
	}
	var f server.Frame
	for _, p := range payloads {
		if err := server.DecodeFrame(p, &f); err != nil { // warm the buffers
			t.Fatal(err)
		}
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		if err := server.DecodeFrame(payloads[i%len(payloads)], &f); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("ingest frame decode allocates %.1f objects/op with a reused Frame, want 0", n)
	}
}

// TestPaperBenchColdStartAllocFree gates the cold-start story of the
// paper's bench table (ISSUE 9 satellite, closing ROADMAP item 4): a
// warmed detector Reset and replayed over a full application trace must
// be allocation-free AND detect exactly what a freshly constructed one
// does. This is what lets BenchmarkFig4DistanceCurve and
// BenchmarkTable2Detection report 0 allocs/op — construction happens
// once, every subsequent replay recycles the detector, the tracker's
// period slots and the significant-period slice.
func TestPaperBenchColdStartAllocFree(t *testing.T) {
	t.Run("fig4-magnitude", func(t *testing.T) {
		tr := apps.FTCPUTrace(50, 20010513)
		det := core.MustMagnitudeDetector(core.Config{Window: 100, Confirm: 3})
		replay := func() core.Result {
			det.Reset()
			var last core.Result
			for _, v := range tr.Samples {
				last = det.Feed(v)
			}
			return last
		}
		fresh := replay() // also warms lazily-grown internals
		if fresh.Period < 43 || fresh.Period > 45 {
			t.Fatalf("period=%d, want ≈44", fresh.Period)
		}
		var last core.Result
		if n := testing.AllocsPerRun(10, func() { last = replay() }); n != 0 {
			t.Fatalf("Fig4 Reset-replay allocates %.1f objects per pass, want 0", n)
		}
		if last != fresh {
			t.Fatalf("Reset-replay diverged: %+v != first pass %+v", last, fresh)
		}
	})
	t.Run("table2-multiscale", func(t *testing.T) {
		app := apps.Turb3d() // nested periodicities: exercises every ladder level
		vals := app.Trace().Values
		ms := core.MustMultiScaleDetector(nil, core.Config{})
		pt := core.NewPeriodTracker()
		var got []int
		replay := func() {
			ms.Reset()
			pt.Reset()
			for _, v := range vals {
				pt.ObserveMulti(ms.Feed(v), ms)
			}
			got = pt.AppendSignificant(8, got[:0])
		}
		replay() // warm the tracker's period slots and the result slice
		check := func() {
			if len(got) != len(app.ExpectPeriods) {
				t.Fatalf("periods %v, want %v", got, app.ExpectPeriods)
			}
			for i, p := range app.ExpectPeriods {
				if got[i] != p {
					t.Fatalf("periods %v, want %v", got, app.ExpectPeriods)
				}
			}
		}
		check()
		if n := testing.AllocsPerRun(5, replay); n != 0 {
			t.Fatalf("Table2 Reset-replay allocates %.1f objects per pass, want 0", n)
		}
		check() // recycled tracker still detects the exact Table 2 set
	})
}

// newSurfaceEngines is the alloc matrix for the unified API: every
// engine constructible through dpd.New, with a steady-state warmup and
// a sample generator.
func newSurfaceEngines() []struct {
	name   string
	opts   []dpd.Option
	warm   int
	sample func(i int) dpd.Sample
} {
	return []struct {
		name   string
		opts   []dpd.Option
		warm   int
		sample func(i int) dpd.Sample
	}{
		{"event", []dpd.Option{dpd.WithWindow(256)}, 3 * 256,
			func(i int) dpd.Sample { return dpd.EventSample(int64(i % 7)) }},
		{"magnitude", []dpd.Option{dpd.WithMagnitude(0.5), dpd.WithWindow(100)}, 500,
			func(i int) dpd.Sample { return dpd.MagnitudeSample(float64(i%44) * 0.5) }},
		{"multiscale", []dpd.Option{dpd.WithLadder()}, 3 * 1024,
			func(i int) dpd.Sample { return dpd.EventSample(int64(i % 12)) }},
		{"adaptive", []dpd.Option{dpd.WithAdaptive(dpd.DefaultAdaptivePolicy())}, 3 * 1024,
			func(i int) dpd.Sample { return dpd.EventSample(int64(i % 9)) }},
	}
}

// TestNewDetectorFeedSteadyStateAllocFree: dpd.New(...).Feed is 0
// allocs/op in steady state for every engine — the unified interface
// adds no boxing or bookkeeping allocation over the raw detectors.
func TestNewDetectorFeedSteadyStateAllocFree(t *testing.T) {
	for _, tc := range newSurfaceEngines() {
		t.Run(tc.name, func(t *testing.T) {
			det := dpd.Must(tc.opts...)
			for i := 0; i < tc.warm; i++ {
				det.Feed(tc.sample(i))
			}
			i := tc.warm
			if n := testing.AllocsPerRun(1000, func() {
				det.Feed(tc.sample(i))
				i++
			}); n != 0 {
				t.Fatalf("%s engine Feed allocates %.1f objects/op in steady state, want 0", tc.name, n)
			}
		})
	}
}

// TestObserverDispatchAllocFree: observer dispatch reuses the engine's
// Event scratch, so a subscribed detector stays 0 allocs/op even while
// callbacks fire on every sample (period-2 stream: a segment start
// every other sample).
func TestObserverDispatchAllocFree(t *testing.T) {
	var starts, locks, unlocks uint64
	obs := dpd.ObserverFuncs{
		Lock:         func(e *dpd.Event) { locks++ },
		SegmentStart: func(e *dpd.Event) { starts++ },
		Unlock:       func(e *dpd.Event) { unlocks++ },
	}
	for _, tc := range newSurfaceEngines() {
		t.Run(tc.name, func(t *testing.T) {
			det := dpd.Must(append(tc.opts, dpd.WithObserver(obs))...)
			for i := 0; i < tc.warm; i++ {
				det.Feed(tc.sample(i))
			}
			before := starts
			i := tc.warm
			if n := testing.AllocsPerRun(1000, func() {
				det.Feed(tc.sample(i))
				i++
			}); n != 0 {
				t.Fatalf("%s engine with observer allocates %.1f objects/op, want 0", tc.name, n)
			}
			if starts == before {
				t.Fatalf("%s engine: observer saw no segment starts during the alloc run", tc.name)
			}
		})
	}
}

// TestSnapshotAllocFree: Snapshot is a read-only value copy on every
// engine, safe on serving paths.
func TestSnapshotAllocFree(t *testing.T) {
	for _, tc := range newSurfaceEngines() {
		det := dpd.Must(tc.opts...)
		for i := 0; i < tc.warm; i++ {
			det.Feed(tc.sample(i))
		}
		if n := testing.AllocsPerRun(1000, func() {
			_ = det.Snapshot()
		}); n != 0 {
			t.Fatalf("%s engine Snapshot allocates %.1f objects/op, want 0", tc.name, n)
		}
	}
}

// TestPoolInjectedEnginesFeedBatchAllocFree: pooled magnitude and
// multi-scale streams stay 0 allocs/op through the sharded batch path.
func TestPoolInjectedEnginesFeedBatchAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory func() dpd.Detector
		sample  func(round int) dpd.Sample
		warm    int
	}{
		{
			"magnitude",
			func() dpd.Detector { return dpd.Must(dpd.WithMagnitude(0.5), dpd.WithWindow(64)) },
			func(r int) dpd.Sample { return dpd.MagnitudeSample(float64(r % 8)) },
			3 * 64,
		},
		{
			"multiscale",
			func() dpd.Detector { return dpd.Must(dpd.WithLadder(8, 64)) },
			func(r int) dpd.Sample { return dpd.EventSample(int64(r % 8)) },
			3 * 64,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := dpd.NewPool(dpd.PoolConfig{Shards: 4, NewDetector: tc.factory})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			const streams = 256
			batch := make([]dpd.KeyedSample, streams)
			for i := range batch {
				batch[i].Key = uint64(i)
			}
			round := 0
			feed := func() {
				s := tc.sample(round)
				for j := range batch {
					batch[j].Value, batch[j].Magnitude = s.Value, s.Magnitude
				}
				p.FeedBatch(batch)
				round++
			}
			for round < tc.warm {
				feed()
			}
			if n := testing.AllocsPerRun(100, feed); n != 0 {
				t.Fatalf("pooled %s FeedBatch allocates %.1f objects/op in steady state, want 0", tc.name, n)
			}
		})
	}
}

// TestPoolFeedBatchInstrumentedAllocFree: the PR 10 observability core
// must not cost the feed path its zero-allocation guarantee — FeedBatch
// with the flight recorder wired and the sampled latency histogram
// electing every batch (stride 1, the worst case) stays 0 allocs/op.
func TestPoolFeedBatchInstrumentedAllocFree(t *testing.T) {
	lat := obs.NewSampledHist(1) // every call elected: worst-case timing cost
	p, err := dpd.NewPool(dpd.PoolConfig{
		Shards:      4,
		Detector:    dpd.Config{Window: 64},
		Recorder:    obs.NewRecorder(256),
		FeedLatency: lat,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const streams = 512
	batch := make([]dpd.KeyedSample, streams)
	for i := range batch {
		batch[i].Key = uint64(i)
	}
	round := 0
	feed := func() {
		v := int64(round % 8)
		for j := range batch {
			batch[j].Value = v
		}
		p.FeedBatch(batch)
		round++
	}
	for round < 3*64 {
		feed()
	}
	if n := testing.AllocsPerRun(100, feed); n != 0 {
		t.Fatalf("instrumented Pool.FeedBatch allocates %.1f objects/op in steady state, want 0", n)
	}
	if got := lat.Stat().Count; got == 0 {
		t.Fatal("latency histogram observed nothing — the gate proved the wrong path")
	}
}

// TestIngestInstrumentedDecodeAllocFree: the instrumented ingest inner
// loop — frame decode plus the strided election, timestamp stamp and
// latency observation PR 10 added around it — is 0 allocs/op with a
// reused Frame.
func TestIngestInstrumentedDecodeAllocFree(t *testing.T) {
	var enc server.Enc
	strip := func(frame []byte) []byte {
		var d wire.Dec
		d.Reset(frame)
		d.Uvarint()
		return frame[d.Offset():]
	}
	events := make([]int64, 256)
	for i := range events {
		events[i] = int64(i % 9)
	}
	payload := strip(enc.AppendEventBatch(nil, 42, events))
	ingest := obs.NewSampledHist(obs.DefaultIngestEvery)
	var f server.Frame
	if err := server.DecodeFrame(payload, &f); err != nil { // warm the buffers
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		var t0 time.Time
		if ingest.Sampled() {
			t0 = time.Now()
		}
		if err := server.DecodeFrame(payload, &f); err != nil {
			t.Fatal(err)
		}
		if !t0.IsZero() {
			ingest.Observe(time.Since(t0))
		}
	}); n != 0 {
		t.Fatalf("instrumented ingest decode allocates %.1f objects/op, want 0", n)
	}
	if got := ingest.Stat().Count; got == 0 {
		t.Fatal("ingest histogram observed nothing — the gate proved the wrong path")
	}
}

// TestPoolFeedBatchAsyncSteadyStateAllocFree: the pipelined batch path —
// FeedBatchAsync with a cached done, one wire-shaped single-key batch
// per key, the latency histogram electing every batch, then a drain —
// stays 0 allocs/op in steady state.
func TestPoolFeedBatchAsyncSteadyStateAllocFree(t *testing.T) {
	lat := obs.NewSampledHist(1)
	p, err := dpd.NewPool(dpd.PoolConfig{Shards: 2, Detector: dpd.Config{Window: 64}, FeedLatency: lat})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	done := wg.Done
	batch := make([]dpd.KeyedSample, 64)
	round := 0
	feed := func() {
		for key := uint64(0); key < 8; key++ {
			for j := range batch {
				batch[j] = dpd.KeyedSample{Key: key, Value: int64((round*len(batch) + j) % 6)}
			}
			wg.Add(1)
			p.FeedBatchAsync(batch, done)
		}
		wg.Wait()
		round++
	}
	for round < 3*64 {
		feed()
	}
	kept := pool.KeptSamples(p)
	if n := testing.AllocsPerRun(100, feed); n != 0 {
		t.Fatalf("Pool.FeedBatchAsync allocates %.1f objects/op in steady state, want 0", n)
	}
	assertKeptRan(t, p, kept)
	if got := lat.Stat().Count; got == 0 {
		t.Fatal("latency histogram observed nothing — the gate proved the wrong path")
	}
}

// TestIngestFeederAllocFree: a connection's whole ingest path over
// loopback — reader, pipelined feeder, the drain before a pong, and the
// writer — is 0 allocs/op in steady state: eight single-key batch
// frames and a ping per op, answered by the pong.
func TestIngestFeederAllocFree(t *testing.T) {
	s, err := server.New(server.Config{
		IngestAddr: "127.0.0.1:0",
		Pool:       dpd.PoolConfig{Shards: 2, Detector: dpd.Config{Window: 64}},
		Logf:       func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	if _, err := nc.Write(server.AppendPreamble(nil)); err != nil {
		t.Fatal(err)
	}

	var enc server.Enc
	var out, in []byte
	var sf server.ServerFrame
	values := make([]int64, 64)
	token := uint64(0)
	op := func() {
		out = out[:0]
		for key := uint64(0); key < 8; key++ {
			for j := range values {
				values[j] = int64((int(token)*len(values) + j) % 6)
			}
			out = enc.AppendEventBatch(out, key, values)
		}
		token++
		out = enc.AppendPing(out, token)
		if _, err := nc.Write(out); err != nil {
			t.Fatal(err)
		}
		for {
			in, err = wire.ReadFrame(br, server.MaxFrame, in[:cap(in)])
			if err != nil {
				t.Fatal(err)
			}
			if err := server.DecodeServerFrame(in, &sf); err != nil {
				t.Fatal(err)
			}
			if sf.Kind == server.KindPong {
				if sf.Token != token {
					t.Fatalf("pong %d, want %d", sf.Token, token)
				}
				return
			}
		}
	}
	for token < 3*64 {
		op()
	}
	kept := pool.KeptSamples(s.Pool())
	if n := testing.AllocsPerRun(100, op); n != 0 {
		t.Fatalf("ingest feeder path allocates %.1f objects/op in steady state, want 0", n)
	}
	assertKeptRan(t, s.Pool(), kept)
}
