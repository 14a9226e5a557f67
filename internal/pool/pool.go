// Package pool serves many concurrent keyed data series through one
// sharded detector pool — the step from the paper's single-application
// DPD to a runtime system that watches every application of a
// multiprogrammed workload at once.
//
// Streams are identified by a uint64 key (for the paper's use case, a
// process or application id). Keys are hashed across a fixed set of
// shards; each shard owns a map of per-stream detector states and is
// drained by a dedicated worker goroutine, so the feed path takes no
// global lock. Batches handed to FeedBatch (or, without waiting for
// them to be applied, FeedBatchAsync) are partitioned into per-shard
// runs through recycled batch groups, keeping the steady-state
// per-sample path allocation-free end to end (the property PR 1
// established for a single detector). Expired streams are evicted by an
// idle-TTL sweep and their detector state is recycled through a per-shard
// freelist rather than released to the garbage collector.
package pool

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpd/internal/core"
	"dpd/internal/obs"
)

// KeyedSample is one sample of one keyed stream: the unit of work of the
// multi-stream feed path.
type KeyedSample struct {
	// Key identifies the stream (e.g. an application or process id).
	Key uint64
	// Value is the event sample (e.g. an encapsulated-loop address),
	// consumed by event, multi-scale and adaptive engines.
	Value int64
	// Magnitude is the magnitude sample (e.g. a CPU count), consumed by
	// magnitude engines (pools built with a NewDetector magnitude
	// factory).
	Magnitude float64
}

// sample converts the keyed sample to the unified detector unit.
func (ks KeyedSample) sample() core.Sample {
	return core.Sample{Value: ks.Value, Magnitude: ks.Magnitude}
}

// Config parameterizes a Pool. The zero value selects GOMAXPROCS shards,
// the paper-default per-stream event detector, and no idle eviction.
type Config struct {
	// Shards is the number of independent workers the key space is hashed
	// across; 0 selects runtime.GOMAXPROCS(0).
	Shards int
	// NewDetector, when non-nil, constructs each stream's detector
	// engine: the pool is generic over the unified core.Detector
	// interface, so pooled streams can run event, magnitude,
	// multi-scale or adaptive engines. The factory must return a fresh
	// independent detector on every call and is invoked from shard
	// workers (it must be safe for concurrent use; pure constructors
	// are). When nil, streams run the event engine configured by
	// Detector.
	NewDetector func() core.Detector
	// Detector configures the per-stream event detector (paper eq. 2)
	// when NewDetector is nil.
	Detector core.Config
	// StreamObserver, when non-nil, is consulted every time a stream is
	// materialized — first sample of a new key, checkpoint restore,
	// rebalance migration, or recycle from the eviction freelist — with
	// the stream's key, and the Observer it returns (nil for none) is
	// attached to that stream's detector. This is the hook a serving
	// layer uses to push per-key lock/period events to subscribers
	// without polling. Returned observers run on shard workers with the
	// shard lock held: they must be cheap, allocation-free and must not
	// call back into the Pool. Detectors that do not implement
	// SetObserver (custom engines) are served without one.
	StreamObserver func(key uint64) core.Observer
	// IdleTTL, when non-zero, expires a stream after it has gone more
	// than IdleTTL shard samples without being fed (a shard sample is one
	// sample processed by the stream's shard, so the TTL scales with the
	// shard's own traffic). Evicted detector state is recycled.
	IdleTTL uint64
	// SweepEvery is how often (in shard samples) a shard scans for idle
	// streams; 0 selects DefaultSweepEvery. Only meaningful with IdleTTL.
	SweepEvery uint64
	// Inflight bounds the number of batches (FeedBatch and
	// FeedBatchAsync together) in flight at once before callers block
	// (backpressure); a single FeedBatchAsync caller can hold all of
	// them. 0 selects 2×Shards, minimum 4.
	Inflight int
	// Adaptive configures contention-adaptive hot-stream placement:
	// per-shard feed-rate sampling, and promotion of celebrity streams
	// onto dedicated pinned workers when their share of traffic crosses
	// a threshold (demotion when they cool). The zero value disables the
	// tier. See AdaptiveConfig.
	Adaptive AdaptiveConfig
	// Recorder, when non-nil, receives flight-recorder events for the
	// pool's cold transitions: promotions, demotions and rebalances.
	// Nothing is recorded per sample or per batch.
	Recorder *obs.Recorder
	// FeedLatency, when non-nil, samples batch durations from dispatch
	// until the last run is applied, queue wait included (strided:
	// 1-in-SampleEvery batches pay for two clock reads; the rest pay one
	// atomic add). The serving layer surfaces its quantiles in /metrics.
	FeedLatency *obs.SampledHist
}

// DefaultSweepEvery is the default idle-sweep cadence in shard samples.
const DefaultSweepEvery = 1024

// MaxShards bounds Config.Shards; beyond this the per-shard fixed cost
// dwarfs any conceivable parallelism win.
const MaxShards = 1 << 12

// StreamStat is a point-in-time, read-only view of one stream: the
// unified core.Stat (samples, lock, period, confidence, segment
// boundaries, prediction) plus the stream's key, captured without
// stalling ingest on other shards.
type StreamStat struct {
	// Key identifies the stream.
	Key uint64
	// Stat is the stream's detector snapshot; its fields (Samples,
	// Locked, Period, Starts, LastStart, Predicted, PredictedValid, …)
	// are promoted onto StreamStat.
	core.Stat
}

// Pool owns many keyed streams, one event detector per stream, sharded
// across worker goroutines. Feed and FeedBatch may be called from any
// number of goroutines concurrently, as may FeedBatchAsync; Close must
// not race with them.
//
// The shard set itself is a runtime knob: Rebalance migrates every
// stream to a new shard count by serializing its detector state through
// the checkpoint codec. The gate below is the phase switch that makes
// that safe — feed and read paths hold it shared (cheap, concurrent; a
// batch holds it until its last run is applied), while Rebalance and
// Close hold it exclusively, which both blocks new batches and waits out
// in-flight ones before the shard table changes.
type Pool struct {
	gate     sync.RWMutex
	shards   []*shard
	groups   chan *group // freelist of recycled batch groups
	cfg      Config      // normalized construction config (shard factory)
	wg       sync.WaitGroup
	closed   atomic.Bool
	closedCh chan struct{} // closed when Close has fully drained the workers

	// hot is the adaptive-placement tier root; nil when Config.Adaptive
	// is disabled, so the cold configuration pays one nil check per
	// batch.
	hot *adaptiveState

	// evictedBase carries the eviction totals of shard generations
	// retired by Rebalance, so Evicted stays monotonic across shard-count
	// changes. Written under the exclusive gate, read under the shared
	// gate.
	evictedBase uint64
}

// group is one in-flight batch: per-shard staging buffers (plus
// per-hot-slot staging buffers when the adaptive tier is on) and the
// completion countdown. A group holds the shared gate from dispatch
// until its last run is applied. Groups are recycled through Pool.groups
// so the steady-state batch path performs no allocation.
type group struct {
	perShard [][]KeyedSample
	perHot   [][]KeyedSample // indexed by hot slot; nil when adaptive is off
	pending  atomic.Int32
	t0       time.Time     // dispatch time of a latency-elected batch; zero otherwise
	onDone   func()        // FeedBatchAsync's completion; nil for FeedBatch
	done     chan struct{} // wakes the FeedBatch caller
}

// New returns a started pool. The detector configuration (or injected
// factory) is validated eagerly so that stream creation inside the
// shard workers cannot fail.
func New(cfg Config) (*Pool, error) {
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards < 1 || cfg.Shards > MaxShards {
		return nil, fmt.Errorf("pool: shards %d outside [1,%d]", cfg.Shards, MaxShards)
	}
	if cfg.NewDetector == nil {
		// Validate once, then capture the validated event configuration
		// in the default factory.
		if _, err := core.NewEventDetector(cfg.Detector); err != nil {
			return nil, err
		}
		detCfg := cfg.Detector
		cfg.NewDetector = func() core.Detector {
			eng, err := core.NewEventEngineConfig(detCfg)
			if err != nil {
				panic(err) // validated above; cannot happen
			}
			return eng
		}
	} else if probe := cfg.NewDetector(); probe == nil {
		return nil, fmt.Errorf("pool: NewDetector factory returned nil")
	}
	if cfg.SweepEvery == 0 {
		cfg.SweepEvery = DefaultSweepEvery
	}
	if cfg.Inflight == 0 {
		cfg.Inflight = 2 * cfg.Shards
	}
	if cfg.Inflight < 4 {
		cfg.Inflight = 4
	}
	if cfg.Adaptive.Enable {
		if err := cfg.Adaptive.normalize(); err != nil {
			return nil, err
		}
	}

	p := &Pool{
		shards:   make([]*shard, cfg.Shards),
		groups:   make(chan *group, cfg.Inflight),
		cfg:      cfg,
		closedCh: make(chan struct{}),
	}
	if cfg.Adaptive.Enable {
		p.hot = newAdaptiveState(cfg.Adaptive)
	}
	for i := range p.shards {
		p.shards[i] = newShard(cfg, i)
		p.wg.Add(1)
		go p.worker(p.shards[i])
	}
	for i := 0; i < cfg.Inflight; i++ {
		g := &group{
			perShard: make([][]KeyedSample, cfg.Shards),
			done:     make(chan struct{}, 1),
		}
		if p.hot != nil {
			g.perHot = make([][]KeyedSample, cfg.Adaptive.MaxHot)
		}
		p.groups <- g
	}
	if p.hot != nil {
		p.hot.lastFold = time.Now()
		go p.coordinator()
	}
	return p, nil
}

// Must is New that panics on configuration errors; for static
// configurations in examples and benchmarks.
func Must(cfg Config) *Pool {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// shardIndex maps a stream key to a shard index among n shards: a
// splitmix64-style finalizer for avalanche, then a multiply-shift range
// reduction so no modulo sits on the partition path. It is a pure
// function of (key, n), which is what lets Rebalance compute the new
// placement of every stream before the shard table is swapped.
func shardIndex(key uint64, n int) int {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	key *= 0xc4ceb9fe1a85ec53
	key ^= key >> 33
	return int(uint64(uint32(key)) * uint64(n) >> 32)
}

// shardOf maps a stream key to its current shard index. Callers hold
// the gate (shared or exclusive), so the shard table cannot move
// underneath the lookup.
func (p *Pool) shardOf(key uint64) int { return shardIndex(key, len(p.shards)) }

// Feed processes one keyed event sample synchronously on the caller's
// goroutine (bypassing the shard worker queue) and returns the stream's
// detection result. Per-key ordering with concurrent FeedBatch traffic on
// the same key is the caller's responsibility. For magnitude engines use
// FeedSample.
func (p *Pool) Feed(key uint64, v int64) core.Result {
	return p.FeedSample(key, core.Sample{Value: v})
}

// FeedSample is Feed for the unified sample type: the entry point for
// pooled magnitude streams (Sample.Magnitude) and generally for any
// injected engine. Like FeedBatch, calling it on a closed pool panics.
func (p *Pool) FeedSample(key uint64, s core.Sample) core.Result {
	if p.closed.Load() {
		panic("pool: Feed on a closed Pool")
	}
	p.gate.RLock()
	if a := p.hot; a != nil && a.table.n > 0 {
		if hs := a.table.find(key); hs != nil {
			// Hot stream: feed on the caller's goroutine under the
			// stream mutex (the worker holds it only while draining
			// ring runs, so the synchronous path serializes correctly).
			hs.mu.Lock()
			r := hs.det.Feed(s)
			hs.fed++
			hs.window++
			hs.mu.Unlock()
			p.gate.RUnlock()
			return r
		}
	}
	sh := p.shards[p.shardOf(key)]
	sh.mu.Lock()
	r := sh.feedLocked(key, s)
	sh.maybeSweep()
	sh.mu.Unlock()
	p.gate.RUnlock()
	return r
}

// FeedBatch partitions a batch of keyed samples across the shard workers
// and blocks until every sample has been applied; calling it on a closed
// pool panics. Samples of the same key are processed in batch order. The
// batch slice is not retained. The steady-state path (all streams
// already exist, staging buffers warmed) performs no allocation. At most
// Config.Inflight batches, FeedBatch and FeedBatchAsync together, are in
// flight at once before callers block.
func (p *Pool) FeedBatch(batch []KeyedSample) {
	if len(batch) == 0 {
		return
	}
	g := p.dispatch(batch, nil)
	<-g.done
	p.release(g)
}

// FeedBatchAsync is FeedBatch without the wait: it returns once the
// batch is staged on the shard queues (and the slice may be reused), and
// the worker that applies the batch's last sample calls done, after the
// batch's in-flight slot is recycled. Batches submitted one after
// another from one goroutine are applied in submission order per key,
// and the shard workers apply different keys concurrently, so a single
// feeder can keep every shard busy with up to Config.Inflight batches in
// flight. done runs on a pool worker: it must be cheap, must not block
// and must not call back into the Pool; nil means no callback. An empty
// batch calls done before returning. Rebalance, Close and hot-set
// changes wait until every submitted batch is applied.
func (p *Pool) FeedBatchAsync(batch []KeyedSample, done func()) {
	if done == nil {
		done = func() {} // a nil onDone would mark a FeedBatch group
	}
	if len(batch) == 0 {
		done()
		return
	}
	p.dispatch(batch, done)
}

// dispatch is the one partitioning path behind FeedBatch and
// FeedBatchAsync. It takes the shared gate and a recycled group, stages
// batch into per-shard (and per-hot-slot) runs and hands each run to its
// worker. The gate stays held until the group's last run is applied:
// runDone then either wakes the FeedBatch caller (onDone nil; the
// returned group is the caller's to release) or releases the group
// itself and calls onDone (the returned group must not be touched).
func (p *Pool) dispatch(batch []KeyedSample, onDone func()) *group {
	if p.closed.Load() {
		panic("pool: FeedBatch on a closed Pool")
	}
	// Strided latency sample: an elected batch reads the clock here and
	// once more when its last run is applied; every other batch pays one
	// atomic add. Neither side allocates, preserving the 0 allocs/op
	// contract with instrumentation enabled.
	var t0 time.Time
	if p.cfg.FeedLatency.Sampled() {
		t0 = time.Now()
	}
	p.gate.RLock()
	g := <-p.groups
	g.t0, g.onDone = t0, onDone
	// Hot-set split: when the adaptive tier is on AND something is
	// promoted, promoted keys are peeled off into per-slot staging
	// before shard partitioning — one predictable nil-check branch plus
	// an open-addressed array probe on the cold path. With an empty hot
	// set (the usual well-behaved-workload state) tbl stays nil and the
	// loop is byte-for-byte the non-adaptive one. The table pointer is
	// stable for the duration of the shared gate (hot-set changes hold
	// it exclusively). Placement is resolved once per same-key run: a
	// wire batch is a single run.
	var tbl *hotTable
	if a := p.hot; a != nil && a.table.n > 0 {
		tbl = a.table
	}
	for rest := batch; len(rest) > 0; {
		run := rest[:keyRun(rest)]
		rest = rest[len(run):]
		if tbl != nil {
			if hs := tbl.find(run[0].Key); hs != nil {
				g.perHot[hs.slot] = append(g.perHot[hs.slot], run...)
				continue
			}
		}
		i := p.shardOf(run[0].Key)
		g.perShard[i] = append(g.perShard[i], run...)
	}
	// The dispatcher holds one count of its own until every run is
	// handed out: without it a fast worker could finish (and recycle)
	// the group while the loops below still read its staging buffers.
	active := int32(1)
	for _, run := range g.perShard {
		if len(run) > 0 {
			active++
		}
	}
	if tbl != nil {
		for _, run := range g.perHot {
			if len(run) > 0 {
				active++
			}
		}
	}
	g.pending.Store(active)
	for i, samples := range g.perShard {
		if len(samples) > 0 {
			p.shards[i].in <- shardRun{samples: samples, g: g}
		}
	}
	if tbl != nil {
		for slot, samples := range g.perHot {
			if len(samples) > 0 {
				// slots[slot] is exactly the stream the table resolved:
				// both are immutable under the shared gate.
				p.hot.slots[slot].ring.push(hotRun{samples: samples, g: g})
			}
		}
	}
	p.runDone(g)
	return g
}

// runDone counts one applied run (or the dispatcher's own count) off g
// and finishes the group when it was the last.
func (p *Pool) runDone(g *group) {
	if g.pending.Add(-1) != 0 {
		return
	}
	if g.onDone == nil {
		g.done <- struct{}{} // the FeedBatch caller releases the group
		return
	}
	done := g.onDone
	p.release(g)
	done()
}

// release records an elected batch's latency, resets and recycles the
// group, and drops the shared gate its dispatch took.
func (p *Pool) release(g *group) {
	if !g.t0.IsZero() {
		p.cfg.FeedLatency.Observe(time.Since(g.t0))
	}
	for i := range g.perShard {
		g.perShard[i] = g.perShard[i][:0]
	}
	for i := range g.perHot {
		g.perHot[i] = g.perHot[i][:0]
	}
	g.t0, g.onDone = time.Time{}, nil
	p.groups <- g
	p.gate.RUnlock()
}

// keyRun returns the length of the same-key run that starts s (s is
// not empty).
func keyRun(s []KeyedSample) int {
	n := 1
	for n < len(s) && s[n].Key == s[0].Key {
		n++
	}
	return n
}

// worker drains one shard's run queue until Close. A wire batch carries
// one key, so a shard run is usually one same-key run: each is resolved
// with a single stream lookup.
func (p *Pool) worker(sh *shard) {
	defer p.wg.Done()
	for r := range sh.in {
		sh.mu.Lock()
		for s := r.samples; len(s) > 0; {
			n := keyRun(s)
			sh.feedRunLocked(s[:n])
			s = s[n:]
		}
		sh.maybeSweep()
		sh.mu.Unlock()
		p.runDone(r.g)
	}
}

// Snapshot appends one StreamStat per live stream to dst (recycled like
// append) and returns the filled slice. Shards are locked one at a time,
// so ingest continues on every other shard while one is read; stream
// order is unspecified — sort by Key if a stable order is needed.
func (p *Pool) Snapshot(dst []StreamStat) []StreamStat {
	dst = dst[:0]
	p.eachStream(func(key uint64, det core.Detector) {
		dst = append(dst, StreamStat{Key: key, Stat: det.Snapshot()})
	})
	return dst
}

// SnapshotPage appends to dst (recycled like append) the stats of up to
// limit live streams whose keys are at least from, in ascending key
// order — the enumeration hook a query plane pages a large pool with:
// request (0, limit), then (next, limit) until more comes back false.
// The (next, more) cursor is computed from the key selection itself, so
// a stream evicted mid-page shortens that page without silently ending
// the enumeration — "short page" and "last page" are distinct signals.
//
// Selection runs in two passes so shard locks never cover page
// assembly: first the limit smallest qualifying keys are chosen with a
// bounded max-heap (O(streams·log limit) on bare keys, shards locked
// one at a time), then each key's Stat is captured. Like Snapshot, the
// pool-wide view is slightly time-skewed: a stream created behind the
// cursor during paging is missed until the next sweep, and one evicted
// between the passes drops off its page. limit <= 0 returns an empty
// final page.
func (p *Pool) SnapshotPage(from uint64, limit int, dst []StreamStat) (page []StreamStat, next uint64, more bool) {
	dst = dst[:0]
	if limit <= 0 {
		return dst, from, false
	}
	heap := make([]uint64, 0, limit)
	p.eachStream(func(key uint64, _ core.Detector) {
		if key < from {
			return
		}
		if len(heap) < limit {
			heap = append(heap, key)
			siftUp(heap)
		} else if key < heap[0] {
			heap[0] = key
			siftDown(heap)
		}
	})
	sort.Slice(heap, func(i, j int) bool { return heap[i] < heap[j] })
	for _, key := range heap {
		if st, ok := p.Stat(key); ok {
			dst = append(dst, st)
		}
	}
	// A full selection means keys beyond this page may exist; resume
	// after the largest selected key (unless it is the last possible
	// key, where the space is exhausted by construction).
	if len(heap) == limit && heap[limit-1] != ^uint64(0) {
		return dst, heap[limit-1] + 1, true
	}
	return dst, from, false
}

// eachShard runs fn on every shard under the shared gate, shards locked
// one at a time.
func (p *Pool) eachShard(fn func(sh *shard)) {
	p.gate.RLock()
	defer p.gate.RUnlock()
	for _, sh := range p.shards {
		sh.mu.Lock()
		fn(sh)
		sh.mu.Unlock()
	}
}

// eachStream calls fn with every live stream under the shared gate and
// the stream's lock, shards locked one at a time; fn must not call back
// into the pool.
func (p *Pool) eachStream(fn func(key uint64, det core.Detector)) {
	p.gate.RLock()
	defer p.gate.RUnlock()
	for _, sh := range p.shards {
		sh.mu.Lock()
		for key, st := range sh.streams {
			fn(key, st.det)
		}
		sh.mu.Unlock()
	}
	if a := p.hot; a != nil {
		for _, hs := range a.slots {
			if hs != nil {
				hs.mu.Lock()
				fn(hs.key, hs.det)
				hs.mu.Unlock()
			}
		}
	}
}

// siftUp restores the max-heap property after appending to h.
func siftUp(h []uint64) {
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] >= h[i] {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the max-heap property after replacing h[0].
func siftDown(h []uint64) {
	i := 0
	for {
		largest := i
		if l := 2*i + 1; l < len(h) && h[l] > h[largest] {
			largest = l
		}
		if r := 2*i + 2; r < len(h) && h[r] > h[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}

// ShardLens appends the per-shard live-stream counts to dst (recycled
// like append): the shard-occupancy view a metrics endpoint reports so
// hash skew across the shard set is observable.
func (p *Pool) ShardLens(dst []int) []int {
	dst = dst[:0]
	p.eachShard(func(sh *shard) { dst = append(dst, len(sh.streams)) })
	return dst
}

// ShardSamples appends each shard's processed-sample count (since the
// pool was created or last rebalanced) to dst, recycled like append.
// Samples served by promoted hot workers are not counted anywhere here
// — that is the observable effect of adaptive placement: a promoted
// celebrity's traffic leaves its old shard's counter, which falls back
// to the uniform baseline.
func (p *Pool) ShardSamples(dst []uint64) []uint64 {
	dst = dst[:0]
	p.eachShard(func(sh *shard) { dst = append(dst, sh.clock) })
	return dst
}

// Stat returns the current view of one stream and whether it exists.
func (p *Pool) Stat(key uint64) (StreamStat, bool) {
	p.gate.RLock()
	defer p.gate.RUnlock()
	st := StreamStat{Key: key}
	if !p.withStream(key, func(det core.Detector) { st.Stat = det.Snapshot() }) {
		return StreamStat{}, false
	}
	return st, true
}

// withStream runs fn on key's detector, found at its current placement
// (hot slot, else shard) and under that stream's lock, and reports
// whether the key is live. Caller holds the gate.
func (p *Pool) withStream(key uint64, fn func(det core.Detector)) bool {
	if a := p.hot; a != nil {
		if hs := a.table.find(key); hs != nil {
			hs.mu.Lock()
			defer hs.mu.Unlock()
			fn(hs.det)
			return true
		}
	}
	sh := p.shards[p.shardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.streams[key]
	if ok {
		fn(st.det)
	}
	return ok
}

// Len returns the number of live streams across all shards.
func (p *Pool) Len() int {
	p.gate.RLock()
	defer p.gate.RUnlock()
	n := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		n += len(sh.streams)
		sh.mu.Unlock()
	}
	if a := p.hot; a != nil {
		n += a.count
	}
	return n
}

// Shards returns the number of shards the key space is hashed across.
// It changes only through Rebalance.
func (p *Pool) Shards() int {
	p.gate.RLock()
	defer p.gate.RUnlock()
	return len(p.shards)
}

// Evicted returns the total number of streams expired by idle eviction
// (automatic sweeps and EvictIdle combined) since the pool was created.
func (p *Pool) Evicted() uint64 {
	p.gate.RLock()
	defer p.gate.RUnlock()
	n := p.evictedBase
	for _, sh := range p.shards {
		sh.mu.Lock()
		n += sh.evicted
		sh.mu.Unlock()
	}
	return n
}

// EvictIdle immediately expires every sharded stream that has gone more
// than ttl shard samples without being fed, regardless of
// Config.IdleTTL, and returns the number evicted. Promoted (hot)
// streams are never idle-evicted — by definition they are the busiest
// keys, and a hot stream whose traffic stops is first demoted back to
// its shard by the coordinator, where the TTL applies again. Detector state is recycled. On a closed
// pool it evicts nothing, so late sweeps cannot erode the final state a
// post-Close Checkpoint captures.
func (p *Pool) EvictIdle(ttl uint64) int {
	if p.closed.Load() {
		return 0
	}
	n := 0
	p.eachShard(func(sh *shard) { n += sh.sweep(ttl) })
	return n
}

// Close stops the shard workers and waits for them to drain. It must
// not be called concurrently with Feed, FeedBatch or FeedBatchAsync;
// batches FeedBatchAsync submitted earlier are applied, and their done
// called, before it returns. It is idempotent: every call, first or
// not, returns only after the pool is fully stopped, so a shutdown path
// with several owners can Close defensively.
//
// The contract after Close — the exact sequence a serving layer's
// shutdown hits:
//
//   - Feed, FeedSample, FeedBatch and FeedBatchAsync panic (like a
//     send on a closed channel, this is a caller ordering bug, not a
//     recoverable state).
//   - Snapshot, SnapshotPage, Stat, Len, Shards, ShardLens and Evicted
//     remain usable and observe the final state.
//   - Checkpoint remains usable and captures the final quiesced state —
//     close first, checkpoint last is the loss-free shutdown order.
//   - Rebalance and EvictIdle return an error / evict nothing.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		// Another Close got there first; wait until its drain has fully
		// finished. (The gate alone is not a handshake: a second caller
		// could acquire it before the first Close does.)
		<-p.closedCh
		return
	}
	if a := p.hot; a != nil {
		// Stop and join the coordinator before taking the gate, so no
		// promotion or demotion can start once the drain begins. (A
		// round already past its closed check finishes first — it holds
		// the gate we are about to take.)
		close(a.stop)
		<-a.done
	}
	p.gate.Lock()
	defer p.gate.Unlock()
	for _, sh := range p.shards {
		close(sh.in)
	}
	if a := p.hot; a != nil {
		// Rings are empty under the exclusive gate; fencing parks each
		// hot worker permanently. Hot streams stay in their slots so
		// post-Close reads and Checkpoint observe the final state.
		for _, hs := range a.slots {
			if hs != nil {
				hs.fence()
			}
		}
	}
	p.wg.Wait()
	close(p.closedCh)
}
