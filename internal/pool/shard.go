package pool

import (
	"sync"

	"dpd/internal/core"
)

// runQueueDepth is the per-shard run queue capacity. It only needs to
// cover the in-flight batch groups that can target one shard at once;
// beyond that, senders block, which is the intended backpressure.
const runQueueDepth = 64

// shardRun is one shard's slice of a batch: a contiguous run of samples
// staged in the batch group's per-shard buffer.
type shardRun struct {
	samples []KeyedSample
	g       *group
}

// stream is the per-key detector state: any engine satisfying the
// unified core.Detector interface, which itself tracks samples, segment
// starts and prediction (surfaced through Snapshot). Evicted streams
// are recycled through the shard freelist, so the struct and its
// detector survive and are reset rather than released.
type stream struct {
	key     uint64
	det     core.Detector
	lastFed uint64 // shard clock at the stream's most recent sample
}

// shard owns one partition of the key space: a map of streams, a freelist
// of recycled stream states, and the idle-eviction clock. The mutex
// serializes the shard worker against Feed, Snapshot and eviction; it is
// never held across shards, so there is no global lock anywhere on the
// feed path.
type shard struct {
	mu      sync.Mutex
	in      chan shardRun
	streams map[uint64]*stream
	free    []*stream

	newDet     func() core.Detector
	streamObs  func(key uint64) core.Observer
	ttl        uint64
	sweepEvery uint64

	clock   uint64 // samples processed by this shard
	sweepAt uint64 // clock value of the next automatic sweep
	evicted uint64

	// samp is the contention sampler (nil when the adaptive tier is
	// off); foldBase is the shard clock at the coordinator's last fold,
	// so clock-foldBase is this shard's contribution to the fold window.
	samp     *sampler
	foldBase uint64

	// vals stages a run's event values for core.FeedEventRun; kept
	// counts the samples its kept loop consumed (see KeptSamples).
	vals []int64
	kept uint64
}

func newShard(cfg Config, idx int) *shard {
	sh := &shard{
		in:         make(chan shardRun, runQueueDepth),
		streams:    make(map[uint64]*stream),
		newDet:     cfg.NewDetector,
		streamObs:  cfg.StreamObserver,
		ttl:        cfg.IdleTTL,
		sweepEvery: cfg.SweepEvery,
		sweepAt:    cfg.SweepEvery,
	}
	if cfg.Adaptive.Enable {
		seed := (uint64(idx) + 1) * 0x9e3779b97f4a7c15
		sh.samp = newSampler(cfg.Adaptive.SamplerSlots, cfg.Adaptive.SampleEvery, seed)
	}
	return sh
}

// observable is the observer-attachment surface every built-in engine
// adapter offers; custom engines without it are served unobserved.
type observable interface {
	SetObserver(core.Observer)
}

// attach wires the pool's StreamObserver hook to one stream's detector.
// It runs on every materialization path — fresh, recycled, restored,
// rebalanced — so a detector recycled from the freelist never keeps a
// previous key's observer: the hook is re-consulted with the new key
// (and a nil return detaches).
func (sh *shard) attach(st *stream) {
	if sh.streamObs == nil {
		return
	}
	if o, ok := st.det.(observable); ok {
		o.SetObserver(sh.streamObs(st.key))
	}
}

// feedLocked feeds one sample to its stream: the one-sample case of
// resolve, for Pool.Feed. Caller holds the shard lock.
func (sh *shard) feedLocked(key uint64, s core.Sample) core.Result {
	return sh.resolve(key, 1).det.Feed(s)
}

// feedRunLocked feeds a run of same-key samples to their stream in
// order. An event engine takes the whole run in one call
// (core.FeedEventRun), its values staged in vals, so a held lock pushes
// its kept samples in one loop; any other engine takes the run sample
// by sample. Caller holds the shard lock.
func (sh *shard) feedRunLocked(run []KeyedSample) {
	det := sh.resolve(run[0].Key, len(run)).det
	if e, ok := det.(*core.EventEngine); ok {
		vs := sh.vals[:0]
		for _, ks := range run {
			vs = append(vs, ks.Value)
		}
		sh.vals = vs
		sh.kept += uint64(core.FeedEventRun(e, vs))
		return
	}
	for _, ks := range run {
		det.Feed(ks.sample())
	}
}

// KeptSamples returns how many samples the shards' event engines pushed
// through their kept loop (core.FeedEventRun) since the pool was
// created or last rebalanced.
func KeptSamples(p *Pool) uint64 {
	var n uint64
	p.eachShard(func(sh *shard) { n += sh.kept })
	return n
}

// resolve returns key's stream, creating it from the freelist (or fresh)
// on first sight, and charges it n samples about to be fed: one map
// lookup, one shard-clock and lastFed update and one sampler advance
// per run, with the same end state as n single-sample feeds. Caller
// holds the shard lock.
func (sh *shard) resolve(key uint64, n int) *stream {
	st, ok := sh.streams[key]
	if !ok {
		st = sh.newStream(key)
		sh.streams[key] = st
	}
	sh.clock += uint64(n)
	st.lastFed = sh.clock
	if sm := sh.samp; sm != nil {
		sm.advance(key, n)
	}
	return st
}

// newStream pops a recycled stream state or builds a fresh one via the
// injected detector factory. The pool validated the factory (or the
// default event configuration) at construction, so this cannot fail.
func (sh *shard) newStream(key uint64) *stream {
	var st *stream
	if n := len(sh.free); n > 0 {
		st = sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		st.key = key
		st.lastFed = 0
	} else {
		st = &stream{key: key, det: sh.newDet()}
	}
	sh.attach(st)
	return st
}

// maybeSweep runs the idle sweep when the TTL policy is enabled and the
// cadence has elapsed. Caller holds the shard lock.
func (sh *shard) maybeSweep() {
	if sh.ttl == 0 || sh.clock < sh.sweepAt {
		return
	}
	sh.sweepAt = sh.clock + sh.sweepEvery
	sh.sweep(sh.ttl)
}

// sweep evicts every stream idle for more than ttl shard samples,
// recycling detector state through the freelist, and returns the number
// evicted. Caller holds the shard lock.
func (sh *shard) sweep(ttl uint64) int {
	n := 0
	for key, st := range sh.streams {
		if sh.clock-st.lastFed > ttl {
			delete(sh.streams, key)
			st.det.Reset()
			sh.free = append(sh.free, st)
			sh.evicted++
			n++
		}
	}
	return n
}
