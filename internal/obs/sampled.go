package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SampledHist is a concurrency-safe latency histogram with a strided
// admission gate for hot paths: Sampled costs one atomic add and a
// multiply-shift on every call and elects exactly one call in each
// aligned block of stride calls; only elected calls pay for a clock
// read and the mutex-guarded Record. The elected position within a
// block is a hash of the block index, not a fixed offset: callers
// whose traffic repeats with a period that is a multiple of the stride
// (a client pinging every 16 batches) would otherwise have the same
// few positions timed forever — the aliasing the adaptive tier's
// contention sampler avoids with its randomized countdown. What matters
// on the hot path is that the common case is branch + add, with no
// time syscall, no lock, no allocation. The zero value samples every
// call (stride 1). A nil *SampledHist reports Sampled false and ignores
// Observe, so instrumentation sites need no enabled-check.
type SampledHist struct {
	mask  uint64 // stride-1; 0 samples everything
	shift uint   // log2(stride)
	tick  atomic.Uint64

	mu sync.Mutex
	h  Hist
}

// NewSampledHist returns a histogram sampling 1 in every calls; every
// is rounded up to a power of two, and values <= 1 sample every call.
func NewSampledHist(every int) *SampledHist {
	s := &SampledHist{}
	s.setStride(every)
	return s
}

// setStride sets the stride to every rounded up to a power of two.
func (s *SampledHist) setStride(every int) {
	s.shift = 0
	for 1<<s.shift < every {
		s.shift++
	}
	s.mask = 1<<s.shift - 1
}

// SampleEvery returns the stride: one observation per SampleEvery
// Sampled calls (0 for a nil histogram).
func (s *SampledHist) SampleEvery() uint64 {
	if s == nil {
		return 0
	}
	return s.mask + 1
}

// Sampled reports whether this call is elected for timing. It is the
// hot-path gate: one atomic add and a multiply-shift, no lock, no
// allocation, false on a nil histogram. Call u (from 0) is elected when
// its offset in block u>>shift equals that block's phase, a Fibonacci
// hash of the block index (stride 1: the phase is always 0).
func (s *SampledHist) Sampled() bool {
	if s == nil {
		return false
	}
	u := s.tick.Add(1) - 1
	return u&s.mask == (u>>s.shift)*0x9e3779b97f4a7c15>>(64-s.shift)
}

// Observe records one elected duration. Elected calls are 1-in-stride,
// so the mutex here is cold by construction.
func (s *SampledHist) Observe(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.h.Record(d)
	s.mu.Unlock()
}

// Snapshot copies the histogram for offline quantile computation.
func (s *SampledHist) Snapshot() Hist {
	if s == nil {
		return Hist{}
	}
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	return h
}

// Stat summarizes the histogram as the quantile set the /metrics
// payload and the Prometheus exposition publish.
func (s *SampledHist) Stat() HistStat {
	h := s.Snapshot()
	return HistStat{
		Count:       h.Count(),
		SampleEvery: s.SampleEvery(),
		P50Ns:       int64(h.Quantile(0.50)),
		P99Ns:       int64(h.Quantile(0.99)),
		P999Ns:      int64(h.Quantile(0.999)),
		MaxNs:       int64(h.Max()),
		MeanNs:      int64(h.Mean()),
		SumNs:       int64(h.Sum()),
	}
}

// HistStat is the serialized summary of one sampled latency site:
// sampled observation count, the sampling stride the counts were taken
// under, and interpolated quantiles in nanoseconds.
type HistStat struct {
	// Count is the number of sampled observations.
	Count uint64 `json:"count"`
	// SampleEvery is the stride: one observation per SampleEvery
	// operations on the instrumented path.
	SampleEvery uint64 `json:"sample_every"`
	// P50Ns is the median latency in nanoseconds.
	P50Ns int64 `json:"p50_ns"`
	// P99Ns is the 99th-percentile latency in nanoseconds.
	P99Ns int64 `json:"p99_ns"`
	// P999Ns is the 99.9th-percentile latency in nanoseconds.
	P999Ns int64 `json:"p999_ns"`
	// MaxNs is the exact largest sampled latency in nanoseconds.
	MaxNs int64 `json:"max_ns"`
	// MeanNs is the mean sampled latency in nanoseconds.
	MeanNs int64 `json:"mean_ns"`
	// SumNs is the summed sampled latency in nanoseconds.
	SumNs int64 `json:"sum_ns"`
}

// Default hot-path sampling strides. Ingest and FeedBatch run per
// frame/batch (already amortized over hundreds of samples), so 1-in-8
// keeps the added cost of the two clock reads well under the ≤2%
// overhead budget; checkpoint writes and migration pauses are rare and
// are always timed.
const (
	DefaultIngestEvery    = 8
	DefaultFeedBatchEvery = 8
)

// Set is one node's full observability core: the shared flight
// recorder plus the four server-side latency sites. The serving layer
// constructs one (or accepts one from the embedder so the cluster tier
// shares it) and threads the pieces into pool, cluster and checkpoint
// config.
type Set struct {
	// Recorder is the shared flight recorder.
	Recorder Recorder
	// Ingest times frame decode→applied on the ingest plane (per sampled
	// frame: from just before frame decode until the pool has applied
	// the batch).
	Ingest SampledHist
	// FeedBatch times pool batches from dispatch until applied, shard
	// queue wait included (per sampled batch).
	FeedBatch SampledHist
	// CheckpointWrite times WriteCheckpoint end to end (every write).
	CheckpointWrite SampledHist
	// MigrationPause times a live migration's fence→flip window — the
	// span the stream's ingest is paused (every migration).
	MigrationPause SampledHist
}

// NewSet returns a Set with an events-deep recorder (<= 0 selects
// DefaultRecorderEvents) and default sampling strides.
func NewSet(events int) *Set {
	s := &Set{}
	s.Recorder.init(events)
	s.Ingest.setStride(DefaultIngestEvery)
	s.FeedBatch.setStride(DefaultFeedBatchEvery)
	return s
}

// Rec returns the set's recorder, nil-safe (a nil Set records nothing).
func (s *Set) Rec() *Recorder {
	if s == nil {
		return nil
	}
	return &s.Recorder
}
