// Package dpd is a Go implementation of the Dynamic Periodicity Detector
// of Freitag, Corbalán and Labarta, "A Dynamic Periodicity Detector:
// Application to Speedup Computation" (IPDPS 2001): an online detector
// that estimates the periodicity of data series produced by executing
// applications, segments the stream into periods, predicts future values,
// and feeds run-time speedup computation.
//
// The package exposes one unified surface plus legacy shims:
//
//   - The Detector interface, constructed through New with functional
//     options: every engine — event (eq. 2), magnitude (eq. 1),
//     multi-scale ladder, adaptive window — satisfies Feed / FeedAll /
//     Snapshot / Reset / Window / Resize, and WithObserver subscribes
//     callbacks to lock, period-change, segment-start and unlock
//     transitions instead of polling per-sample results.
//
//   - The multi-stream Pool, which serves many keyed streams through
//     sharded workers; PoolConfig.NewDetector injects any Detector
//     engine per stream.
//
//   - The paper's Table 1 interface, ported faithfully as a thin shim:
//     a stateful DPD whose Feed method mirrors `int DPD(long sample,
//     int *period)` and whose WindowSize method mirrors
//     `void DPDWindowSize(int size)`.
//
//   - The systems around it (simulated SMP machine, NANOS-like runtime,
//     DITools interposition, SelfAnalyzer, allocation policies) live in
//     internal packages and are exercised by the example programs and the
//     experiment harness (cmd/experiments) that regenerates every table
//     and figure of the paper.
package dpd

import (
	"dpd/internal/core"
	"dpd/internal/pool"
)

// Re-exported unified-interface types; see the core package for full
// documentation. New constructs Detectors; Sample is the unit fed to
// them; Stat is what Snapshot returns.
type (
	// Detector is the unified per-stream interface every engine
	// satisfies: Feed, FeedAll, Snapshot, Reset, Window, Resize.
	Detector = core.Detector
	// Sample is one observation: Value for event streams (eq. 2),
	// Magnitude for magnitude streams (eq. 1).
	Sample = core.Sample
	// Stat is a point-in-time snapshot of one stream (samples, lock,
	// period, confidence, segment starts, prediction, window).
	Stat = core.Stat
	// EventEngine is the dynamic type New returns for event streams.
	EventEngine = core.EventEngine
	// MagnitudeEngine is the dynamic type New returns for WithMagnitude.
	MagnitudeEngine = core.MagnitudeEngine
	// MultiScaleEngine is the dynamic type New returns for WithLadder.
	MultiScaleEngine = core.MultiScaleEngine
	// AdaptiveEngine is the dynamic type New returns for WithAdaptive.
	AdaptiveEngine = core.AdaptiveEngine
)

// Re-exported detector toolkit types. These aliases are the public names
// of the core implementation; see the core package for full documentation.
type (
	// Config parameterizes a detector (window size N, max lag M,
	// confirmation count, grace, magnitude threshold).
	Config = core.Config
	// Result is the per-sample detection outcome.
	Result = core.Result
	// Curve is a snapshot of the distance function d(m).
	Curve = core.Curve
	// EventDetector detects exact periodicity in event streams (eq. 2).
	EventDetector = core.EventDetector
	// MagnitudeDetector detects periodicity in magnitude streams (eq. 1).
	MagnitudeDetector = core.MagnitudeDetector
	// MultiScaleDetector runs a ladder of event detectors for nested
	// periodicities.
	MultiScaleDetector = core.MultiScaleDetector
	// MultiResult aggregates per-ladder-level results.
	MultiResult = core.MultiResult
	// AdaptiveDetector resizes its window automatically.
	AdaptiveDetector = core.AdaptiveDetector
	// AdaptivePolicy parameterizes adaptive window management.
	AdaptivePolicy = core.AdaptivePolicy
	// PeriodTracker aggregates the distinct periodicities of a stream.
	PeriodTracker = core.PeriodTracker
	// PeriodStat describes one tracked periodicity.
	PeriodStat = core.PeriodStat
	// EventPredictor forecasts future events from a locked periodicity.
	EventPredictor = core.EventPredictor
	// MagnitudePredictor forecasts future magnitudes.
	MagnitudePredictor = core.MagnitudePredictor
	// Segmenter turns detector output into explicit stream segments.
	Segmenter = core.Segmenter
	// Segment is one periodicity-governed stretch of a stream.
	Segment = core.Segment
)

// Re-exported multi-stream pool types; see the pool package for full
// documentation of the sharded serving model.
type (
	// Pool serves many concurrent keyed streams, one detector per
	// stream, sharded across worker goroutines.
	Pool = pool.Pool
	// PoolConfig parameterizes a Pool (shard count, per-stream detector
	// configuration, idle-TTL eviction, in-flight batch bound).
	PoolConfig = pool.Config
	// KeyedSample is one sample of one keyed stream, the unit of work of
	// Pool.FeedBatch.
	KeyedSample = pool.KeyedSample
	// StreamStat is a point-in-time view of one pooled stream (period,
	// segment boundaries, prediction).
	StreamStat = pool.StreamStat
	// AdaptiveConfig parameterizes contention-adaptive hot-stream
	// placement (PoolConfig.Adaptive): per-shard feed-rate sampling and
	// promotion of celebrity streams onto dedicated pinned workers.
	AdaptiveConfig = pool.AdaptiveConfig
	// AdaptiveStats is a point-in-time view of the adaptive placement
	// tier: promotion/demotion counters, fold count and the current hot
	// set (Pool.AdaptiveStats).
	AdaptiveStats = pool.AdaptiveStats
	// HotStreamInfo describes one currently promoted stream (key,
	// samples fed since promotion, feed rate).
	HotStreamInfo = pool.HotStreamInfo
)

// ClusterNodeMetrics is the per-node cluster section of a server's
// /metrics snapshot. It is defined here — below both the server and the
// cluster tier in the import graph — so the snapshot can carry it as a
// concrete type (rather than `any`) and the public-API check can guard
// its shape. The cluster package aliases it as cluster.NodeMetrics.
type ClusterNodeMetrics struct {
	// Self is this node's member name.
	Self string `json:"self"`
	// Epoch is the current routing epoch.
	Epoch uint64 `json:"epoch"`
	// Members is the member count of the current table.
	Members int `json:"members"`
	// StreamsOwned is the number of live streams in this node's pool.
	StreamsOwned int `json:"streams_owned"`
	// ReplicaStreams is the number of standby replicas held for other
	// nodes' streams.
	ReplicaStreams int `json:"replica_streams"`
	// MigrationsIn counts streams attached via handoff frames.
	MigrationsIn uint64 `json:"migrations_in"`
	// MigrationsOut counts streams this node migrated away.
	MigrationsOut uint64 `json:"migrations_out"`
	// PromotedStreams counts replicas promoted into the pool (failover).
	PromotedStreams uint64 `json:"promoted_streams"`
	// ReplicationRounds counts completed replication rounds.
	ReplicationRounds uint64 `json:"replication_rounds"`
	// ReplicationErrors counts failed follower sends.
	ReplicationErrors uint64 `json:"replication_errors"`
	// FollowerLagFrames is the number of stream frames shipped in the
	// newest round that followers have not yet acknowledged (0 when the
	// last round fully acked).
	FollowerLagFrames int64 `json:"follower_lag_frames"`
	// PendingDurableMarks is the number of durable marks awaiting a
	// fully-acknowledged replication round.
	PendingDurableMarks int `json:"pending_durable_marks"`
}

// DefaultLadder is the default multi-scale window ladder.
var DefaultLadder = core.DefaultLadder

// NewEventPredictor returns an event forecaster over a detector.
func NewEventPredictor(cfg Config) (*EventPredictor, error) { return core.NewEventPredictor(cfg) }

// NewMagnitudePredictor returns a magnitude forecaster over a detector.
func NewMagnitudePredictor(cfg Config) (*MagnitudePredictor, error) {
	return core.NewMagnitudePredictor(cfg)
}

// NewPeriodTracker returns an empty periodicity tracker.
func NewPeriodTracker() *PeriodTracker { return core.NewPeriodTracker() }

// NewSegmenter returns a stream segmenter over an event detector.
func NewSegmenter(cfg Config) (*Segmenter, error) { return core.NewSegmenter(cfg) }

// DefaultAdaptivePolicy returns the paper-calibrated adaptive policy.
func DefaultAdaptivePolicy() AdaptivePolicy { return core.DefaultAdaptivePolicy() }

// NewPool returns a started multi-stream detector pool. The zero
// PoolConfig selects GOMAXPROCS shards, the paper-default per-stream
// detector, and no idle eviction. Call Close when done feeding.
func NewPool(cfg PoolConfig) (*Pool, error) { return pool.New(cfg) }
