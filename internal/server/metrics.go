package server

import (
	"sync"
	"sync/atomic"
	"time"

	"dpd"
	"dpd/internal/obs"
)

// metrics is the server's counter set: plain atomics, expvar-style, no
// dependencies. Ingest-path counters are touched per frame (not per
// sample), so the cost of observability is amortized over the batch.
type metrics struct {
	start time.Time

	connsTotal    atomic.Uint64
	connsActive   atomic.Int64
	connsRejected atomic.Uint64 // refused at admission (MaxConns)

	framesTotal  atomic.Uint64
	batchesTotal atomic.Uint64
	samplesTotal atomic.Uint64
	pingsTotal   atomic.Uint64

	eventsDelivered atomic.Uint64

	// wrongNodeRejects counts batch frames refused by the cluster
	// ownership check (wrong-node frames sent).
	wrongNodeRejects atomic.Uint64

	// Overload protection: sheds counts every overloaded error frame
	// sent (admission rejects plus pending-memory disconnects);
	// pendingBytes is the live global pending-memory account;
	// panicsRecovered counts connection goroutines saved by isolation.
	overloadSheds   atomic.Uint64
	pendingBytes    atomic.Int64
	panicsRecovered atomic.Uint64

	// Disconnect reasons: every connection teardown increments exactly
	// one of these, so their sum tracks connsTotal as connections drain.
	disconnectEOF      atomic.Uint64
	disconnectRead     atomic.Uint64
	disconnectProto    atomic.Uint64
	disconnectSlow     atomic.Uint64
	disconnectWrite    atomic.Uint64
	disconnectShutdown atomic.Uint64
	disconnectOverload atomic.Uint64
	disconnectPanic    atomic.Uint64
	disconnectOther    atomic.Uint64 // unknown closeReason (code drift guard)

	checkpointsTotal   atomic.Uint64
	checkpointErrors   atomic.Uint64
	checkpointSeq      atomic.Uint64
	checkpointLastNs   atomic.Int64  // UnixNano of the newest durable checkpoint, 0 = never
	checkpointStalls   atomic.Uint64 // WriteCheckpoint calls skipped because one was in flight
	checkpointInFlight atomic.Int64  // 1 while a checkpoint is running (stall detector)
	tmpSwept           atomic.Uint64 // orphaned .tmp files removed at boot
	restoredStreams    atomic.Uint64
	restoreFallbacks   atomic.Uint64 // corrupt/unreadable checkpoints skipped at boot
	rebalancesApplied  atomic.Uint64

	// rate computes ingest samples/s between consecutive /metrics
	// scrapes (the first scrape reports the lifetime average). The
	// total-samples read and the prev-swap happen together under rateMu
	// — one atomic snapshot-and-reset — so concurrent scrapes each see
	// a disjoint [prev, total] interval and their rates never
	// double-count or drop a sample run.
	rateMu      sync.Mutex
	ratePrev    uint64
	ratePrevAt  time.Time
	rateHasPrev bool
}

// DisconnectCounts breaks down connection teardowns by reason in the
// /metrics payload.
type DisconnectCounts struct {
	// EOF: the client finished cleanly (terminator frame or socket EOF).
	EOF uint64 `json:"eof"`
	// ReadError: the socket failed mid-frame.
	ReadError uint64 `json:"read_error"`
	// ProtocolError: the client violated the protocol and was sent a
	// typed error frame.
	ProtocolError uint64 `json:"protocol_error"`
	// SlowConsumer: a subscriber could not drain its event queue.
	SlowConsumer uint64 `json:"slow_consumer"`
	// WriteError: writing to the client failed (including write
	// timeouts on a wedged socket).
	WriteError uint64 `json:"write_error"`
	// Shutdown: the server closed the connection while draining.
	Shutdown uint64 `json:"shutdown"`
	// Overload: the connection was shed by pending-memory accounting.
	Overload uint64 `json:"overload"`
	// Panic: a connection goroutine panicked and was isolated.
	Panic uint64 `json:"panic"`
	// Other: a closeReason this switch does not know. Permanently 0 in a
	// correct build — a nonzero value means a new reason was added
	// without a counter, and the teardown is counted here instead of
	// being silently dropped.
	Other uint64 `json:"other"`
}

// MetricsSnapshot is the /metrics payload: one consistent-enough read
// of every counter (individual fields are atomic; the set is not a
// single instant, which is the usual metrics contract).
type MetricsSnapshot struct {
	// UptimeSeconds is the time since the server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// ConnsActive is the number of live ingest connections.
	ConnsActive int64 `json:"conns_active"`
	// ConnsTotal counts every ingest connection ever accepted.
	ConnsTotal uint64 `json:"conns_total"`
	// ConnsRejected counts connections refused at admission (MaxConns).
	ConnsRejected uint64 `json:"conns_rejected"`
	// OverloadSheds counts overloaded error frames sent (admission
	// rejects plus pending-memory disconnects).
	OverloadSheds uint64 `json:"overload_sheds"`
	// PendingBytes is the decoded payload bytes currently queued to
	// feeders across all connections (the overload account).
	PendingBytes int64 `json:"pending_bytes"`
	// PanicsRecovered counts connection goroutines that panicked and
	// were isolated instead of taking the process down.
	PanicsRecovered uint64 `json:"panics_recovered"`
	// FramesTotal counts decoded client frames of every kind.
	FramesTotal uint64 `json:"frames_total"`
	// BatchesTotal counts batch frames fed to the pool.
	BatchesTotal uint64 `json:"batches_total"`
	// SamplesTotal counts samples fed to the pool over the network.
	SamplesTotal uint64 `json:"samples_total"`
	// PingsTotal counts ping barriers served.
	PingsTotal uint64 `json:"pings_total"`
	// IngestRate is samples/s since the previous /metrics scrape (the
	// first scrape reports the lifetime average).
	IngestRate float64 `json:"ingest_rate_per_sec"`
	// EventsDelivered counts event frames queued to subscribers.
	EventsDelivered uint64 `json:"events_delivered"`
	// Disconnects breaks down teardowns by reason.
	Disconnects DisconnectCounts `json:"disconnects"`
	// Streams is the number of live streams in the pool.
	Streams int `json:"streams"`
	// Shards is the pool's current shard count.
	Shards int `json:"shards"`
	// ShardOccupancy is the per-shard live-stream count (hash skew view).
	ShardOccupancy []int `json:"shard_occupancy"`
	// Evicted is the pool's lifetime idle-eviction total.
	Evicted uint64 `json:"evicted"`
	// CheckpointsTotal counts durable checkpoints written.
	CheckpointsTotal uint64 `json:"checkpoints_total"`
	// CheckpointErrors counts failed checkpoint attempts.
	CheckpointErrors uint64 `json:"checkpoint_errors"`
	// CheckpointSeq is the sequence number of the newest durable
	// checkpoint (0 = none yet).
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// CheckpointAgeSeconds is the age of the newest durable checkpoint;
	// -1 when none has been written.
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds"`
	// CheckpointStalls counts checkpoint attempts skipped because the
	// previous one was still in flight — the wedged-disk detector.
	CheckpointStalls uint64 `json:"checkpoint_stalls"`
	// CheckpointInFlight is 1 while a checkpoint is being written.
	CheckpointInFlight int64 `json:"checkpoint_in_flight"`
	// TmpSwept counts orphaned checkpoint temp files removed at boot.
	TmpSwept uint64 `json:"tmp_swept"`
	// RestoredStreams is how many streams boot restored from disk.
	RestoredStreams uint64 `json:"restored_streams"`
	// RestoreFallbacks is how many corrupt or unreadable checkpoint
	// files boot skipped before finding a valid one (or giving up).
	RestoreFallbacks uint64 `json:"restore_fallbacks"`
	// RebalancesApplied counts successful POST /rebalance operations.
	RebalancesApplied uint64 `json:"rebalances_applied"`
	// WrongNodeRejects counts batches refused by the cluster ownership
	// check; always 0 outside cluster mode.
	WrongNodeRejects uint64 `json:"wrong_node_rejects"`
	// Cluster is the per-node cluster section (epoch, streams owned,
	// migrations in/out, follower lag) supplied by Config.ClusterMetrics;
	// absent outside cluster mode.
	Cluster *dpd.ClusterNodeMetrics `json:"cluster,omitempty"`
	// Adaptive is the contention-adaptive placement section (promotion/
	// demotion counters, fold count, current hot set with per-stream feed
	// rates); absent when PoolConfig.Adaptive is disabled.
	Adaptive *dpd.AdaptiveStats `json:"adaptive,omitempty"`
	// Latency is the server-side latency section: sampled histograms
	// from the ingest, feed, checkpoint and migration sites, reported as
	// quantiles. Always present; sites that never fired report count 0.
	Latency *LatencyStats `json:"latency,omitempty"`
}

// LatencyStats is the /metrics latency section: per-site quantile
// summaries of the observability core's sampled histograms.
type LatencyStats struct {
	// Ingest is decode→applied latency per sampled batch frame.
	Ingest obs.HistStat `json:"ingest"`
	// FeedBatch is the pool batch duration from dispatch to applied,
	// shard queue wait included, per sampled batch.
	FeedBatch obs.HistStat `json:"feed_batch"`
	// CheckpointWrite is the full WriteCheckpoint duration (capture,
	// serialize, fsync, rename).
	CheckpointWrite obs.HistStat `json:"checkpoint_write"`
	// MigrationPause is the fence→flip feed-pause window of one live
	// cross-node migration.
	MigrationPause obs.HistStat `json:"migration_pause"`
}

// snapshot assembles the exported view; pool-derived fields are filled
// by the caller (http.go), which owns the pool reference.
func (m *metrics) snapshot(now time.Time) MetricsSnapshot {
	s := MetricsSnapshot{
		UptimeSeconds:   now.Sub(m.start).Seconds(),
		ConnsActive:     m.connsActive.Load(),
		ConnsTotal:      m.connsTotal.Load(),
		ConnsRejected:   m.connsRejected.Load(),
		OverloadSheds:   m.overloadSheds.Load(),
		PendingBytes:    m.pendingBytes.Load(),
		PanicsRecovered: m.panicsRecovered.Load(),
		FramesTotal:     m.framesTotal.Load(),
		BatchesTotal:    m.batchesTotal.Load(),
		SamplesTotal:    m.samplesTotal.Load(),
		PingsTotal:      m.pingsTotal.Load(),
		EventsDelivered: m.eventsDelivered.Load(),
		Disconnects: DisconnectCounts{
			EOF:           m.disconnectEOF.Load(),
			ReadError:     m.disconnectRead.Load(),
			ProtocolError: m.disconnectProto.Load(),
			SlowConsumer:  m.disconnectSlow.Load(),
			WriteError:    m.disconnectWrite.Load(),
			Shutdown:      m.disconnectShutdown.Load(),
			Overload:      m.disconnectOverload.Load(),
			Panic:         m.disconnectPanic.Load(),
			Other:         m.disconnectOther.Load(),
		},
		CheckpointsTotal:     m.checkpointsTotal.Load(),
		CheckpointErrors:     m.checkpointErrors.Load(),
		CheckpointSeq:        m.checkpointSeq.Load(),
		CheckpointAgeSeconds: -1,
		CheckpointStalls:     m.checkpointStalls.Load(),
		CheckpointInFlight:   m.checkpointInFlight.Load(),
		TmpSwept:             m.tmpSwept.Load(),
		RestoredStreams:      m.restoredStreams.Load(),
		RestoreFallbacks:     m.restoreFallbacks.Load(),
		RebalancesApplied:    m.rebalancesApplied.Load(),
		WrongNodeRejects:     m.wrongNodeRejects.Load(),
	}
	if ns := m.checkpointLastNs.Load(); ns != 0 {
		s.CheckpointAgeSeconds = now.Sub(time.Unix(0, ns)).Seconds()
	}

	// Snapshot-and-reset atomically: the counter is read INSIDE the
	// critical section, so two concurrent scrapes cannot interleave a
	// stale total with a fresher prev (which would compute a wrapped,
	// astronomically wrong rate). SamplesTotal in the payload is the
	// same read, keeping the rate and the total it was derived from
	// consistent with each other.
	m.rateMu.Lock()
	total := m.samplesTotal.Load()
	s.SamplesTotal = total
	if m.rateHasPrev {
		if dt := now.Sub(m.ratePrevAt).Seconds(); dt > 0 {
			s.IngestRate = float64(total-m.ratePrev) / dt
		}
	} else if up := s.UptimeSeconds; up > 0 {
		s.IngestRate = float64(total) / up
	}
	m.ratePrev, m.ratePrevAt, m.rateHasPrev = total, now, true
	m.rateMu.Unlock()
	return s
}

// disconnect records one teardown under its reason counter.
func (m *metrics) disconnect(r closeReason) {
	switch r {
	case reasonEOF:
		m.disconnectEOF.Add(1)
	case reasonReadError:
		m.disconnectRead.Add(1)
	case reasonProtocol:
		m.disconnectProto.Add(1)
	case reasonSlowConsumer:
		m.disconnectSlow.Add(1)
	case reasonWriteError:
		m.disconnectWrite.Add(1)
	case reasonShutdown:
		m.disconnectShutdown.Add(1)
	case reasonOverload:
		m.disconnectOverload.Add(1)
	case reasonPanic:
		m.disconnectPanic.Add(1)
	default:
		m.disconnectOther.Add(1)
	}
}
