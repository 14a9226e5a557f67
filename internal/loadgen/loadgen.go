// Package loadgen drives a dpd detector pool with synthetic periodic
// traffic — over the wire against a dpdserver ingest listener, or
// in-process against a dpd.Pool — the way "heavy traffic from millions
// of users" is demoed, measured and integration-tested locally without
// a fleet.
//
// Beyond the PR 5 steady uniform shape (N connections × M keyed
// streams, batched, rate-limited), a run composes adversarial
// dimensions through the Workload spec: zipf-skewed key popularity
// ("celebrity streams"), create/evict churn storms through the pool's
// TTL eviction and freelists, bursty and ramping arrivals through a
// rate shaper, and mixed event/magnitude traffic. Every draw derives
// from the seed, so any run — and any single stream's exact sample
// subsequence (SampleAt) — is reproducible, which is what lets the
// differential referee tests pin pooled results byte-identical to
// standalone detectors under every one of these workloads.
//
// Measurement rides along: each connection records every batch's accept
// latency into a zero-allocation log-bucketed histogram (obs.Hist), merged
// across connections into the Report's p50/p99/p999 alongside Melem/s,
// with a per-phase breakdown so burst recovery is visible. Wire
// connections are internal/client Clients, so a load run also rides the
// real resilience machinery: bounded replay windows, reconnect with
// backoff, cursor resync and overload retry-after — a run survives
// server restarts mid-run and still delivers every sample exactly once.
package loadgen

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dpd/internal/client"
	"dpd/internal/cluster"
	"dpd/internal/obs"
	"dpd/internal/server"
)

// Config parameterizes one load run.
type Config struct {
	// Addr is the server's ingest address (ignored by RunPool).
	Addr string
	// ClusterHTTP, when non-empty, switches the run to cluster routing:
	// each connection becomes a cluster.Router bootstrapped from these
	// HTTP addresses, fanning batches to each stream's owner, following
	// wrong-node redirects across epoch bumps and failing over dead
	// members. Addr is ignored.
	ClusterHTTP []string
	// Conns is the number of concurrent TCP connections (feeder
	// goroutines for RunPool); 0 selects 1.
	Conns int
	// Streams is the number of concurrently-live keyed streams,
	// partitioned round-robin across connections (keys 0..Streams-1
	// offset by KeyBase); 0 selects Conns. With Workload.Churn, each
	// generation targets a fresh window of Streams keys.
	Streams int
	// KeyBase offsets every stream key, so successive runs can target
	// fresh or existing streams deliberately.
	KeyBase uint64
	// SamplesPerStream is how many samples each stream receives under a
	// uniform distribution (with churn, divided across generations;
	// with zipf, the per-stream mean — hot streams take more); 0
	// selects 1024.
	SamplesPerStream int
	// BatchSize is the samples per batch frame; 0 selects 256.
	BatchSize int
	// Period is the synthetic pattern's period: stream key k at its
	// per-key index i carries value (i % Period) + k·PatternStride; 0
	// selects 8.
	Period int
	// PatternStride offsets each stream's value alphabet so distinct
	// streams never share values (useful when eyeballing snapshots);
	// 0 keeps all streams on the same alphabet.
	PatternStride int64
	// Magnitude switches the generator to magnitude batch frames
	// (float64 samples) for pools running the magnitude engine.
	Magnitude bool
	// Rate bounds aggregate throughput in samples/second across all
	// connections; 0 is unlimited. Ignored when Workload.Phases shape
	// arrivals explicitly.
	Rate float64
	// Window is each connection's replay-window depth in batches; 0
	// selects the client default (256).
	Window int
	// Ack selects the window-release mode: client.AckApplied (default)
	// or client.AckDurable, which bounds loss to zero even across a
	// kill -9 of the server (at checkpoint-cadence window turnover).
	Ack client.AckMode
	// RetryBudget caps how long a connection retries without progress
	// before the run fails; 0 selects the client default (30s).
	RetryBudget time.Duration
	// Workload composes the adversarial dimensions: key distribution,
	// churn generations, arrival phases, event/magnitude mix, seed. The
	// zero value is the legacy uniform/steady workload.
	Workload Workload
}

// normalize applies defaults in place.
func (c *Config) normalize() {
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.Streams <= 0 {
		c.Streams = c.Conns
	}
	if c.SamplesPerStream <= 0 {
		c.SamplesPerStream = 1024
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.BatchSize > server.MaxBatch {
		c.BatchSize = server.MaxBatch
	}
	if c.Period <= 0 {
		c.Period = 8
	}
}

// PhaseReport is one arrival phase's share of a completed run,
// aggregated across connections and cycles: how fast the phase ran and
// what its batch-accept latency tail looked like — the per-phase
// breakdown that makes burst recovery visible next to the steady state.
type PhaseReport struct {
	// Name is the phase's label from the schedule.
	Name string
	// Samples is the phase's total applied samples across connections.
	Samples uint64
	// Active is the phase's busiest connection's non-pause wall time —
	// the denominator of MelemsPerSec.
	Active time.Duration
	// MelemsPerSec is the phase's throughput in millions of samples/s.
	MelemsPerSec float64
	// P50, P99 and P999 are the phase's batch-accept latency quantiles.
	P50, P99, P999 time.Duration
}

// Report summarizes one completed run.
type Report struct {
	// Samples is the total number of samples applied by the server
	// (ping-barrier confirmed; for RunPool, applied by the pool).
	Samples uint64
	// Conns and Streams echo the effective run shape.
	Conns, Streams int
	// DistinctStreams is how many distinct keys the run touched (>
	// Streams when churn cycles through fresh key windows).
	DistinctStreams int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// MelemsPerSec is end-to-end throughput in millions of samples per
	// second: encode → TCP → decode → pool, barrier included.
	MelemsPerSec float64
	// P50, P99, P999 and MaxLatency summarize batch-accept latency: the
	// time for a batch to be accepted into the replay window (wire) or
	// applied by the pool (in-process). Under a bounded window this is
	// the backpressure signal — when the server falls behind, accepts
	// stall and the tail grows.
	P50, P99, P999, MaxLatency time.Duration
	// Latency is the merged batch-accept histogram behind those
	// quantiles.
	Latency *obs.Hist
	// Phases breaks the run down per arrival phase (one entry per
	// schedule position; always at least the steady phase).
	Phases []PhaseReport
	// StreamSamples is every touched key's applied sample count — the
	// workload's popularity histogram (zipf shape, churn windows), and
	// the per-key replay lengths differential tests feed to SampleAt.
	StreamSamples map[uint64]uint64
	// Fingerprint is Fingerprint(StreamSamples): equal across runs of
	// the same seeded spec.
	Fingerprint uint64
	// Reconnects counts connection recoveries across the run (0 on a
	// healthy server).
	Reconnects uint64
	// ReplayedSamples counts samples re-sent during cursor resyncs;
	// the server's per-stream accounting deduplicates them.
	ReplayedSamples uint64
	// OverloadBackoffs counts server retry-after hints honored.
	OverloadBackoffs uint64
	// Redirects counts orphans replayed to a new owner after wrong-node
	// rejections (cluster routing only).
	Redirects uint64
	// Failovers counts cluster members the run's routers declared dead
	// (cluster routing only).
	Failovers uint64
}

// String renders the report the way cmd/dpdload prints it.
func (r Report) String() string {
	s := fmt.Sprintf("loadgen: %d samples over %d conns × %d streams in %v → %.2f Melem/s end-to-end",
		r.Samples, r.Conns, r.DistinctStreams, r.Elapsed.Round(time.Millisecond), r.MelemsPerSec)
	if r.Latency != nil && r.Latency.Count() > 0 {
		s += fmt.Sprintf("\n  batch-accept latency p50/p99/p999 = %v/%v/%v (max %v)",
			r.P50, r.P99, r.P999, r.MaxLatency)
	}
	if r.Reconnects > 0 || r.OverloadBackoffs > 0 {
		s += fmt.Sprintf(" (%d reconnects, %d samples replayed, %d overload backoffs)",
			r.Reconnects, r.ReplayedSamples, r.OverloadBackoffs)
	}
	if r.Redirects > 0 || r.Failovers > 0 {
		s += fmt.Sprintf(" (%d cluster redirects, %d failovers)", r.Redirects, r.Failovers)
	}
	return s
}

// connResult is one connection's contribution to the report.
type connResult struct {
	samples   uint64
	aggs      []phaseAgg
	counts    map[uint64]uint64
	stats     client.Stats
	redirects uint64
	failovers uint64
}

// batchSink abstracts where generated batches land: a resilient wire
// client or an in-process pool.
type batchSink interface {
	sendEvents(key uint64, vals []int64) error
	sendMagnitudes(key uint64, vals []float64) error
	// flushStaged pushes buffered frames before the shaper idles, so the
	// server keeps draining while the generator sleeps.
	flushStaged() error
}

// driveConn runs connection ci's whole workload into sink: generate,
// shape, time, attribute. It is the one drive loop shared by the wire
// and in-process paths, so both measure exactly the same workload.
func driveConn(ctx context.Context, cfg *Config, ci int, sink batchSink) (connResult, error) {
	g := newConnGen(cfg, ci)
	sh := newShaper(cfg)
	evs := make([]int64, cfg.BatchSize)
	mags := make([]float64, cfg.BatchSize)
	res := connResult{counts: g.counts}
	finish := func(err error) (connResult, error) {
		sh.finish()
		res.aggs = sh.aggs
		return res, err
	}
	for {
		key, start, n, ok := g.nextBatch()
		if !ok {
			break
		}
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		if err := sh.prepare(ctx, sink.flushStaged); err != nil {
			return finish(err)
		}
		mag := magnitudeKey(cfg, key)
		for i := 0; i < n; i++ {
			v := sampleValue(cfg, key, start+uint64(i))
			if mag {
				mags[i] = float64(v)
			} else {
				evs[i] = v
			}
		}
		t0 := time.Now()
		var err error
		if mag {
			err = sink.sendMagnitudes(key, mags[:n])
		} else {
			err = sink.sendEvents(key, evs[:n])
		}
		if err != nil {
			return finish(err)
		}
		sh.record(n, time.Since(t0))
		res.samples += uint64(n)
		if err := sh.pace(ctx, sink.flushStaged); err != nil {
			return finish(err)
		}
	}
	return finish(nil)
}

// buildReport merges per-connection results into the run summary.
func buildReport(cfg *Config, elapsed time.Duration, results []connResult) Report {
	rep := Report{
		Conns:         cfg.Conns,
		Streams:       cfg.Streams,
		Elapsed:       elapsed,
		Latency:       &obs.Hist{},
		StreamSamples: make(map[uint64]uint64),
	}
	phases := effectivePhases(cfg)
	merged := make([]phaseAgg, len(phases))
	for _, r := range results {
		rep.Samples += r.samples
		rep.Reconnects += r.stats.Reconnects
		rep.ReplayedSamples += r.stats.ReplayedSamples
		rep.OverloadBackoffs += r.stats.OverloadBackoffs
		rep.Redirects += r.redirects
		rep.Failovers += r.failovers
		for k, n := range r.counts {
			rep.StreamSamples[k] += n
		}
		for i := range r.aggs {
			merged[i].name = r.aggs[i].name
			merged[i].samples += r.aggs[i].samples
			if r.aggs[i].active > merged[i].active {
				merged[i].active = r.aggs[i].active
			}
			merged[i].hist.Merge(&r.aggs[i].hist)
		}
	}
	for i := range merged {
		pr := PhaseReport{
			Name:    merged[i].name,
			Samples: merged[i].samples,
			Active:  merged[i].active,
			P50:     merged[i].hist.Quantile(0.50),
			P99:     merged[i].hist.Quantile(0.99),
			P999:    merged[i].hist.Quantile(0.999),
		}
		if s := merged[i].active.Seconds(); s > 0 {
			pr.MelemsPerSec = float64(merged[i].samples) / s / 1e6
		}
		rep.Phases = append(rep.Phases, pr)
		rep.Latency.Merge(&merged[i].hist)
	}
	rep.DistinctStreams = len(rep.StreamSamples)
	rep.Fingerprint = Fingerprint(rep.StreamSamples)
	rep.P50 = rep.Latency.Quantile(0.50)
	rep.P99 = rep.Latency.Quantile(0.99)
	rep.P999 = rep.Latency.Quantile(0.999)
	rep.MaxLatency = rep.Latency.Max()
	if s := elapsed.Seconds(); s > 0 {
		rep.MelemsPerSec = float64(rep.Samples) / s / 1e6
	}
	return rep
}

// Run executes one load run over the wire and blocks until every
// connection has finished and barriered (or ctx is cancelled, which
// aborts the run with its error). Connections share nothing but the
// counters, so the generator itself scales with cores.
func Run(ctx context.Context, cfg Config) (Report, error) {
	cfg.normalize()
	if err := cfg.Workload.validate(); err != nil {
		return Report{}, err
	}
	var (
		mu      sync.Mutex
		results []connResult
		first   error
		wg      sync.WaitGroup
	)
	start := time.Now()
	for ci := 0; ci < cfg.Conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			res, err := runConn(ctx, &cfg, ci)
			mu.Lock()
			results = append(results, res)
			if err != nil && first == nil {
				first = fmt.Errorf("loadgen conn %d: %w", ci, err)
			}
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	return buildReport(&cfg, time.Since(start), results), first
}

// clientSink adapts a resilient client to the drive loop.
type clientSink struct{ cl *client.Client }

func (s clientSink) sendEvents(key uint64, vals []int64) error { return s.cl.SendEvents(key, vals) }
func (s clientSink) sendMagnitudes(key uint64, vals []float64) error {
	return s.cl.SendMagnitudes(key, vals)
}
func (s clientSink) flushStaged() error { return s.cl.Flush() }

// routerSink adapts a cluster router to the drive loop.
type routerSink struct{ r *cluster.Router }

func (s routerSink) sendEvents(key uint64, vals []int64) error { return s.r.SendEvents(key, vals) }
func (s routerSink) sendMagnitudes(key uint64, vals []float64) error {
	return s.r.SendMagnitudes(key, vals)
}
func (s routerSink) flushStaged() error { return nil }

// runRouterConn drives one connection's workload through a cluster
// router: the same drive loop and barrier contract as runConn, with
// per-owner fan-out, redirect replay and failover underneath.
func runRouterConn(ctx context.Context, cfg *Config, ci int) (connResult, error) {
	rt, err := cluster.DialRouter(cluster.RouterConfig{
		HTTPAddrs: cfg.ClusterHTTP,
		Client: client.Config{
			Window:      cfg.Window,
			Ack:         cfg.Ack,
			RetryBudget: cfg.RetryBudget,
			Seed:        uint64(ci) + 1,
		},
	})
	if err != nil {
		return connResult{}, err
	}
	defer rt.Close()

	grab := func(res *connResult) {
		st := rt.Stats()
		res.stats = st.Client
		res.redirects = st.Redirects
		res.failovers = st.Failovers
	}
	res, err := driveConn(ctx, cfg, ci, routerSink{rt})
	if err != nil {
		grab(&res)
		return res, err
	}
	if err := rt.Barrier(); err != nil {
		grab(&res)
		return res, err
	}
	grab(&res)
	return res, rt.Close()
}

// runConn drives one connection through a resilient client: its share
// of the workload batch by batch, then the ping barrier and the
// graceful close. The returned result's samples are barrier-confirmed
// applied samples.
func runConn(ctx context.Context, cfg *Config, ci int) (connResult, error) {
	if len(cfg.ClusterHTTP) > 0 {
		return runRouterConn(ctx, cfg, ci)
	}
	cl, err := client.Dial(client.Config{
		Addr:        cfg.Addr,
		Window:      cfg.Window,
		Ack:         cfg.Ack,
		RetryBudget: cfg.RetryBudget,
		Seed:        uint64(ci) + 1,
	})
	if err != nil {
		return connResult{}, err
	}
	defer cl.Close()

	res, err := driveConn(ctx, cfg, ci, clientSink{cl})
	res.stats = cl.Stats()
	if err != nil {
		return res, err
	}
	// Barrier: proves every batch above was applied, surviving any
	// reconnects it takes to get there.
	if err := cl.Barrier(); err != nil {
		res.stats = cl.Stats()
		return res, err
	}
	res.stats = cl.Stats()
	return res, cl.Close()
}
