package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"dpd"
)

// newRefereePool builds the pool under adversarial test with an
// explicit detector factory, so differential replays can construct the
// byte-identical standalone engine.
func newRefereePool(t *testing.T, shards int, idleTTL, sweepEvery uint64) *dpd.Pool {
	t.Helper()
	p, err := dpd.NewPool(dpd.PoolConfig{
		Shards:      shards,
		NewDetector: refereeDetector,
		IdleTTL:     idleTTL,
		SweepEvery:  sweepEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// refereeDetector is the single detector constructor shared by pooled
// streams and standalone replays in this file — same constructor, so
// any state divergence is the pool's fault, not a config mismatch.
func refereeDetector() dpd.Detector { return dpd.Must(dpd.WithWindow(48)) }

// replayStat feeds SampleAt(cfg, key, 0..n) into a fresh standalone
// detector and returns its final state.
func replayStat(cfg Config, key, n uint64) dpd.Stat {
	return replaySuffixStat(cfg, key, 0, n)
}

// replaySuffixStat feeds SampleAt(cfg, key, from..n) into a fresh
// standalone detector and returns its final state: what a stream
// re-created at its key's sample `from` must hold after sample n.
func replaySuffixStat(cfg Config, key, from, n uint64) dpd.Stat {
	ref := refereeDetector()
	for i := from; i < n; i++ {
		ks := SampleAt(cfg, key, i)
		ref.Feed(dpd.Sample{Value: ks.Value, Magnitude: ks.Magnitude})
	}
	return ref.Snapshot()
}

// diffPoolAgainstReplay asserts every surviving pooled stream's state
// is byte-identical (struct equality — core.Stat is comparable) to a
// standalone detector fed the same per-key subsequence.
func diffPoolAgainstReplay(t *testing.T, cfg Config, p *dpd.Pool, rep Report) int {
	t.Helper()
	checked := 0
	for _, st := range p.Snapshot(nil) {
		n, ok := rep.StreamSamples[st.Key]
		if !ok {
			t.Fatalf("pool holds stream %d the report never sent to", st.Key)
		}
		if want := replayStat(cfg, st.Key, n); st.Stat != want {
			t.Errorf("stream %d after %d samples: pooled %+v != standalone %+v", st.Key, n, st.Stat, want)
		}
		checked++
	}
	return checked
}

// TestZipfDifferential is the tentpole referee: heavily skewed key
// popularity at three thetas, eight concurrent feeders hammering the
// same hot shards, and every resulting stream must match a standalone
// detector fed the identical per-key subsequence.
func TestZipfDifferential(t *testing.T) {
	for _, theta := range []float64{0.6, 0.99, 1.2} {
		theta := theta
		t.Run(fmt.Sprintf("theta=%v", theta), func(t *testing.T) {
			p := newRefereePool(t, 4, 0, 0)
			defer p.Close()
			cfg := Config{
				Conns: 8, Streams: 64, SamplesPerStream: 128, BatchSize: 32, Period: 7,
				PatternStride: 100,
				Workload:      Workload{Dist: Dist{Kind: DistZipf, Theta: theta}, Seed: 42},
			}
			rep, err := RunPool(context.Background(), cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Samples != 64*128 {
				t.Fatalf("applied %d samples, want %d", rep.Samples, 64*128)
			}
			if p.Len() != rep.DistinctStreams {
				t.Fatalf("pool holds %d streams, report touched %d", p.Len(), rep.DistinctStreams)
			}
			if n := diffPoolAgainstReplay(t, cfg, p, rep); n != rep.DistinctStreams {
				t.Fatalf("differential checked %d streams, want %d", n, rep.DistinctStreams)
			}
			// The skew must actually be adversarial: the hottest stream
			// dominates a uniform share. With 8 keys per conn the analytic
			// rank-0 share is ~2× uniform at theta 0.6 and ~3-4× beyond.
			var hottest uint64
			for _, n := range rep.StreamSamples {
				if n > hottest {
					hottest = n
				}
			}
			uniform := rep.Samples / uint64(rep.DistinctStreams)
			floor := 2 * uniform
			if theta < 0.9 {
				floor = uniform + uniform/2
			}
			if hottest < floor {
				t.Errorf("theta=%v: hottest stream got %d samples, uniform share %d — not skewed", theta, hottest, uniform)
			}
		})
	}
}

// TestChurnStormConvergence drives create/evict cycles through fresh
// key windows while the pool's TTL sweeps reap the previous
// generations, then referees the survivors differentially. Uniform
// keys additionally pin exact accounting: every stream materializes
// exactly once, so live + evicted must equal distinct keys touched.
func TestChurnStormConvergence(t *testing.T) {
	for _, tc := range []struct {
		name string
		dist Dist
	}{
		{name: "uniform", dist: Dist{}},
		{name: "zipf", dist: Dist{Kind: DistZipf, Theta: 0.99}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := newRefereePool(t, 4, 1024, 128)
			defer p.Close()
			cfg := Config{
				Conns: 4, Streams: 64, SamplesPerStream: 240, BatchSize: 64, Period: 6,
				Workload: Workload{Dist: tc.dist, Seed: 7, Churn: 6},
			}
			rep, err := RunPool(context.Background(), cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			const windows = 64 * 6
			distinct := rep.DistinctStreams
			if tc.name == "uniform" && distinct != windows {
				t.Fatalf("uniform churn touched %d distinct keys, want every windowed key %d", distinct, windows)
			}
			// Zipf only draws the popular ranks of each window, so it
			// touches fewer keys — but every generation must contribute.
			if tc.name == "zipf" && (distinct <= 64 || distinct > windows) {
				t.Fatalf("zipf churn touched %d distinct keys, want in (64, %d]", distinct, windows)
			}
			if tc.name == "uniform" {
				for k, n := range rep.StreamSamples {
					if n != 240/6 {
						t.Fatalf("key %d got %d samples, want quota %d", k, n, 240/6)
					}
				}
				// One batch per key, one generation per key: every key
				// materializes exactly once, so the pool's books must close.
				if got := p.Len() + int(p.Evicted()); got != distinct {
					t.Errorf("live %d + evicted %d = %d, want %d", p.Len(), p.Evicted(), got, distinct)
				}
			}
			// The storm must have actually stormed: TTL sweeps reaped most
			// generations mid-run, and something survived to referee.
			if p.Evicted() < uint64(distinct/2) {
				t.Errorf("only %d evictions across the storm, want ≥ %d", p.Evicted(), distinct/2)
			}
			if p.Len() == 0 || p.Len() >= distinct/2 {
				t.Errorf("pool holds %d streams after the storm, want (0, %d)", p.Len(), distinct/2)
			}
			// Survivors — fed through recycled freelist detectors — still
			// match standalone replays exactly. Under zipf a popular key
			// can be TTL-evicted between two of its batches and re-created
			// by the next one: such a survivor holds only the suffix of
			// its key's samples sent since, and must match a standalone
			// fed exactly that suffix.
			checked, recreated := 0, 0
			for _, st := range p.Snapshot(nil) {
				n, ok := rep.StreamSamples[st.Key]
				if !ok {
					t.Fatalf("pool holds stream %d the report never sent to", st.Key)
				}
				m := st.Stat.Samples
				if m == 0 || m > n {
					t.Fatalf("stream %d holds %d samples, its key was sent %d", st.Key, m, n)
				}
				if m < n {
					if tc.name == "uniform" {
						t.Fatalf("uniform key %d was re-created: holds %d of its %d samples", st.Key, m, n)
					}
					recreated++
				}
				if want := replaySuffixStat(cfg, st.Key, n-m, n); st.Stat != want {
					t.Errorf("stream %d holding samples %d..%d: pooled %+v != standalone %+v", st.Key, n-m, n, st.Stat, want)
				}
				checked++
			}
			if checked == 0 {
				t.Fatal("no surviving streams to referee")
			}
			// Every materialization is live or evicted, and a re-created
			// survivor materialized at least twice.
			if got := p.Len() + int(p.Evicted()); got < distinct+recreated {
				t.Errorf("live %d + evicted %d = %d < %d distinct keys + %d re-created survivors (missed materializations)",
					p.Len(), p.Evicted(), got, distinct, recreated)
			}
		})
	}
}

// TestChurnCycleAllocStable gates the churn path itself: once the
// freelist and staging buffers are warm, a full create→evict generation
// cycle allocates nothing — eviction recycles detector state instead of
// dropping it for the GC, and fresh keys reuse the map's tombstones.
func TestChurnCycleAllocStable(t *testing.T) {
	p := newRefereePool(t, 2, 1<<20, 1<<20)
	defer p.Close()
	const live, perKey = 32, 16
	batch := make([]dpd.KeyedSample, live)
	gen := uint64(0)
	cycle := func() {
		base := gen * live
		gen++
		// Sample-major interleave: every live key's last feed lands within
		// the final `live` samples, so EvictIdle(64) below cleanly
		// separates this generation (idle ≤ ~32/shard) from the previous
		// one (idle ≥ ~256/shard).
		for s := int64(0); s < perKey; s++ {
			for i := range batch {
				batch[i] = dpd.KeyedSample{Key: base + uint64(i), Value: s % 5}
			}
			p.FeedBatch(batch)
		}
		p.EvictIdle(64)
	}
	for i := 0; i < 6; i++ {
		cycle()
	}
	if got := p.Len(); got != live {
		t.Fatalf("after warmup, pool holds %d streams, want %d live", got, live)
	}
	// A recycling leak costs ≥ `live` allocations per cycle (a detector
	// plus stream per key materialized without the freelist). The only
	// tolerated residue is the shard maps' own tombstone housekeeping —
	// a small constant (measured ≤ 4) independent of the live set.
	if n := testing.AllocsPerRun(20, cycle); n >= live/4 {
		t.Fatalf("churn cycle allocates %.1f objects/cycle in steady state, want < %d", n, live/4)
	}
	if got := p.Len(); got != live {
		t.Fatalf("after gated cycles, pool holds %d streams, want %d", got, live)
	}
}

// TestBurstPhases runs an on/off arrival schedule over the wire and
// checks the phase machinery: the pause gaps show up in wall time but
// not in the phase's active time, and the per-phase breakdown carries
// the batch-accept histogram.
func TestBurstPhases(t *testing.T) {
	s := startServer(t, dpd.PoolConfig{Shards: 2, Detector: dpd.Config{Window: 32}})
	phases, err := ParseBurst("256:20ms")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := Run(context.Background(), Config{
		Addr:  s.Addr(),
		Conns: 2, Streams: 8, SamplesPerStream: 512, BatchSize: 64, Period: 5,
		Workload: Workload{Phases: phases, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if rep.Samples != 8*512 {
		t.Fatalf("applied %d samples, want %d", rep.Samples, 8*512)
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Name != "burst" {
		t.Fatalf("phase breakdown = %+v, want one burst phase", rep.Phases)
	}
	ph := rep.Phases[0]
	if ph.Samples != 8*512 {
		t.Errorf("burst phase applied %d samples, want %d", ph.Samples, 8*512)
	}
	// 2048 samples/conn in 256-sample passes ⇒ 8 passes ⇒ 7 off-gaps of
	// 20ms each; allow heavy scheduler slack but demand most of them.
	if elapsed < 100*time.Millisecond {
		t.Errorf("burst run finished in %v — the off-phases did not pause", elapsed)
	}
	if ph.Active >= elapsed {
		t.Errorf("active time %v not below wall time %v — pauses were counted as active", ph.Active, elapsed)
	}
	if ph.MelemsPerSec <= 0 {
		t.Errorf("burst phase throughput %v, want > 0", ph.MelemsPerSec)
	}
	if rep.Latency == nil || rep.Latency.Count() == 0 {
		t.Fatal("no batch-accept latencies recorded")
	}
	if rep.P99 < rep.P50 || rep.P999 < rep.P99 || rep.MaxLatency < rep.P999 {
		t.Errorf("latency quantiles not monotone: p50=%v p99=%v p999=%v max=%v",
			rep.P50, rep.P99, rep.P999, rep.MaxLatency)
	}
}

// TestRampPhase drives a linearly ramping arrival rate in-process and
// checks the shaper actually throttles: the run cannot finish faster
// than the schedule's average rate allows.
func TestRampPhase(t *testing.T) {
	p := newRefereePool(t, 2, 0, 0)
	defer p.Close()
	start := time.Now()
	rep, err := RunPool(context.Background(), Config{
		Conns: 2, Streams: 4, SamplesPerStream: 1000, BatchSize: 50, Period: 5,
		Workload: Workload{Phases: []Phase{{Name: "ramp", Samples: 1000, Rate: 20000, RampTo: 60000}}},
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if rep.Samples != 4*1000 {
		t.Fatalf("applied %d samples, want %d", rep.Samples, 4*1000)
	}
	// 4000 samples at an average of 40k/s is 100ms of schedule; a shaper
	// that ignores RampTo's interpolation would finish almost instantly.
	if elapsed < 60*time.Millisecond {
		t.Errorf("ramp run finished in %v, want ≥ 60ms of pacing", elapsed)
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Name != "ramp" {
		t.Fatalf("phase breakdown = %+v, want one ramp phase", rep.Phases)
	}
	if rep.Phases[0].Active == 0 {
		t.Error("ramp phase recorded no active time")
	}
}

// TestStreamsPagingDuringChurn pages GET /streams while a churn storm
// creates and evicts streams underneath the cursor: every enumeration
// must stay strictly ascending, respect the page limit, and terminate.
func TestStreamsPagingDuringChurn(t *testing.T) {
	s := startServer(t, dpd.PoolConfig{Shards: 4, Detector: dpd.Config{Window: 32}, IdleTTL: 2048, SweepEvery: 128})
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), Config{
			Addr:  s.Addr(),
			Conns: 4, Streams: 48, SamplesPerStream: 240, BatchSize: 48, Period: 6,
			Rate:     40000,
			Workload: Workload{Churn: 4, Seed: 3},
		})
		done <- err
	}()
	type page struct {
		Streams []struct {
			Key uint64 `json:"key"`
		} `json:"streams"`
		Count     int     `json:"count"`
		NextAfter *uint64 `json:"next_after"`
	}
	enumerate := func() int {
		t.Helper()
		total, after, pages := 0, "", 0
		last := int64(-1)
		for {
			url := "http://" + s.HTTPAddr() + "/streams?limit=7" + after
			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			var pg page
			err = json.NewDecoder(resp.Body).Decode(&pg)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if pg.Count != len(pg.Streams) {
				t.Fatalf("page count %d != %d streams", pg.Count, len(pg.Streams))
			}
			if len(pg.Streams) > 7 {
				t.Fatalf("page of %d streams exceeds limit 7", len(pg.Streams))
			}
			for _, st := range pg.Streams {
				if int64(st.Key) <= last {
					t.Fatalf("paging went backwards: key %d after %d", st.Key, last)
				}
				last = int64(st.Key)
				total++
			}
			if pg.NextAfter == nil {
				return total
			}
			after = fmt.Sprintf("&after=%d", *pg.NextAfter)
			if pages++; pages > 1000 {
				t.Fatal("paging did not terminate within 1000 pages")
			}
		}
	}
	enumerations := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if enumerations == 0 {
				t.Fatal("run finished before a single mid-storm enumeration")
			}
			// One final enumeration over the settled pool.
			if n := enumerate(); n != s.Pool().Len() {
				t.Fatalf("settled enumeration saw %d streams, pool holds %d", n, s.Pool().Len())
			}
			return
		default:
			enumerate()
			enumerations++
		}
	}
}

// TestRunDeterministicUnderSeed is the reproducibility acceptance
// gate: the same seeded spec against two fresh servers produces the
// identical per-stream sample counts, the identical fingerprint, and
// the identical per-stream detector states — which in turn match the
// standalone replay.
func TestRunDeterministicUnderSeed(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		mixed := mixed
		t.Run(fmt.Sprintf("mixed=%v", mixed), func(t *testing.T) {
			cfg := Config{
				Conns: 3, Streams: 24, SamplesPerStream: 120, BatchSize: 16, Period: 5,
				PatternStride: 10,
				Workload:      Workload{Dist: Dist{Kind: DistZipf, Theta: 0.99}, Seed: 42, Mixed: mixed},
			}
			run := func() (Report, map[uint64]dpd.Stat) {
				s := startServer(t, dpd.PoolConfig{Shards: 3, NewDetector: refereeDetector})
				c := cfg
				c.Addr = s.Addr()
				rep, err := Run(context.Background(), c)
				if err != nil {
					t.Fatal(err)
				}
				stats := make(map[uint64]dpd.Stat)
				for _, st := range s.Pool().Snapshot(nil) {
					stats[st.Key] = st.Stat
				}
				return rep, stats
			}
			repA, statsA := run()
			repB, statsB := run()
			if repA.Fingerprint != repB.Fingerprint {
				t.Fatalf("fingerprints differ across identical seeded runs: %#x != %#x", repA.Fingerprint, repB.Fingerprint)
			}
			if len(repA.StreamSamples) != len(repB.StreamSamples) {
				t.Fatalf("distinct streams differ: %d != %d", len(repA.StreamSamples), len(repB.StreamSamples))
			}
			for k, n := range repA.StreamSamples {
				if repB.StreamSamples[k] != n {
					t.Fatalf("stream %d: %d samples in run A, %d in run B", k, n, repB.StreamSamples[k])
				}
			}
			if len(statsA) != len(statsB) {
				t.Fatalf("server stream counts differ: %d != %d", len(statsA), len(statsB))
			}
			for k, st := range statsA {
				if statsB[k] != st {
					t.Fatalf("stream %d: detector state differs across identical runs", k)
				}
				if want := replayStat(cfg, k, repA.StreamSamples[k]); st != want {
					t.Fatalf("stream %d: server %+v != standalone replay %+v", k, st, want)
				}
			}
		})
	}
}
