// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4), plus ablation benches for the design
// choices. Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics: ns/elem is the per-sample DPD cost (Table 3's
// TimexElem column), pct_overhead the Table 3 Percentage column.
package dpd_test

import (
	"testing"
	"time"

	"dpd"
	"dpd/internal/apps"
	"dpd/internal/core"
	"dpd/internal/ditools"
	"dpd/internal/dsp"
	"dpd/internal/experiments"
	"dpd/internal/machine"
	"dpd/internal/nanos"
	"dpd/internal/obs"
	"dpd/internal/selfanalyzer"
	"dpd/internal/series"
	"dpd/internal/server"
	"dpd/internal/wire"
)

// BenchmarkFig3FTTrace regenerates Figure 3: the simulated MPI/OpenMP FT
// run with 1 ms CPU sampling.
func BenchmarkFig3FTTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := apps.FTCPUTrace(50, 20010513)
		if tr.Len() < 2000 {
			b.Fatal("trace too short")
		}
	}
}

// BenchmarkFig4DistanceCurve regenerates Figure 4: the eq. (1) distance
// curve over the FT trace, minimum at m = 44.
func BenchmarkFig4DistanceCurve(b *testing.B) {
	tr := apps.FTCPUTrace(50, 20010513)
	// Cold-start cost is construction, not detection: build once, Reset
	// per replay (byte-equivalent to a fresh detector — pinned by
	// TestPaperBenchColdStartAllocFree), so the whole table runs at 0
	// allocs/op.
	det := core.MustMagnitudeDetector(core.Config{Window: 100, Confirm: 3})
	replay := func() {
		det.Reset()
		var last core.Result
		for _, v := range tr.Samples {
			last = det.Feed(v)
		}
		if last.Period < 43 || last.Period > 45 {
			b.Fatalf("period=%d, want ≈44", last.Period)
		}
	}
	replay() // warm any lazily-grown internals before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
}

// BenchmarkFig7Segmentation regenerates Figure 7: segmentation of the
// five SPECfp95 address streams.
func BenchmarkFig7Segmentation(b *testing.B) {
	traces := make(map[string][]int64)
	for _, app := range apps.SPECfp95() {
		traces[app.Name] = app.Trace().Values
	}
	ms := core.MustMultiScaleDetector(nil, core.Config{})
	replay := func() {
		for name, vals := range traces {
			ms.Reset()
			starts := 0
			for _, v := range vals {
				if mr := ms.Feed(v); mr.Primary.Start {
					starts++
				}
			}
			if starts == 0 {
				b.Fatalf("%s: no segmentation", name)
			}
		}
	}
	replay() // warm the pending-start queue before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
}

// BenchmarkTable2Detection regenerates Table 2: detected periodicities of
// every application, one sub-benchmark per app.
func BenchmarkTable2Detection(b *testing.B) {
	for _, app := range apps.SPECfp95() {
		app := app
		vals := app.Trace().Values
		b.Run(app.Name, func(b *testing.B) {
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
				if len(got) != len(app.ExpectPeriods) {
					b.Fatalf("periods %v, want %v", got, app.ExpectPeriods)
				}
			}
			replay() // warm the tracker's period slots before measuring
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replay()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(vals)), "ns/elem")
		})
	}
}

// BenchmarkTable3Overhead regenerates Table 3: per-element DPD processing
// cost on each application trace, with the detector sized to the app's
// periodicity structure (flat apps: small window; nested: full ladder).
func BenchmarkTable3Overhead(b *testing.B) {
	ladder := func(app *apps.App) []int {
		maxP := 0
		for _, p := range app.ExpectPeriods {
			if p > maxP {
				maxP = p
			}
		}
		switch {
		case maxP <= 8:
			return []int{16}
		case maxP <= 100:
			return []int{8, 128}
		default:
			return core.DefaultLadder
		}
	}
	for _, app := range apps.SPECfp95() {
		app := app
		vals := app.Trace().Values
		apex := app.SequentialTime()
		b.Run(app.Name, func(b *testing.B) {
			b.ReportAllocs()
			ms := core.MustMultiScaleDetector(ladder(app), core.Config{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, v := range vals {
					ms.Feed(v)
				}
			}
			perElem := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(vals))
			b.ReportMetric(perElem, "ns/elem")
			// Percentage column: whole-trace processing time vs ApExTime.
			procNs := perElem * float64(len(vals))
			b.ReportMetric(100*procNs/float64(apex.Nanoseconds()), "pct_overhead")
		})
	}
}

// BenchmarkSelfAnalyzer reproduces the §5 case study: dynamic region
// identification and speedup measurement under interposition.
func BenchmarkSelfAnalyzer(b *testing.B) {
	app := apps.Tomcatv()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := machine.New(16)
		reg := ditools.NewRegistry()
		rt := nanos.MustNew(m, machine.DefaultCostModel(), 16, reg)
		sa := selfanalyzer.MustAttach(rt, reg, selfanalyzer.Config{})
		app.RunIterations(rt, 60)
		if _, ok := sa.Speedup(); !ok {
			b.Fatal("no speedup measured")
		}
	}
}

// BenchmarkSchedulerPolicies reproduces the [Corbalan2000] consumer:
// equipartition vs performance-driven allocation on the SPECfp95-derived
// workload, reporting the CPU-time saving as a custom metric.
func BenchmarkSchedulerPolicies(b *testing.B) {
	b.ReportAllocs()
	var saving float64
	for i := 0; i < b.N; i++ {
		sr, err := experiments.Scheduler(16)
		if err != nil {
			b.Fatal(err)
		}
		saving = sr.CPUSaving
	}
	b.ReportMetric(saving, "cpu_saving_x")
}

// --- Ablation benches (design choices called out in DESIGN.md §5) ---

// BenchmarkWindowSweep: per-sample cost as a function of window size N —
// the reason Table 3's hydro2d/turb3d rows cost ~30× more per element.
func BenchmarkWindowSweep(b *testing.B) {
	for _, n := range []int{8, 32, 128, 512, 1024} {
		n := n
		b.Run(benchName("N", n), func(b *testing.B) {
			det := core.MustEventDetector(core.Config{Window: n})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.Feed(int64(i % 5))
			}
		})
	}
}

// BenchmarkMetrics: eq. (1) magnitude metric vs eq. (2) event metric at
// the same window size.
func BenchmarkMetrics(b *testing.B) {
	const n = 256
	b.Run("eq2-event", func(b *testing.B) {
		det := core.MustEventDetector(core.Config{Window: n})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			det.Feed(int64(i % 7))
		}
	})
	b.Run("eq1-magnitude", func(b *testing.B) {
		det := core.MustMagnitudeDetector(core.Config{Window: n})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			det.Feed(float64(i % 7))
		}
	})
}

// BenchmarkBaselines: the online DPD against offline autocorrelation and
// periodogram estimators over the same frame.
func BenchmarkBaselines(b *testing.B) {
	g := series.NewPatternGenerator([]float64{0, 1, 2, 3, 4, 3, 2, 1})
	frame := series.Take(g, 1024)
	ints := make([]int64, len(frame))
	for i, v := range frame {
		ints[i] = int64(v)
	}
	b.Run("dpd-online", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			det := core.MustEventDetector(core.Config{Window: 64})
			var last core.Result
			for _, v := range ints {
				last = det.Feed(v)
			}
			if last.Period != 8 {
				b.Fatalf("period=%d", last.Period)
			}
		}
	})
	b.Run("acf-online", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a := dsp.MustOnlineACF(64, 0.01)
			for _, v := range frame {
				a.Feed(v)
			}
			if p := a.EstimatePeriod(0.5); p != 8 {
				b.Fatalf("period=%d", p)
			}
		}
	})
	b.Run("autocorr-fft", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if p := dsp.EstimatePeriodACF(frame, 100, 0.5); p != 8 {
				b.Fatalf("period=%d", p)
			}
		}
	})
	b.Run("periodogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if p := dsp.EstimatePeriodSpectral(frame); p != 8 {
				b.Fatalf("period=%d", p)
			}
		}
	})
}

// BenchmarkIncrementalVsNaive: the O(M) incremental curve update against
// recomputing the distance from scratch each sample (O(N·M)). Uses the
// eq. (1) magnitude metric, whose naive form cannot early-out on the
// first mismatch — the case the incremental design exists for.
func BenchmarkIncrementalVsNaive(b *testing.B) {
	const n = 128
	pat := []float64{1, 2, 3, 4, 5, 6}
	b.Run("incremental", func(b *testing.B) {
		det := core.MustMagnitudeDetector(core.Config{Window: n})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			det.Feed(pat[i%len(pat)])
		}
	})
	b.Run("naive", func(b *testing.B) {
		// Pre-fill so every lag is valid from the first measured sample.
		hist := make([]float64, 0, b.N+2*n)
		for i := 0; i < 2*n; i++ {
			hist = append(hist, pat[i%len(pat)])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hist = append(hist, pat[i%len(pat)])
			core.NaiveCurveL1(hist, n, n-1)
		}
	})
}

// BenchmarkAdaptiveWindow: fixed large window vs the adaptive policy that
// shrinks after lock (paper §3.1/§4) on a short-period stream.
func BenchmarkAdaptiveWindow(b *testing.B) {
	b.Run("fixed-1024", func(b *testing.B) {
		det := core.MustEventDetector(core.Config{Window: 1024})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			det.Feed(int64(i % 5))
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		det := core.MustAdaptiveDetector(core.DefaultAdaptivePolicy(), core.Config{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			det.Feed(int64(i % 5))
		}
	})
}

// BenchmarkBatchVsPerSample: the FeedAll batch entry points against the
// per-sample Feed loop on the same stream — the amortization the batch API
// exists for (ISSUE 1 layer 4), and the path future sharded multi-stream
// serving builds on.
func BenchmarkBatchVsPerSample(b *testing.B) {
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64(i % 9)
	}
	b.Run("event-feed", func(b *testing.B) {
		det := core.MustEventDetector(core.Config{Window: 128})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, v := range vals {
				det.Feed(v)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(vals)), "ns/elem")
	})
	b.Run("event-feedall", func(b *testing.B) {
		det := core.MustEventDetector(core.Config{Window: 128})
		dst := make([]core.Result, len(vals))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = det.FeedAll(vals, dst)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(vals)), "ns/elem")
	})
	b.Run("multiscale-feed", func(b *testing.B) {
		ms := core.MustMultiScaleDetector(nil, core.Config{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, v := range vals {
				ms.Feed(v)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(vals)), "ns/elem")
	})
	b.Run("multiscale-feedall", func(b *testing.B) {
		ms := core.MustMultiScaleDetector(nil, core.Config{})
		dst := make([]core.MultiResult, len(vals))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = ms.FeedAll(vals, dst)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(vals)), "ns/elem")
	})
}

// BenchmarkPoolFeed: aggregate multi-stream throughput of the sharded
// pool (ISSUE 2 tentpole) across shard counts and stream populations.
// Every stream cycles a period-8 pattern, so the steady state is the
// locked, allocation-free hot path; ns/elem is the per-sample cost seen
// by a runtime system watching the whole workload, elems/s the aggregate
// ingest rate. Parallel speedup from sharding requires GOMAXPROCS > 1.
func BenchmarkPoolFeed(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		shards := shards
		b.Run(benchName("shards", shards), func(b *testing.B) {
			for _, streams := range []int{1000, 100000} {
				streams := streams
				b.Run(benchName("streams", streams), func(b *testing.B) {
					p, err := dpd.NewPool(dpd.PoolConfig{
						Shards:   shards,
						Detector: dpd.Config{Window: 32},
					})
					if err != nil {
						b.Fatal(err)
					}
					defer p.Close()
					batch := make([]dpd.KeyedSample, streams)
					for i := range batch {
						batch[i].Key = uint64(i)
					}
					feed := func(round int) {
						v := int64(round % 8)
						for j := range batch {
							batch[j].Value = v
						}
						p.FeedBatch(batch)
					}
					// Warm every lag window so measurement sees only the
					// locked steady state.
					for r := 0; r < 48; r++ {
						feed(r)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						feed(i)
					}
					b.StopTimer()
					elems := float64(b.N) * float64(streams)
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/elems, "ns/elem")
					b.ReportMetric(elems/b.Elapsed().Seconds(), "elems/s")
				})
			}
		})
	}
}

// BenchmarkPoolFeedAdaptive: cost and payoff of contention-adaptive
// hot-stream placement.
//
//   - uniform: 512 equally popular streams, where the sampler runs on
//     every sample but nothing ever qualifies for promotion — the
//     on/off delta is the total overhead of the adaptive machinery on
//     well-behaved traffic. Nothing asserts a bound on it.
//   - skewed: one celebrity key carries half of every batch. With
//     adaptive on, the benchmark first waits for the coordinator to
//     promote it, so the measured steady state serves the hot key off
//     its dedicated single-producer ring instead of a contended shard.
func BenchmarkPoolFeedAdaptive(b *testing.B) {
	mkBatch := func(skewed bool) []dpd.KeyedSample {
		const n = 512
		batch := make([]dpd.KeyedSample, n)
		for i := range batch {
			if skewed && i%2 == 0 {
				batch[i].Key = 7 // celebrity: 50% of every batch
			} else {
				batch[i].Key = 100 + uint64(i)
			}
		}
		return batch
	}
	for _, shape := range []struct {
		name   string
		skewed bool
	}{{"uniform", false}, {"skewed", true}} {
		shape := shape
		b.Run(shape.name, func(b *testing.B) {
			for _, adaptive := range []bool{false, true} {
				adaptive := adaptive
				name := "adaptive=off"
				if adaptive {
					name = "adaptive=on"
				}
				b.Run(name, func(b *testing.B) {
					cfg := dpd.PoolConfig{Shards: 4, Detector: dpd.Config{Window: 32}}
					if adaptive {
						// Uniform measures the inline cost at the default
						// coordinator cadence (nothing ever promotes); the
						// skewed cell runs a hair-trigger cadence so the
						// promotion it is waiting for happens quickly.
						cfg.Adaptive = dpd.AdaptiveConfig{Enable: true}
						if shape.skewed {
							cfg.Adaptive = dpd.AdaptiveConfig{
								Enable:         true,
								FoldEvery:      2 * time.Millisecond,
								PromoteShare:   0.30,
								PromoteAfter:   1,
								DemoteAfter:    1 << 30, // hold hot placement for the whole run
								MinFoldSamples: 1,
							}
						}
					}
					p, err := dpd.NewPool(cfg)
					if err != nil {
						b.Fatal(err)
					}
					defer p.Close()
					batch := mkBatch(shape.skewed)
					feed := func(round int) {
						v := int64(round % 8)
						for j := range batch {
							batch[j].Value = v
						}
						p.FeedBatch(batch)
					}
					for r := 0; r < 48; r++ {
						feed(r)
					}
					if adaptive && shape.skewed {
						// Measure the promoted steady state, not the
						// transition: feed until the coordinator moves
						// the celebrity onto its hot worker.
						deadline := time.Now().Add(10 * time.Second)
						for r := 48; p.AdaptiveStats().HotStreams == 0; r++ {
							if time.Now().After(deadline) {
								b.Fatalf("celebrity never promoted: %+v", p.AdaptiveStats())
							}
							feed(r)
							time.Sleep(time.Millisecond)
						}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						feed(i)
					}
					b.StopTimer()
					if adaptive && shape.skewed {
						st := p.AdaptiveStats()
						if st.HotStreams == 0 {
							b.Fatalf("celebrity demoted mid-measurement: %+v", st)
						}
					}
					elems := float64(b.N) * float64(len(batch))
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/elems, "ns/elem")
					b.ReportMetric(elems/b.Elapsed().Seconds(), "elems/s")
				})
			}
		})
	}
}

// BenchmarkPoolFeedObs: total overhead of the PR 10 observability core
// on the pool's batch feed path — flight recorder wired plus the
// FeedBatch latency histogram at its default 1-in-8 stride, exactly the
// instrumentation a live server runs. The obs=off/obs=on ns/elem delta
// is the overhead the CI obs job's overhead guard asserts ≤2%.
func BenchmarkPoolFeedObs(b *testing.B) {
	for _, on := range []bool{false, true} {
		on := on
		name := "obs=off"
		if on {
			name = "obs=on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := dpd.PoolConfig{Shards: 4, Detector: dpd.Config{Window: 32}}
			if on {
				cfg.Recorder = obs.NewRecorder(0)
				cfg.FeedLatency = obs.NewSampledHist(obs.DefaultFeedBatchEvery)
			}
			p, err := dpd.NewPool(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			const streams = 512
			batch := make([]dpd.KeyedSample, streams)
			for i := range batch {
				batch[i].Key = uint64(i)
			}
			feed := func(round int) {
				v := int64(round % 8)
				for j := range batch {
					batch[j].Value = v
				}
				p.FeedBatch(batch)
			}
			for r := 0; r < 48; r++ {
				feed(r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				feed(i)
			}
			b.StopTimer()
			elems := float64(b.N) * float64(streams)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/elems, "ns/elem")
			b.ReportMetric(elems/b.Elapsed().Seconds(), "elems/s")
		})
	}
}

// BenchmarkInterposition: cost of the DITools dispatch path per loop call.
func BenchmarkInterposition(b *testing.B) {
	reg := ditools.NewRegistry()
	det := core.MustEventDetector(core.Config{Window: 32})
	reg.OnCall(func(e ditools.Event) { det.Feed(e.Addr) })
	body := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Call(time.Duration(i), int64(0x100+(i%5)*0x40), body)
	}
}

func benchName(prefix string, n int) string {
	const digits = "0123456789"
	if n == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = digits[n%10]
		n /= 10
	}
	return prefix + "=" + string(buf[i:])
}

// BenchmarkIngestFrameDecode: the serving layer's per-frame decode cost
// (ISSUE 5) — one 256-sample event batch frame parsed into a reused
// Frame, the exact steady-state read path of an ingest connection.
// ns/elem is the per-sample protocol overhead the network surface adds
// before Pool.FeedBatch; 0 allocs/op is asserted in alloc_test.go.
func BenchmarkIngestFrameDecode(b *testing.B) {
	const batch = 256
	for _, c := range []struct {
		name  string
		value func(i int) int64
	}{
		// One-byte varints.
		{"small", func(i int) int64 { return int64(i % 9) }},
		// serve-uniform's shape: a key near 20,000 plus i mod its
		// period, three bytes each.
		{"uniform", func(i int) int64 { return 20011 + int64(i%16) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			values := make([]int64, batch)
			for i := range values {
				values[i] = c.value(i)
			}
			var enc server.Enc
			framed := enc.AppendEventBatch(nil, 42, values)
			var d wire.Dec
			d.Reset(framed)
			d.Uvarint() // skip the length prefix: decode consumes the bare payload
			payload := framed[d.Offset():]
			var f server.Frame
			if err := server.DecodeFrame(payload, &f); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := server.DecodeFrame(payload, &f); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			elems := float64(b.N) * batch
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/elems, "ns/elem")
			b.ReportMetric(elems/b.Elapsed().Seconds(), "elems/s")
		})
	}
}
