package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"dpd"
	"dpd/internal/series"
	"dpd/internal/server"
	"dpd/internal/wire"
)

// Per-layer metrics of the traced run. Every figure comes from timing
// calls into a layer's public functions from this package: the series
// bank, the core engine, the pool, the server's frame decoder, and the
// live server and client of a serving run. A layer's self time is
// its measured time minus the measured time of the layer below it.

// replayBatch is one batch of one stream, as the workload feeds it.
type replayBatch struct {
	key  uint64
	vals []int64
}

// layerReplay is the input of the offline layer replays: the same
// per-stream sequences the workload feeds, at the workload's shapes.
type layerReplay struct {
	pre     map[uint64][]int64 // history fed untimed before the batches
	batches []replayBatch
	banks   []int // CountBank windows per stream (lags = window-1)
	ladder  bool  // streams run the DefaultLadder engine
	pool    dpd.PoolConfig
}

// replayBatches is how many batches of a serving schedule the offline
// replays use.
const replayBatches = 2048

// serveReplay takes replayBatches batches of the workload's schedule
// from batch from on, where the timed phase starts; each replayed
// stream first gets, untimed, everything it held before: its restored
// history and its earlier batches.
func serveReplay(sp *serveSpec, seed uint64, from int) *layerReplay {
	s := newSchedule(sp, seed)
	lr := &layerReplay{pre: map[uint64][]int64{}, banks: []int{window}, pool: sp.poolConfig()}
	for i := 0; i < from+replayBatches; i++ {
		key := s.nextKey()
		if _, ok := lr.pre[key]; !ok {
			h := []int64{}
			if key < uint64(sp.restored) {
				h = make([]int64, sp.history(seed, key))
				sp.values(seed, key, 0, h)
			}
			lr.pre[key] = h
		}
		vals := s.fill(key, make([]int64, batchLen))
		if i < from {
			lr.pre[key] = append(lr.pre[key], vals...)
		} else {
			lr.batches = append(lr.batches, replayBatch{key, vals})
		}
	}
	replayed := map[uint64]bool{}
	for _, b := range lr.batches {
		replayed[b.key] = true
	}
	for key := range lr.pre {
		if !replayed[key] {
			delete(lr.pre, key)
		}
	}
	return lr
}

// nestedPass is one pass over the five traces in 256-sample batches,
// under fresh stream keys (base+app), so every layer starts cold like a
// reset Table 2 pass.
func nestedPass(as []*nestedApp, base uint64) []replayBatch {
	var out []replayBatch
	for k, a := range as {
		for off := 0; off < len(a.vals); off += batchLen {
			out = append(out, replayBatch{base + uint64(k), a.vals[off:min(off+batchLen, len(a.vals))]})
		}
	}
	return out
}

// span accumulates one layer's replay time. Its per-sample figure is
// the median over replay chunks of total time / samples: a mean within
// a chunk, so the layers add up even where per-batch costs are skewed
// (ladder wake-ups), and a median across chunks against noise.
type span struct {
	d       time.Duration
	n       int
	chunks  []float64 // ns/sample per closed chunk
	batches []float64 // ns/sample per full batch
}

func (s *span) add(d time.Duration, n int) {
	s.d += d
	s.n += n
	if n == batchLen {
		s.batches = append(s.batches, float64(d.Nanoseconds())/float64(n))
	}
}

func (s *span) close() {
	if s.n > 0 {
		s.chunks = append(s.chunks, float64(s.d.Nanoseconds())/float64(s.n))
	}
	s.d, s.n = 0, 0
}

func (s *span) perSample() float64 { return median(s.chunks) }

// replayStream is one stream's state in every replayed layer: its
// CountBanks at the workload's shapes, its engine, and a second,
// observed engine for the transition counts (so the timed feeds run
// unobserved). The pool holds the stream's pooled copy.
type replayStream struct {
	banks    []*series.CountBank
	det, obs dpd.Detector
}

// layers replays batches through the series, core, pool and decode
// layers. Each batch goes through every layer in turn, so host-speed
// drift hits all layers alike and the self-time differences hold.
type layers struct {
	lr      *layerReplay
	streams map[uint64]*replayStream
	pool    *dpd.Pool
	pt      *dpd.PeriodTracker
	res     []dpd.Result
	ks      []dpd.KeyedSample
	enc     server.Enc
	f       server.Frame

	locks, unlocks, changes int
	obsFn                   dpd.ObserverFuncs
	samples                 int

	push, feed, track, poolNs, decode span
	poolUs                            []float64
}

// newLayers builds the replay pool and feeds every pre-history, untimed.
func newLayers(lr *layerReplay) (*layers, error) {
	l := &layers{lr: lr, streams: map[uint64]*replayStream{}, pt: dpd.NewPeriodTracker(),
		res: make([]dpd.Result, batchLen*len(dpd.DefaultLadder)), ks: make([]dpd.KeyedSample, batchLen)}
	l.obsFn = dpd.ObserverFuncs{
		Lock:         func(*dpd.Event) { l.locks++ },
		Unlock:       func(*dpd.Event) { l.unlocks++ },
		PeriodChange: func(*dpd.Event) { l.changes++ },
	}
	var err error
	if l.pool, err = dpd.NewPool(lr.pool); err != nil {
		return nil, err
	}
	var pre []dpd.KeyedSample
	for key, vals := range lr.pre {
		st, err := l.stream(key)
		if err != nil {
			l.pool.Close()
			return nil, err
		}
		for _, v := range vals {
			for _, b := range st.banks {
				b.Push(v)
			}
			st.det.Feed(dpd.Sample{Value: v})
			st.obs.Feed(dpd.Sample{Value: v})
			pre = append(pre, dpd.KeyedSample{Key: key, Value: v})
		}
	}
	l.pool.FeedBatch(pre)
	l.locks, l.unlocks, l.changes = 0, 0, 0
	return l, nil
}

// stream returns key's replay state, creating it cold.
func (l *layers) stream(key uint64) (*replayStream, error) {
	if st := l.streams[key]; st != nil {
		return st, nil
	}
	st := &replayStream{}
	for _, w := range l.lr.banks {
		st.banks = append(st.banks, series.NewCountBank(w, w-1))
	}
	var err error
	if st.det, err = newEngine(l.lr.ladder, nil); err != nil {
		return nil, err
	}
	if st.obs, err = newEngine(l.lr.ladder, l.obsFn); err != nil {
		return nil, err
	}
	l.streams[key] = st
	return st, nil
}

// replay runs one chunk of batches through every layer, timing each.
func (l *layers) replay(batches []replayBatch) error {
	defer func() {
		for _, s := range []*span{&l.push, &l.feed, &l.track, &l.poolNs, &l.decode} {
			s.close()
		}
	}()
	for _, b := range batches {
		st, err := l.stream(b.key)
		if err != nil {
			return err
		}
		n := len(b.vals)
		l.samples += n

		// series: CountBank.Push.
		t0 := time.Now()
		for _, v := range b.vals {
			for _, bank := range st.banks {
				bank.Push(v)
			}
		}
		l.push.add(time.Since(t0), n)

		// core: engine feed, then the tracker fold of its results.
		t0 = time.Now()
		var t1 time.Time
		if l.lr.ladder {
			ms := st.det.(*dpd.MultiScaleEngine).Ladder()
			lv := ms.Levels()
			for j, v := range b.vals {
				ms.FeedInto(v, l.res[j*lv:(j+1)*lv])
			}
			t1 = time.Now()
			for j := range b.vals {
				for i, r := range l.res[j*lv : (j+1)*lv] {
					l.pt.Observe(r, ms.Level(i).Window())
				}
			}
		} else {
			for j, v := range b.vals {
				l.res[j] = st.det.Feed(dpd.Sample{Value: v})
			}
			t1 = time.Now()
			for j := range b.vals {
				l.pt.Observe(l.res[j], window)
			}
		}
		l.feed.add(t1.Sub(t0), n)
		l.track.add(time.Since(t1), n)
		for _, v := range b.vals {
			st.obs.Feed(dpd.Sample{Value: v})
		}

		// pool: FeedBatch of the batch as the server hands it over.
		l.ks = l.ks[:n]
		for j, v := range b.vals {
			l.ks[j] = dpd.KeyedSample{Key: b.key, Value: v}
		}
		t0 = time.Now()
		l.pool.FeedBatch(l.ks)
		d := time.Since(t0)
		l.poolNs.add(d, n)
		if n == batchLen {
			l.poolUs = append(l.poolUs, us(d))
		}

		// server: DecodeFrame over the frame the client encoder builds.
		framed := l.enc.AppendEventBatch(nil, b.key, b.vals)
		var dec wire.Dec
		dec.Reset(framed)
		dec.Uvarint() // the length prefix; DecodeFrame takes the bare payload
		payload := framed[dec.Offset():]
		t0 = time.Now()
		for r := 0; r < 8; r++ {
			if err := server.DecodeFrame(payload, &l.f); err != nil {
				return fmt.Errorf("decode: %w", err)
			}
		}
		l.decode.add(time.Since(t0)/8, n)
	}
	return nil
}

// forget drops replayed streams so a later replay starts cold again.
func (l *layers) forget() {
	clear(l.streams)
	l.pool.EvictIdle(0)
}

// finish sets the replayed layers' metrics and closes the replay pool.
func (l *layers) finish(m metrics) error {
	defer l.pool.Close()
	pushNs, feedNs := l.push.perSample(), l.feed.perSample()
	m.set("series.push_ns", pushNs, "ns")
	m.set("core.feed_ns", feedNs, "ns")
	m.set("core.feed_p99_ns", quantile(l.feed.batches, 0.99), "ns")
	m.set("core.decide_ns", feedNs-pushNs, "ns")
	m.set("core.tracker_ns", l.track.perSample(), "ns")
	perK := 1000 / float64(l.samples)
	m.set("core.locks", float64(l.locks)*perK, "1/ksample")
	m.set("core.unlocks", float64(l.unlocks)*perK, "1/ksample")
	m.set("core.period_changes", float64(l.changes)*perK, "1/ksample")
	m.set("pool.feed_batch_p50_us", quantile(l.poolUs, 0.5), "us")
	m.set("pool.feed_batch_p99_us", quantile(l.poolUs, 0.99), "us")
	m.set("pool.ns_per_sample", l.poolNs.perSample()-feedNs, "ns")
	m.set("server.decode_ns_per_sample", l.decode.perSample(), "ns")

	// Snapshot and Stat over the last replay's streams, in groups of 1000.
	keys := make([]uint64, 0, len(l.streams))
	dets := make([]dpd.Detector, 0, len(l.streams))
	for key, st := range l.streams {
		keys = append(keys, key)
		dets = append(dets, st.det)
	}
	m.set("core.snapshot_ns", timePer(1000, 20000, 20*time.Millisecond, func(n int) {
		for i := 0; i < n; i++ {
			_ = dets[i%len(dets)].Snapshot()
		}
	}), "ns")
	m.set("pool.stat_ns", timePer(1000, 20000, 20*time.Millisecond, func(n int) {
		for i := 0; i < n; i++ {
			l.pool.Stat(keys[i%len(keys)])
		}
	}), "ns")

	// Heap growth per constructed stream engine: the median of three
	// probes of 256 engines each. Everything live at a probe's first
	// reading is kept alive past its second, so the collection between
	// them frees no earlier state and the growth is the engines' alone.
	const probe = 256
	keep := make([]dpd.Detector, 0, 3*probe)
	var grew []float64
	for r := 0; r < 3; r++ {
		before := heapInUse()
		for i := 0; i < probe; i++ {
			det, err := newEngine(l.lr.ladder, nil)
			if err != nil {
				return err
			}
			keep = append(keep, det)
		}
		grew = append(grew, float64(int64(heapInUse())-int64(before))/probe)
	}
	m.set("series.bank_bytes", median(grew), "bytes")
	runtime.KeepAlive(keep)
	runtime.KeepAlive(l)
	runtime.KeepAlive(keys)
	runtime.KeepAlive(dets)
	return nil
}

// offlineLayers replays lr's batches once through every layer, in
// chunks of 256 batches.
func offlineLayers(lr *layerReplay, m metrics) error {
	l, err := newLayers(lr)
	if err != nil {
		return err
	}
	for at := 0; at < len(lr.batches); at += 256 {
		if err := l.replay(lr.batches[at:min(at+256, len(lr.batches))]); err != nil {
			l.pool.Close()
			return err
		}
	}
	return l.finish(m)
}

// serveLayers derives the serving-layer metrics of a traced serving
// run: client spans from its traced rounds, and post-run timings of
// the live server. It runs after offlineLayers, whose figures it
// subtracts.
func serveLayers(r *serveRun, m metrics) {
	sendP50 := quantile(r.sendNs, 0.5)
	m.set("client.send_p50_ns", sendP50, "ns")
	m.set("client.send_p99_us", quantile(r.sendNs, 0.99)/1000, "us")
	st := r.cl.Stats()
	m.set("client.reconnects", float64(st.Reconnects), "count")
	m.set("client.replayed_samples", float64(st.ReplayedSamples), "count")
	m.set("client.overload_backoffs", float64(st.OverloadBackoffs), "count")
	m.set("gen.query_late_p99_us", quantile(r.late, 0.99), "us")

	var prom, js []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		r.res.count(r.get(r.base+"/metrics?format=prometheus"), "prometheus scrape")
		prom = append(prom, us(time.Since(t0)))
		t0 = time.Now()
		r.res.count(r.get(r.base+"/metrics"), "json metrics")
		js = append(js, us(time.Since(t0)))
	}
	m.set("server.metrics_prom_us", median(prom), "us")
	m.set("server.metrics_json_us", median(js), "us")

	p := r.srv.Pool()
	var ckpt []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		r.res.count(p.Checkpoint(io.Discard) == nil, "pool checkpoint")
		ckpt = append(ckpt, ms(time.Since(t0)))
	}
	poolCkpt := median(ckpt)
	m.set("pool.checkpoint_ms", poolCkpt, "ms")
	m.set("server.checkpoint_io_ms", median(r.ckptMs)-poolCkpt, "ms")
	m.set("server.restore_ms", median(r.restore), "ms")
	var restore []float64
	for i := 0; i < 3; i++ {
		rp, err := restoreFile(r.ckptPath, r.sp.poolConfig(), &restore)
		r.res.count(err == nil, "pool restore: %v", err)
		if err == nil {
			rp.Close()
		}
		heapInUse()
	}
	m.set("pool.restore_ms", median(restore), "ms")
	m.set("pool.state_bytes_per_stream", float64(r.ckptBytes)/float64(r.sp.restored), "bytes")
	ast := p.AdaptiveStats()
	m.set("pool.promotions", float64(ast.Promotions), "count")
	m.set("pool.demotions", float64(ast.Demotions), "count")
	m.set("pool.hot_streams", float64(ast.HotStreams), "count")
	m.set("pool.evicted", float64(p.Evicted()), "count")
	m.set("pool.streams", float64(p.Len()), "count")
	var total, most uint64
	for _, n := range p.ShardSamples(nil) {
		total += n
		most = max(most, n)
	}
	share := 0.0
	if total > 0 {
		share = float64(most) / float64(total)
	}
	m.set("pool.max_shard_share", share, "ratio")

	// Apply latency of an idle pipeline, less the parts measured apart
	// (needs the offline replays' metrics): what remains is the
	// connection's own work — socket, frame handoff to the feeder, pong.
	m.set("server.ingest_self_us", quantile(r.apply, 0.5)-sendP50/1000-
		m["server.decode_ns_per_sample"].Value*batchLen/1000-m["pool.feed_batch_p50_us"].Value, "us")
	m.set("server.query_self_us", quantile(r.query, 0.5)-m["pool.stat_ns"].Value/1000, "us")
}

// unbounded sets the figures whose run-to-run spread on a 2-vCPU VM
// with hypervisor steal and a shared disk is too wide for an end-to-end
// bound: the apply p90, the query median and p90, and the checkpoint
// time. They ride in the traced run.
func unbounded(m metrics, apply, query, ckpt []float64) {
	m.set("apply_p90_us", quantile(apply, 0.9), "us")
	m.set("query_p50_us", quantile(query, 0.5), "us")
	m.set("query_p90_us", quantile(query, 0.9), "us")
	m.set("checkpoint_ms", median(ckpt), "ms")
}

// restoreFile times dpd.RestorePool from the checkpoint file at path,
// appending ms to times.
func restoreFile(path string, cfg dpd.PoolConfig, times *[]float64) (*dpd.Pool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t0 := time.Now()
	p, err := dpd.RestorePool(f, cfg)
	*times = append(*times, ms(time.Since(t0)))
	return p, err
}

// waterfall prints the layer self times that make up ns_per_sample,
// sets the unattributed remainder, and returns nothing: the table is
// the traced run's explanation of the end-to-end figure.
func waterfall(workload string, e2e float64, rows [][2]any, m metrics) {
	sum := 0.0
	fmt.Fprintf(os.Stderr, "\nwaterfall %s: ns_per_sample %.1f (untraced median)\n", workload, e2e)
	for _, row := range rows {
		v := row[1].(float64)
		sum += v
		fmt.Fprintf(os.Stderr, "  %-28s %10.1f ns  %6.1f%%\n", row[0], v, 100*v/e2e)
	}
	rest := e2e - sum
	fmt.Fprintf(os.Stderr, "  %-28s %10.1f ns  %6.1f%%\n", "unattributed", rest, 100*rest/e2e)
	fmt.Fprintf(os.Stderr, "  accounted for: %.1f%%\n\n", 100*sum/e2e)
	m.set("unattributed_ns_per_sample", rest, "ns")
	m.set("unattributed_frac", rest/e2e, "ratio")
}

// servedSeconds is the length of paper-nested's served run.
const servedSeconds = 2

// nestedLayers fills paper-nested's per-layer metrics: the layer
// replays run between the timed rounds (ly), a short serving run over
// the five traces as keyed ladder streams (for the serving layers,
// which the workload itself bypasses), and the waterfall of the
// untraced ns_per_sample.
func nestedLayers(as []*nestedApp, seed uint64, e2e, traced float64, sp *passSpans, tracedSamples int, ly *layers, workdir string, res *result) error {
	m := res.metrics
	if err := ly.finish(m); err != nil {
		return err
	}
	r, _, _, err := serveWorkload(nestedServed(as), seed, servedSeconds*time.Second, true, workdir, res)
	if err != nil {
		return fmt.Errorf("served run: %w", err)
	}
	defer os.RemoveAll(r.dir)
	defer r.stop()
	serveLayers(r, m)

	// The benchmark's own loop: traced round time not inside a feed or
	// tracker span.
	n := float64(tracedSamples)
	gen := float64((sp.rounds - sp.feed - sp.tracker).Nanoseconds()) / n
	m.set("gen.ns_per_sample", gen, "ns")
	m.set("trace_overhead_frac", traced/e2e-1, "ratio")
	m.set("host.ref_ns", median(res.refs), "ns")
	waterfall("paper-nested", e2e, [][2]any{
		{"gen (benchmark loop)", gen},
		{"core.tracker", m["core.tracker_ns"].Value},
		{"core.decide", m["core.decide_ns"].Value},
		{"series.push", m["series.push_ns"].Value},
	}, m)
	return nil
}

// nestedServed is the serving spec of paper-nested's served run.
func nestedServed(as []*nestedApp) *serveSpec {
	sp := &serveSpec{name: "paper-served", keys: len(as), restored: len(as),
		probeEvery: 32, roundCycles: 8, warmBatches: 64, queryRate: 200}
	for _, a := range as {
		sp.traces = append(sp.traces, a.vals)
	}
	return sp
}
