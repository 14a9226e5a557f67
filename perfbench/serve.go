package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"dpd"
	"dpd/internal/client"
	"dpd/internal/loadgen"
	"dpd/internal/server"
	"dpd/internal/wire"
)

// serveSetups is how many times a serving run boots its server; setup_s
// is their median. The last boot serves the timed phase.
const serveSetups = 5

// serveRun is one serving run: a server restored from the seeded
// checkpoint on loopback, one ingest client, and the query, scrape and
// checkpoint goroutines beside it.
type serveRun struct {
	sp        *serveSpec
	seed      uint64
	dir       string
	ckptPath  string // the seeded checkpoint the server restores
	ckptBytes int
	res       *result

	srv  *server.Server
	cl   *client.Client
	hc   *http.Client
	base string

	s    *schedule
	vals []int64

	setup   []float64 // seconds per boot
	restore []float64 // ms of server.New (checkpoint restore) per boot

	apply  []float64 // µs per probe
	rounds []float64 // ns/sample per untimed round
	traced []float64 // ns/sample per traced round
	refs   []float64

	// spans of traced rounds
	sendNs        []float64 // per SendEvents call
	genNs         time.Duration
	tracedSamples int

	recentMu sync.Mutex
	recent   []uint64 // keys of the latest confirmed probe cycle

	query   []float64 // µs, from due time
	late    []float64 // µs the query was issued after its due time
	ckptMs  []float64
	ckptReq chan struct{}
	peakRSS float64
}

// newServeRun builds the seeded checkpoint and writes it where the
// server restores from.
func newServeRun(sp *serveSpec, seed uint64, workdir string, res *result) (*serveRun, error) {
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	r := &serveRun{sp: sp, seed: seed, dir: dir, res: res, hc: &http.Client{Timeout: 10 * time.Second},
		ckptPath: filepath.Join(dir, "seeded.dpdp")}
	ckpt, err := buildCheckpoint(sp, seed)
	if err != nil {
		return nil, err
	}
	// The server restores from its checkpoint directory, whose old files
	// its own checkpoints prune; the copy beside it stays for the traced
	// run's restore timing.
	for _, path := range []string{filepath.Join(dir, "ckpt", "ckpt-000000000001.dpdp"), r.ckptPath} {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, ckpt, 0o644); err != nil {
			return nil, err
		}
	}
	r.ckptBytes = len(ckpt)
	if res.diag["inputs_fp"], err = inputFingerprint(sp, seed, ckpt); err != nil {
		return nil, err
	}
	return r, nil
}

// boot starts a server restoring the checkpoint, dials the client and
// waits for the first barrier: the set-up a restarting deployment pays.
func (r *serveRun) boot() error {
	t0 := time.Now()
	srv, err := server.New(server.Config{
		IngestAddr:      "127.0.0.1:0",
		HTTPAddr:        "127.0.0.1:0",
		Pool:            r.sp.poolConfig(),
		CheckpointDir:   filepath.Join(r.dir, "ckpt"),
		CheckpointEvery: time.Hour,
		Logf:            func(string, ...any) {},
	})
	if err != nil {
		return err
	}
	tNew := time.Since(t0)
	srv.Start()
	cl, err := client.Dial(client.Config{Addr: srv.Addr(), Seed: r.seed})
	if err != nil {
		srv.Abort()
		return err
	}
	// Restored streams continue their numbering, so a resync after a
	// reconnect compares like with like.
	for k := uint64(0); k < uint64(r.sp.restored); k++ {
		cl.PresetCursor(k, r.sp.history(r.seed, k))
	}
	if err := cl.Barrier(); err != nil {
		cl.Close()
		srv.Abort()
		return err
	}
	r.setup = append(r.setup, time.Since(t0).Seconds())
	r.restore = append(r.restore, ms(tNew))
	r.srv, r.cl, r.base = srv, cl, "http://"+srv.HTTPAddr()
	return nil
}

// stop tears the current server down without a final checkpoint.
func (r *serveRun) stop() {
	if r.cl != nil {
		r.cl.Close()
	}
	if r.srv != nil {
		r.srv.Abort()
	}
	r.hc.CloseIdleConnections()
	r.cl, r.srv = nil, nil
}

// sendNext generates and sends the next batch. A probe first drains the
// pipeline, then times its own batch from SendEvents until the barrier
// that confirms it applied.
func (r *serveRun) sendNext(probe, traced bool) error {
	var g0 time.Time
	if traced {
		g0 = time.Now()
	}
	key := r.s.nextKey()
	r.vals = r.s.fill(key, r.vals)
	if traced {
		r.genNs += time.Since(g0)
	}
	if probe {
		if err := r.cl.Barrier(); err != nil {
			return err
		}
	}
	t0 := time.Now()
	if err := r.cl.SendEvents(key, r.vals); err != nil {
		return err
	}
	if traced {
		r.sendNs = append(r.sendNs, float64(time.Since(t0).Nanoseconds()))
	}
	r.res.count(true, "")
	if probe {
		if err := r.cl.Barrier(); err != nil {
			return err
		}
		r.apply = append(r.apply, us(time.Since(t0)))
		r.recentMu.Lock()
		r.recent = append(r.recent[:0], key)
		r.recentMu.Unlock()
	}
	if r.sp.background && r.s.batches%r.sp.genBatches == r.sp.genBatches/2 && r.ckptReq != nil {
		select {
		case r.ckptReq <- struct{}{}:
		default: // previous checkpoint still running: skip, never queue
		}
	}
	return nil
}

// cycle is one probe cycle: K-1 pipelined batches and one probe.
func (r *serveRun) cycle(traced bool) error {
	for b := 1; b < r.sp.probeEvery; b++ {
		if err := r.sendNext(false, traced); err != nil {
			return err
		}
	}
	return r.sendNext(true, traced)
}

// warm sends n batches in probe cycles without timing them.
func (r *serveRun) warm(n int) error {
	for r.s.batches < n {
		if err := r.cycle(false); err != nil {
			return err
		}
	}
	r.apply = r.apply[:0]
	return nil
}

// queryLoop issues GET /streams/{key} at a fixed rate until stop,
// timing each query from when it was due (open loop), against a key of
// the latest confirmed probe cycle, so every queried stream exists. On
// serve-skewed it also scrapes the Prometheus exposition.
func (r *serveRun) queryLoop(stop <-chan struct{}, qr *rng) {
	interval := time.Duration(float64(time.Second) / r.sp.queryRate)
	start := time.Now()
	buf := make([]byte, 0, 64)
	for i := 1; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return
			case <-time.After(d):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		issued := time.Now()
		r.recentMu.Lock()
		key := r.recent[qr.intn(len(r.recent))]
		r.recentMu.Unlock()
		buf = strconv.AppendUint(append(buf[:0], r.base+"/streams/"...), key, 10)
		ok := r.get(string(buf))
		r.query = append(r.query, us(time.Since(due)))
		r.late = append(r.late, us(issued.Sub(due)))
		r.res.count(ok, "query %d", key)
		if r.sp.background && i%scrapeEvery == 0 {
			r.res.count(r.get(r.base+"/metrics?format=prometheus"), "prometheus scrape")
		}
	}
}

// scrapeEvery is the query slots per Prometheus scrape on serve-skewed:
// one scrape every 250 ms at 200 queries/s, from the query goroutine so
// the load stays at two goroutines.
const scrapeEvery = 50

// get fetches url over the keep-alive client and reports a 2xx status.
func (r *serveRun) get(url string) bool {
	resp, err := r.hc.Get(url)
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode/100 == 2
}

// checkpointLoop runs WriteCheckpoint whenever ingest asks (mid-way
// through each churn generation, so every checkpoint sees the pool at
// the same phase of eviction).
func (r *serveRun) checkpointLoop(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-r.ckptReq:
		}
		t0 := time.Now()
		_, err := r.srv.WriteCheckpoint()
		r.ckptMs = append(r.ckptMs, ms(time.Since(t0)))
		r.res.count(err == nil, "checkpoint: %v", err)
	}
}

// timed runs the measured phase: probe-cycle rounds for dur, with the
// query goroutine (and, on serve-skewed, the checkpoint goroutine)
// beside ingest. With tracing, every other round records
// spans and is reported apart.
func (r *serveRun) timed(dur time.Duration, trace bool) error {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	qr := rng{s: r.seed ^ 0x9e77}
	wg.Add(1)
	go func() { defer wg.Done(); r.queryLoop(stop, &qr) }()
	if r.sp.background {
		r.ckptReq = make(chan struct{}, 1)
		wg.Add(1)
		go func() { defer wg.Done(); r.checkpointLoop(stop) }()
	}
	var err error
	start, lastRef := time.Now(), time.Now()
	for i := 0; i < 2 || time.Since(start) < dur; i++ {
		traced := trace && i%2 == 1
		t0 := time.Now()
		for c := 0; c < r.sp.roundCycles && err == nil; c++ {
			err = r.cycle(traced)
		}
		if err != nil {
			break
		}
		per := float64(time.Since(t0).Nanoseconds()) / float64(r.sp.roundCycles*r.sp.probeEvery*batchLen)
		if traced {
			r.traced = append(r.traced, per)
			r.tracedSamples += r.sp.roundCycles * r.sp.probeEvery * batchLen
		} else {
			r.rounds = append(r.rounds, per)
		}
		if time.Since(lastRef) > time.Second {
			r.refs = append(r.refs, hostRefNs())
			lastRef = time.Now()
		}
	}
	close(stop)
	wg.Wait()
	r.ckptReq = nil
	return err
}

// poolStates parses a pool checkpoint into per-key engine states.
func poolStates(ckpt []byte) (map[uint64][]byte, error) {
	if len(ckpt) < 5 || string(ckpt[:4]) != "DPDP" {
		return nil, fmt.Errorf("pool checkpoint: bad header")
	}
	br := bytes.NewReader(ckpt[5:])
	out := make(map[uint64][]byte)
	for {
		payload, err := wire.ReadFrame(br, 1<<30, nil)
		if err != nil {
			return nil, fmt.Errorf("pool checkpoint: %w", err)
		}
		if payload == nil {
			return out, nil
		}
		var d wire.Dec
		d.Reset(payload)
		key := d.Uvarint()
		if d.Err() != nil {
			return nil, fmt.Errorf("pool checkpoint: %w", d.Err())
		}
		out[key] = payload[d.Offset():]
	}
}

// differential checks that every key in keys holds exactly the state of
// a standalone engine fed the same SampleAt sequence. Ingest must be
// quiescent (after a barrier).
func (r *serveRun) differential(keys []uint64) {
	var buf bytes.Buffer
	if err := r.srv.Pool().Checkpoint(&buf); err != nil {
		r.res.fail("differential: %v", err)
		return
	}
	states, err := poolStates(buf.Bytes())
	if err != nil {
		r.res.fail("differential: %v", err)
		return
	}
	for _, k := range keys {
		want, err := r.sp.reference(r.seed, k, r.s.next[k])
		r.res.count(err == nil && bytes.Equal(states[k], want),
			"differential key %d: pooled state differs from the standalone engine after %d samples (%v)", k, r.s.next[k], err)
	}
}

// pickKeys draws up to n keys from candidates (sorted first, so the
// draw depends only on the seed).
func pickKeys(cands []uint64, n int, r *rng) []uint64 {
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	var out []uint64
	for len(out) < n && len(cands) > 0 {
		i := r.intn(len(cands))
		out = append(out, cands[i])
		cands[i] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return out
}

// fedKeys returns the keys fed at least once, split into restored and
// fresh ones.
func (r *serveRun) fedKeys() (restored, fresh []uint64) {
	for k := range r.s.lastGen {
		if k < uint64(r.sp.restored) {
			restored = append(restored, k)
		} else {
			fresh = append(fresh, k)
		}
	}
	return restored, fresh
}

// lockDelay returns the samples a fresh stream of the given period
// consumes until its first lock on that period.
func lockDelay(seed, key uint64, period int) (uint64, error) {
	det, err := newEngine(false, nil)
	if err != nil {
		return 0, err
	}
	cfg := sampleCfg(seed, key)
	for i := uint64(0); i < 16*window; i++ {
		res := det.Feed(dpd.Sample{Value: loadgen.SampleAt(cfg, key, i).Value})
		if res.Locked && res.Period == period {
			return i + 1, nil
		}
	}
	return 0, fmt.Errorf("stream of period %d never locked", period)
}

// check runs the end-of-run gates on a quiescent server: exactly-once
// per key, eviction accounting, the server's sample total, and the
// standalone differential; it also returns the detection metrics.
func (r *serveRun) check(sampleRng *rng) (lockDelaySamples, lockedFrac float64) {
	p := r.srv.Pool()
	ttl := r.sp.idleTTL() > 0
	var eligible, locked int
	var delays []float64
	memo := make(map[int]uint64)
	for key, n := range r.s.next {
		st, ok := p.Stat(key)
		if !ok {
			// Only a finished generation's keys may be evicted.
			r.res.count(ttl && r.s.lastGen[key] < r.s.gen, "key %d: stream missing after %d samples", key, n)
			continue
		}
		r.res.count(st.Samples == n, "key %d: %d samples applied, %d sent", key, st.Samples, n)
		period := periodOf(r.seed, key)
		if r.sp.traces == nil && st.Samples >= 2*window {
			eligible++
			if st.Locked && st.Period == period {
				locked++
			}
		}
	}
	for key := range r.s.lastGen {
		if key < uint64(r.sp.restored) || r.sp.traces != nil {
			continue
		}
		period := periodOf(r.seed, key)
		d, ok := memo[period]
		if !ok {
			var err error
			if d, err = lockDelay(r.seed, key, period); err != nil {
				r.res.fail("%v", err)
			}
			memo[period] = d
		}
		delays = append(delays, float64(d))
	}
	restored, fresh := r.fedKeys()
	want := uint64(r.sp.restored + len(fresh) - p.Len())
	r.res.count(p.Evicted() == want, "eviction accounting: %d evicted, %d streams unaccounted for", p.Evicted(), want)
	var snap struct {
		SamplesTotal uint64 `json:"samples_total"`
	}
	err := r.getJSON(r.base+"/metrics", &snap)
	sent := r.cl.Stats().SentSamples
	r.res.count(err == nil && snap.SamplesTotal == sent, "server applied %d samples, client sent %d (%v)", snap.SamplesTotal, sent, err)
	var live []uint64
	for _, k := range fresh {
		if _, ok := p.Stat(k); ok {
			live = append(live, k)
		}
	}
	keys := pickKeys(live, 24, sampleRng)
	if r.sp.idleTTL() == 0 && r.sp.traces == nil {
		keys = append(keys, pickKeys(restored, 24, sampleRng)...)
	}
	r.differential(keys)
	if r.sp.traces != nil {
		return 0, 0
	}
	if eligible == 0 || len(delays) == 0 {
		r.res.fail("no eligible streams for the detection metrics")
		return 0, 0
	}
	return median(delays), float64(locked) / float64(eligible)
}

// getJSON fetches and decodes one JSON document.
func (r *serveRun) getJSON(url string, v any) error {
	resp, err := r.hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serveWorkload runs a serving workload end to end: boots, warm-up, the
// timed phase and the end-of-run checks. The caller stops the returned
// run once it has read what it needs from the live server.
func serveWorkload(sp *serveSpec, seed uint64, dur time.Duration, trace bool, workdir string, res *result) (r *serveRun, lockDelaySamples, lockedFrac float64, err error) {
	r, err = newServeRun(sp, seed, workdir, res)
	if err != nil {
		return nil, 0, 0, err
	}
	defer func() {
		if err != nil {
			r.stop()
			os.RemoveAll(r.dir)
		}
	}()
	for i := 0; i < serveSetups; i++ {
		if i > 0 {
			r.stop()
		}
		heapInUse() // every boot starts from a collected heap
		if err = r.boot(); err != nil {
			return r, 0, 0, fmt.Errorf("boot: %w", err)
		}
	}
	r.s = newSchedule(sp, seed)
	r.vals = make([]int64, batchLen)
	sampleRng := rng{s: seed ^ 0xd1ff}
	if sp.theta > 0 {
		// Generation 0 feeds restored streams; check them against
		// standalone engines before eviction retires them.
		if err = r.warm(sp.genBatches); err != nil {
			return r, 0, 0, err
		}
		restored, _ := r.fedKeys()
		r.differential(pickKeys(restored, 24, &sampleRng))
	}
	if err = r.warm(sp.warmBatches); err != nil {
		return r, 0, 0, err
	}
	r.refs = append(r.refs, hostRefNs())
	// Start timing from a collected heap, so whether a collection lands
	// inside the timed phase does not depend on set-up garbage.
	heapInUse()
	steal := stealMeter()
	if err = r.timed(dur, trace); err != nil {
		return r, 0, 0, err
	}
	res.diag["host.steal_frac"] = steal()
	if err = r.cl.Barrier(); err != nil {
		return r, 0, 0, err
	}
	if !sp.background {
		// No checkpoint ran beside ingest: time it on the idle server.
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			_, err := r.srv.WriteCheckpoint()
			r.ckptMs = append(r.ckptMs, ms(time.Since(t0)))
			res.count(err == nil, "checkpoint: %v", err)
		}
	}
	// Peak memory of serving, before the checks allocate their copies.
	r.peakRSS = peakRSSMB()
	lockDelaySamples, lockedFrac = r.check(&sampleRng)
	st := r.cl.Stats()
	res.count(st.Reconnects+st.OverloadBackoffs+st.ReplayedSamples == 0,
		"client recovered: %d reconnects, %d overload backoffs, %d replayed samples", st.Reconnects, st.OverloadBackoffs, st.ReplayedSamples)
	res.diag["sent_fp"] = fmt.Sprintf("%016x", loadgen.Fingerprint(r.s.next))
	res.diag["probes"] = len(r.apply)
	res.diag["queries"] = len(r.query)
	res.diag["rounds"] = len(r.rounds)
	res.diag["checkpoints"] = len(r.ckptMs)
	return r, lockDelaySamples, lockedFrac, nil
}

// runServe runs serve-uniform or serve-skewed and fills res.
func runServe(sp *serveSpec, seed uint64, dur time.Duration, trace bool, workdir string, res *result) error {
	r, lockDelaySamples, lockedFrac, err := serveWorkload(sp, seed, dur, trace, workdir, res)
	if err != nil {
		return err
	}
	defer os.RemoveAll(r.dir)
	defer r.stop()
	res.refs = append(res.refs, r.refs...)
	m := res.metrics
	if !trace {
		m.set("setup_s", median(r.setup), "s")
		m.set("ns_per_sample", median(r.rounds), "ns")
		m.set("apply_p50_us", quantile(r.apply, 0.5), "us")
		m.set("lock_delay_samples", lockDelaySamples, "samples")
		m.set("locked_frac", lockedFrac, "ratio")
		m.set("peak_rss_mb", r.peakRSS, "MB")
		return nil
	}
	if err := offlineLayers(serveReplay(sp, seed, sp.warmBatches), m); err != nil {
		return err
	}
	serveLayers(r, m)
	unbounded(m, r.apply, r.query, r.ckptMs)
	samples := float64(r.tracedSamples)
	sendMean := 0.0
	for _, v := range r.sendNs {
		sendMean += v
	}
	sendMean /= samples
	gen := float64(r.genNs.Nanoseconds()) / samples
	m.set("gen.ns_per_sample", gen, "ns")
	e2e := median(r.rounds)
	m.set("trace_overhead_frac", median(r.traced)/e2e-1, "ratio")
	m.set("host.ref_ns", median(res.refs), "ns")
	waterfall(sp.name, e2e, [][2]any{
		{"gen (benchmark generator)", gen},
		{"client.send", sendMean},
		{"server.decode", m["server.decode_ns_per_sample"].Value},
		{"pool (shard hop)", m["pool.ns_per_sample"].Value},
		{"core.decide", m["core.decide_ns"].Value},
		{"series.push", m["series.push_ns"].Value},
	}, m)
	return nil
}
