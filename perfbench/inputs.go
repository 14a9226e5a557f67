package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	"dpd"
	"dpd/internal/core"
	"dpd/internal/loadgen"
)

// Serving-workload inputs. Every stream is a periodic event sequence
// produced by loadgen.SampleAt under a per-key Config, so any stream's
// exact history can be regenerated for the standalone differential. The
// seed picks each key's period, each restored key's history length, and
// the batch-to-key schedule.

const (
	// window is the per-stream event detector window of the serving
	// workloads, the dpdserver default.
	window = 100
	// batchLen is the samples per ingest batch frame.
	batchLen = 256
	// shards is the pool's shard count: one per CPU of the 2-vCPU
	// reference host.
	shards = 2
	// patternStride gives each stream its own value lane (value = i mod
	// period + key), so values span a few varint bytes like real loop
	// addresses instead of one.
	patternStride = 1
)

// periodSet is the set of generated periods. It has an odd number of
// equally likely members, so the median lock delay over thousands of
// streams sits on one member's delay and cannot flip between seeds.
var periodSet = [...]int{4, 6, 8, 12, 16, 24, 32, 48, 64}

// periodOf returns stream key's generated period under seed.
func periodOf(seed, key uint64) int {
	return periodSet[mix64(seed^mix64(key))%uint64(len(periodSet))]
}

// sampleCfg is the loadgen configuration whose SampleAt sequence stream
// key carries.
func sampleCfg(seed, key uint64) loadgen.Config {
	return loadgen.Config{Period: periodOf(seed, key), PatternStride: patternStride}
}

// valueAt is the fast in-loop form of loadgen.SampleAt(sampleCfg(seed,
// key), key, i).Value. The differential feeds its reference engines from
// SampleAt itself, so a divergence between the two fails the run.
func valueAt(period int, key, i uint64) int64 {
	return int64(i%uint64(period)) + patternStride*int64(key)
}

// serveSpec is the shape of one serving workload.
type serveSpec struct {
	name string
	// keys is the uniform key space; restored of them (keys
	// [0, restored)) come from the seeded checkpoint.
	keys, restored int
	// theta > 0 draws keys zipf(theta) within churn generations of
	// genKeys keys lasting genBatches batches each. Generation 0 is the
	// restored key window; generation g ≥ 1 uses fresh keys.
	theta      float64
	genKeys    int
	genBatches int
	// adaptive turns on hot-stream placement; churn turns on IdleTTL
	// eviction of one generation's samples.
	adaptive bool
	// background runs the Prometheus scrape and WriteCheckpoint beside
	// ingest, at a fixed cadence in batches.
	background bool
	// queryRate is the open-loop GET /streams/{key} rate per second.
	queryRate float64
	// probeEvery is K: every K-th batch is an apply-latency probe.
	probeEvery int
	// roundCycles is the probe cycles per timed round.
	roundCycles int
	// warmBatches run before timing starts.
	warmBatches int
	// traces, when set, replaces the generated streams: key k carries
	// trace k (repeated), is restored with one full pass of it, and runs
	// the DefaultLadder engine. The paper-nested traced run serves the
	// SPECfp95 traces this way to measure the serving layers on them.
	traces [][]int64
}

// history is restored stream key's sample count at checkpoint time:
// 200–456 samples for generated streams, so every one has filled its
// window twice and is locked when the server boots; one trace pass for
// trace streams.
func (sp *serveSpec) history(seed, key uint64) uint64 {
	if sp.traces != nil {
		return uint64(len(sp.traces[key]))
	}
	return 2*window + mix64(seed+0x51ed*key)%257
}

// values writes samples i0, i0+1, … of stream key into dst.
func (sp *serveSpec) values(seed, key, i0 uint64, dst []int64) {
	if sp.traces != nil {
		tr := sp.traces[key]
		for j := range dst {
			dst[j] = tr[(i0+uint64(j))%uint64(len(tr))]
		}
		return
	}
	p := periodOf(seed, key)
	for j := range dst {
		dst[j] = valueAt(p, key, i0+uint64(j))
	}
}

// newEngine builds one standalone stream engine: the DefaultLadder
// engine of the trace workloads, or the window-100 event engine of the
// serving ones. obs, when set, observes its transitions.
func newEngine(ladder bool, obs dpd.Observer) (dpd.Detector, error) {
	opts := []dpd.Option{dpd.WithWindow(window)}
	if ladder {
		opts = []dpd.Option{dpd.WithLadder(dpd.DefaultLadder...)}
	}
	if obs != nil {
		opts = append(opts, dpd.WithObserver(obs))
	}
	return dpd.New(opts...)
}

// reference returns the engine state of a standalone engine fed key's
// first n samples straight from their source: loadgen.SampleAt for
// generated streams, the trace for trace streams.
func (sp *serveSpec) reference(seed, key, n uint64) ([]byte, error) {
	det, err := newEngine(sp.traces != nil, nil)
	if err != nil {
		return nil, err
	}
	cfg := sampleCfg(seed, key)
	for i := uint64(0); i < n; i++ {
		var v int64
		if sp.traces != nil {
			v = sp.traces[key][i%uint64(len(sp.traces[key]))]
		} else {
			v = loadgen.SampleAt(cfg, key, i).Value
		}
		det.Feed(dpd.Sample{Value: v})
	}
	return core.AppendCheckpoint(det, nil)
}

var uniformSpec = serveSpec{
	name: "serve-uniform", keys: 32000, restored: 16000,
	queryRate: 200, probeEvery: 32, roundCycles: 8, warmBatches: 512,
}

var skewedSpec = serveSpec{
	name: "serve-skewed", keys: 20000, restored: 20000,
	theta: 1.2, genKeys: 20000, genBatches: 2048,
	adaptive: true, background: true,
	queryRate: 200, probeEvery: 32, roundCycles: 8,
	// Four generations: the restored streams gen 0 leaves idle are
	// evicted before timing starts.
	warmBatches: 4 * 2048,
}

// idleTTL is the eviction horizon: one generation's samples. A key is
// fed only within its own generation and a generation lasts exactly
// that many samples, so no key can go idle past the TTL and be
// re-created mid-generation; every eviction is of a finished
// generation's key.
func (sp *serveSpec) idleTTL() uint64 {
	if sp.theta == 0 {
		return 0
	}
	return uint64(sp.genBatches * batchLen)
}

// poolConfig is the server pool configuration of the workload.
func (sp *serveSpec) poolConfig() dpd.PoolConfig {
	cfg := dpd.PoolConfig{
		Shards:   shards,
		Detector: dpd.Config{Window: window},
		IdleTTL:  sp.idleTTL(),
		Adaptive: dpd.AdaptiveConfig{Enable: sp.adaptive},
	}
	if sp.traces != nil {
		cfg.NewDetector = func() dpd.Detector {
			det, _ := newEngine(true, nil) // static, valid options
			return det
		}
	}
	return cfg
}

// schedule is the seeded batch stream of a serving workload: which key
// each batch goes to, and every stream's next sample index.
type schedule struct {
	sp   *serveSpec
	seed uint64
	r    rng
	zipf *loadgen.Zipf

	batches int // batches issued so far
	gen     int // current churn generation
	mulA    uint64

	period  map[uint64]int
	next    map[uint64]uint64 // per-key next sample index (restored history included)
	lastGen map[uint64]int    // per-key generation of its latest batch
}

func newSchedule(sp *serveSpec, seed uint64) *schedule {
	s := &schedule{
		sp: sp, seed: seed, r: rng{s: seed ^ 0x5eed},
		period:  make(map[uint64]int),
		next:    make(map[uint64]uint64, sp.keys),
		lastGen: make(map[uint64]int),
	}
	for k := uint64(0); k < uint64(sp.restored); k++ {
		s.next[k] = sp.history(seed, k)
	}
	if sp.theta > 0 {
		s.zipf = loadgen.NewZipf(uint64(sp.genKeys), sp.theta, mix64(seed))
		// A multiplier coprime to genKeys permutes the ranks over the
		// generation's keys; it decides which keys are hot.
		s.mulA = mix64(seed+1)%uint64(sp.genKeys) | 1
		for gcd(s.mulA, uint64(sp.genKeys)) != 1 {
			s.mulA += 2
		}
	}
	return s
}

// nextKey draws the key of the next batch.
func (s *schedule) nextKey() uint64 {
	s.batches++
	switch {
	case s.sp.traces != nil:
		return uint64((s.batches - 1) % len(s.sp.traces))
	case s.sp.theta == 0:
		return uint64(s.r.intn(s.sp.keys))
	}
	s.gen = (s.batches - 1) / s.sp.genBatches
	base := uint64(0)
	if s.gen > 0 {
		base = uint64(s.sp.restored + (s.gen-1)*s.sp.genKeys)
	}
	rank := s.zipf.Next()
	n := uint64(s.sp.genKeys)
	off := (rank*s.mulA + mix64(s.seed^uint64(s.gen))%n) % n
	return base + off
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// fill writes the next batchLen samples of key into dst and advances
// the key's cursor.
func (s *schedule) fill(key uint64, dst []int64) []int64 {
	i0 := s.next[key]
	dst = dst[:batchLen]
	s.sp.values(s.seed, key, i0, dst)
	s.next[key] = i0 + batchLen
	s.lastGen[key] = s.gen
	return dst
}

// buildCheckpoint feeds every restored key's history into a fresh pool
// and returns the pool checkpoint: the state a server restores at boot.
func buildCheckpoint(sp *serveSpec, seed uint64) ([]byte, error) {
	cfg := sp.poolConfig()
	cfg.IdleTTL, cfg.Adaptive = 0, dpd.AdaptiveConfig{}
	p, err := dpd.NewPool(cfg)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	var vals []int64
	batch := make([]dpd.KeyedSample, 0, 1<<15)
	for k := uint64(0); k < uint64(sp.restored); k++ {
		n := sp.history(seed, k)
		vals = append(vals[:0], make([]int64, n)...)
		sp.values(seed, k, 0, vals)
		for _, v := range vals {
			batch = append(batch, dpd.KeyedSample{Key: k, Value: v})
		}
		if len(batch) >= 1<<14 {
			p.FeedBatch(batch)
			batch = batch[:0]
		}
	}
	p.FeedBatch(batch)
	var buf bytes.Buffer
	if err := p.Checkpoint(&buf); err != nil {
		return nil, fmt.Errorf("seeded checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// fingerprintBatches is the schedule prefix the input fingerprint covers.
const fingerprintBatches = 8192

// inputFingerprint identifies a serving run's inputs: loadgen.Fingerprint
// of the per-key sample counts of the schedule's first
// fingerprintBatches batches, and an FNV-1a hash of the checkpoint's
// per-key states in key order (a pool writes its streams in map order,
// so the raw bytes are not canonical). Both are pure functions of the
// workload and the seed.
func inputFingerprint(sp *serveSpec, seed uint64, ckpt []byte) (string, error) {
	s := newSchedule(sp, seed)
	counts := make(map[uint64]uint64)
	for i := 0; i < fingerprintBatches; i++ {
		counts[s.nextKey()] += batchLen
	}
	states, err := poolStates(ckpt)
	if err != nil {
		return "", err
	}
	keys := make([]uint64, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	h := fnv.New64a()
	var b [8]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(b[:], k)
		h.Write(b[:])
		h.Write(states[k])
	}
	return fmt.Sprintf("%016x-%016x", loadgen.Fingerprint(counts), h.Sum64()), nil
}
