package loadgen

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"dpd"
	"dpd/internal/obs"
)

// DistKind enumerates key-popularity distributions.
type DistKind uint8

const (
	// DistUniform sweeps a connection's keys round-robin: every stream
	// receives exactly the same share in the same order — the PR 5
	// legacy shape, and the baseline column of the scaling matrix.
	DistUniform DistKind = iota
	// DistZipf draws a key per batch with zipf(Theta) popularity: rank
	// 0 (each connection's lowest key) is the hot "celebrity stream"
	// that takes most of the traffic as Theta grows.
	DistZipf
)

// Dist is a key-popularity distribution spec.
type Dist struct {
	// Kind selects the distribution family.
	Kind DistKind
	// Theta is the zipf skew exponent (DistZipf only): 0 is uniform,
	// 0.99 the classic hot-spot, >1 head-dominated.
	Theta float64
}

// String renders the spec in ParseDist's input syntax.
func (d Dist) String() string {
	if d.Kind == DistZipf {
		return fmt.Sprintf("zipf:%g", d.Theta)
	}
	return "uniform"
}

// ParseDist parses a -dist flag value: "uniform" (or empty) or
// "zipf:<theta>" with a finite theta ≥ 0.
func ParseDist(s string) (Dist, error) {
	switch {
	case s == "" || s == "uniform":
		return Dist{}, nil
	case s == "zipf":
		return Dist{}, fmt.Errorf("dist %q: want zipf:<theta>, e.g. zipf:0.99", s)
	case strings.HasPrefix(s, "zipf:"):
		theta, err := strconv.ParseFloat(s[len("zipf:"):], 64)
		if err != nil {
			return Dist{}, fmt.Errorf("dist %q: bad theta: %v", s, err)
		}
		if theta < 0 || math.IsNaN(theta) || math.IsInf(theta, 0) {
			return Dist{}, fmt.Errorf("dist %q: theta must be finite and >= 0", s)
		}
		return Dist{Kind: DistZipf, Theta: theta}, nil
	default:
		return Dist{}, fmt.Errorf("dist %q: want uniform or zipf:<theta>", s)
	}
}

// Phase is one segment of a rate-shaped arrival schedule. The schedule
// cycles through its phases until the run's sample budget is exhausted,
// so a two-phase on/off list produces a storm of bursts, not a single
// one.
type Phase struct {
	// Name labels the phase in the per-phase Report breakdown; phases
	// are aggregated across cycles by position, so give distinct
	// positions distinct names.
	Name string
	// Samples is the per-connection sample budget of one pass of this
	// phase; 0 means "the rest of the run" (the phase never yields).
	Samples int
	// Rate is the aggregate arrival rate across all connections in
	// samples/second at the start of the phase; 0 is unlimited.
	Rate float64
	// RampTo, when > 0 (requires Rate > 0 and Samples > 0), ramps the
	// rate linearly from Rate to RampTo across the pass — the shape of
	// a traffic ramp-up rather than a step.
	RampTo float64
	// Pause is how long the connection goes silent before the pass
	// begins — the "off" of an on/off burst cycle.
	Pause time.Duration
}

// ParseBurst parses a -burst flag value "<on>:<off>" — e.g.
// "4096:250ms" — into a repeating storm schedule: go silent for the
// off-duration, then blast on samples per connection at full speed.
// Empty input selects no shaping (one steady phase).
func ParseBurst(s string) ([]Phase, error) {
	if s == "" {
		return nil, nil
	}
	on, off, okSep := strings.Cut(s, ":")
	if !okSep {
		return nil, fmt.Errorf("burst %q: want <on-samples>:<off-duration>, e.g. 4096:250ms", s)
	}
	n, err := strconv.Atoi(on)
	if err != nil || n <= 0 {
		return nil, fmt.Errorf("burst %q: on-samples must be a positive integer", s)
	}
	d, err := time.ParseDuration(off)
	if err != nil {
		return nil, fmt.Errorf("burst %q: bad off-duration: %v", s, err)
	}
	if d < 0 {
		return nil, fmt.Errorf("burst %q: off-duration must be >= 0", s)
	}
	return []Phase{{Name: "burst", Samples: n, Pause: d}}, nil
}

// Workload composes the adversarial dimensions of a load run on top of
// Config's shape (streams, samples, batch, period). The zero value is
// the PR 5 legacy workload: uniform keys, steady arrivals, no churn.
// Every draw is a pure function of Seed, so the same spec reproduces
// the same per-stream sample sequences on any box — the property the
// differential referee tests and the golden-sequence test pin.
type Workload struct {
	// Dist selects key popularity within each connection's key set.
	Dist Dist
	// Seed makes every random draw reproducible; 0 selects 1.
	Seed uint64
	// Churn, when > 1, splits the run into that many create/evict
	// generations: each generation targets a fresh window of
	// Config.Streams keys (offset by generation × Streams), so earlier
	// generations go idle and are TTL-evicted while later ones
	// materialize — a create/evict storm through the pool's sweep and
	// freelist machinery. Per-stream sample budgets divide accordingly.
	Churn int
	// Phases shapes arrivals (bursts, ramps); nil selects one steady
	// phase at Config.Rate.
	Phases []Phase
	// Mixed makes every third stream (key ≡ 2 mod 3) carry magnitude
	// frames while the rest carry event frames, exercising both wire
	// planes and both KeyedSample fields in one run.
	Mixed bool
}

// validate rejects specs the generator cannot honor.
func (w Workload) validate() error {
	if w.Dist.Kind == DistZipf &&
		(w.Dist.Theta < 0 || math.IsNaN(w.Dist.Theta) || math.IsInf(w.Dist.Theta, 0)) {
		return fmt.Errorf("loadgen: zipf theta must be finite and >= 0, got %v", w.Dist.Theta)
	}
	if w.Churn < 0 {
		return fmt.Errorf("loadgen: churn generations must be >= 0, got %d", w.Churn)
	}
	for i, p := range w.Phases {
		if p.Samples < 0 || p.Rate < 0 || p.RampTo < 0 || p.Pause < 0 {
			return fmt.Errorf("loadgen: phase %d (%q): negative field", i, p.Name)
		}
		if p.RampTo > 0 && (p.Rate <= 0 || p.Samples <= 0) {
			return fmt.Errorf("loadgen: phase %d (%q): RampTo needs Rate > 0 and Samples > 0", i, p.Name)
		}
	}
	return nil
}

// generations returns the effective create/evict generation count.
func (w Workload) generations() int {
	if w.Churn > 1 {
		return w.Churn
	}
	return 1
}

// seed returns the effective base seed.
func (w Workload) seed() uint64 {
	if w.Seed == 0 {
		return 1
	}
	return w.Seed
}

// sampleValue is the deterministic value stream key carries at its
// per-key index i: the Config.Period periodic pattern offset by the
// stream's PatternStride lane. It depends only on (key, i) — never on
// batching or interleaving — which is what lets differential tests
// replay any stream's exact subsequence into a standalone detector.
func sampleValue(cfg *Config, key uint64, i uint64) int64 {
	stride := cfg.PatternStride * int64(key-cfg.KeyBase)
	return int64(i%uint64(cfg.Period)) + stride
}

// magnitudeKey reports whether stream key sends magnitude frames under
// cfg (all streams with Config.Magnitude, every third with
// Workload.Mixed).
func magnitudeKey(cfg *Config, key uint64) bool {
	if cfg.Magnitude {
		return true
	}
	return cfg.Workload.Mixed && key%3 == 2
}

// SampleAt returns the exact sample stream key carries at its per-key
// index i under cfg — the replay contract of the differential referee:
// feeding SampleAt(cfg, key, 0..n-1) to a standalone detector must
// reproduce the pooled stream's state byte-for-byte after the pool saw
// n samples of that key, regardless of distribution, churn, bursts or
// interleaving. Event streams populate Value (Magnitude 0) and
// magnitude streams populate Magnitude (Value 0), mirroring the
// server's frame decode exactly.
func SampleAt(cfg Config, key uint64, i uint64) dpd.KeyedSample {
	cfg.normalize()
	v := sampleValue(&cfg, key, i)
	ks := dpd.KeyedSample{Key: key}
	if magnitudeKey(&cfg, key) {
		ks.Magnitude = float64(v)
	} else {
		ks.Value = v
	}
	return ks
}

// connGen generates one connection's share of the workload: its key
// partition per churn generation, the per-batch key draw (round-robin
// or zipf), and per-key sample cursors. All state is derived from the
// spec and the connection index, so the sequence is reproducible.
type connGen struct {
	cfg   *Config
	ci    int
	gens  int
	quota int // per-key samples per generation (uniform pacing unit)

	gen  int
	keys []uint64 // current generation's keys, ascending (zipf rank 0 = keys[0])
	zipf *Zipf

	rr, tBase int // uniform sweep cursor
	budget    int // zipf: samples left in the generation

	counts map[uint64]uint64 // per-key samples generated so far
}

// newConnGen builds connection ci's generator; cfg must be normalized.
func newConnGen(cfg *Config, ci int) *connGen {
	gens := cfg.Workload.generations()
	quota := cfg.SamplesPerStream / gens
	if quota < 1 {
		quota = 1
	}
	g := &connGen{cfg: cfg, ci: ci, gens: gens, quota: quota, gen: -1,
		counts: make(map[uint64]uint64)}
	g.advance()
	return g
}

// advance moves to the next churn generation, rebuilding the key window;
// it reports false when the run is exhausted (or the connection owns no
// keys at all).
func (g *connGen) advance() bool {
	g.gen++
	if g.gen >= g.gens {
		return false
	}
	base := g.cfg.KeyBase + uint64(g.gen)*uint64(g.cfg.Streams)
	g.keys = g.keys[:0]
	for off := g.ci; off < g.cfg.Streams; off += g.cfg.Conns {
		g.keys = append(g.keys, base+uint64(off))
	}
	if len(g.keys) == 0 {
		return false
	}
	g.rr, g.tBase = 0, 0
	g.budget = len(g.keys) * g.quota
	if g.cfg.Workload.Dist.Kind == DistZipf && g.zipf == nil {
		seed := g.cfg.Workload.seed() + uint64(g.ci)*0x9e3779b97f4a7c15
		g.zipf = NewZipf(uint64(len(g.keys)), g.cfg.Workload.Dist.Theta, seed)
	}
	return true
}

// nextBatch yields the next batch: the target key, the stream's sample
// cursor before this batch, and the batch length. ok is false when the
// connection's budget is exhausted.
func (g *connGen) nextBatch() (key uint64, start uint64, n int, ok bool) {
	if g.gen >= g.gens || len(g.keys) == 0 {
		return 0, 0, 0, false
	}
	b := g.cfg.BatchSize
	if g.cfg.Workload.Dist.Kind == DistZipf {
		for g.budget == 0 {
			if !g.advance() {
				return 0, 0, 0, false
			}
		}
		key = g.keys[g.zipf.Next()]
		n = b
		if n > g.budget {
			n = g.budget
		}
		g.budget -= n
	} else {
		for g.tBase >= g.quota {
			if !g.advance() {
				return 0, 0, 0, false
			}
		}
		key = g.keys[g.rr]
		n = b
		if rem := g.quota - g.tBase; n > rem {
			n = rem
		}
		g.rr++
		if g.rr == len(g.keys) {
			g.rr = 0
			g.tBase += b
		}
	}
	start = g.counts[key]
	g.counts[key] = start + uint64(n)
	return key, start, n, true
}

// effectivePhases returns the arrival schedule: the workload's phases,
// or one unbounded steady phase at Config.Rate.
func effectivePhases(cfg *Config) []Phase {
	if len(cfg.Workload.Phases) > 0 {
		return cfg.Workload.Phases
	}
	return []Phase{{Name: "steady", Rate: cfg.Rate}}
}

// phaseAgg accumulates one phase's measurements across all its cycles
// on one connection: samples, active (non-pause) wall time, and the
// batch-accept latency histogram.
type phaseAgg struct {
	name    string
	samples uint64
	active  time.Duration
	hist    obs.Hist
}

// shaper walks a connection through the arrival schedule: it injects
// the pauses between phases, paces sends against each phase's (possibly
// ramping) rate, and attributes every batch's accept latency to the
// phase it was sent in.
type shaper struct {
	phases []Phase
	aggs   []phaseAgg

	idx       int // current phase index; -1 before the first prepare
	left      int // samples left in the current pass; -1 = unbounded
	sent      int // samples sent in the current pass (ramp progress)
	expect    float64
	passStart time.Time
	conns     float64
}

// newShaper builds the schedule walker; cfg must be normalized.
func newShaper(cfg *Config) *shaper {
	phases := effectivePhases(cfg)
	sh := &shaper{phases: phases, aggs: make([]phaseAgg, len(phases)),
		idx: -1, conns: float64(cfg.Conns)}
	for i, p := range phases {
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("phase%d", i)
		}
		sh.aggs[i].name = name
	}
	return sh
}

// prepare runs before each batch: on a phase boundary it closes the
// finished pass, flushes staged frames, sleeps the next phase's pause,
// and restarts the pass clock.
func (sh *shaper) prepare(ctx context.Context, flush func() error) error {
	if sh.idx >= 0 && sh.left != 0 {
		return nil
	}
	next := 0
	if sh.idx >= 0 {
		sh.closePass()
		next = (sh.idx + 1) % len(sh.phases)
	}
	p := sh.phases[next]
	if p.Pause > 0 {
		if err := flush(); err != nil {
			return err
		}
		select {
		case <-time.After(p.Pause):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	sh.idx = next
	sh.left = p.Samples
	if p.Samples == 0 {
		sh.left = -1
	}
	sh.sent = 0
	sh.expect = 0
	sh.passStart = time.Now()
	return nil
}

// closePass folds the current pass's active time into its aggregate.
func (sh *shaper) closePass() {
	sh.aggs[sh.idx].active += time.Since(sh.passStart)
}

// record attributes one sent batch (n samples, accepted in d) to the
// current phase and advances the pacing ledger.
func (sh *shaper) record(n int, d time.Duration) {
	agg := &sh.aggs[sh.idx]
	agg.samples += uint64(n)
	agg.hist.Record(d)
	p := sh.phases[sh.idx]
	rate := p.Rate
	if p.RampTo > 0 && p.Samples > 0 {
		frac := float64(sh.sent) / float64(p.Samples)
		if frac > 1 {
			frac = 1
		}
		rate = p.Rate + (p.RampTo-p.Rate)*frac
	}
	if rate > 0 {
		sh.expect += float64(n) / (rate / sh.conns)
	}
	sh.sent += n
	if sh.left > 0 {
		sh.left -= n
		if sh.left < 0 {
			sh.left = 0
		}
	}
}

// pace sleeps whenever the connection has run ahead of the phase's
// rate, flushing staged frames first so the server keeps draining
// while the generator idles.
func (sh *shaper) pace(ctx context.Context, flush func() error) error {
	p := sh.phases[sh.idx]
	if p.Rate <= 0 && p.RampTo <= 0 {
		return nil
	}
	ahead := time.Duration(sh.expect*float64(time.Second)) - time.Since(sh.passStart)
	if ahead <= time.Millisecond {
		return nil
	}
	if err := flush(); err != nil {
		return err
	}
	select {
	case <-time.After(ahead):
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}

// finish closes the in-flight pass; call once when the budget is done.
func (sh *shaper) finish() {
	if sh.idx >= 0 {
		sh.closePass()
	}
}

// Fingerprint hashes a per-stream sample-count map (FNV-1a over the
// ascending (key, count) pairs) into one comparable word: two runs of
// the same seeded workload must report the same value, whatever the
// scheduling — the cheap reproducibility check dpdload prints.
func Fingerprint(counts map[uint64]uint64) uint64 {
	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint64) {
		for b := 0; b < 64; b += 8 {
			h ^= (v >> b) & 0xff
			h *= prime
		}
	}
	for _, k := range keys {
		mix(k)
		mix(counts[k])
	}
	return h
}
