package pool

// Contention sampler: the per-shard half of adaptive placement. Each
// shard keeps a tiny power-of-two array of {key, count} slots updated
// inline in shard.resolve under the shard lock, on roughly one in
// SampleEvery samples (randomized countdown) — a Misra-Gries-style
// heavy-hitter sketch (the ddtxn candidates.go idiom): a hit increments
// its slot, an empty slot is claimed, and a collision decays the
// incumbent, so only keys that repeatedly dominate their slot survive
// until the next fold. The update is branch-predictable, touches one
// cache line, performs no allocation and no atomic operation; when the
// adaptive tier is disabled the sampler pointer is nil and the feed
// path pays a single never-taken branch.
//
// The coordinator periodically folds every shard's sketch (copying and
// zeroing the slots under the shard lock) into a global candidate list
// and compares each surviving count against the fold's total sample
// window to decide promotions. Sketch counts are lower bounds on true
// frequencies — exact enough for "is this key taking a double-digit
// share of all traffic", which is the only question promotion asks.

// samplerSlot is one sketch cell: the key currently owning the cell and
// its decayed occurrence count since the last fold.
type samplerSlot struct {
	key   uint64
	count uint64
}

// sampler is one shard's heavy-hitter sketch. All access is under the
// owning shard's mutex.
//
// The sketch subsamples: it observes roughly one in SampleEvery feed
// calls, chosen by a randomized countdown (wait draws uniformly from
// [1, 2*stride-1], mean = stride) so the seven-in-eight fast path is a
// decrement and a never-taken branch. The stride must be randomized,
// not a fixed clock mask: real batches often carry keys in a fixed
// order, and any deterministic stride whose period divides the batch
// period would observe the *same* key every time, inflating its count
// by the stride factor. Heavy-hitter shares are relative, so the
// subsample sees the same celebrities; the coordinator multiplies
// sketch counts back by the stride before comparing them against the
// unstrided shard-clock window.
type sampler struct {
	slots  []samplerSlot
	shift  uint   // 64 - log2(len(slots)): multiply-shift slot index
	wait   uint32 // feed calls until the next observation
	stride uint32 // configured mean sampling stride (SampleEvery)
	rng    uint64 // xorshift64 state for countdown draws
}

// newSampler builds a sketch with the given power-of-two slot count,
// mean sampling stride, and a per-shard seed decorrelating countdown
// phases across shards.
func newSampler(slots, stride int, seed uint64) *sampler {
	shift := uint(64)
	for n := slots; n > 1; n >>= 1 {
		shift--
	}
	if seed == 0 {
		seed = 1
	}
	sm := &sampler{
		slots:  make([]samplerSlot, slots),
		shift:  shift,
		stride: uint32(stride),
		rng:    seed,
	}
	sm.reload()
	return sm
}

// reload draws the countdown until the next observation. Caller holds
// the shard lock; runs once per observation, not per sample.
func (sm *sampler) reload() {
	if sm.stride <= 1 {
		sm.wait = 1
		return
	}
	x := sm.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	sm.rng = x
	sm.wait = uint32(x)%(2*sm.stride-1) + 1
}

// advance counts n consecutive feed calls of key down the countdown,
// electing exactly the calls n single-sample decrements would: a run
// shorter than the remaining wait costs one subtraction. Caller holds
// the shard lock.
func (sm *sampler) advance(key uint64, n int) {
	for uint64(n) >= uint64(sm.wait) {
		n -= int(sm.wait)
		sm.observe(key)
		sm.reload()
	}
	sm.wait -= uint32(n)
}

// observe records one occurrence of key. Caller holds the shard lock.
func (sm *sampler) observe(key uint64) {
	s := &sm.slots[(key*0x9e3779b97f4a7c15)>>sm.shift]
	switch {
	case s.key == key && s.count > 0:
		s.count++
	case s.count == 0:
		s.key = key
		s.count = 1
	default:
		s.count--
	}
}

// hotCand is one folded candidate: a key and its (lower-bound) sample
// count over the fold window.
type hotCand struct {
	key   uint64
	count uint64
}

// fold appends every surviving candidate to dst and resets the sketch
// for the next window. Caller holds the shard lock.
func (sm *sampler) fold(dst []hotCand) []hotCand {
	for i := range sm.slots {
		s := &sm.slots[i]
		if s.count > 0 {
			dst = append(dst, hotCand{key: s.key, count: s.count})
			s.key, s.count = 0, 0
		}
	}
	return dst
}
