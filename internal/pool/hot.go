package pool

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dpd/internal/core"
)

// Hot-stream execution: the placement a promoted "celebrity" stream
// runs on. A hot stream leaves its shard map entirely — its detector is
// owned by a dedicated worker goroutine (OS-thread-locked, so the
// scheduler keeps the hottest state on one core) fed through a bounded
// single-producer/single-consumer ring of batch runs. FeedBatch routes
// the key's samples straight onto that ring, bypassing the shard hash,
// the shard run queue and the shard map lookup; nothing the cold
// majority does contends with the celebrity, and the celebrity's feed
// path is a ring push instead of a shard-worker rendezvous.
//
// Membership of the hot set changes only under the pool's exclusive
// gate (the same phase switch Rebalance uses). While the gate is held
// exclusively every dispatched batch has been applied (a batch holds the
// shared gate until its last run is), which means every hot ring is
// provably empty — so promotion, demotion, detach and close never
// race an in-flight run, and a stream's sample order is preserved
// exactly across placement changes.

// hotRun is one batch's slice of samples for one hot stream, staged
// in the batch group's per-slot buffer exactly like a shardRun.
type hotRun struct {
	samples []KeyedSample
	g       *group
}

// hotRing is the bounded SPSC queue between batch dispatchers and one
// hot worker. Producers (many dispatching goroutines) serialize on pmu,
// so the ring itself only ever sees one producer and one consumer;
// head/tail are atomics, and the two 1-token channels carry park/wake
// hints in both directions (a dropped token is always rediscovered by
// the waiter's recheck loop, so a lost wakeup cannot wedge the ring).
type hotRing struct {
	buf  []hotRun
	mask uint64
	head atomic.Uint64 // next slot the consumer reads
	tail atomic.Uint64 // next slot the producer writes

	pmu      sync.Mutex    // serializes dispatching producers
	notEmpty chan struct{} // producer → consumer wake hint
	notFull  chan struct{} // consumer → producer wake hint
}

func newHotRing(capacity int) *hotRing {
	return &hotRing{
		buf:      make([]hotRun, capacity),
		mask:     uint64(capacity - 1),
		notEmpty: make(chan struct{}, 1),
		notFull:  make(chan struct{}, 1),
	}
}

// push enqueues one run, blocking while the ring is full — the same
// backpressure a full shard run queue applies to feeders. The consumer
// never blocks on producers, so this cannot deadlock.
func (r *hotRing) push(run hotRun) {
	r.pmu.Lock()
	t := r.tail.Load()
	for t-r.head.Load() == uint64(len(r.buf)) {
		// Full: park until the consumer frees a slot. The token channel
		// holds at most one hint; if the consumer popped between our
		// check and the receive, the token is already there.
		<-r.notFull
	}
	r.buf[t&r.mask] = run
	r.tail.Store(t + 1)
	select {
	case r.notEmpty <- struct{}{}:
	default:
	}
	r.pmu.Unlock()
}

// hotStream is one promoted stream: detector state plus its dedicated
// worker's ring. The detector is fed only by the hot worker; readers
// (Stat, Snapshot, Checkpoint, the coordinator's rate fold) take mu,
// which the worker holds only while feeding a run.
type hotStream struct {
	key  uint64
	slot int // index in adaptiveState.slots and group.perHot
	ring *hotRing
	stop chan struct{}
	halt sync.Once // guards close(stop): Close and Detach may both fence

	mu  sync.Mutex
	det core.Detector
	fed uint64 // lifetime samples since promotion

	// Coordinator-maintained (under mu): samples since the last fold and
	// the rate computed over the previous fold window.
	window   uint64
	lastRate float64 // samples/sec over the previous fold window
}

// run is the hot worker loop: pop runs, feed the detector, count down
// the batch group. LockOSThread pins the goroutine to one OS thread so
// the hottest detector state stays on one core's cache ("pinned"
// worker). Exits when stop is closed and the ring is drained.
func (hs *hotStream) run(p *Pool) {
	defer p.wg.Done()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r := hs.ring
	for {
		h := r.head.Load()
		if h == r.tail.Load() {
			select {
			case <-r.notEmpty:
				continue
			case <-hs.stop:
				if r.head.Load() == r.tail.Load() {
					return
				}
				continue
			}
		}
		run := r.buf[h&r.mask]
		r.buf[h&r.mask] = hotRun{} // release the staging slice reference
		hs.mu.Lock()
		for _, ks := range run.samples {
			hs.det.Feed(ks.sample())
		}
		hs.fed += uint64(len(run.samples))
		hs.window += uint64(len(run.samples))
		hs.mu.Unlock()
		r.head.Store(h + 1)
		select {
		case r.notFull <- struct{}{}:
		default:
		}
		p.runDone(run.g)
	}
}

// fence stops the hot worker (idempotently). Callers hold the exclusive
// gate, so the ring is empty and the worker is parked; it exits as soon
// as it observes the close.
func (hs *hotStream) fence() {
	hs.halt.Do(func() { close(hs.stop) })
}

// hotTable is the read-mostly hot-set lookup FeedBatch probes before
// shard partitioning: open-addressed, power-of-two, linear probing. A
// nil value marks an empty cell (key 0 is a legal stream key), so the
// cold-path miss is one multiply-shift, one array load and one
// predictable nil compare. The table is rebuilt (never mutated in
// place) under the exclusive gate on every hot-set change and read
// under the shared gate, so readers never see a partial update.
type hotTable struct {
	keys []uint64
	vals []*hotStream
	mask uint64
	n    int
}

// emptyHotTable is the table an adaptive pool starts with: one empty
// cell, so find is branch-minimal even before the first promotion.
func emptyHotTable() *hotTable {
	return &hotTable{keys: make([]uint64, 1), vals: make([]*hotStream, 1), mask: 0}
}

// find returns the hot stream serving key, or nil.
func (t *hotTable) find(key uint64) *hotStream {
	i := (key * 0x9e3779b97f4a7c15) >> 32 & t.mask
	for {
		hs := t.vals[i]
		if hs == nil {
			return nil
		}
		if t.keys[i] == key {
			return hs
		}
		i = (i + 1) & t.mask
	}
}

// buildHotTable constructs the lookup for the given hot set, sized at
// 4× occupancy (minimum 4 cells) so probe chains stay short.
func buildHotTable(slots []*hotStream) *hotTable {
	n := 0
	for _, hs := range slots {
		if hs != nil {
			n++
		}
	}
	size := 4
	for size < 4*n {
		size <<= 1
	}
	t := &hotTable{
		keys: make([]uint64, size),
		vals: make([]*hotStream, size),
		mask: uint64(size - 1),
		n:    n,
	}
	for _, hs := range slots {
		if hs == nil {
			continue
		}
		i := (hs.key * 0x9e3779b97f4a7c15) >> 32 & t.mask
		for t.vals[i] != nil {
			i = (i + 1) & t.mask
		}
		t.keys[i] = hs.key
		t.vals[i] = hs
	}
	return t
}
