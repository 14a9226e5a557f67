package pool

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"slices"

	"dpd/internal/core"
	"dpd/internal/obs"
	"dpd/internal/wire"
)

// Pool state portability: Checkpoint streams every per-stream detector
// state out in key order, Restore rebuilds a pool from that stream,
// and Rebalance migrates live streams to a different shard count — all
// three through the same engine checkpoint codec, so a detector state
// moves between processes and between shards in exactly one format.
//
// On-stream layout (after the engine codec, everything is frames):
//
//	magic "DPDP" | version u8 |
//	frame*        (payload: uvarint key | engine checkpoint)
//	frame(len=0)  (terminator)
//
// Frames are in ascending key order, so a quiescent pool's checkpoint
// is the same bytes on every call and on every shard count.
//
// Checkpoint is a sink of EachState, which holds one chunk of encoded
// state plus the sorted key list (8 B per stream), never the pool, and
// calls its sink with no pool lock held: neither feeders nor an
// exclusive-gate holder (Rebalance, promotion, a hot Detach) ever wait
// on a disk or a socket. Each stream is internally consistent; the
// pool as a whole is deliberately not a single instant.

const (
	// poolMagic heads a pool checkpoint stream.
	poolMagic = "DPDP"
	// poolStateVersion is the pool container format version.
	poolStateVersion = 1
	// maxStreamFrame bounds one stream's frame so a corrupted length
	// prefix cannot demand unbounded memory: comfortably above the
	// largest legal engine state (a MaxWindow event bank is ~512 MiB on
	// paper, but real configurations sit in kilobytes; this cap admits
	// every configuration the constructors accept while still bounding
	// a hostile 2^60 length claim).
	maxStreamFrame = 1 << 30
	// stateChunk is the encoded-state budget of one EachState chunk and
	// Checkpoint's write size; a chunk closes at the first stream that
	// reaches it.
	stateChunk = 256 << 10
)

// EachState calls fn with the key and engine checkpoint of every
// stream live when the call starts, in ascending key order, and stops
// at the first error from fn or from encoding. fn runs with no pool
// lock held, so it may block or call back into the pool; state is
// valid only until fn returns.
//
// The live keys are snapshotted and sorted first. Then, one chunk at a
// time under the shared gate, each key is looked up at its current
// placement and encoded under that stream's lock; keys gone since the
// snapshot are skipped. Each key is thus visited at most once, and
// each stream is encoded against one shard generation even when
// Rebalance runs between two chunks.
func (p *Pool) EachState(fn func(key uint64, state []byte) error) error {
	keys := make([]uint64, 0, p.Len())
	p.eachStream(func(key uint64, _ core.Detector) { keys = append(keys, key) })
	slices.Sort(keys)
	// ends[i] is the end offset in buf of keys[i]'s state; a key gone
	// since the snapshot adds no bytes (a live state is never empty).
	var buf []byte
	var ends []int
	for len(keys) > 0 {
		buf, ends = buf[:0], ends[:0]
		p.gate.RLock()
		for len(ends) < len(keys) && len(buf) < stateChunk {
			var err error
			p.withStream(keys[len(ends)], func(det core.Detector) { buf, err = core.AppendCheckpoint(det, buf) })
			if err != nil {
				p.gate.RUnlock()
				return fmt.Errorf("pool: checkpoint stream %d: %w", keys[len(ends)], err)
			}
			ends = append(ends, len(buf))
		}
		p.gate.RUnlock()
		start := 0
		for i, end := range ends {
			if end > start {
				if err := fn(keys[i], buf[start:end]); err != nil {
					return err
				}
			}
			start = end
		}
		keys = keys[len(ends):]
	}
	return nil
}

// Checkpoint writes the state of every live stream to w through
// EachState, in chunks of about 256 KiB (a pool whose state fits one
// chunk is a single Write), with no pool lock held while w is written.
// Feeders may run concurrently. Shard-count, eviction configuration
// and hot placement are NOT part of the checkpoint — Restore takes a
// fresh Config, which is how a checkpoint taken on an 8-shard pool
// restores onto 2 shards or 32.
//
// Checkpoint fails if a stream's detector was built by an injected
// factory whose type is not one of the built-in engines.
//
// Concurrency contract with Rebalance: neither waits for the other
// beyond one chunk's encode. A Rebalance between two chunks cannot
// duplicate or split a stream: each key is written at most once,
// against one shard generation, and every stream live throughout the
// call is written. TestCheckpointRebalanceSerialize pins this.
func (p *Pool) Checkpoint(w io.Writer) error {
	// bufio errors are sticky: the checked writes below report any
	// earlier failed one.
	bw := bufio.NewWriterSize(w, stateChunk)
	bw.WriteString(poolMagic)
	bw.WriteByte(poolStateVersion)
	var hdr []byte
	err := p.EachState(func(key uint64, state []byte) error {
		// Frame: uvarint len(payload) | payload (uvarint key | state).
		k := len(wire.AppendUvarint(hdr[:0], key))
		hdr = wire.AppendUvarint(hdr[:0], uint64(k+len(state)))
		hdr = wire.AppendUvarint(hdr, key)
		bw.Write(hdr)
		_, err := bw.Write(state)
		return err
	})
	if err != nil {
		return err
	}
	if err := wire.WriteFrame(bw, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// Restore builds a started pool from a checkpoint stream written by
// Checkpoint, placing every stream on the shard the new configuration
// hashes it to. The configuration's detector factory must build the
// same engine kind and configuration the checkpoint carries: every
// stream's spec is validated against a factory probe, and a mismatch is
// a descriptive error, never a silently mixed pool. Idle-TTL clocks
// restart from zero.
func Restore(r io.Reader, cfg Config) (*Pool, error) {
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			p.Close()
		}
	}()

	probe, err := core.AppendCheckpoint(p.cfg.NewDetector(), nil)
	if err != nil {
		return nil, fmt.Errorf("pool: restore: factory detector is not checkpointable: %w", err)
	}
	probeSpec, err := core.DecodeSpec(probe)
	if err != nil {
		return nil, fmt.Errorf("pool: restore: factory probe: %w", err)
	}

	br := bufio.NewReader(r)
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pool: restore header: %w", err)
	}
	if string(hdr[:4]) != poolMagic {
		return nil, fmt.Errorf("pool: restore: bad magic %q", hdr[:4])
	}
	if hdr[4] != poolStateVersion {
		return nil, fmt.Errorf("pool: restore: unsupported pool format version %d (this build reads version %d)", hdr[4], poolStateVersion)
	}

	var buf []byte
	for {
		payload, err := wire.ReadFrame(br, maxStreamFrame, buf)
		if err != nil {
			return nil, fmt.Errorf("pool: restore: %w", err)
		}
		if payload == nil {
			break // terminator
		}
		buf = payload
		dec := wire.NewDec(payload)
		key := dec.Uvarint()
		if dec.Err() != nil {
			return nil, fmt.Errorf("pool: restore: stream key: %w", dec.Err())
		}
		state := payload[dec.Offset():]
		spec, err := core.DecodeSpec(state)
		if err != nil {
			return nil, fmt.Errorf("pool: restore: stream %d: %w", key, err)
		}
		if !spec.Equal(probeSpec) {
			return nil, fmt.Errorf("pool: restore: stream %d is a %s-engine state that does not match the pool's detector factory (%s); pass the configuration the checkpoint was taken with",
				key, spec.EngineName(), probeSpec.EngineName())
		}
		det, err := core.RestoreCheckpoint(state)
		if err != nil {
			return nil, fmt.Errorf("pool: restore: stream %d: %w", key, err)
		}
		sh := p.shards[p.shardOf(key)]
		sh.mu.Lock()
		_, dup := sh.streams[key]
		if !dup {
			st := &stream{key: key, det: det}
			sh.attach(st)
			sh.streams[key] = st
		}
		sh.mu.Unlock()
		if dup {
			return nil, fmt.Errorf("pool: restore: duplicate stream %d in checkpoint", key)
		}
	}
	ok = true
	return p, nil
}

// Rebalance changes the number of shards at run time, migrating every
// live stream to its new shard by serializing its detector through the
// checkpoint codec and restoring it on the other side — the same
// phase-aware state movement a cross-process restore uses, so a stream
// observes no difference between being rebalanced and being
// checkpoint/restored. newShards 0 selects runtime.GOMAXPROCS(0).
//
// Rebalance waits for in-flight batches to complete and blocks new ones
// for the duration (feeders block, they do not fail), then swaps the
// shard table atomically with respect to the feed gate. Per-stream
// detector state — and therefore every subsequent Result and Stat — is
// preserved exactly; the per-shard idle-TTL clocks restart, since shard
// sample counts are meaningless across a re-partition.
//
// Rebalance concurrent with Checkpoint waits at most for one chunk's
// encode and never errors: see the Checkpoint contract note. Promoted (hot)
// streams are untouched: they live outside the shard maps, so changing
// the shard count neither moves nor re-keys them; contention sampling
// restarts on the fresh shard generation.
func (p *Pool) Rebalance(newShards int) error {
	if newShards == 0 {
		newShards = runtime.GOMAXPROCS(0)
	}
	if newShards < 1 || newShards > MaxShards {
		return fmt.Errorf("pool: rebalance shards %d outside [1,%d]", newShards, MaxShards)
	}
	p.gate.Lock()
	defer p.gate.Unlock()
	if p.closed.Load() {
		return fmt.Errorf("pool: Rebalance on a closed Pool")
	}
	if newShards == len(p.shards) {
		return nil
	}

	// Probe once: every stream came from the same factory (or passed the
	// Restore spec check), so one non-checkpointable probe means the
	// whole migration is impossible and nothing has been touched yet.
	if _, err := core.AppendCheckpoint(p.cfg.NewDetector(), nil); err != nil {
		return fmt.Errorf("pool: rebalance: %w", err)
	}

	// Build and fill the next shard generation without mutating the
	// current one, so any migration error aborts with the pool intact.
	next := make([]*shard, newShards)
	for i := range next {
		next[i] = newShard(p.cfg, i)
	}
	var buf []byte
	for _, sh := range p.shards {
		for key, st := range sh.streams {
			var err error
			buf, err = core.AppendCheckpoint(st.det, buf[:0])
			if err != nil {
				return fmt.Errorf("pool: rebalance stream %d: %w", key, err)
			}
			det, err := core.RestoreCheckpoint(buf)
			if err != nil {
				return fmt.Errorf("pool: rebalance stream %d: %w", key, err)
			}
			ns := next[shardIndex(key, newShards)]
			st := &stream{key: key, det: det}
			ns.attach(st)
			ns.streams[key] = st
		}
	}

	// Point of no return: swap the table, start the new workers, retire
	// the old generation. The exclusive gate guarantees no run is queued
	// on any old shard and no feeder holds a stale shard pointer.
	p.cfg.Recorder.Record(obs.SubPool, obs.EvRebalance, uint64(len(p.shards)), uint64(newShards))
	old := p.shards
	p.shards = next
	for _, sh := range next {
		p.wg.Add(1)
		go p.worker(sh)
	}
	for _, sh := range old {
		p.evictedBase += sh.evicted
		close(sh.in)
	}

	// Re-shape the batch staging buffers. Shrinking keeps the backing
	// array (and the per-shard []KeyedSample capacities hidden beyond
	// the new length), so growing back to a previously used shard count
	// re-exposes warmed buffers and the steady-state feed path returns
	// to 0 allocs/op without re-warming.
	for i := 0; i < cap(p.groups); i++ {
		g := <-p.groups
		if cap(g.perShard) >= newShards {
			g.perShard = g.perShard[:newShards]
		} else {
			g.perShard = append(g.perShard[:cap(g.perShard)], make([][]KeyedSample, newShards-cap(g.perShard))...)
		}
		for j := range g.perShard {
			g.perShard[j] = g.perShard[j][:0]
		}
		p.groups <- g
	}
	return nil
}
