package server

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"dpd"
	"dpd/internal/faults"
	"dpd/internal/obs"
)

// Durability loop: the server periodically streams the pool's complete
// state to disk so a restart continues every stream byte-identically.
//
// The discipline, end to end:
//
//   - Writes are atomic: the checkpoint streams into a .tmp file in the
//     same directory, is fsynced, then renamed into place (and the
//     directory fsynced), so a crash mid-write can never leave a
//     half-checkpoint under a valid name.
//   - The pool state is streamed chunk by chunk, no pool lock held
//     across a write (Pool.Checkpoint), so memory is bounded by one
//     chunk and a wedged disk stalls the checkpoint, never ingest,
//     rebalancing or shutdown.
//   - Checkpoints never queue: WriteCheckpoint try-locks, and a caller
//     finding one already in flight returns ErrCheckpointInFlight
//     (counted as a stall) instead of piling up behind a wedged write.
//   - Files are sequence-numbered (ckpt-000000000042.dpdp); the server
//     keeps the newest CheckpointKeep and prunes the rest, so the disk
//     footprint is bounded and boot always has fallbacks.
//   - Boot sweeps *.tmp orphans (a crash between write and rename), then
//     restores from the newest file whose stream decodes and matches the
//     configured engine; corrupt, truncated or mismatched files are
//     logged with the reason and skipped (counted in restore_fallbacks),
//     falling back to older files and finally to a fresh pool.
//     Durability degrades gracefully instead of refusing to start.
//   - At shutdown a final checkpoint runs after Pool.Close, capturing
//     the fully quiesced state — nothing fed before the drain is lost.
//   - Every filesystem touch goes through the injectable faults.FS, so
//     the crash matrix in failure_test.go can provoke and replay every
//     step of this path.

// ErrCheckpointInFlight is returned by WriteCheckpoint when another
// checkpoint is still running — including one wedged on a hung disk.
// The caller's checkpoint is skipped, never queued.
var ErrCheckpointInFlight = errors.New("server: checkpoint already in flight")

const (
	// checkpointPrefix and checkpointSuffix frame the sequence number in
	// a checkpoint file name.
	checkpointPrefix = "ckpt-"
	checkpointSuffix = ".dpdp"
	// checkpointSeqDigits zero-pads sequence numbers so lexical and
	// numeric order agree for every plausible lifetime.
	checkpointSeqDigits = 12
)

// checkpointName renders the file name of sequence seq.
func checkpointName(seq uint64) string {
	return fmt.Sprintf("%s%0*d%s", checkpointPrefix, checkpointSeqDigits, seq, checkpointSuffix)
}

// parseCheckpointName extracts the sequence number, reporting false for
// names that are not checkpoints (temp files, strangers).
func parseCheckpointName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, checkpointPrefix) || !strings.HasSuffix(name, checkpointSuffix) {
		return 0, false
	}
	mid := name[len(checkpointPrefix) : len(name)-len(checkpointSuffix)]
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listCheckpoints returns the sequence numbers present in dir, newest
// first. A missing directory is an empty list, not an error.
func listCheckpoints(fs faults.FS, dir string) ([]uint64, error) {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, ok := parseCheckpointName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs, nil
}

// sweepTmp removes *.tmp orphans left by a crash between checkpoint
// write and rename. They can never become valid checkpoints (the rename
// is what commits them), so boot clears them and counts the sweep.
func (s *Server) sweepTmp(dir string) {
	ents, err := s.fs.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, checkpointPrefix) && strings.HasSuffix(name, ".tmp") {
			if s.fs.Remove(filepath.Join(dir, name)) == nil {
				s.metrics.tmpSwept.Add(1)
				s.cfg.Logf("server: swept orphaned checkpoint temp %s", name)
			}
		}
	}
}

// WriteCheckpoint serializes the pool's current state and commits it as
// a new durable checkpoint file, pruning old ones and returning the
// path written. It is what the interval loop and the shutdown path
// call, and is exported so operators (and tests) can force a checkpoint
// at will. Feeding may continue concurrently: Pool.Checkpoint streams
// into the temp file chunk by chunk, every write strictly outside pool
// locks. If a checkpoint is already in flight (possibly wedged on a bad
// disk) the call returns ErrCheckpointInFlight immediately instead of
// queueing.
func (s *Server) WriteCheckpoint() (string, error) {
	dir := s.cfg.CheckpointDir
	if dir == "" {
		return "", errors.New("server: no checkpoint directory configured")
	}
	if !s.ckptMu.TryLock() {
		s.metrics.checkpointStalls.Add(1)
		return "", ErrCheckpointInFlight
	}
	defer s.ckptMu.Unlock()
	s.metrics.checkpointInFlight.Store(1)
	defer s.metrics.checkpointInFlight.Store(0)

	// ckptMu is held, so the sequence this attempt will commit is fixed
	// now; every recorder event of the attempt carries it.
	seq := s.metrics.checkpointSeq.Load() + 1
	rec := s.obs.Rec()
	rec.Record(obs.SubCheckpoint, obs.EvCheckpointBegin, seq, 0)
	t0 := time.Now()
	fail := func(err error) (string, error) {
		s.metrics.checkpointErrors.Add(1)
		rec.Record(obs.SubCheckpoint, obs.EvCheckpointError, seq, 0)
		return "", err
	}

	// Capture each connection's acknowledged barrier BEFORE the snapshot
	// begins: everything those tokens cover is already applied, so it is
	// in the snapshot, so the tokens become durable when the file does.
	var marks []DurableMark
	if !s.cfg.ExternalDurability {
		marks = s.CaptureDurableMarks()
	}

	if err := s.fs.MkdirAll(dir, 0o777); err != nil {
		return fail(err)
	}
	final := filepath.Join(dir, checkpointName(seq))
	tmp := final + ".tmp"
	size, err := s.writeCheckpointFile(tmp)
	if err != nil {
		s.fs.Remove(tmp)
		return fail(err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		s.fs.Remove(tmp)
		return fail(err)
	}
	if err := s.fs.SyncDir(dir); err != nil {
		// The rename happened but its durability is unknown: a restart
		// may legitimately see either checkpoint. Report failure so no
		// durable marks are handed out on the strength of this file.
		return fail(err)
	}
	s.metrics.checkpointSeq.Store(seq)
	s.metrics.checkpointsTotal.Add(1)
	s.metrics.checkpointLastNs.Store(time.Now().UnixNano())
	rec.Record(obs.SubCheckpoint, obs.EvCheckpointCommit, seq, uint64(size))
	s.obs.CheckpointWrite.Observe(time.Since(t0))
	s.pruneCheckpoints(dir, seq)
	for _, m := range marks {
		m.Durable()
	}
	return final, nil
}

// writeCheckpointFile streams the pool's checkpoint into path and
// fsyncs it, all through the injectable filesystem, returning the bytes
// written.
func (s *Server) writeCheckpointFile(path string) (int64, error) {
	f, err := s.fs.Create(path)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: f}
	if err := s.pool.Checkpoint(cw); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	return cw.n, f.Close()
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

// Write implements io.Writer.
func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// pruneCheckpoints removes checkpoints older than the newest
// CheckpointKeep, plus any stale temp files. Best effort: pruning
// failures never fail the checkpoint that just landed.
func (s *Server) pruneCheckpoints(dir string, newest uint64) {
	keep := s.cfg.CheckpointKeep
	ents, err := s.fs.ReadDir(dir)
	if err != nil {
		return
	}
	var seqs []uint64
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") && strings.HasPrefix(name, checkpointPrefix) && name != checkpointName(newest)+".tmp" {
			s.fs.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, ok := parseCheckpointName(name); ok {
			seqs = append(seqs, seq)
		}
	}
	if len(seqs) <= keep {
		return
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, seq := range seqs[keep:] {
		s.fs.Remove(filepath.Join(dir, checkpointName(seq)))
	}
}

// restorePool builds the boot pool: the newest checkpoint that decodes
// and matches cfg's detector factory wins; corrupt or mismatched files
// are logged and skipped; no usable checkpoint means a fresh pool. The
// returned seq seeds the checkpoint sequence so a restart never
// overwrites files it just restored from.
func restorePool(fs faults.FS, dir string, cfg dpd.PoolConfig, logf func(string, ...any), m *metrics) (*dpd.Pool, uint64, error) {
	var newest uint64
	if dir != "" {
		seqs, err := listCheckpoints(fs, dir)
		if err != nil {
			return nil, 0, fmt.Errorf("server: scanning checkpoint dir: %w", err)
		}
		if len(seqs) > 0 {
			newest = seqs[0]
		}
		for _, seq := range seqs {
			path := filepath.Join(dir, checkpointName(seq))
			f, err := fs.Open(path)
			if err != nil {
				logf("server: skipping checkpoint %s: %v", path, err)
				m.restoreFallbacks.Add(1)
				continue
			}
			p, err := dpd.RestorePool(f, cfg)
			f.Close()
			if err != nil {
				logf("server: skipping corrupt checkpoint %s: %v", path, err)
				m.restoreFallbacks.Add(1)
				continue
			}
			n := p.Len()
			logf("server: restored %d streams from %s", n, path)
			m.restoredStreams.Store(uint64(n))
			return p, newest, nil
		}
		if len(seqs) > 0 {
			logf("server: no usable checkpoint among %d candidates; starting fresh", len(seqs))
		}
	}
	p, err := dpd.NewPool(cfg)
	if err != nil {
		return nil, 0, err
	}
	return p, newest, nil
}

// checkpointLoop writes a checkpoint every CheckpointEvery until the
// server shuts down (the final shutdown checkpoint is taken by Shutdown
// itself, after the pool has quiesced). A cycle finding the previous
// checkpoint still in flight skips: stalls surface in metrics, not as a
// queue of writers behind a wedged disk.
func (s *Server) checkpointLoop() {
	defer s.bg.Done()
	t := time.NewTicker(s.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := s.WriteCheckpoint(); err != nil && !errors.Is(err, ErrCheckpointInFlight) {
				s.cfg.Logf("server: periodic checkpoint failed: %v", err)
			}
		case <-s.stop:
			return
		}
	}
}
