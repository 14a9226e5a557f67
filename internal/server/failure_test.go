package server

// Failure-domain tests: every scripted crash point in the checkpoint
// path, transient disk errors, orphaned temp sweeping, overload
// admission and pending-memory shedding, wedged-disk stall detection,
// and feeder panic isolation — the server side of the PR's fault
// matrix. The client side (reconnect, cursor resync, exactly-once
// replay) lives in internal/client.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dpd"
	"dpd/internal/faults"
	"dpd/internal/wire"
)

// copyDir clones the regular files of src into a fresh temp dir, so
// each crash-matrix iteration starts from the same seeded checkpoint
// directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// statesEqual reports whether two parsed pool checkpoints hold
// byte-identical per-stream engine states.
func statesEqual(a, b map[uint64][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || string(av) != string(bv) {
			return false
		}
	}
	return true
}

// feedTrace drives the deterministic trace segment [from, to) into s
// over one barriered connection, for every stream.
func feedTrace(t *testing.T, s *Server, engine string, streams, batch, from, to int) {
	t.Helper()
	c := dialClient(t, s)
	defer c.close()
	evs := make([]int64, batch)
	mags := make([]float64, batch)
	for t0 := from; t0 < to; t0 += batch {
		for k := 0; k < streams; k++ {
			for i := range evs {
				v := traceValue(uint64(k), t0+i)
				evs[i], mags[i] = v, float64(v)
			}
			if engine == "magnitude" {
				c.sendMagnitudes(uint64(k), mags)
			} else {
				c.sendEvents(uint64(k), evs)
			}
		}
	}
	c.barrier(uint64(to))
}

// refStatesFor runs the trace segment [0, to) through a plain pool and
// returns its per-stream serialized states.
func refStatesFor(t *testing.T, poolCfg dpd.PoolConfig, streams, batch, to int) map[uint64][]byte {
	t.Helper()
	p, err := dpd.NewPool(poolCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var kb []dpd.KeyedSample
	for t0 := 0; t0 < to; t0 += batch {
		for k := 0; k < streams; k++ {
			kb = kb[:0]
			for i := 0; i < batch; i++ {
				v := traceValue(uint64(k), t0+i)
				kb = append(kb, dpd.KeyedSample{Key: uint64(k), Value: v, Magnitude: float64(v)})
			}
			p.FeedBatch(kb)
		}
	}
	var b bytes.Buffer
	if err := p.Checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	return parsePoolCheckpoint(t, b.Bytes())
}

// newestCheckpointStates shuts s down (final checkpoint) and parses the
// newest checkpoint file in dir.
func newestCheckpointStates(t *testing.T, s *Server, dir string) map[uint64][]byte {
	t.Helper()
	shutdown(t, s)
	seqs, err := listCheckpoints(faults.OS{}, dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no checkpoint after shutdown: %v (found %d)", err, len(seqs))
	}
	data, err := os.ReadFile(filepath.Join(dir, checkpointName(seqs[0])))
	if err != nil {
		t.Fatal(err)
	}
	return parsePoolCheckpoint(t, data)
}

// TestCheckpointCrashMatrix crashes the checkpoint write path at every
// injectable step — create, write, fsync, close, rename, dir-sync — and
// proves that a restart always lands on exactly one of the two durable
// states (the seeded half-trace checkpoint or the completed full-trace
// one), byte-identical to an uninterrupted pool, for all four engines.
// A crash before the rename must yield the old state (and leave a temp
// orphan for the boot sweep); a crash after the rename must yield the
// new one. Nothing in between is ever observable.
func TestCheckpointCrashMatrix(t *testing.T) {
	const (
		streams = 8
		samples = 256
		batch   = 64
		shards  = 2
	)
	for name, factory := range engineConfigs() {
		t.Run(name, func(t *testing.T) {
			poolCfg := dpd.PoolConfig{Shards: shards, NewDetector: factory}
			refHalf := refStatesFor(t, poolCfg, streams, batch, samples/2)
			refFull := refStatesFor(t, poolCfg, streams, batch, samples)

			// Seed: half the trace, one explicit durable checkpoint, then a
			// crash-style exit (no final checkpoint).
			seedDir := t.TempDir()
			s0 := newTestServer(t, Config{Pool: poolCfg, CheckpointDir: seedDir})
			feedTrace(t, s0, name, streams, batch, 0, samples/2)
			if _, err := s0.WriteCheckpoint(); err != nil {
				t.Fatal(err)
			}
			s0.Abort()

			// Dry run: count the mutating filesystem steps one full-trace
			// checkpoint costs, so the crash matrix below is exhaustive by
			// construction, not by hardcoded step indices.
			dryDir := copyDir(t, seedDir)
			dryInj := faults.NewInjector(faults.OS{}, faults.NeverPlan())
			sD := newTestServer(t, Config{Pool: poolCfg, CheckpointDir: dryDir, FS: dryInj})
			feedTrace(t, sD, name, streams, batch, samples/2, samples)
			if _, err := sD.WriteCheckpoint(); err != nil {
				t.Fatal(err)
			}
			steps := dryInj.Steps()
			sD.Abort()
			if steps < 6 {
				t.Fatalf("checkpoint path took %d mutating steps, expected at least create/write/sync/close/rename/dirsync", steps)
			}

			for crashAt := 0; crashAt < steps; crashAt++ {
				dir := copyDir(t, seedDir)
				plan := faults.NeverPlan()
				plan.Seed = 0xC0FFEE + uint64(crashAt)
				plan.CrashAt = crashAt
				inj := faults.NewInjector(faults.OS{}, plan)
				s1 := newTestServer(t, Config{Pool: poolCfg, CheckpointDir: dir, FS: inj})
				feedTrace(t, s1, name, streams, batch, samples/2, samples)
				if _, err := s1.WriteCheckpoint(); err == nil {
					t.Fatalf("crashAt=%d: checkpoint reported success through a crash", crashAt)
				}
				if !inj.Crashed() {
					t.Fatalf("crashAt=%d: injector never crashed", crashAt)
				}
				s1.Abort()

				tmps := 0
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range ents {
					if strings.HasSuffix(e.Name(), ".tmp") {
						tmps++
					}
				}

				// Restart on the real filesystem: restore must land on half
				// or full, never a torn hybrid, and must sweep any orphan.
				s2 := newTestServer(t, Config{Pool: poolCfg, CheckpointDir: dir})
				var m MetricsSnapshot
				if code := httpGet(t, s2, "/metrics", &m); code != 200 {
					t.Fatalf("GET /metrics = %d", code)
				}
				if int(m.TmpSwept) != tmps {
					t.Fatalf("crashAt=%d: swept %d temp orphans, crash left %d", crashAt, m.TmpSwept, tmps)
				}
				got := newestCheckpointStates(t, s2, dir)
				half := statesEqual(got, refHalf)
				full := statesEqual(got, refFull)
				if !half && !full {
					t.Fatalf("crashAt=%d: restored state matches neither the pre-crash nor the post-crash checkpoint", crashAt)
				}
				// The rename is the commit point: it is the second-to-last
				// mutating step (dir sync follows). Before it the old state
				// must survive; at or past it the new state must.
				if renameStep := steps - 2; crashAt < renameStep && !half {
					t.Errorf("crashAt=%d (before rename): expected the seeded half-trace state", crashAt)
				} else if crashAt >= renameStep && crashAt >= steps-1 && !full {
					t.Errorf("crashAt=%d (after rename): expected the full-trace state", crashAt)
				}
				if os.RemoveAll(dir) != nil {
					t.Fatal("cleanup failed")
				}
			}
		})
	}
}

// TestCheckpointTransientFailure: a one-shot injected disk-full error
// fails that checkpoint (counted, temp cleaned up), and the very next
// attempt succeeds — transient errors do not wedge the loop.
func TestCheckpointTransientFailure(t *testing.T) {
	dir := t.TempDir()
	plan := faults.NeverPlan()
	plan.FailAt = 2 // the data write: mkdir=0, create=1, write=2
	inj := faults.NewInjector(faults.OS{}, plan)
	s := newTestServer(t, Config{
		Pool:          dpd.PoolConfig{Shards: 1, Detector: dpd.Config{Window: 16}},
		CheckpointDir: dir,
		FS:            inj,
	})
	c := dialClient(t, s)
	c.sendEvents(7, []int64{1, 2, 3, 1, 2, 3})
	c.barrier(1)
	c.close()

	if _, err := s.WriteCheckpoint(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("first checkpoint error = %v, want injected failure", err)
	}
	if _, err := s.WriteCheckpoint(); err != nil {
		t.Fatalf("second checkpoint after transient failure: %v", err)
	}
	var m MetricsSnapshot
	httpGet(t, s, "/metrics", &m)
	if m.CheckpointErrors != 1 || m.CheckpointsTotal != 1 {
		t.Fatalf("errors=%d total=%d, want 1 and 1", m.CheckpointErrors, m.CheckpointsTotal)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("failed attempt leaked temp file %s", e.Name())
		}
	}
	shutdown(t, s)
}

// TestTmpSweepOnBoot: orphaned checkpoint temp files planted in the
// directory are removed during boot and counted in /metrics.
func TestTmpSweepOnBoot(t *testing.T) {
	dir := t.TempDir()
	orphans := []string{
		checkpointName(3) + ".tmp",
		checkpointPrefix + "partial" + ".tmp",
	}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	s := newTestServer(t, Config{
		Pool:          dpd.PoolConfig{Shards: 1, Detector: dpd.Config{Window: 16}},
		CheckpointDir: dir,
	})
	var m MetricsSnapshot
	httpGet(t, s, "/metrics", &m)
	if int(m.TmpSwept) != len(orphans) {
		t.Fatalf("tmp_swept = %d, want %d", m.TmpSwept, len(orphans))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("orphan %s survived the boot sweep", e.Name())
		}
	}
	shutdown(t, s)
}

// readServerFrame decodes one frame from a raw test connection.
func readServerFrame(t *testing.T, c *client) (ServerFrame, error) {
	t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := wire.ReadFrame(c.br, MaxFrame, nil)
	if err != nil {
		return ServerFrame{}, err
	}
	var sf ServerFrame
	if err := DecodeServerFrame(payload, &sf); err != nil {
		t.Fatal(err)
	}
	return sf, nil
}

// TestAdmissionLimit: past MaxConns the server refuses new connections
// with a typed overloaded error carrying the retry-after hint, and
// admits again once a slot frees.
func TestAdmissionLimit(t *testing.T) {
	s := newTestServer(t, Config{
		Pool:       dpd.PoolConfig{Shards: 1, Detector: dpd.Config{Window: 16}},
		MaxConns:   1,
		RetryAfter: 250 * time.Millisecond,
	})
	c1 := dialClient(t, s)
	c1.barrier(1) // proves c1 is admitted and live

	c2 := dialClient(t, s)
	sf, err := readServerFrame(t, c2)
	if err != nil {
		t.Fatalf("rejected conn: %v", err)
	}
	if sf.Kind != KindError || sf.Code != CodeOverloaded {
		t.Fatalf("rejection frame = kind %d code %s, want overloaded error", sf.Kind, sf.Code)
	}
	if sf.RetryAfterMs != 250 {
		t.Fatalf("retry-after hint = %dms, want 250", sf.RetryAfterMs)
	}
	if _, err := readServerFrame(t, c2); err == nil {
		t.Fatal("server kept the rejected connection open")
	}
	c2.close()

	var m MetricsSnapshot
	httpGet(t, s, "/metrics", &m)
	if m.ConnsRejected != 1 || m.OverloadSheds == 0 {
		t.Fatalf("conns_rejected=%d overload_sheds=%d, want 1 and >0", m.ConnsRejected, m.OverloadSheds)
	}

	// Free the slot; admission must recover.
	c1.close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3 := dialClient(t, s)
		c3.buf = c3.enc.AppendPing(c3.buf[:0], 9)
		if _, err := c3.bw.Write(c3.buf); err != nil {
			t.Fatal(err)
		}
		if err := c3.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		sf, err := readServerFrame(t, c3)
		c3.close()
		if err == nil && sf.Kind == KindPong {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never recovered after the slot freed (last: %+v, %v)", sf, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	shutdown(t, s)
}

// TestPendingMemoryShed: a batch that would exceed the global pending
// memory limit sheds the connection with a typed overloaded error
// instead of queueing unbounded.
func TestPendingMemoryShed(t *testing.T) {
	s := newTestServer(t, Config{
		Pool:            dpd.PoolConfig{Shards: 1, Detector: dpd.Config{Window: 16}},
		MaxPendingBytes: 64,
	})
	c := dialClient(t, s)
	big := make([]int64, 512)
	for i := range big {
		big[i] = int64(i) * 1_000_000 // wide varints: payload far beyond 64B
	}
	c.sendEvents(1, big)
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	sf, err := readServerFrame(t, c)
	if err != nil {
		t.Fatalf("shed conn: %v", err)
	}
	if sf.Kind != KindError || sf.Code != CodeOverloaded {
		t.Fatalf("shed frame = kind %d code %s, want overloaded error", sf.Kind, sf.Code)
	}
	if !strings.Contains(sf.Msg, "pending-memory") {
		t.Fatalf("shed message %q does not name the pending-memory limit", sf.Msg)
	}
	c.close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		var m MetricsSnapshot
		httpGet(t, s, "/metrics", &m)
		if m.Disconnects.Overload == 1 && m.PendingBytes == 0 {
			if m.OverloadSheds == 0 {
				t.Fatal("overload_sheds not counted")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("overload disconnect never recorded: %+v pending=%d", m.Disconnects, m.PendingBytes)
		}
		time.Sleep(10 * time.Millisecond)
	}
	shutdown(t, s)
}

// TestCheckpointStallDetection: a checkpoint wedged on a hanging disk
// write must not block ingest, and concurrent attempts fail fast with
// ErrCheckpointInFlight (counted as stalls) instead of queueing behind
// the wedge.
func TestCheckpointStallDetection(t *testing.T) {
	dir := t.TempDir()
	plan := faults.NeverPlan()
	plan.HangAt = 2 // the data write hangs: mkdir=0, create=1, write=2
	inj := faults.NewInjector(faults.OS{}, plan)
	s := newTestServer(t, Config{
		Pool:          dpd.PoolConfig{Shards: 1, Detector: dpd.Config{Window: 16}},
		CheckpointDir: dir,
		FS:            inj,
	})
	c := dialClient(t, s)
	c.sendEvents(1, []int64{1, 2, 3, 4})
	c.barrier(1)

	done := make(chan error, 1)
	go func() {
		_, err := s.WriteCheckpoint()
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var m MetricsSnapshot
		httpGet(t, s, "/metrics", &m)
		if m.CheckpointInFlight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never reached the wedged write")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Ingest must keep flowing around the wedged checkpoint.
	c.sendEvents(1, []int64{1, 2, 3, 4})
	c.barrier(2)
	c.close()

	if _, err := s.WriteCheckpoint(); !errors.Is(err, ErrCheckpointInFlight) {
		t.Fatalf("concurrent checkpoint error = %v, want ErrCheckpointInFlight", err)
	}
	var m MetricsSnapshot
	httpGet(t, s, "/metrics", &m)
	if m.CheckpointStalls != 1 {
		t.Fatalf("checkpoint_stalls = %d, want 1", m.CheckpointStalls)
	}

	inj.Release()
	if err := <-done; err != nil {
		t.Fatalf("released checkpoint failed: %v", err)
	}
	if seqs, err := listCheckpoints(faults.OS{}, dir); err != nil || len(seqs) != 1 {
		t.Fatalf("want exactly one durable checkpoint after release, got %d (%v)", len(seqs), err)
	}
	shutdown(t, s)
}

// TestCheckpointWedgedMidStream: a checkpoint wedged on its second data
// write holds no pool lock — Rebalance returns and ingest barriers
// complete while the write hangs — and once the disk recovers the
// checkpoint commits and restores every stream.
func TestCheckpointWedgedMidStream(t *testing.T) {
	const streams = 300 // window-100 states: at least three write chunks
	dir := t.TempDir()
	plan := faults.NeverPlan()
	plan.HangAt = 3 // the second data write: mkdir=0, create=1, write=2, write=3
	inj := faults.NewInjector(faults.OS{}, plan)
	t.Cleanup(inj.Release) // a failing test must not leave the write wedged
	poolCfg := dpd.PoolConfig{Shards: 2, Detector: dpd.Config{Window: 100}}
	s := newTestServer(t, Config{Pool: poolCfg, CheckpointDir: dir, FS: inj})
	c := dialClient(t, s)
	evs := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	for k := uint64(0); k < streams; k++ {
		c.sendEvents(k, evs)
	}
	c.barrier(1)

	type result struct {
		path string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		path, err := s.WriteCheckpoint()
		done <- result{path, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for inj.Steps() <= plan.HangAt {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never reached its second data write")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The write is wedged: an exclusive-gate holder and ingest must both
	// go around it.
	rebalanced := make(chan error, 1)
	go func() { rebalanced <- s.Pool().Rebalance(3) }()
	select {
	case err := <-rebalanced:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Rebalance blocked behind a wedged checkpoint write")
	}
	for k := uint64(0); k < streams; k++ {
		c.sendEvents(k, evs)
	}
	c.barrier(2)
	c.close()

	inj.Release()
	r := <-done
	if r.err != nil {
		t.Fatalf("released checkpoint failed: %v", r.err)
	}
	// mkdir, create, ≥3 data writes, sync, close, rename, dir sync.
	if got := inj.Steps(); got < 9 {
		t.Fatalf("checkpoint took %d filesystem steps; the test needs at least three data writes", got)
	}
	f, err := os.Open(r.path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := dpd.RestorePool(f, poolCfg)
	if err != nil {
		t.Fatalf("checkpoint written across a wedge does not restore: %v", err)
	}
	defer p.Close()
	if got := p.Len(); got != streams {
		t.Fatalf("restored %d streams, want %d", got, streams)
	}
	shutdown(t, s)
}

// TestPanicIsolation: a panic in one connection's feeder tears down
// that connection only — counted, logged, and invisible to every other
// client.
func TestPanicIsolation(t *testing.T) {
	const poisonKey = 0xDEAD
	feedHook = func(c *conn, f *Frame) {
		if f.Kind == KindEventBatch && f.Key == poisonKey {
			panic("injected feeder panic")
		}
	}
	s := newTestServer(t, Config{Pool: dpd.PoolConfig{Shards: 1, Detector: dpd.Config{Window: 16}}})

	c1 := dialClient(t, s)
	c1.sendEvents(poisonKey, []int64{1, 2, 3})
	if err := c1.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var m MetricsSnapshot
		httpGet(t, s, "/metrics", &m)
		if m.PanicsRecovered == 1 && m.Disconnects.Panic == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("panic never isolated: %+v", m.Disconnects)
		}
		time.Sleep(10 * time.Millisecond)
	}
	c1.close()

	// The server survives and serves other connections.
	c2 := dialClient(t, s)
	c2.sendEvents(1, []int64{5, 6, 7})
	c2.barrier(1)
	c2.close()

	shutdown(t, s)
	feedHook = nil
}
