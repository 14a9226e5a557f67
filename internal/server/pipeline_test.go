package server

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dpd"
)

// stallValue marks the sample a stallDetector blocks on.
const stallValue = -1 << 40

// stallGate lets a test hold one batch inside a shard worker: the first
// stallValue sample signals entered, then every stallValue sample waits
// until release is closed.
type stallGate struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

// open releases the stalled batch; safe to call more than once, so a
// deferred open lets a failed test still shut its server down.
func (g *stallGate) open() { g.once.Do(func() { close(g.release) }) }

// stallDetector is an event engine whose Feed blocks on the gate for
// stallValue samples, stalling the shard that applies them while every
// other shard runs.
type stallDetector struct {
	dpd.Detector
	gate *stallGate
}

func (d stallDetector) Feed(s dpd.Sample) dpd.Result {
	if s.Value == stallValue {
		select {
		case d.gate.entered <- struct{}{}:
		default:
		}
		<-d.gate.release
	}
	return d.Detector.Feed(s)
}

// newStallServer starts a two-shard server whose streams run
// stallDetectors, and returns two keys that live on different shards.
func newStallServer(t *testing.T) (s *Server, gate *stallGate, stalled, free uint64) {
	t.Helper()
	gate = &stallGate{entered: make(chan struct{}, 1), release: make(chan struct{})}
	s = newTestServer(t, Config{Pool: dpd.PoolConfig{Shards: 2, NewDetector: func() dpd.Detector {
		return stallDetector{Detector: dpd.Must(dpd.WithWindow(32)), gate: gate}
	}}})
	// Placement is a pure function of the key and the shard count, so a
	// throwaway two-shard pool shows which shard each key lands on.
	shardOf := func(key uint64) int {
		probe, err := dpd.NewPool(dpd.PoolConfig{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer probe.Close()
		probe.Feed(key, 0)
		for i, n := range probe.ShardLens(nil) {
			if n == 1 {
				return i
			}
		}
		t.Fatalf("probe stream %d not placed", key)
		return -1
	}
	stalled, free = 1, 2
	for shardOf(free) == shardOf(stalled) {
		free++
	}
	return s, gate, stalled, free
}

// expectSilence asserts the server sends nothing for d.
func (c *client) expectSilence(d time.Duration) {
	c.t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(d))
	_, err := c.br.Peek(1)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		c.t.Fatalf("server replied while an earlier batch was still being applied (err %v)", err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// sendStalledThenFree stages a batch on the stalled key and one on the
// free key, flushes, and waits until the first is stuck in its shard
// worker and the second — on the other shard — is applied: one
// connection's batches run on both shards at once.
func sendStalledThenFree(t *testing.T, s *Server, c *client, gate *stallGate, stalled, free uint64) (na, nb int) {
	t.Helper()
	a := []int64{1, 2, stallValue, 1, 2}
	b := []int64{3, 4, 3, 4, 3, 4}
	c.sendEvents(stalled, a)
	c.sendEvents(free, b)
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	waitFor(t, "the free shard to apply its batch", func() bool {
		st, ok := s.Pool().Stat(free)
		return ok && st.Samples == uint64(len(b))
	})
	waitFor(t, "the free batch to be counted", func() bool {
		return s.metrics.samplesTotal.Load() == uint64(len(b))
	})
	return len(a), len(b)
}

// TestPongWaitsForPipelinedBatches: with one shard stalled mid-batch
// and a later batch already applied on the other shard, a ping and a
// cursors query stay unanswered, the barrier mark stays unrecorded and
// samples_total leaves the stalled batch out until it is applied.
func TestPongWaitsForPipelinedBatches(t *testing.T) {
	s, gate, stalled, free := newStallServer(t)
	defer shutdown(t, s)
	defer gate.open()
	c := dialClient(t, s)
	defer c.close()

	na, nb := sendStalledThenFree(t, s, c, gate, stalled, free)
	c.buf = c.enc.AppendPing(c.buf[:0], 1)
	c.buf = c.enc.AppendCursors(c.buf, []uint64{stalled, free})
	if _, err := c.bw.Write(c.buf); err != nil {
		t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}

	c.expectSilence(100 * time.Millisecond)
	if marks := s.CaptureDurableMarks(); len(marks) != 0 {
		t.Fatalf("ping barrier recorded before the stalled batch was applied: %+v", marks)
	}
	if got := s.metrics.samplesTotal.Load(); got != uint64(nb) {
		t.Fatalf("samples_total %d while the stalled batch is unapplied, want %d", got, nb)
	}

	gate.open()
	var sawPong bool
	for {
		sf := c.readFrame()
		switch sf.Kind {
		case KindPong:
			if sf.Token != 1 {
				t.Fatalf("pong token %d, want 1", sf.Token)
			}
			sawPong = true
		case KindCursorsReply:
			if !sawPong {
				t.Fatal("cursors reply overtook the pong")
			}
			want := map[uint64]uint64{stalled: uint64(na), free: uint64(nb)}
			for _, cur := range sf.Cursors {
				if cur.Samples != want[cur.Key] {
					t.Fatalf("cursor %d = %d samples, want %d", cur.Key, cur.Samples, want[cur.Key])
				}
			}
			if got := s.metrics.samplesTotal.Load(); got != uint64(na+nb) {
				t.Fatalf("samples_total %d after the barrier, want %d", got, na+nb)
			}
			if marks := s.CaptureDurableMarks(); len(marks) != 1 || marks[0].token != 1 {
				t.Fatalf("durable marks after the pong: %+v", marks)
			}
			return
		case KindError:
			t.Fatalf("server error %s: %s", sf.Code, sf.Msg)
		}
	}
}

// TestFeedBarrierWaitsForPipelinedBatches: FeedBarrier, the fence
// migration and failover promotion run under, does not start while an
// admitted batch is still in a shard queue or worker, so fn observes
// every admitted batch applied.
func TestFeedBarrierWaitsForPipelinedBatches(t *testing.T) {
	s, gate, stalled, free := newStallServer(t)
	defer shutdown(t, s)
	defer gate.open()
	c := dialClient(t, s)
	defer c.close()

	na, nb := sendStalledThenFree(t, s, c, gate, stalled, free)
	seen := make(chan uint64, 1)
	go s.FeedBarrier(func() { seen <- s.metrics.samplesTotal.Load() })
	select {
	case got := <-seen:
		t.Fatalf("FeedBarrier ran with a batch still unapplied (samples_total %d)", got)
	case <-time.After(100 * time.Millisecond):
	}
	gate.open()
	if got := <-seen; got != uint64(na+nb) {
		t.Fatalf("FeedBarrier saw samples_total %d, want every admitted batch (%d)", got, na+nb)
	}
	c.barrier(1)
}

// TestCursorsWaitForEndedConnection: a client whose connection died
// resyncs through a cursors query on a new connection. The dead
// connection's feeder may still hold batches it read before the
// failure; the cursors reply must wait until they are applied, or the
// client's replay would apply them twice.
func TestCursorsWaitForEndedConnection(t *testing.T) {
	s, gate, stalled, free := newStallServer(t)
	defer shutdown(t, s)
	defer gate.open()

	// The old connection stalls on its first batch; its ping makes the
	// feeder drain, so the batch on the free key waits in its ring.
	old := dialClient(t, s)
	old.sendEvents(stalled, []int64{stallValue})
	old.buf = old.enc.AppendPing(old.buf[:0], 1)
	if _, err := old.bw.Write(old.buf); err != nil {
		t.Fatal(err)
	}
	lost := []int64{5, 6, 5, 6}
	old.sendEvents(free, lost)
	if err := old.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	old.close()
	waitFor(t, "the old connection's reader to end", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for c := range s.conns {
			if c.readEnded.Load() {
				return true
			}
		}
		return false
	})

	c := dialClient(t, s)
	defer c.close()
	c.buf = c.enc.AppendCursors(c.buf[:0], []uint64{free})
	if _, err := c.bw.Write(c.buf); err != nil {
		t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	c.expectSilence(100 * time.Millisecond)
	gate.open()
	for {
		sf := c.readFrame()
		if sf.Kind != KindCursorsReply {
			continue
		}
		if len(sf.Cursors) != 1 || sf.Cursors[0].Samples != uint64(len(lost)) {
			t.Fatalf("cursors %+v, want the old connection's %d samples on key %d counted", sf.Cursors, len(lost), free)
		}
		return
	}
}
