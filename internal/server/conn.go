package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dpd"
	"dpd/internal/obs"
	"dpd/internal/wire"
)

// feedHook, when non-nil, observes every frame the feeder is about to
// apply. It is a test seam: chaos tests install a panicking hook to
// prove per-connection panic isolation.
var feedHook func(*conn, *Frame)

// closeReason labels why a connection was torn down; each reason feeds
// one disconnect counter.
type closeReason uint8

// Connection teardown reasons.
const (
	reasonEOF closeReason = iota + 1
	reasonReadError
	reasonProtocol
	reasonSlowConsumer
	reasonWriteError
	reasonShutdown
	reasonOverload
	reasonPanic
)

// outMsg is one server→client frame queued to a connection's writer.
type outMsg struct {
	kind    uint8  // KindPong, KindEvent, KindError, KindCursorsReply, KindDurable or KindWrongNode
	token   uint64 // pong/durable token; routing epoch of a wrong-node frame
	key     uint64
	ev      dpd.Event
	code    ErrCode
	retryMs uint64
	msg     string
	cursors []Cursor
	// terminal marks an error frame: the writer flushes it and closes
	// the connection.
	terminal bool
	reason   closeReason
}

// conn is one ingest connection: a reader that decodes frames into a
// bounded ring of reusable Frame slots, a feeder that hands batches to
// the pool's shard queues in order without waiting for each to be
// applied, and a writer that drains the out queue (pongs, subscribed
// events, errors). The feeder drains its in-flight batches before it
// answers any other frame, so every reply still follows the batches
// before it. The ring and the pool's in-flight bound are the ingest
// backpressure: when the pool is behind, the feeder blocks on a free
// batch group, the reader on a free slot, the socket fills, and the
// peer's TCP window closes — no unbounded queue anywhere.
type conn struct {
	srv *Server
	c   net.Conn
	seq uint64 // accept order, assigned by addConn

	// readEnded is set once the reader has stopped; fed is closed once
	// the feeder has applied everything the reader queued. A cursors
	// query on a later connection waits for fed (see awaitEndedBefore).
	readEnded atomic.Bool
	fed       chan struct{}

	pending chan *Frame // decoded frames awaiting the feeder, in order
	free    chan *Frame // recycled frame slots

	out chan outMsg // server→client queue; bounded, never closed

	done      chan struct{} // closed exactly once by close()
	drain     chan struct{} // closed by handle: writer finishes the queue and exits
	closeOnce sync.Once
	reason    closeReason

	// ackedPing holds the newest acknowledged ping token plus one (0 =
	// never pinged): the feeder stores it only after every earlier batch
	// has been applied (it drains its in-flight batches first), so the
	// checkpointer can read it as "everything up to this barrier is in
	// any snapshot taken from now on".
	ackedPing atomic.Uint64
	// inflight counts the batches the feeder has handed to the pool that
	// are not yet applied; the feeder waits on it before any reply and
	// before it exits. idle recycles their records (under idleMu: records
	// come back on pool workers).
	inflight sync.WaitGroup
	idleMu   sync.Mutex
	idle     []*inflight
	// pendingBytes is this connection's share of the pending-memory
	// account (decoded payload bytes queued to the feeder).
	pendingBytes atomic.Int64

	// subKeys remembers this connection's explicit subscription so
	// teardown can unsubscribe precisely; guarded by the server's
	// subscription mutex.
	subKeys []uint64
	subAll  bool
}

// newConn builds the connection state with its frame ring warmed.
func newConn(srv *Server, nc net.Conn) *conn {
	c := &conn{
		srv:     srv,
		c:       nc,
		pending: make(chan *Frame, srv.cfg.PendingBatches),
		free:    make(chan *Frame, srv.cfg.PendingBatches),
		out:     make(chan outMsg, srv.cfg.EventBuffer),
		done:    make(chan struct{}),
		drain:   make(chan struct{}),
		fed:     make(chan struct{}),
	}
	for i := 0; i < srv.cfg.PendingBatches; i++ {
		c.free <- &Frame{}
	}
	return c
}

// close tears the connection down exactly once, recording the reason.
// It is safe from any goroutine, including the publish path (which must
// not take registry locks here — registry cleanup happens in handle).
func (c *conn) close(r closeReason) {
	c.closeOnce.Do(func() {
		c.reason = r
		close(c.done)
		c.c.Close()
	})
}

// ending reports whether the reader has stopped or the connection is
// being torn down (a closed connection's reader stops at its next
// frame).
func (c *conn) ending() bool {
	select {
	case <-c.done:
		return true
	default:
		return c.readEnded.Load()
	}
}

// send enqueues one message for the writer, giving up when the
// connection is already closing.
func (c *conn) send(m outMsg) {
	select {
	case c.out <- m:
	case <-c.done:
	}
}

// sendEvent enqueues an event frame without ever blocking: a subscriber
// that cannot drain its queue is a slow consumer and is disconnected
// (counted) rather than allowed to stall the shard worker publishing
// the event.
func (c *conn) sendEvent(key uint64, ev *dpd.Event) bool {
	select {
	case c.out <- outMsg{kind: KindEvent, key: key, ev: *ev}:
		return true
	default:
		c.close(reasonSlowConsumer)
		return false
	}
}

// handle runs one connection to completion. It owns the goroutine
// lifecycle: writer and feeder are started here and joined before the
// connection is unregistered.
func (s *Server) handle(nc net.Conn) {
	defer s.wg.Done()
	if !s.admit(nc) {
		return
	}
	c := newConn(s, nc)
	if !s.addConn(c) {
		nc.Close() // lost the race with Shutdown: refuse silently
		return
	}
	s.metrics.connsTotal.Add(1)
	s.metrics.connsActive.Add(1)

	var writerDone, feederDone sync.WaitGroup
	writerDone.Add(1)
	go func() { defer writerDone.Done(); defer c.recoverPanic(); c.writeLoop() }()
	feederDone.Add(1)
	go func() { defer feederDone.Done(); defer c.recoverPanic(); c.feedLoop() }()

	reason := c.runRead()

	// Reader is done: no more pending sends. Close the pending channel
	// so the feeder drains what was already queued and exits; then tell
	// the writer to finish every queued reply (the feeder's last pong,
	// or the terminal error frame) BEFORE the socket is closed — the
	// protocol promises a typed error reply, so teardown must not race
	// the flush that carries it.
	c.readEnded.Store(true)
	close(c.pending)
	feederDone.Wait()
	close(c.fed)
	close(c.drain)
	writerDone.Wait()
	if reason == 0 {
		reason = reasonProtocol // terminal reply path: writer recorded it
	}
	c.close(reason) // no-op when a reason was already recorded

	// A feeder that panicked mid-drain leaves reservations for frames it
	// never applied; return the residue so the global account stays
	// balanced.
	if r := c.pendingBytes.Load(); r > 0 {
		c.pendingBytes.Add(-r)
		s.metrics.pendingBytes.Add(-r)
	}

	s.removeConn(c)
	s.unsubscribe(c)
	s.metrics.connsActive.Add(-1)
	s.metrics.disconnect(c.reason)
}

// recoverPanic converts a panicking connection goroutine into a counted
// connection teardown: one poisoned connection must never take the
// process (or its sibling connections) down with it.
func (c *conn) recoverPanic() {
	if r := recover(); r != nil {
		c.srv.metrics.panicsRecovered.Add(1)
		c.srv.cfg.Logf("server: recovered connection panic: %v", r)
		c.close(reasonPanic)
	}
}

// runRead runs the read loop under the same panic isolation as the
// feeder and writer, reporting the panic reason to handle.
func (c *conn) runRead() (reason closeReason) {
	defer func() {
		if r := recover(); r != nil {
			c.srv.metrics.panicsRecovered.Add(1)
			c.srv.cfg.Logf("server: recovered connection panic: %v", r)
			c.close(reasonPanic)
			reason = reasonPanic
		}
	}()
	return c.readLoop()
}

// readLoop validates the preamble, then decodes frames into the pending
// ring until EOF, error, or server shutdown. It returns the teardown
// reason, or 0 when a terminal error frame was queued instead (the
// writer records the reason after flushing the reply).
func (c *conn) readLoop() closeReason {
	br := bufio.NewReaderSize(c.c, 64<<10)

	var pre [preambleLen]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return reasonEOF
		}
		return reasonReadError
	}
	if string(pre[:len(PreambleMagic)]) != PreambleMagic || pre[len(PreambleMagic)] != ProtocolVersion {
		c.protoError(protoErrf(CodeBadPreamble, "expected %q version %d", PreambleMagic, ProtocolVersion))
		return 0
	}

	for {
		var f *Frame
		select {
		case f = <-c.free:
		case <-c.done:
			return reasonShutdown
		}
		payload, err := wire.ReadFrame(br, MaxFrame, f.raw)
		if err != nil {
			c.free <- f
			switch {
			case errors.Is(err, io.EOF):
				return reasonEOF
			case errors.Is(err, wire.ErrFrameTooLarge):
				c.protoError(protoErrf(CodeFrameTooLarge, "%v", err))
				return 0
			case errors.Is(err, wire.ErrTruncated), errors.Is(err, io.ErrUnexpectedEOF):
				c.protoError(protoErrf(CodeBadFrame, "%v", err))
				return 0
			default:
				return reasonReadError
			}
		}
		if payload == nil {
			// Zero-length frame: the client's graceful terminator.
			c.free <- f
			return reasonEOF
		}
		size := len(payload)
		f.raw = payload[:cap(payload)] // keep any growth for the next read
		// Strided ingest-latency election BEFORE decode, so an elected
		// batch's sample covers decode, its wait in the pending ring and
		// in the shard queue, and its apply — decode to applied. The
		// stamp must be cleared on non-elected frames: the ring recycles
		// them.
		if c.srv.obs.Ingest.Sampled() {
			f.t0 = time.Now()
		} else {
			f.t0 = time.Time{}
		}
		if err := DecodeFrame(payload, f); err != nil {
			c.free <- f
			var pe *ProtoError
			if !errors.As(err, &pe) {
				pe = protoErrf(CodeBadFrame, "%v", err)
			}
			c.protoError(pe)
			return 0
		}
		if !c.srv.reservePending(c, size) {
			// Pending-memory limit: shed this connection with the typed
			// overload error rather than queue toward OOM. The frame ring
			// bounds one connection structurally; the byte accounts bound
			// the fleet.
			c.free <- f
			c.srv.metrics.overloadSheds.Add(1)
			c.srv.obs.Rec().Record(obs.SubServer, obs.EvOverloadShed, f.Key, shedPending)
			c.terminate(outMsg{
				kind: KindError, code: CodeOverloaded,
				retryMs: uint64(c.srv.cfg.RetryAfter / time.Millisecond),
				msg:     "pending-memory limit reached",
				reason:  reasonOverload,
			})
			return 0
		}
		f.size = size
		c.srv.metrics.framesTotal.Add(1)
		select {
		case c.pending <- f:
		case <-c.done:
			c.srv.releasePending(c, size)
			return reasonShutdown
		}
	}
}

// protoError replies with a typed error frame (the writer closes the
// connection after flushing it) and records the protocol-error reason.
func (c *conn) protoError(pe *ProtoError) {
	c.terminate(outMsg{kind: KindError, code: pe.Code, msg: pe.Msg, reason: reasonProtocol})
}

// terminate queues m as the connection's terminal reply for a reader
// that stops here. The reader is marked ended first: a client that
// reconnects on the reply at once must find this connection ending, so
// its cursors query waits for this feeder (see awaitEndedBefore).
func (c *conn) terminate(m outMsg) {
	c.readEnded.Store(true)
	m.terminal = true
	c.send(m)
}

// feedLoop applies decoded frames to the pool in arrival order. Batches
// are submitted without waiting, so the shard workers apply one
// connection's batches concurrently; every other frame first waits out
// the in-flight batches. Pings therefore answer only after every
// earlier batch on the connection is applied — that ordering is the
// protocol's barrier guarantee — and so do cursors replies, wrong-node
// replies and subscriptions. The loop runs to the end of the ring even
// during shutdown, and drains before it returns (also on a panic):
// Shutdown joins every feeder before closing the pool, so frames
// already read off the wire are applied (and make the final checkpoint)
// rather than being dropped behind an already-sent pong.
func (c *conn) feedLoop() {
	defer c.inflight.Wait()
	for f := range c.pending {
		if feedHook != nil {
			feedHook(c, f)
		}
		switch f.Kind {
		case KindEventBatch, KindMagnitudeBatch:
			if len(f.Samples) > 0 {
				c.feedBatch(f)
			}
		case KindPing:
			c.inflight.Wait()
			c.srv.metrics.pingsTotal.Add(1)
			// Record the barrier before answering it: a checkpoint that
			// captures this mark after the store sees every frame the
			// token covers already applied.
			c.ackedPing.Store(f.Token + 1)
			c.send(outMsg{kind: KindPong, token: f.Token})
			if c.srv.cfg.CheckpointDir == "" && !c.srv.cfg.ExternalDurability {
				// No durability configured: applied IS as durable as this
				// server gets, so durable-ack clients advance on the same
				// barrier. Under ExternalDurability the replication loop
				// owns durable marks instead.
				c.send(outMsg{kind: KindDurable, token: f.Token})
			}
		case KindSubscribe:
			c.inflight.Wait()
			c.srv.subscribe(c, f.Keys)
		case KindCursors:
			c.inflight.Wait()
			c.srv.awaitEndedBefore(c)
			cursors := make([]Cursor, len(f.Keys))
			for i, k := range f.Keys {
				cursors[i].Key = k
				if st, ok := c.srv.pool.Stat(k); ok {
					cursors[i].Samples = st.Samples
				}
			}
			c.send(outMsg{kind: KindCursorsReply, cursors: cursors})
		}
		// The pool copied the samples into its staging buffers, so the
		// frame slot is free as soon as the batch is submitted.
		c.srv.releasePending(c, f.size)
		f.size = 0
		c.free <- f
	}
}

// feedBatch admits one batch frame and submits it to the pool. The
// ownership check and the apply are one critical section under the
// route fence: the shared hold taken here is dropped by the pool worker
// that applies the batch, so FeedBarrier (migration, failover
// promotion) waits out every admitted batch, and a batch admitted here
// can never land after its stream was detached.
func (c *conn) feedBatch(f *Frame) {
	c.srv.routeMu.RLock()
	if oc := c.srv.cfg.OwnerCheck; oc != nil {
		if owner, epoch, ok := oc(f.Key); !ok {
			c.srv.routeMu.RUnlock()
			if !f.t0.IsZero() {
				c.srv.obs.Ingest.Observe(time.Since(f.t0))
			}
			c.inflight.Wait()
			c.srv.metrics.wrongNodeRejects.Add(1)
			c.send(outMsg{kind: KindWrongNode, key: f.Key, token: epoch, msg: owner})
			return
		}
	}
	b := c.record()
	b.n, b.t0 = len(f.Samples), f.t0
	c.inflight.Add(1)
	c.srv.pool.FeedBatchAsync(f.Samples, b.done)
}

// inflight is one batch the feeder has submitted and the pool has not
// yet applied. Records are recycled through conn.idle and done is the
// cached method value of applied, so a submission allocates nothing.
type inflight struct {
	c    *conn
	n    int       // samples in the batch
	t0   time.Time // ingest-latency stamp of an elected frame; zero otherwise
	done func()
}

// record returns an idle in-flight record, or a new one. The pool
// bounds the batches in flight, so the records stay few.
func (c *conn) record() *inflight {
	c.idleMu.Lock()
	defer c.idleMu.Unlock()
	if n := len(c.idle); n > 0 {
		b := c.idle[n-1]
		c.idle = c.idle[:n-1]
		return b
	}
	b := &inflight{c: c}
	b.done = b.applied
	return b
}

// applied runs on the pool worker that applied the batch's last run: it
// counts the batch, closes its ingest-latency sample (decode to
// applied), drops the route fence feedBatch took and recycles the
// record.
func (b *inflight) applied() {
	c := b.c
	c.srv.metrics.batchesTotal.Add(1)
	c.srv.metrics.samplesTotal.Add(uint64(b.n))
	if !b.t0.IsZero() {
		c.srv.obs.Ingest.Observe(time.Since(b.t0))
	}
	c.srv.routeMu.RUnlock()
	c.idleMu.Lock()
	c.idle = append(c.idle, b)
	c.idleMu.Unlock()
	c.inflight.Done()
}

// sendDurable enqueues a durable frame without ever blocking: the
// checkpoint path must not wait on a slow consumer, and a dropped
// durable mark only delays window pruning until the next checkpoint.
func (c *conn) sendDurable(token uint64) {
	select {
	case c.out <- outMsg{kind: KindDurable, token: token}:
	case <-c.done:
	default:
	}
}

// writeLoop drains the out queue, batching frames through one buffered
// writer and flushing when the queue goes idle. Every flush runs under
// a write deadline, so a peer that stops reading cannot wedge the
// writer forever — the deadline expires and the connection is torn
// down with a write-error reason. When handle signals drain (reader and
// feeder are finished), the writer flushes what remains and exits —
// that ordering is what guarantees a terminal error frame or final pong
// reaches the wire before the socket closes.
func (c *conn) writeLoop() {
	bw := bufio.NewWriterSize(c.c, 16<<10)
	var scratch []byte
	for {
		var m outMsg
		select {
		case m = <-c.out:
		default:
			// Queue idle: flush what's buffered, then block for more.
			if !c.flush(bw) {
				return
			}
			select {
			case m = <-c.out:
			case <-c.done:
				c.flush(bw)
				return
			case <-c.drain:
				// Finish whatever is still queued, then exit.
				select {
				case m = <-c.out:
				default:
					c.flush(bw)
					return
				}
			}
		}
		switch m.kind {
		case KindPong:
			scratch = appendPong(scratch[:0], m.token)
		case KindDurable:
			scratch = appendDurable(scratch[:0], m.token)
		case KindEvent:
			scratch = appendEvent(scratch[:0], m.key, &m.ev)
			c.srv.metrics.eventsDelivered.Add(1)
		case KindError:
			scratch = appendError(scratch[:0], m.code, m.retryMs, m.msg)
		case KindCursorsReply:
			scratch = appendCursorsReply(scratch[:0], m.cursors)
		case KindWrongNode:
			scratch = appendWrongNode(scratch[:0], m.key, m.token, m.msg)
		default:
			continue
		}
		// A fresh deadline before every write, not only explicit
		// flushes: bw.Write flushes implicitly once its buffer fills,
		// and that hidden write must be bounded too (and must never run
		// under a stale deadline armed by an idle flush long ago).
		c.armWriteDeadline()
		if _, err := bw.Write(scratch); err != nil {
			c.close(reasonWriteError)
			return
		}
		if m.terminal {
			c.flush(bw)
			c.close(m.reason)
			return
		}
	}
}

// armWriteDeadline starts a fresh write-timeout window.
func (c *conn) armWriteDeadline() {
	if t := c.srv.cfg.WriteTimeout; t > 0 {
		c.c.SetWriteDeadline(time.Now().Add(t))
	}
}

// flush writes the buffer under the configured write deadline,
// reporting false (and closing the connection) on failure.
func (c *conn) flush(bw *bufio.Writer) bool {
	if bw.Buffered() == 0 {
		return true
	}
	c.armWriteDeadline()
	if err := bw.Flush(); err != nil {
		c.close(reasonWriteError)
		return false
	}
	return true
}
