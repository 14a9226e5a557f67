package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dpd"
	"dpd/internal/faults"
	"dpd/internal/obs"
)

// Config parameterizes a Server. IngestAddr is required; everything
// else has serving defaults.
type Config struct {
	// IngestAddr is the TCP listen address of the binary ingest plane
	// (use "127.0.0.1:0" in tests and read Server.Addr back).
	IngestAddr string
	// HTTPAddr is the listen address of the HTTP query/control plane;
	// empty disables it.
	HTTPAddr string
	// Pool configures the shared detector pool (shard count, per-stream
	// engine factory, eviction). Config.Pool.StreamObserver is reserved
	// for the server's event write-back wiring; setting it is an error.
	Pool dpd.PoolConfig
	// CheckpointDir is where the durability loop writes pool
	// checkpoints; empty disables durability (no interval loop, no
	// restore-on-boot, no final checkpoint).
	CheckpointDir string
	// CheckpointEvery is the interval between durable checkpoints;
	// 0 selects 30s.
	CheckpointEvery time.Duration
	// CheckpointKeep is how many checkpoint files to retain; 0 selects 3.
	CheckpointKeep int
	// PendingBatches bounds each connection's ring of decoded-but-unfed
	// frames — the ingest backpressure depth; 0 selects 4.
	PendingBatches int
	// EventBuffer bounds each connection's outgoing frame queue (pongs,
	// subscribed events); a subscriber that lets it fill is disconnected
	// as a slow consumer. 0 selects 256.
	EventBuffer int
	// WriteTimeout bounds every flush to a client; 0 selects 10s.
	WriteTimeout time.Duration
	// MaxConns bounds concurrently admitted ingest connections; beyond
	// it new connections are refused with an overloaded error frame
	// carrying the RetryAfter hint. 0 means unlimited. The bound is
	// checked against a racily-read gauge, so a burst can briefly
	// overshoot by the number of in-flight accepts — it is an overload
	// valve, not an exact semaphore.
	MaxConns int
	// MaxPendingBytes bounds the total decoded-batch payload bytes
	// sitting in pending rings across every connection; a connection
	// whose reservation would exceed it is shed with an overloaded error
	// frame. 0 means unlimited.
	MaxPendingBytes int64
	// ConnPendingBytes bounds one connection's pending payload bytes the
	// same way. 0 means unlimited.
	ConnPendingBytes int64
	// RetryAfter is the back-off hint carried in overloaded error
	// frames; 0 selects 1s.
	RetryAfter time.Duration
	// FS is the filesystem the durability loop writes through; nil
	// selects the real one. Fault tests substitute a faults.Injector to
	// provoke every crash point in the checkpoint path.
	FS faults.FS
	// Logf receives operational log lines; nil selects log.Printf.
	Logf func(format string, args ...any)

	// OwnerCheck, when non-nil, is consulted before every batch frame is
	// fed: ok=false rejects the batch with a wrong-node frame naming the
	// owning node and the routing epoch instead of applying it — the
	// cluster tier's admission fence. The check and the feed run under a
	// shared lock that FeedBarrier holds exclusively, so a migration
	// that flips ownership and detaches the stream inside a FeedBarrier
	// can never race a batch into a freshly re-materialized detector.
	// OwnerCheck runs on feeder goroutines and must be cheap and
	// non-blocking.
	OwnerCheck func(key uint64) (owner string, epoch uint64, ok bool)
	// RegisterHTTP, when non-nil, is invoked with the control-plane mux
	// before the server's own routes are final, letting an embedder (the
	// cluster node) mount additional endpoints under the same listener.
	RegisterHTTP func(mux *http.ServeMux)
	// ClusterMetrics, when non-nil, supplies the value rendered as the
	// "cluster" section of the /metrics payload.
	ClusterMetrics func() *dpd.ClusterNodeMetrics
	// Obs is the observability core: the flight recorder the server (and
	// the pool it builds) records cold transitions into, and the sampled
	// latency histograms behind the /metrics latency section. Nil selects
	// a fresh default Set. Cluster embedders pass the same Set to
	// cluster.NodeConfig.Obs so one /debug/events dump interleaves both
	// layers.
	Obs *obs.Set
	// DebugAddr, when non-empty, binds a third listener serving only the
	// pprof plane (/debug/pprof/*) — kept off the query/control listener
	// so profiling exposure is an explicit operator decision.
	DebugAddr string
	// ExternalDurability hands ownership of durable acknowledgements to
	// an external replication loop: the checkpoint path stops emitting
	// durable frames (CaptureDurableMarks + DurableMark.Durable become
	// the only source), and a server without a checkpoint directory
	// stops short-circuiting pongs into durables. The cluster tier sets
	// this so a durable ack always means "replicated to the follower",
	// never merely "on this node's disk" — state a kill -9 of this node
	// would strand.
	ExternalDurability bool
}

// Server is the serving layer: one shared pool behind a binary ingest
// listener, an HTTP query/control listener and a durability loop.
// Construct with New, start with Start, stop with Shutdown.
type Server struct {
	cfg     Config
	pool    *dpd.Pool
	fs      faults.FS
	metrics metrics
	obs     *obs.Set

	ln      net.Listener
	httpLn  net.Listener
	httpSv  *http.Server
	debugLn net.Listener
	debugSv *http.Server

	mu      sync.Mutex
	conns   map[*conn]struct{}
	connSeq uint64 // accept order of the next connection

	subMu    sync.RWMutex
	subAll   map[*conn]struct{}
	subByKey map[uint64]map[*conn]struct{}
	subCount atomic.Int64

	wg      sync.WaitGroup // ingest connection handlers
	bg      sync.WaitGroup // accept loop, http serve, checkpoint loop
	stop    chan struct{}  // closed by Shutdown: background loops exit
	started atomic.Bool
	stopped atomic.Bool

	// ckptMu guards a checkpoint in flight; WriteCheckpoint TryLocks it
	// so a wedged disk stalls one checkpoint, not a queue of them. The
	// pool streams straight into the temp file, so no snapshot buffer
	// outlives a checkpoint.
	ckptMu sync.Mutex

	// routeMu fences batch admission against ownership changes: each
	// admitted batch holds it shared from its OwnerCheck until a pool
	// worker has applied it, FeedBarrier holds it exclusively. Lock
	// order is routeMu before any pool lock.
	routeMu sync.RWMutex
}

// New builds a server: it restores the pool from the newest valid
// checkpoint in CheckpointDir (falling back past corrupt files, finally
// to a fresh pool) and binds both listeners, so a nil error means the
// addresses are owned and Addr/HTTPAddr are answerable. Nothing serves
// until Start.
func New(cfg Config) (*Server, error) {
	if cfg.IngestAddr == "" {
		return nil, errors.New("server: Config.IngestAddr is required")
	}
	if cfg.Pool.StreamObserver != nil {
		return nil, errors.New("server: Config.Pool.StreamObserver is owned by the server's event write-back; use ingest subscriptions instead")
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 30 * time.Second
	}
	if cfg.CheckpointKeep <= 0 {
		cfg.CheckpointKeep = 3
	}
	if cfg.PendingBatches <= 0 {
		cfg.PendingBatches = 4
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 256
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.FS == nil {
		cfg.FS = faults.OS{}
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewSet(0)
	}

	s := &Server{
		cfg:      cfg,
		fs:       cfg.FS,
		obs:      cfg.Obs,
		conns:    make(map[*conn]struct{}),
		subAll:   make(map[*conn]struct{}),
		subByKey: make(map[uint64]map[*conn]struct{}),
		stop:     make(chan struct{}),
	}
	s.metrics.start = time.Now()
	if cfg.CheckpointDir != "" {
		// Sweep temp files orphaned by a crash between checkpoint write
		// and rename before anything else touches the directory.
		s.sweepTmp(cfg.CheckpointDir)
	}

	// Every pooled stream gets an observer that publishes its
	// transitions to subscribed connections. The hook fires per stream
	// materialization (not per sample) and the publish path takes a
	// lock-free fast exit while nobody is subscribed.
	poolCfg := cfg.Pool
	poolCfg.StreamObserver = s.streamObserver
	poolCfg.Recorder = s.obs.Rec()
	poolCfg.FeedLatency = &s.obs.FeedBatch

	pool, seq, err := restorePool(s.fs, cfg.CheckpointDir, poolCfg, cfg.Logf, &s.metrics)
	if err != nil {
		return nil, err
	}
	s.pool = pool
	s.metrics.checkpointSeq.Store(seq)

	ln, err := net.Listen("tcp", cfg.IngestAddr)
	if err != nil {
		pool.Close()
		return nil, fmt.Errorf("server: ingest listen: %w", err)
	}
	s.ln = ln
	if cfg.HTTPAddr != "" {
		httpLn, err := net.Listen("tcp", cfg.HTTPAddr)
		if err != nil {
			ln.Close()
			pool.Close()
			return nil, fmt.Errorf("server: http listen: %w", err)
		}
		s.httpLn = httpLn
		s.httpSv = &http.Server{Handler: s.httpHandler()}
	}
	if cfg.DebugAddr != "" {
		debugLn, err := net.Listen("tcp", cfg.DebugAddr)
		if err != nil {
			if s.httpLn != nil {
				s.httpLn.Close()
			}
			ln.Close()
			pool.Close()
			return nil, fmt.Errorf("server: debug listen: %w", err)
		}
		s.debugLn = debugLn
		s.debugSv = &http.Server{Handler: debugHandler()}
	}
	return s, nil
}

// DebugAddr returns the bound pprof-plane address, or "" when disabled.
func (s *Server) DebugAddr() string {
	if s.debugLn == nil {
		return ""
	}
	return s.debugLn.Addr().String()
}

// Pool exposes the shared detector pool for embedders and differential
// tests; treat it as read-mostly — the ingest plane owns the feed path.
func (s *Server) Pool() *dpd.Pool { return s.pool }

// Addr returns the bound ingest address (resolves ":0" binds).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// HTTPAddr returns the bound query-plane address, or "" when disabled.
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Start launches the accept loop, the HTTP plane and the durability
// loop. It returns immediately; use Shutdown to stop.
func (s *Server) Start() {
	if s.started.Swap(true) {
		return
	}
	s.bg.Add(1)
	go s.acceptLoop()
	if s.httpSv != nil {
		s.bg.Add(1)
		go func() {
			defer s.bg.Done()
			if err := s.httpSv.Serve(s.httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				s.cfg.Logf("server: http: %v", err)
			}
		}()
	}
	if s.debugSv != nil {
		s.bg.Add(1)
		go func() {
			defer s.bg.Done()
			if err := s.debugSv.Serve(s.debugLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				s.cfg.Logf("server: debug: %v", err)
			}
		}()
	}
	if s.cfg.CheckpointDir != "" {
		s.bg.Add(1)
		go s.checkpointLoop()
	}
}

// acceptLoop admits ingest connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.bg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		s.wg.Add(1)
		go s.handle(nc)
	}
}

// Aux values of EvOverloadShed flight-recorder events: which valve shed
// the client.
const (
	shedAdmission = 1 // refused at admission (MaxConns)
	shedPending   = 2 // disconnected by pending-memory accounting
)

// admit applies connection-count admission control: past MaxConns the
// connection is refused immediately with an overloaded error frame
// carrying the retry-after hint, before any per-connection state is
// built — shedding must be cheaper than serving.
func (s *Server) admit(nc net.Conn) bool {
	if s.cfg.MaxConns <= 0 || s.metrics.connsActive.Load() < int64(s.cfg.MaxConns) {
		return true
	}
	s.metrics.connsRejected.Add(1)
	s.metrics.overloadSheds.Add(1)
	s.obs.Rec().Record(obs.SubServer, obs.EvOverloadShed, 0, shedAdmission)
	buf := appendError(nil, CodeOverloaded, uint64(s.cfg.RetryAfter/time.Millisecond),
		fmt.Sprintf("connection limit %d reached", s.cfg.MaxConns))
	nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	nc.Write(buf)
	nc.Close()
	return false
}

// reservePending charges n decoded payload bytes against the
// per-connection and global pending-memory accounts, reporting false
// (with the charge rolled back) when either limit would be exceeded —
// the caller sheds the connection instead of queueing the frame.
func (s *Server) reservePending(c *conn, n int) bool {
	cp := c.pendingBytes.Add(int64(n))
	gp := s.metrics.pendingBytes.Add(int64(n))
	if (s.cfg.ConnPendingBytes > 0 && cp > s.cfg.ConnPendingBytes) ||
		(s.cfg.MaxPendingBytes > 0 && gp > s.cfg.MaxPendingBytes) {
		c.pendingBytes.Add(-int64(n))
		s.metrics.pendingBytes.Add(-int64(n))
		return false
	}
	return true
}

// releasePending returns a reservation after the feeder has applied
// (or teardown has abandoned) the frame.
func (s *Server) releasePending(c *conn, n int) {
	if n > 0 {
		c.pendingBytes.Add(-int64(n))
		s.metrics.pendingBytes.Add(-int64(n))
	}
}

// Shutdown stops the server in the loss-free order: stop admitting,
// drain the control plane, tear down ingest connections and join their
// feeders — frames already read off the wire are applied, never dropped
// behind a pong — quiesce the pool, then take the final durable
// checkpoint of the quiesced state. A SIGTERM handled this way loses
// nothing that was acknowledged (a ping barrier) before the signal. The
// context bounds the HTTP drain; ingest teardown is prompt (sockets are
// closed, only already-decoded frames are waited out).
func (s *Server) Shutdown(ctx context.Context) error {
	if s.stopped.Swap(true) {
		return errors.New("server: Shutdown called twice")
	}
	close(s.stop)
	s.ln.Close()

	var firstErr error
	if s.httpSv != nil {
		if err := s.httpSv.Shutdown(ctx); err != nil {
			firstErr = err
		}
	}
	if s.debugSv != nil {
		s.debugSv.Close()
	}

	s.mu.Lock()
	for c := range s.conns {
		c.close(reasonShutdown)
	}
	s.mu.Unlock()
	s.wg.Wait()

	s.pool.Close()
	s.bg.Wait()

	if s.cfg.CheckpointDir != "" {
		// The final checkpoint runs under the caller's deadline: a wedged
		// disk must not turn shutdown into a hang. An abandoned write is
		// only a lost checkpoint — the previous durable one still stands.
		done := make(chan error, 1)
		go func() {
			path, err := s.WriteCheckpoint()
			if err == nil && path != "" {
				// Best-effort flight-recorder sidecar next to the final
				// checkpoint: the last thing the process did, preserved for
				// post-mortems. Failure to write it never fails shutdown.
				s.writeEventSidecar(path)
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("server: final checkpoint: %w", err)
			}
		case <-ctx.Done():
			if firstErr == nil {
				firstErr = fmt.Errorf("server: final checkpoint abandoned: %w", ctx.Err())
			}
		}
	}
	return firstErr
}

// Abort is the crash-only stop: it tears the server down like Shutdown
// but takes no final checkpoint and honors no drain contract beyond
// joining its goroutines. Chaos tests use it as an in-process kill -9 —
// whatever the last durable checkpoint covered is all a restart gets.
func (s *Server) Abort() {
	if s.stopped.Swap(true) {
		return
	}
	close(s.stop)
	s.ln.Close()
	if s.httpSv != nil {
		s.httpSv.Close()
	}
	if s.debugSv != nil {
		s.debugSv.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.close(reasonShutdown)
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.pool.Close()
	s.bg.Wait()
}

// DurableMark pairs a connection with the newest ping token it had
// acknowledged when a durability snapshot began. Whoever made the
// snapshot durable (the checkpoint writer, or a cluster replication
// round) calls Durable to release the mark to the client.
type DurableMark struct {
	c     *conn
	token uint64
}

// Durable notifies the mark's connection that everything up to its
// ping token is durable. It never blocks: a mark dropped against a
// slow consumer only delays window pruning until the next round.
func (m DurableMark) Durable() { m.c.sendDurable(m.token) }

// CaptureDurableMarks records, per live connection, the newest ping
// token whose preceding frames are certain to be in a pool snapshot
// taken AFTER this call: the feeder stores the token only once every
// earlier frame on the connection has been fed. WriteCheckpoint calls
// this before Pool.Checkpoint and notifies each connection once the
// file is durable; the cluster replicator calls it before
// Pool.EachState and notifies once the follower has acknowledged the
// round.
func (s *Server) CaptureDurableMarks() []DurableMark {
	s.mu.Lock()
	defer s.mu.Unlock()
	marks := make([]DurableMark, 0, len(s.conns))
	for c := range s.conns {
		if v := c.ackedPing.Load(); v != 0 {
			marks = append(marks, DurableMark{c: c, token: v - 1})
		}
	}
	return marks
}

// FeedBarrier runs fn while every ingest feeder is excluded from the
// OwnerCheck-and-feed critical section: every batch admitted before it
// is applied, no batch admission decision is in flight while fn runs,
// and decisions made after it observe everything fn changed. The
// cluster tier wraps "flip ownership, then Pool.Detach the stream" in
// one barrier so a batch admitted under the old ownership can never
// re-materialize a detached stream. fn must not feed the pool (it
// would self-deadlock) and should be brief — the ingest plane is paused
// for its duration.
func (s *Server) FeedBarrier(fn func()) {
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	fn()
}

// addConn registers a live connection for shutdown teardown. It
// refuses (returning false) once Shutdown has begun, closing the race
// where a connection accepted just before the listener closed would
// register after the teardown sweep and never be torn down.
func (s *Server) addConn(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped.Load() {
		return false
	}
	c.seq = s.connSeq
	s.connSeq++
	s.conns[c] = struct{}{}
	return true
}

// awaitEndedBefore blocks until every connection accepted before c
// that has stopped reading, or is being torn down, has applied
// everything it read. A client that lost its connection reconnects and
// asks for cursors, then replays what the cursors do not cover; the
// dead connection's feeder may still be applying frames it read before
// the failure. Answering before it finishes would undercount, and the
// replay would apply those batches twice. Only earlier connections are
// awaited, so two cursors queries never wait on each other. A dead
// connection whose reader is still working through buffered frames,
// with no write having failed yet, is not seen here.
func (s *Server) awaitEndedBefore(c *conn) {
	var ended []*conn
	s.mu.Lock()
	for o := range s.conns {
		if o.seq < c.seq && o.ending() {
			ended = append(ended, o)
		}
	}
	s.mu.Unlock()
	for _, o := range ended {
		<-o.fed
	}
}

// removeConn forgets a finished connection.
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// subscribe replaces c's subscription with keys (empty = all streams).
func (s *Server) subscribe(c *conn, keys []uint64) {
	s.subMu.Lock()
	s.dropSubsLocked(c)
	if len(keys) == 0 {
		s.subAll[c] = struct{}{}
		c.subAll = true
	} else {
		c.subKeys = append(c.subKeys[:0], keys...)
		for _, k := range c.subKeys {
			m := s.subByKey[k]
			if m == nil {
				m = make(map[*conn]struct{})
				s.subByKey[k] = m
			}
			m[c] = struct{}{}
		}
	}
	s.subCount.Add(1)
	s.subMu.Unlock()
}

// unsubscribe removes c's subscription at teardown.
func (s *Server) unsubscribe(c *conn) {
	s.subMu.Lock()
	s.dropSubsLocked(c)
	s.subMu.Unlock()
}

// dropSubsLocked removes c from every subscription index; caller holds
// subMu exclusively.
func (s *Server) dropSubsLocked(c *conn) {
	had := c.subAll || len(c.subKeys) > 0
	if c.subAll {
		delete(s.subAll, c)
		c.subAll = false
	}
	for _, k := range c.subKeys {
		if m := s.subByKey[k]; m != nil {
			delete(m, c)
			if len(m) == 0 {
				delete(s.subByKey, k)
			}
		}
	}
	c.subKeys = c.subKeys[:0]
	if had {
		s.subCount.Add(-1)
	}
}

// streamObserver is the pool's per-stream observer factory: every
// transition of stream key is published to subscribed connections.
func (s *Server) streamObserver(key uint64) dpd.Observer {
	return dpd.ObserverFuncs{
		Lock:         func(e *dpd.Event) { s.publish(key, e) },
		PeriodChange: func(e *dpd.Event) { s.publish(key, e) },
		SegmentStart: func(e *dpd.Event) { s.publish(key, e) },
		Unlock:       func(e *dpd.Event) { s.publish(key, e) },
	}
}

// publish fans one stream transition out to subscribers. It runs on a
// shard worker with the shard lock held, so it must stay cheap and must
// never block: the no-subscriber fast path is one atomic load, and
// enqueueing to a full subscriber disconnects that subscriber (slow
// consumer) instead of waiting.
func (s *Server) publish(key uint64, e *dpd.Event) {
	if s.subCount.Load() == 0 {
		return
	}
	s.subMu.RLock()
	for c := range s.subAll {
		c.sendEvent(key, e)
	}
	if m := s.subByKey[key]; m != nil {
		for c := range m {
			c.sendEvent(key, e)
		}
	}
	s.subMu.RUnlock()
}
