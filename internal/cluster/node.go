package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpd"
	"dpd/internal/obs"
	"dpd/internal/pool"
	"dpd/internal/server"
	"dpd/internal/wire"
)

// Node is one cluster member: it owns a pool.Pool of the streams the
// routing table places on it, fences and rejects batches for streams
// it does not own, serves the transfer plane (inbound migrations,
// replica frames, topology installs), runs the replication loop that
// tails checkpoint frames to each stream's follower, and mounts the
// /cluster/* control routes on the embedding server's HTTP plane.
//
// Wiring order (cmd/dpdserver): NewNode first, then build the
// server.Server with the node's OwnerCheck/RegisterHTTP/Metrics hooks
// in its Config (plus ExternalDurability: true), then Start(srv) to
// hand the node the server it needs for feed fencing and durable-mark
// capture.
//
// In cluster mode the node's replication loop owns durability: it
// captures the server's pending durable marks, streams the pool's
// state, ships each stream's frame to its follower, and releases the marks
// only when every follower acknowledged the round — so an AckDurable
// client's window drains exactly when the batch would survive this
// node's death. Disk checkpoints (if configured) keep running but no
// longer release marks.
type Node struct {
	cfg NodeConfig

	pool *pool.Pool
	srv  *server.Server

	// hc carries table broadcasts and other control-plane calls over the
	// node's own HTTP transport, so Close can drop its pooled
	// connections instead of leaving them on peers' control planes.
	hc *http.Client
	tr *http.Transport

	table atomic.Pointer[Table]

	ln net.Listener

	// instMu serializes table installs, migrations and failovers: every
	// epoch transition happens under it, so two transitions can never
	// interleave their fence/transfer/flip sequences.
	instMu sync.Mutex

	// mu guards replicas, migrating, marks and conns.
	mu        sync.Mutex
	replicas  map[uint64]replica
	migrating map[uint64]migTarget
	marks     []server.DurableMark
	conns     map[net.Conn]struct{}

	// migCount keeps the per-batch ownership check off the mutex when
	// no migration is in flight (the steady state).
	migCount atomic.Int64

	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	migrationsIn  atomic.Uint64
	migrationsOut atomic.Uint64
	promoted      atomic.Uint64
	replRounds    atomic.Uint64
	replErrors    atomic.Uint64
	replLag       atomic.Int64
}

// migTarget records where a mid-migration key is headed: rejections
// name the target and the epoch that will own it, so routing clients
// chase the migration rather than the stale table.
type migTarget struct {
	name  string
	epoch uint64
}

// replica is one standby copy of another node's stream: its engine
// checkpoint plus the routing epoch its owner held when it shipped.
// The epoch orders copies — a frame from a stale previous owner can
// never overwrite one from the current owner — and decides, at
// promotion time, whether the replica or a resident copy is fresher.
type replica struct {
	epoch uint64
	state []byte
}

// stagedHandoff is one handoff frame held back until its connection's
// terminator commits the transfer (state is an owned copy).
type stagedHandoff struct {
	key   uint64
	state []byte
}

// maxStagedHandoffs bounds the handoff frames one transfer connection
// may stage before its terminator, capping the memory a sender can
// pin on the receiver.
const maxStagedHandoffs = 4096

// NodeConfig parameterizes a Node.
type NodeConfig struct {
	// Self is this node's member name; the routing table entry whose
	// Name matches is this node.
	Self string
	// Pool is the stream pool the node serves; nil adopts the embedding
	// server's pool at Start.
	Pool *pool.Pool
	// TransferAddr is the transfer-plane listen address (e.g.
	// "127.0.0.1:0"); required.
	TransferAddr string
	// FollowEvery is the replication cadence; 0 selects 200ms.
	FollowEvery time.Duration
	// GossipEvery is the anti-entropy cadence: how often the node
	// re-broadcasts its current table to every member, healing peers
	// that missed a broadcast (a rollback pin, a failover) or restarted
	// empty; 0 selects max(2s, 5×FollowEvery).
	GossipEvery time.Duration
	// DialTimeout bounds transfer dials, writes and ack waits; 0
	// selects 5s.
	DialTimeout time.Duration
	// Logf receives cluster log lines; nil discards them.
	Logf func(format string, args ...any)
	// Obs, when non-nil, receives flight-recorder events for epoch
	// installs, migrations and failovers, and samples migration feed
	// pauses. Share one Set with the embedding server.Config so a
	// /debug/events dump interleaves cluster and server transitions on
	// one clock.
	Obs *obs.Set
}

// NewNode validates cfg, binds the transfer listener (so an ephemeral
// TransferAddr resolves before the routing table is built) and returns
// a node with no routing table. Until InstallTable or a table POST
// installs one, every batch is rejected: a cluster member that cannot
// prove ownership (a fresh boot, or a member that restarted and lost
// its table) must not accept writes, or it would fork history with
// the real owners. Peer gossip and routing clients both push tables
// at a memberless node, so the window closes without operator help.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: NodeConfig.Self is required")
	}
	if cfg.FollowEvery <= 0 {
		cfg.FollowEvery = 200 * time.Millisecond
	}
	if cfg.GossipEvery <= 0 {
		cfg.GossipEvery = 5 * cfg.FollowEvery
		if cfg.GossipEvery < 2*time.Second {
			cfg.GossipEvery = 2 * time.Second
		}
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", cfg.TransferAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: transfer listen: %w", err)
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	return &Node{
		cfg:       cfg,
		pool:      cfg.Pool,
		hc:        &http.Client{Timeout: cfg.DialTimeout, Transport: tr},
		tr:        tr,
		ln:        ln,
		replicas:  make(map[uint64]replica),
		migrating: make(map[uint64]migTarget),
		conns:     make(map[net.Conn]struct{}),
		stop:      make(chan struct{}),
	}, nil
}

// TransferAddr returns the bound transfer-plane address.
func (n *Node) TransferAddr() string { return n.ln.Addr().String() }

// Table returns the current routing table (nil before any install).
func (n *Node) Table() *Table { return n.table.Load() }

// Start hands the node its embedding server (feed fencing, durable
// marks, and the pool when NodeConfig.Pool was nil) and starts the
// transfer accept loop, the replication loop and the gossip loop.
func (n *Node) Start(srv *server.Server) {
	n.srv = srv
	if n.pool == nil {
		n.pool = srv.Pool()
	}
	n.wg.Add(3)
	go n.acceptLoop()
	go n.replicate()
	go n.gossip()
}

// Close stops the loops, the listener and every transfer connection.
// Pending durable marks are released (the embedding server is shutting
// down; holding client windows hostage helps nobody).
func (n *Node) Close() {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	close(n.stop)
	n.ln.Close()
	n.mu.Lock()
	for c := range n.conns {
		c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
	n.tr.CloseIdleConnections()
	n.releaseMarks()
}

// epoch returns the current routing epoch (0 before any table).
func (n *Node) epoch() uint64 {
	if t := n.table.Load(); t != nil {
		return t.Epoch
	}
	return 0
}

// OwnerCheck is the server.Config hook: it runs under the server's
// shared route fence for every batch frame and decides whether this
// node owns the batch's stream. Mid-migration keys are rejected toward
// the migration target under the epoch that will commit it, so clients
// chase the move instead of racing it.
func (n *Node) OwnerCheck(key uint64) (owner string, epoch uint64, ok bool) {
	if n.migCount.Load() != 0 {
		n.mu.Lock()
		mt, mig := n.migrating[key]
		n.mu.Unlock()
		if mig {
			return mt.name, mt.epoch, false
		}
	}
	t := n.table.Load()
	if t == nil {
		// No table yet: this node cannot prove it owns anything, so it
		// must not accept anything — a restarted member that accepted
		// batches while waiting for a table would fork history with the
		// real owners. The empty owner and epoch 0 tell routing clients
		// to heal the node (push their table) rather than chase an epoch.
		return "", 0, false
	}
	m := t.Owner(key)
	if m.Name == n.cfg.Self {
		return "", t.Epoch, true
	}
	return m.Name, t.Epoch, false
}

// NodeMetrics is the per-node cluster section of /metrics. The concrete
// struct lives in the root package (dpd.ClusterNodeMetrics) so the
// server's snapshot can carry it typed without importing this package.
type NodeMetrics = dpd.ClusterNodeMetrics

// Metrics is the server.Config ClusterMetrics hook.
func (n *Node) Metrics() *dpd.ClusterNodeMetrics {
	m := NodeMetrics{
		Self:              n.cfg.Self,
		Epoch:             n.epoch(),
		MigrationsIn:      n.migrationsIn.Load(),
		MigrationsOut:     n.migrationsOut.Load(),
		PromotedStreams:   n.promoted.Load(),
		ReplicationRounds: n.replRounds.Load(),
		ReplicationErrors: n.replErrors.Load(),
		FollowerLagFrames: n.replLag.Load(),
	}
	if n.pool != nil {
		m.StreamsOwned = n.pool.Len()
	}
	if t := n.table.Load(); t != nil {
		m.Members = len(t.Members)
	}
	n.mu.Lock()
	m.ReplicaStreams = len(n.replicas)
	m.PendingDurableMarks = len(n.marks)
	n.mu.Unlock()
	return &m
}

// InstallTable installs a routing table with a strictly higher epoch,
// promoting any held replicas of keys the new table places on this
// node (attach before flip, under the feed fence). Re-installing the
// current epoch is a no-op; a lower epoch is an error (epoch skew).
func (n *Node) InstallTable(next *Table) error {
	n.instMu.Lock()
	defer n.instMu.Unlock()
	return n.installLocked(next)
}

// installLocked is InstallTable under an already-held instMu.
func (n *Node) installLocked(next *Table) error {
	cur := n.table.Load()
	if cur != nil {
		if next.Epoch == cur.Epoch {
			return nil
		}
		if next.Epoch < cur.Epoch {
			return fmt.Errorf("cluster: table epoch %d is stale (current epoch %d)", next.Epoch, cur.Epoch)
		}
	}
	var curEpoch uint64
	if cur != nil {
		curEpoch = cur.Epoch
	}
	// Collect replicas of keys the new table says are ours: they must be
	// live in the pool before the table becomes visible, or a routing
	// client could be redirected here and find nothing.
	var keys []uint64
	var reps []replica
	n.mu.Lock()
	for k, r := range n.replicas {
		if next.Owner(k).Name == n.cfg.Self {
			keys = append(keys, k)
			reps = append(reps, r)
		}
	}
	n.mu.Unlock()
	flip := func() {
		for i, k := range keys {
			err := n.pool.Attach(k, reps[i].state)
			switch {
			case err == nil:
				n.promoted.Add(1)
			case errors.Is(err, pool.ErrStreamExists):
				// A resident copy already holds the key (it arrived via a
				// committed handoff, or this node kept feeding it through a
				// fork). The replica wins only when its owner shipped it
				// under a newer epoch than this node's table knew — proof a
				// truer owner produced it; otherwise the resident copy is
				// at least as fresh and the replica is discarded.
				if reps[i].epoch > curEpoch {
					if _, _, derr := n.pool.Detach(k, nil); derr == nil {
						if aerr := n.pool.Attach(k, reps[i].state); aerr != nil {
							n.cfg.Logf("cluster: promote stream %d over stale resident: %v", k, aerr)
						} else {
							n.promoted.Add(1)
						}
					}
				}
			default:
				n.cfg.Logf("cluster: promote stream %d: %v", k, err)
			}
		}
		n.sweepStrays(curEpoch, next)
		n.table.Store(next)
	}
	if n.srv != nil {
		n.srv.FeedBarrier(flip)
	} else {
		flip()
	}
	if len(keys) > 0 {
		n.mu.Lock()
		for _, k := range keys {
			delete(n.replicas, k)
		}
		n.mu.Unlock()
	}
	n.cfg.Obs.Rec().Record(obs.SubCluster, obs.EvEpochInstall, next.Epoch, uint64(len(keys)))
	n.cfg.Logf("cluster: installed routing table epoch %d (%d members, %d overrides, %d promoted)",
		next.Epoch, len(next.Members), len(next.Overrides), len(keys))
	return nil
}

// sweepStrays detaches every resident stream the incoming table does
// not place on this node. Such strays are how split ownership starts:
// a handoff whose ack was lost leaves the receiver holding a live copy
// the sender rolled back, and as long as it stays resident it blocks
// re-migration and can shadow the real owner's state at a later
// failover. Runs inside the install flip (under the feed barrier), so
// no admission decision races the detach. When this node is the key's
// follower under the new table the detached state is kept as a standby
// replica stamped with the outgoing epoch — the real owner's next
// replication round (a higher epoch) overwrites it.
func (n *Node) sweepStrays(curEpoch uint64, next *Table) {
	if n.pool == nil {
		return
	}
	var page []pool.StreamStat
	var from uint64
	swept := 0
	for {
		var more bool
		page, from, more = n.pool.SnapshotPage(from, 1024, page[:0])
		for _, st := range page {
			if next.Owner(st.Key).Name == n.cfg.Self {
				continue
			}
			state, had, err := n.pool.Detach(st.Key, nil)
			if err != nil || !had {
				continue
			}
			swept++
			if f, ok := next.Follower(st.Key); ok && f.Name == n.cfg.Self {
				n.mu.Lock()
				if r, held := n.replicas[st.Key]; !held || r.epoch < curEpoch {
					n.replicas[st.Key] = replica{epoch: curEpoch, state: state}
				}
				n.mu.Unlock()
			}
		}
		if !more {
			break
		}
	}
	if swept > 0 {
		n.cfg.Logf("cluster: table install detached %d resident streams owned elsewhere", swept)
	}
}

// fence marks key as mid-migration toward (to, epoch): the ownership
// check rejects its batches until unfence.
func (n *Node) fence(key uint64, to string, epoch uint64) {
	n.mu.Lock()
	n.migrating[key] = migTarget{name: to, epoch: epoch}
	n.mu.Unlock()
	n.migCount.Add(1)
}

// unfence lifts a migration fence.
func (n *Node) unfence(key uint64) {
	n.mu.Lock()
	delete(n.migrating, key)
	n.mu.Unlock()
	n.migCount.Add(-1)
}

// Move migrates key from this node (which must own it) to member name
// to: fence + detach under the feed fence, ship the state and the
// epoch+1 table over the transfer plane, and flip the local table only
// after the target acknowledged — so at every instant exactly one node
// accepts the stream's batches, and the target is never named owner
// before it holds the stream. A key that is not resident (never fed,
// or idle-evicted) migrates as a zero-stream transfer: ownership moves,
// no state does. On transfer failure the stream is re-attached and the
// table jumps to epoch+2 pinning the key here, outrunning an epoch+1
// the target may have committed before the link died.
func (n *Node) Move(key uint64, to string) (*Table, error) {
	n.instMu.Lock()
	defer n.instMu.Unlock()
	cur := n.table.Load()
	if cur == nil {
		return nil, errors.New("cluster: no routing table installed")
	}
	tm, ok := cur.Lookup(to)
	if !ok {
		return nil, fmt.Errorf("cluster: no member named %q", to)
	}
	own := cur.Owner(key)
	if own.Name != n.cfg.Self {
		return nil, fmt.Errorf("cluster: key %d is owned by %q, not this node", key, own.Name)
	}
	if to == n.cfg.Self {
		return cur, nil
	}
	// Prefer dropping an override over stacking one: moving a key back
	// to its rendezvous owner erases its pin.
	var next *Table
	var err error
	if best, _ := cur.top2(key); cur.Members[best].Name == to {
		next, err = cur.WithoutOverride(key, 1)
	} else {
		next, err = cur.WithOverride(key, to, 1)
	}
	if err != nil {
		return nil, err
	}

	var state []byte
	var had bool
	var derr error
	pauseStart := time.Now()
	n.srv.FeedBarrier(func() {
		n.fence(key, to, next.Epoch)
		state, had, derr = n.pool.Detach(key, nil)
	})
	n.cfg.Obs.Rec().Record(obs.SubCluster, obs.EvMigrationFence, key, next.Epoch)
	if derr != nil {
		n.unfence(key)
		return nil, derr
	}

	rollback := func(cause error) error {
		n.cfg.Obs.Rec().Record(obs.SubCluster, obs.EvMigrationAbort, key, next.Epoch)
		if had {
			n.srv.FeedBarrier(func() {
				if aerr := n.pool.Attach(key, state); aerr != nil {
					n.cfg.Logf("cluster: rollback re-attach of stream %d: %v", key, aerr)
				}
				n.unfence(key)
			})
		} else {
			n.unfence(key)
		}
		if pin, perr := cur.WithOverride(key, n.cfg.Self, 2); perr == nil {
			n.table.Store(pin)
			// The target may have committed epoch+1 before the link died;
			// until it learns the pin, both nodes would accept the key's
			// batches (forked history). Push the pin at the target until it
			// acknowledges — the best-effort broadcast and the periodic
			// gossip cover everyone else.
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.pushTable(tm, pin)
			}()
			go n.broadcast(pin)
		}
		return fmt.Errorf("cluster: move of key %d to %q failed (stream restored): %w", key, to, cause)
	}

	tc, err := dialTransfer(tm.Transfer, n.cfg.Self, cur.Epoch, n.cfg.DialTimeout)
	if err != nil {
		return nil, rollback(err)
	}
	defer tc.close()
	if had {
		tc.wbuf = AppendHandoff(tc.wbuf, key, state)
	}
	tc.wbuf = AppendTableFrame(tc.wbuf, next)
	tc.wbuf = wire.AppendFrame(tc.wbuf, nil)
	if err := tc.awaitOK(0); err != nil {
		return nil, rollback(err)
	}
	var shipped uint64
	if had {
		shipped = 1
	}
	n.cfg.Obs.Rec().Record(obs.SubCluster, obs.EvMigrationShip, key, shipped)

	n.srv.FeedBarrier(func() {
		n.table.Store(next)
		n.unfence(key)
	})
	n.cfg.Obs.Rec().Record(obs.SubCluster, obs.EvMigrationFlip, key, next.Epoch)
	if mp := n.cfg.Obs; mp != nil {
		mp.MigrationPause.Observe(time.Since(pauseStart))
	}
	n.mu.Lock()
	delete(n.replicas, key)
	n.mu.Unlock()
	n.migrationsOut.Add(1)
	n.cfg.Logf("cluster: moved stream %d to %q (epoch %d)", key, to, next.Epoch)
	go n.broadcast(next)
	return next, nil
}

// errMemberAlive is Failover's refusal to remove a member that still
// accepts connections on its transfer plane.
var errMemberAlive = errors.New("cluster: member is alive")

// Failover removes member dead from the table (epoch+1, its overrides
// dropped) and installs the result, promoting any replicas this node
// holds for keys that now land on it. Idempotent: a table that no
// longer lists dead is returned as-is. The caller (a routing client
// whose retry budget on dead ran out, or an operator) brings the death
// verdict, and the node checks it: while dead's transfer plane accepts
// a connection, Failover refuses with errMemberAlive. A client's budget
// can run out on a live member — its durable acks stall while
// replication waits on some other, really dead, follower — and
// removing that live member would leave its streams live on two nodes.
func (n *Node) Failover(dead string) (*Table, error) {
	if cur := n.table.Load(); cur != nil && dead != n.cfg.Self {
		if m, ok := cur.Lookup(dead); ok && m.Transfer != "" {
			if nc, err := net.DialTimeout("tcp", m.Transfer, n.cfg.DialTimeout); err == nil {
				nc.Close()
				return nil, fmt.Errorf("%w: %q accepts transfer connections", errMemberAlive, dead)
			}
		}
	}
	n.instMu.Lock()
	defer n.instMu.Unlock()
	cur := n.table.Load()
	if cur == nil {
		return nil, errors.New("cluster: no routing table installed")
	}
	if dead == n.cfg.Self {
		return nil, errors.New("cluster: refusing to fail over this node from itself")
	}
	if !cur.Has(dead) {
		return cur, nil
	}
	next, err := cur.WithoutMember(dead)
	if err != nil {
		return nil, err
	}
	if err := n.installLocked(next); err != nil {
		return nil, err
	}
	n.cfg.Obs.Rec().Record(obs.SubCluster, obs.EvFailover, next.Epoch, uint64(len(next.Members)))
	go n.broadcast(next)
	return next, nil
}

// broadcast POSTs a table to every other member's HTTP plane,
// best-effort: a node that is down catches up from the next gossip
// round (and every wrong-node rejection names the epoch, so clients
// refetch in the meantime).
func (n *Node) broadcast(t *Table) {
	for _, m := range t.Members {
		if m.Name == n.cfg.Self {
			continue
		}
		n.postTable(m, t)
	}
}

// postTable POSTs one table to one member's control plane. ok means
// the table no longer needs delivering: the peer installed it (200) or
// already holds that epoch or newer (409).
func (n *Node) postTable(m Member, t *Table) bool {
	if m.HTTP == "" {
		return true
	}
	body, err := json.Marshal(t)
	if err != nil {
		return true
	}
	resp, err := n.hc.Post("http://"+m.HTTP+"/cluster/table", "application/json", bytes.NewReader(body))
	if err != nil {
		n.cfg.Logf("cluster: table post to %q: %v", m.Name, err)
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusConflict
}

// pushTable delivers t to member m reliably: retry with backoff until
// the member acknowledges it, the node shuts down, or a newer table
// supersedes t (whoever installed that newer epoch owns propagating
// it). Rollback pins ride this path — the one table a single missed
// broadcast must not be allowed to lose.
func (n *Node) pushTable(m Member, t *Table) {
	backoff := 100 * time.Millisecond
	for {
		if cur := n.table.Load(); cur == nil || cur.Epoch > t.Epoch {
			return
		}
		if n.postTable(m, t) {
			return
		}
		select {
		case <-n.stop:
			return
		case <-time.After(backoff):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// gossip is the anti-entropy loop: every GossipEvery it re-broadcasts
// the current table to every member. A peer that missed a broadcast
// (rollback pin, failover) or restarted with no table converges within
// one gossip period; peers already at the epoch answer with a cheap
// no-op install.
func (n *Node) gossip() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.GossipEvery)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
		}
		if t := n.table.Load(); t != nil {
			n.broadcast(t)
		}
	}
}

// releaseMarks releases every pending durable mark.
func (n *Node) releaseMarks() {
	n.mu.Lock()
	marks := n.marks
	n.marks = nil
	n.mu.Unlock()
	for _, m := range marks {
		m.Durable()
	}
}

// replFlushBytes is the staged replica bytes past which replicate
// flushes a follower mid-round: one pool state chunk.
const replFlushBytes = 256 << 10

// replicate is the follower-replication loop: every FollowEvery it
// captures the server's durable marks, walks Pool.EachState appending
// each owned stream's replica frame to its follower's connection
// (flushed past replFlushBytes, so no copy of the pool is held), and
// releases the marks once every follower acknowledged the round's
// barrier. Streams the table does not place here are skipped: a
// rolled-back migration can leave a stray resident whose replica would
// overwrite the real owner's. A failed follower's connection is closed
// and the marks stay pending; the next round covers them too, so
// durability is never claimed early — at the price of client windows
// draining at replication speed, which is the deal cluster durability
// is.
func (n *Node) replicate() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.FollowEvery)
	defer ticker.Stop()
	conns := make(map[string]*transferConn)
	defer func() {
		for _, tc := range conns {
			tc.close()
		}
	}()
	// healthy maps each follower this round shipped to: false once its
	// connection failed, dropping its later frames.
	healthy := make(map[string]bool)
	var round uint64
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
		}
		var marks []server.DurableMark
		if n.srv != nil {
			marks = n.srv.CaptureDurableMarks()
		}
		if len(marks) > 0 {
			n.mu.Lock()
			n.marks = append(n.marks, marks...)
			n.mu.Unlock()
		}
		t := n.table.Load()
		if t == nil || len(t.Members) < 2 {
			// No follower exists: local application is the only durability
			// domain there is, so the marks release now.
			n.releaseMarks()
			n.replLag.Store(0)
			continue
		}
		round++
		clear(healthy)
		allOK := true
		fail := func(dest, what string, err error) {
			n.replErrors.Add(1)
			n.cfg.Logf("cluster: replication %s %q (round %d): %v", what, dest, round, err)
			if tc := conns[dest]; tc != nil {
				tc.close()
				delete(conns, dest)
			}
			healthy[dest] = false
			allOK = false
		}
		frames := 0
		err := n.pool.EachState(func(key uint64, state []byte) error {
			if t.Owner(key).Name != n.cfg.Self {
				return nil
			}
			f, _ := t.Follower(key) // ok: the table has at least two members
			frames++
			if ok, seen := healthy[f.Name]; seen && !ok {
				return nil
			}
			tc := conns[f.Name]
			if tc == nil {
				var err error
				if tc, err = dialTransfer(f.Transfer, n.cfg.Self, t.Epoch, n.cfg.DialTimeout); err != nil {
					fail(f.Name, "dial", err)
					return nil
				}
				conns[f.Name] = tc
			}
			healthy[f.Name] = true
			tc.wbuf = AppendReplica(tc.wbuf, key, t.Epoch, state)
			if len(tc.wbuf) >= replFlushBytes {
				if err := tc.flush(); err != nil {
					fail(f.Name, "write", err)
				}
			}
			return nil
		})
		if err != nil {
			n.replErrors.Add(1)
			n.cfg.Logf("cluster: replication checkpoint: %v", err)
			allOK = false
		}
		n.replLag.Store(int64(frames))
		for dest, ok := range healthy {
			if !ok {
				continue
			}
			tc := conns[dest]
			tc.wbuf = AppendBarrier(tc.wbuf, round)
			if err := tc.awaitOK(round); err != nil {
				fail(dest, "ack", err)
			}
		}
		n.replRounds.Add(1)
		if allOK {
			n.releaseMarks()
			n.replLag.Store(0)
		}
	}
}

// acceptLoop serves the transfer listener.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		nc, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed.Load() {
			// Shutdown began between Accept and registration: Close's
			// teardown sweep may already have run, so registering now
			// would leave the connection (and its serveTransfer read) to
			// outlive Close.
			n.mu.Unlock()
			nc.Close()
			continue
		}
		n.conns[nc] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveTransfer(nc)
			n.mu.Lock()
			delete(n.conns, nc)
			n.mu.Unlock()
		}()
	}
}

// transferIdleTimeout bounds reads on an inbound transfer connection;
// replication connections idle between rounds, so it is generous.
const transferIdleTimeout = 10 * time.Minute

// serveTransfer handles one inbound transfer connection: preamble,
// hello (with the epoch-skew check), then handoff/replica/table/
// barrier frames until a terminator or an error. Handoff and table
// frames are staged and commit together at the terminator — a sender
// that dies mid-transfer (or whose ack is lost after it rolled back)
// leaves nothing applied on this node. Replica frames apply as they
// arrive, gated per key by the sender's epoch.
func (n *Node) serveTransfer(nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 64<<10)
	var wbuf []byte
	fail := func(msg string) {
		nc.SetWriteDeadline(time.Now().Add(n.cfg.DialTimeout))
		nc.Write(AppendTransferErr(wbuf[:0], msg))
	}
	reply := func(token uint64) bool {
		nc.SetWriteDeadline(time.Now().Add(n.cfg.DialTimeout))
		_, err := nc.Write(AppendOK(wbuf[:0], token))
		return err == nil
	}
	if err := readTransferPreamble(br); err != nil {
		n.cfg.Logf("cluster: inbound transfer: %v", err)
		return
	}
	var rbuf []byte
	var fr TransferFrame
	var pending *Table
	var staged []stagedHandoff
	helloed := false
	peer := "?"
	for {
		nc.SetReadDeadline(time.Now().Add(transferIdleTimeout))
		payload, err := wire.ReadFrame(br, MaxTransferFrame, rbuf)
		if err != nil {
			return
		}
		if payload == nil {
			// Terminator: commit the staged handoffs and table together,
			// acknowledge, done.
			if err := n.commitTransfer(staged, pending); err != nil {
				fail(err.Error())
				return
			}
			reply(0)
			return
		}
		rbuf = payload[:cap(payload)]
		if err := DecodeTransferFrame(payload, &fr); err != nil {
			fail(err.Error())
			return
		}
		if !helloed {
			if fr.Kind != KindHello {
				fail("first transfer frame must be hello")
				return
			}
			if cur := n.epoch(); fr.Epoch < cur {
				fail(fmt.Sprintf("epoch skew: sender epoch %d below local epoch %d; refetch the routing table", fr.Epoch, cur))
				return
			}
			peer = fr.Name
			helloed = true
			continue
		}
		switch fr.Kind {
		case KindHandoff:
			if len(staged) >= maxStagedHandoffs {
				fail(fmt.Sprintf("more than %d handoff frames before a terminator", maxStagedHandoffs))
				return
			}
			staged = append(staged, stagedHandoff{key: fr.Key, state: append([]byte(nil), fr.State...)})
		case KindReplica:
			if cur := n.table.Load(); cur != nil && fr.Epoch < cur.Epoch && cur.Owner(fr.Key).Name == n.cfg.Self {
				// A previous owner's in-flight round, outrun by a migration
				// or failover that made this node the key's owner: its copy
				// is behind the live stream.
				continue
			}
			n.mu.Lock()
			if r, held := n.replicas[fr.Key]; !held || fr.Epoch >= r.epoch {
				r.epoch = fr.Epoch
				r.state = append(r.state[:0], fr.State...)
				n.replicas[fr.Key] = r
			}
			n.mu.Unlock()
		case KindTable:
			pending = fr.Table
		case KindBarrier:
			if !reply(fr.Token) {
				return
			}
		default:
			fail(fmt.Sprintf("unexpected transfer frame kind %d from %q", fr.Kind, peer))
			return
		}
	}
}

// commitTransfer applies one transfer connection's staged work at its
// terminator: attach every staged handoff, then install the staged
// table, under the install lock so no other epoch transition
// interleaves. A resident copy of a handed-off key can only be a stray
// from an earlier handoff whose ack was lost (the sender rolled back
// and owns the key again), so the state the owner ships now replaces
// it. If any step fails every attach is undone and the sender sees an
// error instead of an ack — both sides agree nothing moved.
func (n *Node) commitTransfer(staged []stagedHandoff, tab *Table) error {
	if len(staged) == 0 && tab == nil {
		return nil
	}
	n.instMu.Lock()
	defer n.instMu.Unlock()
	attached := make([]uint64, 0, len(staged))
	undo := func() {
		for _, k := range attached {
			if _, _, derr := n.pool.Detach(k, nil); derr != nil {
				n.cfg.Logf("cluster: undo handoff attach of stream %d: %v", k, derr)
			}
		}
	}
	var aerr error
	apply := func() {
		for _, h := range staged {
			err := n.pool.Attach(h.key, h.state)
			if errors.Is(err, pool.ErrStreamExists) {
				if _, _, derr := n.pool.Detach(h.key, nil); derr == nil {
					err = n.pool.Attach(h.key, h.state)
				}
			}
			if err != nil {
				aerr = fmt.Errorf("attach stream %d: %w", h.key, err)
				return
			}
			attached = append(attached, h.key)
		}
	}
	// The attach (and any stray replacement) runs under the feed
	// barrier: no admission decision is in flight while a stream is
	// swapped, so a feeder can never re-materialize a key mid-swap.
	if n.srv != nil {
		n.srv.FeedBarrier(apply)
	} else {
		apply()
	}
	if aerr != nil {
		undo()
		return aerr
	}
	if tab != nil {
		if err := n.installLocked(tab); err != nil {
			undo()
			return err
		}
	}
	n.migrationsIn.Add(uint64(len(attached)))
	return nil
}

// RegisterHTTP is the server.Config hook mounting the cluster control
// routes on the node's HTTP plane:
//
//	GET  /cluster/route            current routing table (404 until one installs)
//	POST /cluster/table            install a table (JSON body; epoch must be higher)
//	POST /cluster/move?key=K&to=N  migrate stream K to member N (owner only)
//	POST /cluster/failover?node=N  remove dead member N, promote replicas
//	                               (412 while N's transfer plane answers)
func (n *Node) RegisterHTTP(mux *http.ServeMux) {
	mux.HandleFunc("GET /cluster/route", n.handleRoute)
	mux.HandleFunc("POST /cluster/table", n.handleTable)
	mux.HandleFunc("POST /cluster/move", n.handleMove)
	mux.HandleFunc("POST /cluster/failover", n.handleFailover)
}

// clusterJSON renders one control-plane response body.
func clusterJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// clusterError renders a JSON error body.
func clusterError(w http.ResponseWriter, status int, msg string) {
	clusterJSON(w, status, map[string]string{"error": msg})
}

// handleRoute serves the current routing table.
func (n *Node) handleRoute(w http.ResponseWriter, r *http.Request) {
	t := n.table.Load()
	if t == nil {
		clusterError(w, http.StatusNotFound, "no routing table installed")
		return
	}
	clusterJSON(w, http.StatusOK, t)
}

// handleTable installs a POSTed routing table.
func (n *Node) handleTable(w http.ResponseWriter, r *http.Request) {
	var t Table
	if err := json.NewDecoder(r.Body).Decode(&t); err != nil {
		clusterError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := n.InstallTable(&t); err != nil {
		clusterError(w, http.StatusConflict, err.Error())
		return
	}
	clusterJSON(w, http.StatusOK, n.table.Load())
}

// handleMove drives a live migration from the control plane.
func (n *Node) handleMove(w http.ResponseWriter, r *http.Request) {
	key, err := strconv.ParseUint(r.URL.Query().Get("key"), 10, 64)
	if err != nil {
		clusterError(w, http.StatusBadRequest, "key must be an unsigned integer")
		return
	}
	to := r.URL.Query().Get("to")
	if to == "" {
		clusterError(w, http.StatusBadRequest, "to must name a member")
		return
	}
	t, err := n.Move(key, to)
	if err != nil {
		clusterError(w, http.StatusConflict, err.Error())
		return
	}
	clusterJSON(w, http.StatusOK, t)
}

// handleFailover removes a dead member from the control plane.
func (n *Node) handleFailover(w http.ResponseWriter, r *http.Request) {
	dead := r.URL.Query().Get("node")
	if dead == "" {
		clusterError(w, http.StatusBadRequest, "node must name a member")
		return
	}
	t, err := n.Failover(dead)
	if errors.Is(err, errMemberAlive) {
		// Distinct from the other refusals: the router keeps the member
		// and reconnects to it instead of giving up.
		clusterError(w, http.StatusPreconditionFailed, err.Error())
		return
	}
	if err != nil {
		clusterError(w, http.StatusConflict, err.Error())
		return
	}
	clusterJSON(w, http.StatusOK, t)
}
