package cluster

// Regression tests for the node's transfer-commit, replica-ordering
// and admission invariants:
//
//   - handoff frames are staged and apply only at the terminator, so a
//     sender that dies (or rolls back after a lost ack) leaves nothing
//     on the receiver;
//   - a committed handoff replaces a stray resident copy instead of
//     failing forever on ErrStreamExists;
//   - replica frames are ordered per key by the sender's epoch, so a
//     stale previous owner can never overwrite the current owner's
//     replica;
//   - installing a table detaches resident streams the table places
//     elsewhere;
//   - a node with no routing table accepts nothing.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dpd/internal/pool"
	"dpd/internal/wire"
)

// feedAndDetach feeds n samples into a scratch pool and detaches the
// resulting engine state.
func feedAndDetach(t *testing.T, src *pool.Pool, key uint64, n int) []byte {
	t.Helper()
	for i := 0; i < n; i++ {
		src.Feed(key, int64(i%5))
	}
	state, had, err := src.Detach(key, nil)
	if err != nil || !had {
		t.Fatalf("detach: %v %v", err, had)
	}
	return state
}

func TestHandoffStagedUntilTerminator(t *testing.T) {
	n, dst := testNode(t, "n1")
	src, err := pool.New(pool.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	const key = 41
	state := feedAndDetach(t, src, key, 48)

	// Ship the handoff but never the terminator: the barrier ack proves
	// the receiver processed the frame, yet nothing may be applied.
	tc, err := dialTransfer(n.TransferAddr(), "n2", 0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tc.wbuf = AppendHandoff(tc.wbuf, key, state)
	tc.wbuf = AppendBarrier(tc.wbuf, 1)
	if err := tc.awaitOK(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := dst.Stat(key); ok {
		t.Fatal("handoff applied before the terminator")
	}
	tc.close() // sender dies mid-transfer: the stage must be dropped
	if _, ok := dst.Stat(key); ok {
		t.Fatal("aborted transfer left a stream attached")
	}
	if got := n.migrationsIn.Load(); got != 0 {
		t.Fatalf("aborted transfer counted %d migrations in", got)
	}

	// A complete transfer of the same stream still lands.
	tc2, err := dialTransfer(n.TransferAddr(), "n2", 0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tc2.close()
	tc2.wbuf = AppendHandoff(tc2.wbuf, key, state)
	tc2.wbuf = wire.AppendFrame(tc2.wbuf, nil)
	if err := tc2.awaitOK(0); err != nil {
		t.Fatalf("clean retry rejected: %v", err)
	}
	if _, ok := dst.Stat(key); !ok {
		t.Fatal("committed transfer did not attach the stream")
	}
	if got := n.migrationsIn.Load(); got != 1 {
		t.Fatalf("committed transfer counted %d migrations in, want 1", got)
	}
}

func TestHandoffReplacesStaleResident(t *testing.T) {
	n, dst := testNode(t, "n1")
	src, err := pool.New(pool.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	const key = 55

	// Plant a stale resident copy — the stray a rolled-back migration
	// leaves behind when its commit ack is lost.
	stale := feedAndDetach(t, src, key, 16)
	if err := dst.Attach(key, stale); err != nil {
		t.Fatal(err)
	}

	// The owner ships a fresher copy: the commit must replace the stray,
	// not fail with ErrStreamExists.
	for i := 0; i < 64; i++ {
		src.Feed(key, int64(i%5))
	}
	want, _ := src.Stat(key)
	fresh, had, err := src.Detach(key, nil)
	if err != nil || !had {
		t.Fatalf("detach: %v %v", err, had)
	}
	tc, err := dialTransfer(n.TransferAddr(), "n2", 0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.close()
	tc.wbuf = AppendHandoff(tc.wbuf, key, fresh)
	tc.wbuf = wire.AppendFrame(tc.wbuf, nil)
	if err := tc.awaitOK(0); err != nil {
		t.Fatalf("handoff over a stale resident rejected: %v", err)
	}
	got, ok := dst.Stat(key)
	if !ok {
		t.Fatal("stream missing after commit")
	}
	if got != want {
		t.Fatalf("commit kept the stale copy:\n got %+v\nwant %+v", got, want)
	}
}

func TestReplicaFrameEpochOrdering(t *testing.T) {
	n, _ := testNode(t, "n1")
	const key = 9
	newer := []byte{1, 2, 3, 4}
	older := []byte{9, 9}

	tc, err := dialTransfer(n.TransferAddr(), "n2", 0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.close()
	// An epoch-5 round followed by a straggling epoch-3 round (a stale
	// previous owner): the stale frame must not overwrite.
	tc.wbuf = AppendReplica(tc.wbuf, key, 5, newer)
	tc.wbuf = AppendReplica(tc.wbuf, key, 3, older)
	tc.wbuf = AppendBarrier(tc.wbuf, 1)
	if err := tc.awaitOK(1); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	r := n.replicas[key]
	n.mu.Unlock()
	if r.epoch != 5 || !bytes.Equal(r.state, newer) {
		t.Fatalf("stale replica frame won: epoch %d state %x", r.epoch, r.state)
	}

	// A newer epoch overwrites.
	tc.wbuf = AppendReplica(tc.wbuf, key, 6, older)
	tc.wbuf = AppendBarrier(tc.wbuf, 2)
	if err := tc.awaitOK(2); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	r = n.replicas[key]
	n.mu.Unlock()
	if r.epoch != 6 || !bytes.Equal(r.state, older) {
		t.Fatalf("newer replica frame lost: epoch %d state %x", r.epoch, r.state)
	}
}

func TestInstallSweepsStrayResidents(t *testing.T) {
	n, p := testNode(t, "n1")
	const key = 123
	for i := 0; i < 32; i++ {
		p.Feed(key, int64(i%4))
	}
	// A table that pins the key to another member: the resident copy is
	// now a stray and must not stay live (it would shadow the real
	// owner's state and block re-migration).
	tab, err := NewTable(4, members3(), map[uint64]string{key: "n2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallTable(tab); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Stat(key); ok {
		t.Fatal("stray resident stream survived the table install")
	}
	if f, ok := tab.Follower(key); ok && f.Name == "n1" {
		n.mu.Lock()
		_, held := n.replicas[key]
		n.mu.Unlock()
		if !held {
			t.Fatal("demoted stray was not kept as a standby replica")
		}
	}
}

func TestOwnerCheckRejectsWithoutTable(t *testing.T) {
	n, _ := testNode(t, "n1")
	if owner, epoch, ok := n.OwnerCheck(7); ok || owner != "" || epoch != 0 {
		t.Fatalf("memberless node accepted a batch: owner=%q epoch=%d ok=%v", owner, epoch, ok)
	}
	tab, err := NewTable(1, []Member{{Name: "n1"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallTable(tab); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := n.OwnerCheck(7); !ok {
		t.Fatal("sole member rejected a batch after the table installed")
	}
}

func TestCommitTransferRejectsStaleTable(t *testing.T) {
	n, dst := testNode(t, "n1")
	cur, err := NewTable(9, members3(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallTable(cur); err != nil {
		t.Fatal(err)
	}
	src, err := pool.New(pool.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	const key = 77
	state := feedAndDetach(t, src, key, 32)
	stale, err := NewTable(4, members3(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Hello passes (epoch 9) but the staged table is stale: the commit
	// must fail and undo the handoff attach.
	tc, err := dialTransfer(n.TransferAddr(), "n2", 9, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.close()
	tc.wbuf = AppendHandoff(tc.wbuf, key, state)
	tc.wbuf = AppendTableFrame(tc.wbuf, stale)
	tc.wbuf = wire.AppendFrame(tc.wbuf, nil)
	if err := tc.awaitOK(0); err == nil {
		t.Fatal("stale staged table committed")
	}
	if _, ok := dst.Stat(key); ok {
		t.Fatal("failed commit left the handoff attached")
	}
	if got := n.Table(); got == nil || got.Epoch != 9 {
		t.Fatalf("table regressed: %+v", got)
	}
}

// TestAttachErrorSurfaceIsTyped keeps pool.ErrStreamExists matchable —
// the commit path branches on it.
func TestAttachErrorSurfaceIsTyped(t *testing.T) {
	p, err := pool.New(pool.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	src, err := pool.New(pool.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	state := feedAndDetach(t, src, 5, 16)
	if err := p.Attach(5, state); err != nil {
		t.Fatal(err)
	}
	if err := p.Attach(5, state); !errors.Is(err, pool.ErrStreamExists) {
		t.Fatalf("duplicate attach error is not ErrStreamExists: %v", err)
	}
}

// TestFailoverRefusesLiveMember: a failover verdict against a member
// whose transfer plane still accepts connections is refused and leaves
// the table alone — a client's budget can run out on a live member
// whose durable acks stall behind another, dead, follower. Once the
// member is really gone the same call removes it.
func TestFailoverRefusesLiveMember(t *testing.T) {
	n1, _ := testNode(t, "n1")
	n2, _ := testNode(t, "n2")
	tab, err := NewTable(4, []Member{
		{Name: "n1", Transfer: n1.TransferAddr()},
		{Name: "n2", Transfer: n2.TransferAddr()},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.InstallTable(tab); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.Failover("n2"); !errors.Is(err, errMemberAlive) {
		t.Fatalf("failover of a live member: err %v, want errMemberAlive", err)
	}
	if got := n1.Table(); got.Epoch != 4 || !got.Has("n2") {
		t.Fatalf("refused failover changed the table: epoch %d, has n2 %v", got.Epoch, got.Has("n2"))
	}
	n2.Close()
	next, err := n1.Failover("n2")
	if err != nil {
		t.Fatalf("failover of a closed member: %v", err)
	}
	if next.Epoch != 5 || next.Has("n2") {
		t.Fatalf("failover table: epoch %d, has n2 %v", next.Epoch, next.Has("n2"))
	}
}
