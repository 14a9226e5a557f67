package cluster

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dpd/internal/pool"
	"dpd/internal/wire"
)

// readOneFrame decodes one framed transfer frame from enc.
func readOneFrame(t *testing.T, enc []byte) TransferFrame {
	t.Helper()
	payload, err := wire.ReadFrame(bytes.NewReader(enc), MaxTransferFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	var f TransferFrame
	if err := DecodeTransferFrame(payload, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestTransferFrameRoundTrip(t *testing.T) {
	if f := readOneFrame(t, AppendHello(nil, "node-a", 17)); f.Kind != KindHello || f.Name != "node-a" || f.Epoch != 17 {
		t.Fatalf("hello roundtrip: %+v", f)
	}
	state := []byte{1, 2, 3, 4}
	if f := readOneFrame(t, AppendHandoff(nil, 99, state)); f.Kind != KindHandoff || f.Key != 99 || !bytes.Equal(f.State, state) {
		t.Fatalf("handoff roundtrip: %+v", f)
	}
	if f := readOneFrame(t, AppendReplica(nil, 7, 21, state)); f.Kind != KindReplica || f.Key != 7 || f.Epoch != 21 || !bytes.Equal(f.State, state) {
		t.Fatalf("replica roundtrip: %+v", f)
	}
	tab, err := NewTable(3, members3(), map[uint64]string{11: "n2"})
	if err != nil {
		t.Fatal(err)
	}
	if f := readOneFrame(t, AppendTableFrame(nil, tab)); f.Kind != KindTable || f.Table == nil || f.Table.Epoch != 3 || f.Table.Overrides[11] != "n2" {
		t.Fatalf("table roundtrip: %+v", f)
	}
	if f := readOneFrame(t, AppendBarrier(nil, 5)); f.Kind != KindBarrier || f.Token != 5 {
		t.Fatalf("barrier roundtrip: %+v", f)
	}
	if f := readOneFrame(t, AppendOK(nil, 6)); f.Kind != KindOK || f.Token != 6 {
		t.Fatalf("ok roundtrip: %+v", f)
	}
	if f := readOneFrame(t, AppendTransferErr(nil, "boom")); f.Kind != KindTransferErr || f.Msg != "boom" {
		t.Fatalf("error roundtrip: %+v", f)
	}
}

// TestAppendReplicaInPlace: the in-place replica encoder produces the
// same bytes as building the payload and framing it, round-trips
// through DecodeTransferFrame, appends after existing frames, and
// allocates nothing once dst has capacity.
func TestAppendReplicaInPlace(t *testing.T) {
	big := bytes.Repeat([]byte{0xA5}, 5000)
	for _, tc := range []struct {
		key, epoch uint64
		state      []byte
	}{
		{0, 0, []byte{1}},
		{7, 21, []byte{1, 2, 3, 4}},
		{1 << 40, 1<<64 - 1, big},
		{1<<64 - 1, 3, big[:127]},
	} {
		payload := []byte{KindReplica}
		payload = wire.AppendUvarint(payload, tc.key)
		payload = wire.AppendUvarint(payload, tc.epoch)
		payload = append(payload, tc.state...)
		want := wire.AppendFrame([]byte("prior"), payload)
		got := AppendReplica([]byte("prior"), tc.key, tc.epoch, tc.state)
		if !bytes.Equal(got, want) {
			t.Fatalf("key %d epoch %d: frame differs from the payload-then-frame encoding", tc.key, tc.epoch)
		}
		if f := readOneFrame(t, got[len("prior"):]); f.Kind != KindReplica || f.Key != tc.key || f.Epoch != tc.epoch || !bytes.Equal(f.State, tc.state) {
			t.Fatalf("replica roundtrip: %+v", f)
		}
	}
	dst := make([]byte, 0, 2*len(big)+64)
	if allocs := testing.AllocsPerRun(100, func() {
		dst = AppendReplica(dst[:0], 1<<40, 9, big)
		dst = AppendReplica(dst, 5, 9, big)
	}); allocs != 0 {
		t.Fatalf("AppendReplica into a buffer with capacity: %v allocs/op, want 0", allocs)
	}
}

func TestDecodeTransferFrameHostile(t *testing.T) {
	var f TransferFrame
	cases := [][]byte{
		nil,                     // empty payload
		{KindHello},             // hello with no epoch
		{KindHello, 0x80},       // mid-uvarint epoch
		{KindHello, 1},          // hello with empty name
		{KindHandoff},           // handoff with no key
		{KindHandoff, 0x80},     // mid-uvarint key
		{KindHandoff, 42},       // handoff with empty state
		{KindReplica, 42},       // replica with no epoch or state
		{KindReplica, 42, 3},    // replica with empty state
		{KindReplica, 42, 0x80}, // replica with mid-uvarint epoch
		{KindTable},             // table with no payload
		{KindBarrier},           // barrier with no token
		{KindBarrier, 1, 0xff},  // barrier with trailing byte
		{KindOK, 0x80},          // mid-uvarint token
		{42, 1, 2, 3},           // unknown kind
		{0},                     // kind zero
	}
	longName := append([]byte{KindHello, 1}, bytes.Repeat([]byte{'x'}, MaxAddrLen+1)...)
	cases = append(cases, longName)
	for i, payload := range cases {
		if err := DecodeTransferFrame(payload, &f); err == nil {
			t.Fatalf("hostile payload %d (%x) decoded successfully: %+v", i, payload, f)
		}
	}
}

// testNode boots a pool-backed node with no embedding server — enough
// to exercise the transfer plane in isolation.
func testNode(t *testing.T, self string) (*Node, *pool.Pool) {
	t.Helper()
	p, err := pool.New(pool.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	n, err := NewNode(NodeConfig{
		Self:         self,
		Pool:         p,
		TransferAddr: "127.0.0.1:0",
		DialTimeout:  2 * time.Second,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start(nil)
	t.Cleanup(n.Close)
	return n, p
}

// TestZeroStreamTransfer ships a topology change with no stream state —
// hello, table, terminator — and expects the staged table to commit at
// the terminator.
func TestZeroStreamTransfer(t *testing.T) {
	n, _ := testNode(t, "n1")
	tab, err := NewTable(5, members3(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := dialTransfer(n.TransferAddr(), "n2", 5, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.close()
	tc.wbuf = AppendTableFrame(tc.wbuf, tab)
	tc.wbuf = wire.AppendFrame(tc.wbuf, nil)
	if err := tc.awaitOK(0); err != nil {
		t.Fatalf("zero-stream transfer rejected: %v", err)
	}
	got := n.Table()
	if got == nil || got.Epoch != 5 {
		t.Fatalf("table not installed by zero-stream transfer: %+v", got)
	}
}

// TestTransferEpochSkewRejected pins the hello check: a sender whose
// epoch is below the receiver's must be turned away before it can ship
// anything.
func TestTransferEpochSkewRejected(t *testing.T) {
	n, _ := testNode(t, "n1")
	tab, err := NewTable(9, members3(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallTable(tab); err != nil {
		t.Fatal(err)
	}
	tc, err := dialTransfer(n.TransferAddr(), "n2", 3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.close()
	tc.wbuf = wire.AppendFrame(tc.wbuf, nil)
	err = tc.awaitOK(0)
	if err == nil {
		t.Fatal("stale-epoch sender accepted")
	}
	if !strings.Contains(err.Error(), "epoch skew") {
		t.Fatalf("want epoch-skew rejection, got: %v", err)
	}
}

// TestTransferHandoffAttaches moves real detector state over the wire:
// detach a fed stream from one pool, hand it to a node, and expect the
// receiving pool to continue it byte-identically.
func TestTransferHandoffAttaches(t *testing.T) {
	n, dst := testNode(t, "n1")
	src, err := pool.New(pool.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	const key = 77
	for i := 0; i < 64; i++ {
		src.Feed(key, int64(i%8))
	}
	want, ok := src.Stat(key)
	if !ok {
		t.Fatal("fed stream missing from source pool")
	}
	state, had, err := src.Detach(key, nil)
	if err != nil || !had {
		t.Fatalf("detach: %v %v", err, had)
	}
	tc, err := dialTransfer(n.TransferAddr(), "n2", 0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.close()
	tc.wbuf = AppendHandoff(tc.wbuf, key, state)
	tc.wbuf = wire.AppendFrame(tc.wbuf, nil)
	if err := tc.awaitOK(0); err != nil {
		t.Fatalf("handoff rejected: %v", err)
	}
	got, ok := dst.Stat(key)
	if !ok {
		t.Fatal("handed-off stream missing from destination pool")
	}
	if got != want {
		t.Fatalf("stream state diverged across handoff:\n got %+v\nwant %+v", got, want)
	}
}

// FuzzTransferFrame throws truncated and mutated transfer frames at the
// decoder. Seeds cut a valid frame of every kind at each layer
// boundary: after the kind byte, mid-uvarint, mid-name, mid-state, and
// inside the table member list. The decoder must never panic, and any
// payload it accepts must re-encode to a frame that decodes to the
// same logical content.
func FuzzTransferFrame(f *testing.F) {
	tab, err := NewTable(6, []Member{
		{Name: "a", Ingest: "i", HTTP: "h", Transfer: "t"},
		{Name: "b", Ingest: "i2", HTTP: "h2", Transfer: "t2"},
	}, map[uint64]string{4: "b"})
	if err != nil {
		f.Fatal(err)
	}
	frames := [][]byte{
		AppendHello(nil, "node-name", 1<<40),
		AppendHandoff(nil, 1<<33, []byte("engine-state-bytes")),
		AppendReplica(nil, 3, 9, []byte{0xff, 0x00, 0x7f}),
		AppendTableFrame(nil, tab),
		AppendBarrier(nil, 1<<50),
		AppendOK(nil, 0),
		AppendTransferErr(nil, "reason text"),
	}
	for _, enc := range frames {
		payload, rerr := wire.ReadFrame(bytes.NewReader(enc), MaxTransferFrame, nil)
		if rerr != nil {
			f.Fatal(rerr)
		}
		f.Add(append([]byte(nil), payload...))
		// Truncate at every byte: this covers the kind boundary, every
		// uvarint byte, and each position inside names, states and the
		// table's member strings.
		for cut := 0; cut < len(payload); cut++ {
			f.Add(append([]byte(nil), payload[:cut]...))
		}
		// And one past-the-end extension per frame.
		f.Add(append(append([]byte(nil), payload...), 0))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var fr TransferFrame
		if err := DecodeTransferFrame(payload, &fr); err != nil {
			return
		}
		var re []byte
		switch fr.Kind {
		case KindHello:
			re = AppendHello(nil, fr.Name, fr.Epoch)
		case KindHandoff:
			re = AppendHandoff(nil, fr.Key, fr.State)
		case KindReplica:
			re = AppendReplica(nil, fr.Key, fr.Epoch, fr.State)
		case KindTable:
			re = AppendTableFrame(nil, fr.Table)
		case KindBarrier:
			re = AppendBarrier(nil, fr.Token)
		case KindOK:
			re = AppendOK(nil, fr.Token)
		case KindTransferErr:
			re = AppendTransferErr(nil, fr.Msg)
		}
		payload2, err := wire.ReadFrame(bytes.NewReader(re), MaxTransferFrame, nil)
		if err != nil {
			t.Fatalf("re-encoded frame unreadable: %v", err)
		}
		var fr2 TransferFrame
		if err := DecodeTransferFrame(payload2, &fr2); err != nil {
			t.Fatalf("re-encoded frame undecodable: %v", err)
		}
		if fr2.Kind != fr.Kind || fr2.Key != fr.Key || fr2.Epoch != fr.Epoch ||
			fr2.Token != fr.Token || fr2.Name != fr.Name || fr2.Msg != fr.Msg ||
			!bytes.Equal(fr2.State, fr.State) {
			t.Fatalf("re-encode not stable:\n got %+v\nwant %+v", fr2, fr)
		}
		if (fr.Table == nil) != (fr2.Table == nil) {
			t.Fatalf("table presence flipped: %+v vs %+v", fr, fr2)
		}
		if fr.Table != nil && fr2.Table.Epoch != fr.Table.Epoch {
			t.Fatalf("table epoch flipped: %d vs %d", fr2.Table.Epoch, fr.Table.Epoch)
		}
	})
}
