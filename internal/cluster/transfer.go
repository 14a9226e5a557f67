package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"dpd/internal/wire"
)

// DPDT transfer plane: the node-to-node channel that ships portable
// detector state. Each node listens on its Member.Transfer address; a
// connection starts with a fixed preamble, then length-prefixed frames
// (internal/wire framing, same as the ingest plane):
//
//	preamble: "DPDT" | version u8 (=1)
//
//	hello    (kind 1): epoch uvarint | sender name (remaining bytes)
//	handoff  (kind 2): key uvarint | engine checkpoint (remaining bytes)
//	replica  (kind 3): key uvarint | epoch uvarint | engine checkpoint (remaining bytes)
//	table    (kind 4): routing table (AppendTable layout)
//	barrier  (kind 5): token uvarint
//	ok       (kind 6): token uvarint
//	error    (kind 7): message (remaining bytes, UTF-8)
//	terminator: zero-length frame
//
// The first frame on a connection must be hello; the receiver rejects
// a sender whose epoch is below its own (epoch skew — a stale node
// must refetch the table before it may ship state). Handoff frames
// stage streams for attach on the receiver (migration) and a table
// frame stages a topology install; the terminator commits both
// together, so a connection that dies mid-transfer leaves nothing
// applied. Replica frames update the receiver's standby store as they
// arrive (follower replication); each carries the routing epoch the
// sender held when it shipped, and the receiver drops frames older
// than the newest it holds for that key — a stale previous owner's
// in-flight round can never overwrite the current owner's replica.
// The receiver speaks only ok/error frames: ok answers a barrier
// (echoing its token) and a terminator (token 0); error carries a
// reason and ends the connection with nothing committed.
//
// A zero-stream transfer — hello, table, terminator, with no handoff
// frames — is valid and is how a topology change propagates over the
// transfer plane without moving state.
//
// The codec below follows the wire contract: decoders never panic or
// over-read on hostile input, and every length is checked against a
// limit before allocation.

// Transfer-plane constants.
const (
	// transferMagic heads every transfer connection.
	transferMagic = "DPDT"
	// transferVersion is the protocol version after the magic.
	transferVersion = 1
	// MaxTransferFrame bounds one transfer frame; engine checkpoints
	// dominate, so this matches the pool's per-stream frame bound.
	MaxTransferFrame = 1 << 30
)

// Transfer frame kinds.
const (
	// KindHello identifies the sender and its routing epoch.
	KindHello uint8 = 1
	// KindHandoff ships one stream's state for migration (staged until
	// the terminator commits).
	KindHandoff uint8 = 2
	// KindReplica ships one stream's state for standby replication,
	// stamped with the sender's routing epoch.
	KindReplica uint8 = 3
	// KindTable stages a routing table for install at the terminator.
	KindTable uint8 = 4
	// KindBarrier asks the receiver to acknowledge everything before it.
	KindBarrier uint8 = 5
	// KindOK acknowledges a barrier (echoed token) or a terminator.
	KindOK uint8 = 6
	// KindTransferErr carries the receiver's reason for aborting.
	KindTransferErr uint8 = 7
)

// TransferFrame is one decoded transfer-plane frame. Which fields are
// meaningful depends on Kind; State aliases the decode payload and
// must be copied if retained past the next read.
type TransferFrame struct {
	// Kind is the frame kind (KindHello..KindTransferErr).
	Kind uint8
	// Key is the stream key of a handoff/replica frame.
	Key uint64
	// State is the engine checkpoint of a handoff/replica frame
	// (aliases the payload).
	State []byte
	// Epoch is a hello or replica frame's sender epoch.
	Epoch uint64
	// Token is a barrier/ok token.
	Token uint64
	// Name is a hello frame's sender name.
	Name string
	// Msg is an error frame's message.
	Msg string
	// Table is a table frame's decoded routing table.
	Table *Table
}

// AppendTransferPreamble appends the connection preamble.
func AppendTransferPreamble(dst []byte) []byte {
	dst = append(dst, transferMagic...)
	return append(dst, transferVersion)
}

// readTransferPreamble consumes and validates the preamble.
func readTransferPreamble(br *bufio.Reader) error {
	var hdr [5]byte
	for i := range hdr {
		b, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("cluster: transfer preamble: %w", err)
		}
		hdr[i] = b
	}
	if string(hdr[:4]) != transferMagic {
		return fmt.Errorf("cluster: transfer preamble: bad magic %q", hdr[:4])
	}
	if hdr[4] != transferVersion {
		return fmt.Errorf("cluster: transfer preamble: unsupported version %d", hdr[4])
	}
	return nil
}

// AppendHello appends a hello frame (framed).
func AppendHello(dst []byte, name string, epoch uint64) []byte {
	p := make([]byte, 0, 2+10+len(name))
	p = append(p, KindHello)
	p = wire.AppendUvarint(p, epoch)
	p = append(p, name...)
	return wire.AppendFrame(dst, p)
}

// AppendHandoff appends a migration handoff frame (framed).
func AppendHandoff(dst []byte, key uint64, state []byte) []byte {
	p := make([]byte, 0, 1+10+len(state))
	p = append(p, KindHandoff)
	p = wire.AppendUvarint(p, key)
	p = append(p, state...)
	return wire.AppendFrame(dst, p)
}

// AppendReplica appends a replication frame stamped with the sender's
// routing epoch (framed). The frame is written in place: once dst has
// capacity, the call does not allocate.
func AppendReplica(dst []byte, key, epoch uint64, state []byte) []byte {
	var hdr [1 + 2*binary.MaxVarintLen64]byte
	h := append(hdr[:0], KindReplica)
	h = wire.AppendUvarint(h, key)
	h = wire.AppendUvarint(h, epoch)
	dst = wire.AppendUvarint(dst, uint64(len(h)+len(state)))
	dst = append(dst, h...)
	return append(dst, state...)
}

// AppendTableFrame appends a table frame (framed).
func AppendTableFrame(dst []byte, t *Table) []byte {
	p := make([]byte, 0, 64)
	p = append(p, KindTable)
	p = AppendTable(p, t)
	return wire.AppendFrame(dst, p)
}

// AppendBarrier appends a barrier frame (framed).
func AppendBarrier(dst []byte, token uint64) []byte {
	var p [11]byte
	b := append(p[:0], KindBarrier)
	b = wire.AppendUvarint(b, token)
	return wire.AppendFrame(dst, b)
}

// AppendOK appends an ok frame (framed).
func AppendOK(dst []byte, token uint64) []byte {
	var p [11]byte
	b := append(p[:0], KindOK)
	b = wire.AppendUvarint(b, token)
	return wire.AppendFrame(dst, b)
}

// AppendTransferErr appends an error frame (framed).
func AppendTransferErr(dst []byte, msg string) []byte {
	p := make([]byte, 0, 1+len(msg))
	p = append(p, KindTransferErr)
	p = append(p, msg...)
	return wire.AppendFrame(dst, p)
}

// DecodeTransferFrame decodes one transfer frame payload into f. It
// never panics or over-reads on hostile input; unknown kinds and
// malformed payloads return an error. f.State and f.Table retain no
// reference to long-lived decoder state, but State aliases payload.
func DecodeTransferFrame(payload []byte, f *TransferFrame) error {
	*f = TransferFrame{}
	d := wire.NewDec(payload)
	if !d.Need(1) {
		return fmt.Errorf("cluster: transfer frame: empty payload")
	}
	f.Kind = d.U8()
	switch f.Kind {
	case KindHello:
		f.Epoch = d.Uvarint()
		if d.Err() != nil {
			return fmt.Errorf("cluster: hello frame: %w", d.Err())
		}
		rest := payload[d.Offset():]
		if len(rest) == 0 || len(rest) > MaxAddrLen {
			return fmt.Errorf("cluster: hello frame: sender name length %d outside [1,%d]", len(rest), MaxAddrLen)
		}
		f.Name = string(rest)
	case KindHandoff, KindReplica:
		f.Key = d.Uvarint()
		if f.Kind == KindReplica {
			f.Epoch = d.Uvarint()
		}
		if d.Err() != nil {
			return fmt.Errorf("cluster: keyed frame: %w", d.Err())
		}
		f.State = payload[d.Offset():]
		if len(f.State) == 0 {
			return fmt.Errorf("cluster: keyed frame for stream %d has no state", f.Key)
		}
	case KindTable:
		t, err := DecodeTable(payload[1:])
		if err != nil {
			return err
		}
		f.Table = t
	case KindBarrier, KindOK:
		f.Token = d.Uvarint()
		if d.Err() != nil {
			return fmt.Errorf("cluster: token frame: %w", d.Err())
		}
		if d.Remaining() != 0 {
			return fmt.Errorf("cluster: token frame has %d trailing bytes", d.Remaining())
		}
	case KindTransferErr:
		f.Msg = string(payload[1:])
	default:
		return fmt.Errorf("cluster: unknown transfer frame kind %d", f.Kind)
	}
	return nil
}

// transferConn is the sender side of one transfer connection: staged
// framed writes, one reused read buffer, deadline-bounded awaits.
type transferConn struct {
	nc      net.Conn
	br      *bufio.Reader
	wbuf    []byte
	rbuf    []byte
	fr      TransferFrame
	timeout time.Duration
}

// dialTransfer opens a transfer connection and stages the preamble and
// hello; nothing is written until the first flush.
func dialTransfer(addr, self string, epoch uint64, timeout time.Duration) (*transferConn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	tc := &transferConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10), timeout: timeout}
	tc.wbuf = AppendTransferPreamble(tc.wbuf)
	tc.wbuf = AppendHello(tc.wbuf, self, epoch)
	return tc, nil
}

// flush writes the staged frames under the write deadline.
func (tc *transferConn) flush() error {
	if len(tc.wbuf) == 0 {
		return nil
	}
	tc.nc.SetWriteDeadline(time.Now().Add(tc.timeout))
	_, err := tc.nc.Write(tc.wbuf)
	tc.wbuf = tc.wbuf[:0]
	return err
}

// awaitOK flushes, then blocks for an ok frame with the given token.
// An error frame surfaces as a Go error; so does any other frame.
func (tc *transferConn) awaitOK(token uint64) error {
	if err := tc.flush(); err != nil {
		return err
	}
	tc.nc.SetReadDeadline(time.Now().Add(tc.timeout))
	payload, err := wire.ReadFrame(tc.br, MaxTransferFrame, tc.rbuf)
	if err != nil {
		return err
	}
	if payload == nil {
		return fmt.Errorf("cluster: transfer peer closed before acknowledging")
	}
	tc.rbuf = payload[:cap(payload)]
	if err := DecodeTransferFrame(payload, &tc.fr); err != nil {
		return err
	}
	switch tc.fr.Kind {
	case KindOK:
		if tc.fr.Token != token {
			return fmt.Errorf("cluster: transfer ack token %d, want %d", tc.fr.Token, token)
		}
		return nil
	case KindTransferErr:
		return fmt.Errorf("cluster: transfer peer rejected: %s", tc.fr.Msg)
	default:
		return fmt.Errorf("cluster: unexpected transfer frame kind %d awaiting ack", tc.fr.Kind)
	}
}

// close tears the connection down.
func (tc *transferConn) close() {
	if tc.nc != nil {
		tc.nc.Close()
		tc.nc = nil
	}
}
