// Package server is the network serving layer over the detector pool:
// the step from library to service. It has three planes:
//
//   - The ingest plane: a TCP listener speaking a length-prefixed binary
//     protocol built on internal/wire (this file). Each connection reads
//     sample-batch frames into reusable buffers and feeds the shared
//     Pool, preserving the 0-alloc steady state per connection; lock and
//     period-change events are written back to connections that opt in
//     with a subscribe frame. Backpressure is structural: a bounded ring
//     of pending batches per connection stalls the reader (and therefore
//     the peer's TCP window) when the pool is behind, and a subscriber
//     that cannot drain its event queue is disconnected with a counted
//     reason rather than allowed to wedge a shard worker.
//
//   - The query/control plane: an HTTP/JSON endpoint set (http.go) for
//     per-stream stats and predictions, paged pool enumeration, live
//     rebalancing, health and metrics.
//
//   - The durability loop: a background checkpointer (checkpoint.go)
//     that streams Pool.Checkpoint to an atomically renamed file on an
//     interval and at shutdown, and a boot path that restores from the
//     newest valid checkpoint, falling back past corrupt files, so a
//     restarted server continues every stream byte-identically.
//
// Wire format. A connection opens with a fixed preamble, then carries
// length-prefixed frames (wire.AppendFrame / wire.ReadFrame: uvarint
// payload length, then the payload):
//
//	preamble: "DPDI" | version u8
//	frame:    uvarint len | kind u8 | body
//
// Client→server bodies:
//
//	event batch     (kind 1): key uvarint | count uvarint | count × varint value
//	magnitude batch (kind 2): key uvarint | count uvarint | count × f64
//	ping            (kind 3): token uvarint
//	subscribe       (kind 4): count uvarint | count × uvarint key (count 0 = all streams)
//	cursors         (kind 8): count uvarint | count × uvarint key
//
// Server→client bodies:
//
//	pong          (kind 5): token uvarint
//	event         (kind 6): key uvarint | event kind u8 | t uvarint | period uvarint | prev uvarint | confidence f64
//	error         (kind 7): code u8 | retry-after-ms uvarint | message (remaining bytes, UTF-8)
//	cursors reply (kind 9): count uvarint | count × (key uvarint | samples uvarint)
//	durable       (kind 10): token uvarint
//	wrong node    (kind 11): key uvarint | epoch uvarint | owner (remaining bytes, UTF-8)
//
// A cursors frame asks for the per-stream applied sample counts of the
// listed keys; the reply echoes each key with its count. A replaying
// client uses the pair on reconnect to compute exactly which suffix of
// its in-flight window the server has not yet applied. A durable frame
// announces the highest ping token whose preceding frames are covered by
// a durable checkpoint (or, on a server running without a checkpoint
// directory, simply applied) — the client's signal that the window
// prefix up to that token can never be lost to a crash.
//
// A wrong-node frame (cluster mode only) rejects one batch without
// closing the connection: the key is owned by another node under the
// named routing epoch, the batch was NOT applied, and the client must
// re-route the key (refetch the routing table, replay the rejected
// suffix to the owner). It is the only non-terminal server frame that
// refuses work — everything else on the connection remains valid.
//
// A zero-length frame from the client is the graceful end-of-stream
// terminator. Decoding follows the wire contract: it never panics and
// never over-reads, every count is range-checked before any dependent
// allocation, and every violation is reported as a *ProtoError the
// server echoes back as an error frame before disconnecting.
package server

import (
	"fmt"
	"time"

	"dpd"
	"dpd/internal/wire"
)

// Preamble and protocol version, sent once by the client when a
// connection opens.
const (
	// PreambleMagic are the first four bytes of every ingest connection.
	PreambleMagic = "DPDI"
	// ProtocolVersion is the ingest protocol version this build speaks; a
	// mismatched preamble is refused with CodeBadPreamble. Version 2
	// added cursors, durable and retry-after (frames a v1 peer would
	// reject), so the version byte moved with them.
	ProtocolVersion = 2
	// preambleLen is the total preamble size: magic plus version byte.
	preambleLen = len(PreambleMagic) + 1
)

// Frame size and cardinality bounds. Every bound is checked before any
// dependent allocation, so a hostile length or count claim costs at most
// the bytes actually on the wire.
const (
	// MaxFrame bounds one frame's payload; a corrupted length prefix
	// cannot demand more than this from the read buffer.
	MaxFrame = 1 << 20
	// MaxBatch bounds the samples in one batch frame.
	MaxBatch = 1 << 16
	// MaxSubscribeKeys bounds one subscribe frame's explicit key list.
	MaxSubscribeKeys = 1 << 16
	// MaxCursorKeys bounds one cursors frame's key list. It is smaller
	// than MaxSubscribeKeys because the reply carries a samples count per
	// key and must itself fit in MaxFrame; clients with wider windows
	// chunk their cursor requests.
	MaxCursorKeys = 1 << 15
)

// Frame kinds. Client→server kinds come first; a client that sends a
// server→client kind (or an unknown one) is refused with
// CodeUnknownKind.
const (
	// KindEventBatch carries one stream's event samples (Sample.Value).
	KindEventBatch uint8 = 1
	// KindMagnitudeBatch carries one stream's magnitude samples
	// (Sample.Magnitude).
	KindMagnitudeBatch uint8 = 2
	// KindPing requests a KindPong after every prior frame on the
	// connection has been applied to the pool — the client's barrier.
	KindPing uint8 = 3
	// KindSubscribe opts the connection into event write-back for the
	// listed keys (an empty list means every stream). A later subscribe
	// frame replaces the earlier subscription.
	KindSubscribe uint8 = 4
	// KindPong answers a KindPing, echoing its token.
	KindPong uint8 = 5
	// KindEvent carries one detector state transition (lock,
	// period-change, segment-start, unlock) for a subscribed stream.
	KindEvent uint8 = 6
	// KindError carries a typed protocol error; the server closes the
	// connection after sending one.
	KindError uint8 = 7
	// KindCursors asks for the per-stream applied sample counts of the
	// listed keys — the replaying client's reconnect handshake.
	KindCursors uint8 = 8
	// KindCursorsReply answers a KindCursors frame with each key's
	// applied count.
	KindCursorsReply uint8 = 9
	// KindDurable announces the highest ping token covered by a durable
	// checkpoint; a client in durable-ack mode prunes its replay window
	// on these instead of pongs.
	KindDurable uint8 = 10
	// KindWrongNode rejects one batch frame in cluster mode: the key
	// belongs to another node. The body names the owning node and the
	// routing epoch the decision was made under; the batch was not
	// applied and the connection stays open.
	KindWrongNode uint8 = 11
)

// ErrCode classifies one protocol violation; it travels in the error
// frame so clients can distinguish their bug from the server's state.
type ErrCode uint8

// Protocol error codes.
const (
	// CodeBadPreamble: the connection did not open with the expected
	// magic and version.
	CodeBadPreamble ErrCode = 1
	// CodeBadFrame: a frame body was truncated, had trailing bytes, or
	// declared an out-of-range count.
	CodeBadFrame ErrCode = 2
	// CodeUnknownKind: the frame kind is not a client→server kind this
	// protocol version defines.
	CodeUnknownKind ErrCode = 3
	// CodeFrameTooLarge: the frame length prefix exceeded MaxFrame.
	CodeFrameTooLarge ErrCode = 4
	// CodeOverloaded: the server shed this connection (admission limit or
	// memory accounting) rather than degrade; the error frame carries a
	// retry-after hint and the client should back off and reconnect.
	CodeOverloaded ErrCode = 5
)

// String returns the error code name.
func (c ErrCode) String() string {
	switch c {
	case CodeBadPreamble:
		return "bad-preamble"
	case CodeBadFrame:
		return "bad-frame"
	case CodeUnknownKind:
		return "unknown-kind"
	case CodeFrameTooLarge:
		return "frame-too-large"
	case CodeOverloaded:
		return "overloaded"
	}
	return fmt.Sprintf("err-code(%d)", uint8(c))
}

// ProtoError is one typed protocol violation: what the decoder returns
// and what the error frame carries. The ingest plane never panics on
// hostile input — every malformed byte sequence becomes one of these.
type ProtoError struct {
	// Code classifies the violation.
	Code ErrCode
	// Msg is the human-readable detail echoed to the client.
	Msg string
}

// Error implements error.
func (e *ProtoError) Error() string { return fmt.Sprintf("server: %s: %s", e.Code, e.Msg) }

// protoErrf builds a *ProtoError with a formatted message.
func protoErrf(code ErrCode, format string, args ...any) *ProtoError {
	return &ProtoError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Frame is one decoded client→server frame. A Frame is a reusable
// decode target: DecodeFrame fills it in place, recycling the Samples
// and Keys backing arrays, so a connection's steady-state decode path
// performs no allocation.
type Frame struct {
	// Kind is the frame kind (KindEventBatch, …).
	Kind uint8
	// Key is the stream key of a batch frame.
	Key uint64
	// Token is the ping token of a KindPing frame.
	Token uint64
	// Samples are the decoded samples of a batch frame, each stamped
	// with Key — ready to hand to Pool.FeedBatch unchanged.
	Samples []dpd.KeyedSample
	// Keys is the explicit key list of a subscribe frame (empty = all)
	// or the queried key list of a cursors frame.
	Keys []uint64

	// raw is the connection's reusable frame-read buffer; it rides on
	// the Frame so a ring of pending frames recycles its read storage
	// along with its decode storage.
	raw []byte
	// size is the wire payload size charged to the pending-memory
	// accounts while this frame waits for the feeder.
	size int
	// t0 is the ingest-latency sample stamp: set by the reader just
	// before decoding when this frame was elected by the sampled ingest
	// histogram, zero otherwise. The feeder hands it to the batch's
	// in-flight record, which observes decode→applied latency.
	t0 time.Time
}

// DecodeFrame parses one client→server frame payload into f, reusing
// f's backing storage. It never panics and never over-reads: every
// failure is a *ProtoError, counts are range-checked against the bytes
// actually present before Samples or Keys grow, and trailing bytes are
// a violation (the encoding is canonical).
func DecodeFrame(payload []byte, f *Frame) error {
	f.Kind, f.Key, f.Token = 0, 0, 0
	f.Samples = f.Samples[:0]
	f.Keys = f.Keys[:0]
	var d wire.Dec
	d.Reset(payload)
	kind := d.U8()
	if d.Err() != nil {
		return protoErrf(CodeBadFrame, "empty frame payload")
	}
	switch kind {
	case KindEventBatch, KindMagnitudeBatch:
		key := d.Uvarint()
		n := d.Uint(MaxBatch)
		if d.Err() != nil {
			return protoErrf(CodeBadFrame, "batch header: %v", d.Err())
		}
		if kind == KindEventBatch {
			// Every varint value is at least one byte, so a count beyond
			// the remaining payload is corrupt — checked before Samples
			// grows toward it.
			if n > d.Remaining() {
				return protoErrf(CodeBadFrame, "event batch declares %d samples but only %d bytes remain", n, d.Remaining())
			}
		} else if !d.Need(8 * n) {
			return protoErrf(CodeBadFrame, "magnitude batch declares %d samples but only %d bytes remain", n, d.Remaining())
		}
		if cap(f.Samples) < n {
			f.Samples = make([]dpd.KeyedSample, n)
		}
		f.Samples = f.Samples[:n]
		for i := range f.Samples {
			s := &f.Samples[i]
			s.Key = key
			if kind == KindEventBatch {
				s.Value, s.Magnitude = d.Varint(), 0
			} else {
				s.Value, s.Magnitude = 0, d.F64()
			}
		}
		if d.Err() != nil {
			return protoErrf(CodeBadFrame, "batch body: %v", d.Err())
		}
		f.Kind, f.Key = kind, key
	case KindPing:
		f.Token = d.Uvarint()
		if d.Err() != nil {
			return protoErrf(CodeBadFrame, "ping token: %v", d.Err())
		}
		f.Kind = kind
	case KindSubscribe, KindCursors:
		max, what := MaxSubscribeKeys, "subscribe"
		if kind == KindCursors {
			max, what = MaxCursorKeys, "cursors"
		}
		n := d.Uint(max)
		if d.Err() != nil {
			return protoErrf(CodeBadFrame, "%s count: %v", what, d.Err())
		}
		if n > d.Remaining() {
			return protoErrf(CodeBadFrame, "%s declares %d keys but only %d bytes remain", what, n, d.Remaining())
		}
		if cap(f.Keys) < n {
			f.Keys = make([]uint64, n)
		}
		f.Keys = f.Keys[:n]
		for i := range f.Keys {
			f.Keys[i] = d.Uvarint()
		}
		if d.Err() != nil {
			return protoErrf(CodeBadFrame, "%s keys: %v", what, d.Err())
		}
		f.Kind = kind
	default:
		return protoErrf(CodeUnknownKind, "frame kind %d is not a client frame of protocol version %d", kind, ProtocolVersion)
	}
	if d.Remaining() != 0 {
		f.Kind = 0
		return protoErrf(CodeBadFrame, "%d trailing bytes after frame body", d.Remaining())
	}
	return nil
}

// Enc stages client→server frames. Frames are length-prefixed, so the
// body must be sized before the prefix is written; Enc keeps the one
// staging buffer that makes that re-encoding allocation-free once warm.
// The zero value is ready to use. It is not safe for concurrent use;
// give each connection its own.
type Enc struct {
	payload []byte
}

// AppendEventBatch appends one event batch frame (length prefix
// included) for key to dst and returns the extended slice.
func (e *Enc) AppendEventBatch(dst []byte, key uint64, values []int64) []byte {
	p := e.payload[:0]
	p = wire.AppendU8(p, KindEventBatch)
	p = wire.AppendUvarint(p, key)
	p = wire.AppendUint(p, len(values))
	p = wire.AppendVarints(p, values)
	e.payload = p
	return wire.AppendFrame(dst, p)
}

// AppendMagnitudeBatch appends one magnitude batch frame for key.
func (e *Enc) AppendMagnitudeBatch(dst []byte, key uint64, values []float64) []byte {
	p := e.payload[:0]
	p = wire.AppendU8(p, KindMagnitudeBatch)
	p = wire.AppendUvarint(p, key)
	p = wire.AppendUint(p, len(values))
	p = wire.AppendF64s(p, values)
	e.payload = p
	return wire.AppendFrame(dst, p)
}

// AppendPing appends a ping frame carrying token.
func (e *Enc) AppendPing(dst []byte, token uint64) []byte {
	p := e.payload[:0]
	p = wire.AppendU8(p, KindPing)
	p = wire.AppendUvarint(p, token)
	e.payload = p
	return wire.AppendFrame(dst, p)
}

// AppendSubscribe appends a subscribe frame; an empty key list
// subscribes to every stream.
func (e *Enc) AppendSubscribe(dst []byte, keys []uint64) []byte {
	p := e.payload[:0]
	p = wire.AppendU8(p, KindSubscribe)
	p = wire.AppendUint(p, len(keys))
	for _, k := range keys {
		p = wire.AppendUvarint(p, k)
	}
	e.payload = p
	return wire.AppendFrame(dst, p)
}

// AppendCursors appends a cursors frame querying the applied sample
// count of each listed key. len(keys) must not exceed MaxCursorKeys;
// chunk wider windows.
func (e *Enc) AppendCursors(dst []byte, keys []uint64) []byte {
	p := e.payload[:0]
	p = wire.AppendU8(p, KindCursors)
	p = wire.AppendUint(p, len(keys))
	for _, k := range keys {
		p = wire.AppendUvarint(p, k)
	}
	e.payload = p
	return wire.AppendFrame(dst, p)
}

// AppendPreamble appends the connection preamble.
func AppendPreamble(dst []byte) []byte {
	dst = append(dst, PreambleMagic...)
	return append(dst, ProtocolVersion)
}

// appendPong appends a pong frame (server side; no staging needed —
// the body is a fixed-size scratch).
func appendPong(dst []byte, token uint64) []byte {
	var body [1 + 10]byte
	p := wire.AppendU8(body[:0], KindPong)
	p = wire.AppendUvarint(p, token)
	return wire.AppendFrame(dst, p)
}

// appendEvent appends a server event frame for one stream transition.
func appendEvent(dst []byte, key uint64, ev *dpd.Event) []byte {
	var body [1 + 10 + 1 + 10 + 10 + 10 + 8]byte
	p := wire.AppendU8(body[:0], KindEvent)
	p = wire.AppendUvarint(p, key)
	p = wire.AppendU8(p, uint8(ev.Kind))
	p = wire.AppendUvarint(p, ev.T)
	p = wire.AppendUint(p, ev.Period)
	p = wire.AppendUint(p, ev.PrevPeriod)
	p = wire.AppendF64(p, ev.Confidence)
	return wire.AppendFrame(dst, p)
}

// appendError appends a typed protocol error frame. retryAfter is the
// back-off hint in milliseconds (0 for protocol violations, where
// retrying the same bytes cannot help).
func appendError(dst []byte, code ErrCode, retryAfterMs uint64, msg string) []byte {
	body := make([]byte, 0, 1+1+10+len(msg))
	p := wire.AppendU8(body, KindError)
	p = wire.AppendU8(p, uint8(code))
	p = wire.AppendUvarint(p, retryAfterMs)
	p = append(p, msg...)
	return wire.AppendFrame(dst, p)
}

// appendDurable appends a durable frame carrying the highest
// checkpoint-covered ping token.
func appendDurable(dst []byte, token uint64) []byte {
	var body [1 + 10]byte
	p := wire.AppendU8(body[:0], KindDurable)
	p = wire.AppendUvarint(p, token)
	return wire.AppendFrame(dst, p)
}

// appendWrongNode appends a wrong-node frame: the batch for key was
// rejected because owner owns it under the given routing epoch.
func appendWrongNode(dst []byte, key, epoch uint64, owner string) []byte {
	body := make([]byte, 0, 1+10+10+len(owner))
	p := wire.AppendU8(body, KindWrongNode)
	p = wire.AppendUvarint(p, key)
	p = wire.AppendUvarint(p, epoch)
	p = append(p, owner...)
	return wire.AppendFrame(dst, p)
}

// appendCursorsReply appends a cursors-reply frame: each queried key
// with its applied sample count, in query order.
func appendCursorsReply(dst []byte, cursors []Cursor) []byte {
	body := make([]byte, 0, 1+10+20*len(cursors))
	p := wire.AppendU8(body, KindCursorsReply)
	p = wire.AppendUint(p, len(cursors))
	for _, c := range cursors {
		p = wire.AppendUvarint(p, c.Key)
		p = wire.AppendUvarint(p, c.Samples)
	}
	return wire.AppendFrame(dst, p)
}

// Cursor is one stream's applied-count entry in a cursors reply.
type Cursor struct {
	// Key is the stream key.
	Key uint64
	// Samples is the total samples the server has applied to the stream.
	Samples uint64
}

// ServerFrame is one decoded server→client frame: what the client,
// loadgen and tests read back (pongs, events, errors, cursor replies,
// durable marks). Like Frame it is a reusable decode target: the
// Cursors backing array is recycled across decodes.
type ServerFrame struct {
	// Kind is the frame kind (KindPong, KindEvent, KindError,
	// KindCursorsReply, KindDurable or KindWrongNode).
	Kind uint8
	// Token echoes the ping token of a pong, or carries the durable
	// token of a durable frame.
	Token uint64
	// Key is the stream key of an event frame.
	Key uint64
	// Event is the decoded transition of an event frame.
	Event dpd.Event
	// Code is the error code of an error frame.
	Code ErrCode
	// RetryAfterMs is the error frame's back-off hint in milliseconds
	// (0 = none).
	RetryAfterMs uint64
	// Msg is the error message of an error frame, or the owning node
	// name of a wrong-node frame.
	Msg string
	// Epoch is the routing epoch of a wrong-node frame.
	Epoch uint64
	// Cursors are the per-stream applied counts of a cursors reply.
	Cursors []Cursor
}

// DecodeServerFrame parses one server→client frame payload into f,
// reusing f's backing storage. Like DecodeFrame it never panics and
// never over-reads; every failure is a *ProtoError.
func DecodeServerFrame(payload []byte, f *ServerFrame) error {
	cursors := f.Cursors[:0]
	*f = ServerFrame{}
	f.Cursors = cursors
	var d wire.Dec
	d.Reset(payload)
	kind := d.U8()
	if d.Err() != nil {
		return protoErrf(CodeBadFrame, "empty server frame payload")
	}
	switch kind {
	case KindPong, KindDurable:
		f.Token = d.Uvarint()
	case KindEvent:
		f.Key = d.Uvarint()
		f.Event.Kind = dpd.EventKind(d.U8())
		f.Event.T = d.Uvarint()
		f.Event.Period = d.Uint(1 << 30)
		f.Event.PrevPeriod = d.Uint(1 << 30)
		f.Event.Confidence = d.F64()
	case KindError:
		f.Code = ErrCode(d.U8())
		f.RetryAfterMs = d.Uvarint()
		if d.Err() == nil {
			f.Msg = string(payload[d.Offset():])
			d.Bytes(d.Remaining())
		}
	case KindWrongNode:
		f.Key = d.Uvarint()
		f.Epoch = d.Uvarint()
		if d.Err() == nil {
			f.Msg = string(payload[d.Offset():])
			d.Bytes(d.Remaining())
		}
	case KindCursorsReply:
		n := d.Uint(MaxCursorKeys)
		if d.Err() != nil {
			return protoErrf(CodeBadFrame, "cursors reply count: %v", d.Err())
		}
		// Every entry is at least two bytes; a count beyond half the
		// remaining payload is corrupt — checked before Cursors grows.
		if n > d.Remaining()/2+1 {
			return protoErrf(CodeBadFrame, "cursors reply declares %d entries but only %d bytes remain", n, d.Remaining())
		}
		if cap(f.Cursors) < n {
			f.Cursors = make([]Cursor, n)
		}
		f.Cursors = f.Cursors[:n]
		for i := range f.Cursors {
			f.Cursors[i].Key = d.Uvarint()
			f.Cursors[i].Samples = d.Uvarint()
		}
		if d.Err() != nil {
			f.Cursors = f.Cursors[:0]
			return protoErrf(CodeBadFrame, "cursors reply entries: %v", d.Err())
		}
	default:
		return protoErrf(CodeUnknownKind, "frame kind %d is not a server frame", kind)
	}
	if d.Err() != nil {
		return protoErrf(CodeBadFrame, "server frame: %v", d.Err())
	}
	if d.Remaining() != 0 {
		return protoErrf(CodeBadFrame, "%d trailing bytes after server frame", d.Remaining())
	}
	f.Kind = kind
	return nil
}
