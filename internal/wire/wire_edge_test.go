package wire

// Edge cases at the transfer-channel boundaries: frames exactly at the
// size limit, varint/uvarint values at the 64-bit extremes, and length
// prefixes whose encoding sits at the 10-byte LEB128 maximum — the
// shapes the cluster transfer plane (internal/cluster) puts on the wire
// when a handoff frame carries a maximum-size engine checkpoint.

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestUvarintExtremes(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1<<32 - 1, 1 << 32, math.MaxUint64} {
		enc := AppendUvarint(nil, v)
		if v == math.MaxUint64 && len(enc) != 10 {
			t.Fatalf("MaxUint64 encoded in %d bytes, want the 10-byte LEB128 maximum", len(enc))
		}
		d := NewDec(enc)
		if got := d.Uvarint(); got != v || d.Err() != nil {
			t.Fatalf("uvarint %d roundtripped to %d (err %v)", v, got, d.Err())
		}
		if d.Remaining() != 0 {
			t.Fatalf("uvarint %d left %d bytes", v, d.Remaining())
		}
	}
	// An 11-byte continuation run overflows 64 bits and must error, not
	// wrap or panic.
	over := bytes.Repeat([]byte{0x80}, 10)
	over = append(over, 0x01)
	d := NewDec(over)
	d.Uvarint()
	if d.Err() == nil {
		t.Fatal("11-byte uvarint accepted")
	}
}

func TestVarintExtremes(t *testing.T) {
	for _, v := range []int64{0, -1, 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1} {
		got := make([]int64, 1)
		d := NewDec(AppendVarints(nil, []int64{v}))
		if d.Varints(got); got[0] != v || d.Err() != nil {
			t.Fatalf("varint %d roundtripped to %d (err %v)", v, got[0], d.Err())
		}
	}
}

// TestReadFrameAtLimit pins the boundary: a frame whose payload is
// exactly max is accepted, one byte more is rejected with
// ErrFrameTooLarge — before any allocation — and the terminator passes
// under any limit.
func TestReadFrameAtLimit(t *testing.T) {
	const max = 64
	exact := bytes.Repeat([]byte{0xAB}, max)
	payload, err := ReadFrame(bytes.NewReader(AppendFrame(nil, exact)), max, nil)
	if err != nil || !bytes.Equal(payload, exact) {
		t.Fatalf("frame exactly at limit rejected: %v", err)
	}
	over := bytes.Repeat([]byte{0xAB}, max+1)
	if _, err := ReadFrame(bytes.NewReader(AppendFrame(nil, over)), max, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("frame one past limit: got %v, want ErrFrameTooLarge", err)
	}
	// A hostile length claim far past the limit must be rejected from
	// the prefix alone; there are no body bytes to read.
	claim := AppendUvarint(nil, 1<<60)
	if _, err := ReadFrame(bytes.NewReader(claim), max, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("hostile length claim: got %v, want ErrFrameTooLarge", err)
	}
	// The zero-length terminator is valid even under a zero limit.
	payload, err = ReadFrame(bytes.NewReader(AppendFrame(nil, nil)), 0, nil)
	if err != nil || payload != nil {
		t.Fatalf("terminator under zero limit: payload %v err %v", payload, err)
	}
}

// TestDecUintBoundary pins the inclusive range check.
func TestDecUintBoundary(t *testing.T) {
	d := NewDec(AppendUint(nil, 42))
	if got := d.Uint(42); got != 42 || d.Err() != nil {
		t.Fatalf("Uint at max: %d err %v", got, d.Err())
	}
	d.Reset(AppendUint(nil, 43))
	if d.Uint(42); d.Err() == nil {
		t.Fatal("Uint one past max accepted")
	}
	// max -1 rejects every value — the guard DecodeTable leans on for
	// member indexes of an empty member list.
	d.Reset(AppendUint(nil, 0))
	if d.Uint(-1); d.Err() == nil {
		t.Fatal("Uint with negative max accepted a value")
	}
}

// TestUvarintEndsAtBufferEdge decodes a value whose last byte is the
// buffer's last byte: the cursor must land exactly at the end, with no
// over-read and no error.
func TestUvarintEndsAtBufferEdge(t *testing.T) {
	enc := AppendUvarint(nil, 300) // two bytes
	d := NewDec(enc)
	if got := d.Uvarint(); got != 300 || d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("edge uvarint: %d err %v remaining %d", got, d.Err(), d.Remaining())
	}
	// Cut the continuation byte: mid-uvarint truncation must error.
	d.Reset(enc[:1])
	d.Uvarint()
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("mid-uvarint truncation: %v", d.Err())
	}
}
