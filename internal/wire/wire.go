// Package wire is the repo's one binary-codec idiom: little-endian
// append helpers for encoding, a bounds-checked Dec cursor for decoding,
// and length-prefixed frames for streaming. The trace codec and the
// detector state-checkpoint codecs are both built on it, so every
// on-disk format in the tree shares the same primitives and the same
// safety contract.
//
// The contract, in both directions:
//
//   - Encoding appends to a caller-supplied buffer and never fails; with
//     sufficient capacity it performs no allocation, which is what lets
//     Checkpoint serialize into a reused buffer at 0 allocs/op.
//   - Decoding NEVER panics and NEVER over-reads: every Dec accessor
//     checks the remaining bytes first, and bulk reads must be preceded
//     by a Need check before any dependent allocation, so truncated or
//     hostile input costs at most the bytes it actually contains.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// ErrTruncated is wrapped by every decode error caused by input ending
// before a declared field; callers can errors.Is on it to distinguish
// short input from structural corruption.
var ErrTruncated = errors.New("wire: truncated input")

// The errors of a varint that ends the input or overflows 64 bits.
var (
	errVarintTruncated = fmt.Errorf("%w: varint", ErrTruncated)
	errVarintOverflow  = errors.New("wire: varint overflows 64 bits")
)

// ErrFrameTooLarge is wrapped by ReadFrame when a frame's length prefix
// exceeds the caller's limit — a distinct condition from truncation
// (the bytes may all be on the wire; the claim itself is hostile), so
// protocol layers can report it with its own error code.
var ErrFrameTooLarge = errors.New("wire: frame exceeds limit")

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU16 appends v as 2 little-endian bytes.
func AppendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }

// AppendU64 appends v as 8 little-endian bytes.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendI64 appends v as 8 little-endian bytes (two's complement).
func AppendI64(b []byte, v int64) []byte { return AppendU64(b, uint64(v)) }

// AppendF64 appends v as its 8 IEEE-754 bits, little endian. Encoding
// the bits (not the value) is what makes float state round-trip to the
// exact same subsequent arithmetic.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendUvarint appends v in unsigned LEB128 (at most 10 bytes).
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendUint sugars AppendUvarint for non-negative ints (cursors,
// counts, window sizes). Negative values are a programming error and
// encode as a huge uvarint that decode-side validation rejects.
func AppendUint(b []byte, v int) []byte { return AppendUvarint(b, uint64(v)) }

// Dec is a bounds-checked decode cursor over one buffer. All accessors
// return the zero value once an error is recorded, so a decode sequence
// can run unconditionally and check Err once at the end — except before
// allocating based on a decoded count, where Need must gate the
// allocation.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder positioned at the start of buf.
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

// Reset repositions d at the start of buf, clearing any error.
func (d *Dec) Reset(buf []byte) { d.buf, d.off, d.err = buf, 0, nil }

// Err returns the first decode error (nil if none so far).
func (d *Dec) Err() error { return d.err }

// Offset returns the number of bytes consumed so far.
func (d *Dec) Offset() int { return d.off }

// Remaining returns the number of unconsumed bytes.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// fail records the first error.
func (d *Dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Need verifies that at least n more bytes are available (and that n is
// sane), recording a truncation error otherwise. Call it with the total
// computed size of a bulk section BEFORE allocating storage for it, so a
// tiny corrupted input cannot demand a huge allocation.
func (d *Dec) Need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || n > d.Remaining() {
		d.fail(fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, d.Remaining()))
		return false
	}
	return true
}

// U8 decodes one byte.
func (d *Dec) U8() uint8 {
	if !d.Need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// U16 decodes 2 little-endian bytes.
func (d *Dec) U16() uint16 {
	if !d.Need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

// U64 decodes 8 little-endian bytes.
func (d *Dec) U64() uint64 {
	if !d.Need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// I64 decodes 8 little-endian bytes as a two's-complement int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 decodes 8 little-endian bytes as IEEE-754 float64 bits.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Uvarint decodes an unsigned LEB128 value.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(fmt.Errorf("%w: uvarint", ErrTruncated))
		} else {
			d.fail(errors.New("wire: uvarint overflows 64 bits"))
		}
		return 0
	}
	d.off += n
	return v
}

// Varints decodes len(dst) zigzag LEB128 values into dst, the bulk form
// event sample batches use. It reads the buffer in one loop, with no
// call, re-slice or error check per value, and accepts and rejects
// exactly what binary.Varint does value by value: non-minimal encodings
// decode, input ending inside a value is truncated, and an 11th byte of
// one value, or a 10th above 1, overflows. On an error it stops at the
// start of the failing value and zeroes dst from it on, as a loop of
// single reads would.
func (d *Dec) Varints(dst []int64) {
	if d.err != nil {
		clear(dst)
		return
	}
	buf, off, i, j := d.buf, d.off, 0, d.off
values:
	for ; i < len(dst); i++ {
		var x uint64
		for s := uint(0); j < len(buf) && s < 7*binary.MaxVarintLen64; j, s = j+1, s+7 {
			c := buf[j]
			if c < 0x80 {
				if s == 63 && c > 1 {
					break
				}
				x |= uint64(c) << s
				dst[i] = int64(x>>1) ^ -int64(x&1)
				j++
				off = j
				continue values
			}
			x |= uint64(c&0x7f) << s
		}
		break
	}
	d.off = off
	if i < len(dst) {
		// Value i ran off the input, or past its 10th byte or above 1
		// in it.
		if j == len(buf) {
			d.fail(errVarintTruncated)
		} else {
			d.fail(errVarintOverflow)
		}
		clear(dst[i:])
	}
}

// Uint decodes a uvarint and range-checks it into [0, max], for counts
// and cursors whose legal range the caller knows. It records an error
// (and returns 0) when the decoded value is outside the range.
func (d *Dec) Uint(max int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if max < 0 || v > uint64(max) {
		d.fail(fmt.Errorf("wire: value %d outside [0,%d]", v, max))
		return 0
	}
	return int(v)
}

// Bytes returns the next n bytes without copying (aliasing the input
// buffer) or nil after recording an error when fewer remain.
func (d *Dec) Bytes(n int) []byte {
	if !d.Need(n) {
		return nil
	}
	v := d.buf[d.off : d.off+n]
	d.off += n
	return v
}

// U64s bulk-decodes n fixed-width uint64 values into dst[:n]. The
// caller must size dst itself — typically into preallocated state
// arrays — after gating with Need(8*n).
func (d *Dec) U64s(dst []uint64) {
	if !d.Need(8 * len(dst)) {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(d.buf[d.off:])
		d.off += 8
	}
}

// I64s bulk-decodes fixed-width int64 values into dst.
func (d *Dec) I64s(dst []int64) {
	if !d.Need(8 * len(dst)) {
		return
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(d.buf[d.off:]))
		d.off += 8
	}
}

// F64s bulk-decodes fixed-width float64 bit patterns into dst.
func (d *Dec) F64s(dst []float64) {
	if !d.Need(8 * len(dst)) {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
		d.off += 8
	}
}

// AppendVarints appends each value zigzag-encoded in LEB128: the bulk
// form the ingest frame codec uses for event sample batches, where
// values are loop addresses or small tags and the variable encoding
// keeps a batch frame a fraction of its fixed-width size. It grows b
// once, for the longest encoding, and writes every value in one loop;
// the bytes are binary.AppendVarint's.
func AppendVarints(b []byte, vs []int64) []byte {
	n := len(b)
	b = slices.Grow(b, binary.MaxVarintLen64*len(vs))
	b = b[:cap(b)]
	for _, v := range vs {
		x := uint64(v)<<1 ^ uint64(v>>63)
		for x >= 0x80 {
			b[n] = byte(x) | 0x80
			x >>= 7
			n++
		}
		b[n] = byte(x)
		n++
	}
	return b[:n]
}

// AppendU64s appends each value as 8 little-endian bytes.
func AppendU64s(b []byte, vs []uint64) []byte {
	for _, v := range vs {
		b = AppendU64(b, v)
	}
	return b
}

// AppendI64s appends each value as 8 little-endian bytes.
func AppendI64s(b []byte, vs []int64) []byte {
	for _, v := range vs {
		b = AppendI64(b, v)
	}
	return b
}

// AppendF64s appends each value's 8 IEEE-754 bits.
func AppendF64s(b []byte, vs []float64) []byte {
	for _, v := range vs {
		b = AppendF64(b, v)
	}
	return b
}

// AppendFrame appends one length-prefixed frame to buf: a uvarint
// payload length followed by the payload. It is the buffer-side twin of
// WriteFrame, for staging many frames before one Write.
func AppendFrame(buf, payload []byte) []byte {
	buf = AppendUvarint(buf, uint64(len(payload)))
	return append(buf, payload...)
}

// WriteFrame writes one length-prefixed frame: a uvarint payload length
// followed by the payload. A zero-length frame is a valid terminator
// (see ReadFrame).
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// FrameReader reads length-prefixed frames written by WriteFrame.
// Framing needs byte-granular reads, so the source must be buffered.
type FrameReader interface {
	io.Reader
	io.ByteReader
}

// ReadFrame reads one frame into buf (reused when its capacity
// suffices) and returns the payload. A zero-length frame returns
// (nil, nil): the stream terminator. Frames larger than max are
// rejected before any allocation, so a corrupted length prefix cannot
// demand unbounded memory.
func ReadFrame(r FrameReader, max int, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("wire: frame length: %w", err)
	}
	if n == 0 {
		return nil, nil
	}
	if max >= 0 && n > uint64(max) {
		return nil, fmt.Errorf("%w: frame of %d bytes, limit %d", ErrFrameTooLarge, n, max)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: frame body: %v", ErrTruncated, err)
	}
	return buf, nil
}
