package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// varintClass names how a varint read ended: "" on success.
func varintClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrTruncated):
		return "truncated"
	default:
		return "overflow"
	}
}

// FuzzVarints checks both batch varint halves against encoding/binary,
// so a bug the two share cannot hide behind a round trip. Dec.Varints,
// started skip bytes into buf, must agree with a loop of binary.Varint
// on every value, the bytes consumed and the error class, and zero dst
// from the failing value on. AppendVarints of the values buf holds as
// 8-byte words must append the bytes binary.AppendVarint does, after
// prefix, with room bytes of spare capacity.
func FuzzVarints(f *testing.F) {
	ten := bytes.Repeat([]byte{0x80}, 10)
	f.Add([]byte{0x02, 0x80, 0x01, 0xa2, 0x38}, uint8(0), uint8(3), []byte{}, uint16(0))
	// Non-minimal encodings of 0 and -1.
	f.Add([]byte{0x80, 0x00, 0x81, 0x80, 0x80, 0x00}, uint8(0), uint8(2), []byte{9}, uint16(4))
	// Ten continuation bytes: truncated when they end the input,
	// overflowing when any byte follows.
	f.Add(ten, uint8(0), uint8(1), []byte{}, uint16(0))
	f.Add(append(ten, 0x00), uint8(0), uint8(1), []byte{}, uint16(0))
	// A 10th byte of 1 is the top bit; above 1 it overflows.
	f.Add(append(bytes.Repeat([]byte{0xff}, 9), 0x01), uint8(0), uint8(1), []byte{1, 2}, uint16(100))
	f.Add(append(bytes.Repeat([]byte{0xff}, 9), 0x02), uint8(0), uint8(1), []byte{}, uint16(0))
	// Input ending inside the second value, read from an offset.
	f.Add([]byte{7, 0x04, 0xc0}, uint8(1), uint8(3), []byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, buf []byte, skip, n uint8, prefix []byte, room uint16) {
		at := min(int(skip), len(buf))
		d := NewDec(buf)
		d.Bytes(at)
		got := make([]int64, n)
		for i := range got {
			got[i] = -7 // Varints must overwrite or zero every slot
		}
		d.Varints(got)
		want, off, class := make([]int64, n), at, ""
		for i := range want {
			v, k := binary.Varint(buf[off:])
			if k <= 0 {
				class = "overflow"
				if k == 0 {
					class = "truncated"
				}
				break
			}
			want[i] = v
			off += k
		}
		if c := varintClass(d.Err()); c != class {
			t.Fatalf("Varints ended %q (%v), binary.Varint %q", c, d.Err(), class)
		}
		if d.Offset() != off {
			t.Fatalf("Varints stopped at byte %d, binary.Varint at %d", d.Offset(), off)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("value %d = %d, binary.Varint reads %d", i, got[i], want[i])
			}
		}

		vs := make([]int64, len(buf)/8)
		for i := range vs {
			vs[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		ref := append([]byte(nil), prefix...)
		for _, v := range vs {
			ref = binary.AppendVarint(ref, v)
		}
		dst := append(make([]byte, 0, len(prefix)+int(room)), prefix...)
		if enc := AppendVarints(dst, vs); !bytes.Equal(enc, ref) {
			t.Fatalf("AppendVarints(%x, %d values) = %x, binary.AppendVarint %x", prefix, len(vs), enc, ref)
		}
	})
}
