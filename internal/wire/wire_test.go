package wire

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestScalarRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU8(b, 7)
	b = AppendU16(b, 65535)
	b = AppendU64(b, 1<<63+5)
	b = AppendI64(b, -42)
	b = AppendF64(b, math.Pi)
	b = AppendUvarint(b, 300)
	b = AppendVarints(b, []int64{-300})
	b = AppendUint(b, 1024)

	d := NewDec(b)
	if v := d.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := d.U16(); v != 65535 {
		t.Errorf("U16 = %d", v)
	}
	if v := d.U64(); v != 1<<63+5 {
		t.Errorf("U64 = %d", v)
	}
	if v := d.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.F64(); v != math.Pi {
		t.Errorf("F64 = %g", v)
	}
	if v := d.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	v := make([]int64, 1)
	if d.Varints(v); v[0] != -300 {
		t.Errorf("Varints = %d", v[0])
	}
	if v := d.Uint(2048); v != 1024 {
		t.Errorf("Uint = %d", v)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d", d.Remaining())
	}
}

func TestBulkRoundTrip(t *testing.T) {
	us := []uint64{0, 1, math.MaxUint64}
	is := []int64{-1, 0, math.MaxInt64}
	fs := []float64{0, -0.5, math.Inf(1), math.SmallestNonzeroFloat64}
	var b []byte
	b = AppendU64s(b, us)
	b = AppendI64s(b, is)
	b = AppendF64s(b, fs)

	d := NewDec(b)
	gu := make([]uint64, len(us))
	gi := make([]int64, len(is))
	gf := make([]float64, len(fs))
	d.U64s(gu)
	d.I64s(gi)
	d.F64s(gf)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range us {
		if gu[i] != us[i] {
			t.Errorf("u64[%d] = %d, want %d", i, gu[i], us[i])
		}
	}
	for i := range is {
		if gi[i] != is[i] {
			t.Errorf("i64[%d] = %d, want %d", i, gi[i], is[i])
		}
	}
	for i := range fs {
		if math.Float64bits(gf[i]) != math.Float64bits(fs[i]) {
			t.Errorf("f64[%d] = %g, want %g (bit-exact)", i, gf[i], fs[i])
		}
	}
}

// TestTruncationNeverPanics: every accessor on short input records an
// error and returns zero rather than panicking or over-reading; the
// error survives subsequent calls.
func TestTruncationNeverPanics(t *testing.T) {
	full := AppendF64(AppendU64(AppendUvarint(nil, 1e6), 9), 1.5)
	for cut := 0; cut < len(full); cut++ {
		d := NewDec(full[:cut])
		_ = d.Uvarint()
		_ = d.U64()
		_ = d.F64()
		_ = d.Bytes(4)
		if d.Err() == nil {
			t.Fatalf("cut=%d: truncated decode reported no error", cut)
		}
		if !errors.Is(d.Err(), ErrTruncated) {
			t.Fatalf("cut=%d: error %v does not wrap ErrTruncated", cut, d.Err())
		}
	}
}

func TestUintRangeCheck(t *testing.T) {
	b := AppendUint(nil, 100)
	d := NewDec(b)
	if d.Uint(99); d.Err() == nil {
		t.Fatal("out-of-range Uint reported no error")
	}
}

func TestNeedRejectsHugeDeclaredSizes(t *testing.T) {
	d := NewDec([]byte{1, 2, 3})
	if d.Need(1 << 40) {
		t.Fatal("Need accepted a size beyond the input")
	}
	if d.Need(-1) {
		t.Fatal("Need accepted a negative size")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var sink bytes.Buffer
	payloads := [][]byte{[]byte("alpha"), []byte("b"), []byte("gamma")}
	for _, p := range payloads {
		if err := WriteFrame(&sink, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteFrame(&sink, nil); err != nil { // terminator
		t.Fatal(err)
	}
	r := bufio.NewReader(&sink)
	var buf []byte
	for i, want := range payloads {
		got, err := ReadFrame(r, 1<<20, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if string(got) != string(want) {
			t.Fatalf("frame %d = %q, want %q", i, got, want)
		}
		buf = got
	}
	got, err := ReadFrame(r, 1<<20, buf)
	if err != nil || got != nil {
		t.Fatalf("terminator: got %q, err %v; want nil, nil", got, err)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var sink bytes.Buffer
	if err := WriteFrame(&sink, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bufio.NewReader(&sink), 10, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: err = %v, want ErrFrameTooLarge", err)
	}
}

func TestAppendVarintsRoundTrip(t *testing.T) {
	vs := []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63}
	buf := AppendVarints(nil, vs)
	d := NewDec(buf)
	got := make([]int64, len(vs))
	d.Varints(got)
	for i, want := range vs {
		if got[i] != want {
			t.Fatalf("value %d = %d, want %d", i, got[i], want)
		}
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("after decode: err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	var sink bytes.Buffer
	if err := WriteFrame(&sink, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	short := sink.Bytes()[:20]
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(short)), 1<<20, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated frame body: err = %v, want ErrTruncated", err)
	}
}
