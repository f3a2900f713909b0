package oraclefile

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 3)
	u64s := []uint64{1, 2, 1 << 60}
	u32s := make([]uint32, 20000) // spans multiple chunks
	for i := range u32s {
		u32s[i] = uint32(i * 7)
	}
	sized := []uint32{9, 8, 7}
	raw := []byte("embedded blob")
	rows := [][]uint32{{1, 2}, nil, make([]uint32, 9000)} // the last spans a chunk boundary
	rows[2][8999] = 3
	w.U64s(1, u64s)
	w.U32s(2, u32s)
	w.U32sBytes(3, sized)
	w.Raw(4, raw)
	w.U32s(5, nil)
	w.U32RowsBytes(6, rows)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 3 {
		t.Fatalf("version = %d", r.Version())
	}
	got64, err := r.U64s(1)
	if err != nil || !reflect.DeepEqual(got64, u64s) {
		t.Fatalf("U64s: %v %v", got64, err)
	}
	got32, err := r.U32s(2)
	if err != nil || !reflect.DeepEqual(got32, u32s) {
		t.Fatalf("U32s mismatch: %v", err)
	}
	gotSized, err := r.U32sBytes(3)
	if err != nil || !reflect.DeepEqual(gotSized, sized) {
		t.Fatalf("U32sBytes: %v %v", gotSized, err)
	}
	gotRaw, err := r.Raw(4)
	if err != nil || !bytes.Equal(gotRaw, raw) {
		t.Fatalf("Raw: %q %v", gotRaw, err)
	}
	empty, err := r.U32s(5)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty section: %v %v", empty, err)
	}
	// Rows read back as one section of their concatenation.
	gotRows, err := r.U32sBytes(6)
	if err != nil || !reflect.DeepEqual(gotRows, append(append(rows[0], rows[1]...), rows[2]...)) {
		t.Fatalf("U32RowsBytes as U32sBytes: %d words, %v", len(gotRows), err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("reader Close: %v", err)
	}
}

func TestSectionOrderEnforced(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	w.U32s(1, []uint32{1})
	w.U32s(2, []uint32{2})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.U32s(2); !errors.Is(err, ErrSection) {
		t.Fatalf("out-of-order read: %v", err)
	}
}

// TestSkipsUnknownSections: a reader built for today's schedule must
// load a file that interleaves and appends sections with higher,
// unknown tags (written by a newer format revision). Skipped bytes
// still feed the checksum, so corruption inside a skipped section is
// detected at Close.
func TestSkipsUnknownSections(t *testing.T) {
	build := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf, 1)
		w.U32s(1, []uint32{10, 20})
		// Unknown sections carry tags above every known one and use
		// byte-count headers (the post-v1 convention), so Raw models
		// them exactly.
		w.Raw(100, []byte("future section between known tags"))
		w.U32sBytes(9, []uint32{33})
		w.Raw(112, bytes.Repeat([]byte{0xAB}, 3*8192+5)) // spans chunk buffers
		w.U64s(40, []uint64{77})
		w.Raw(199, []byte("trailing future section"))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, hint := range []int64{-1, 0} {
		blob := build()
		if hint == 0 {
			hint = int64(len(blob))
		}
		r, err := NewReader(bytes.NewReader(blob), hint)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.U32s(1)
		if err != nil || !reflect.DeepEqual(got, []uint32{10, 20}) {
			t.Fatalf("U32s(1) = %v, %v", got, err)
		}
		gotSized, err := r.U32sBytes(9)
		if err != nil || !reflect.DeepEqual(gotSized, []uint32{33}) {
			t.Fatalf("U32sBytes(9) = %v, %v", gotSized, err)
		}
		got64, err := r.U64s(40)
		if err != nil || !reflect.DeepEqual(got64, []uint64{77}) {
			t.Fatalf("U64s(40) = %v, %v", got64, err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("Close with skipped sections: %v", err)
		}
	}

	// Corruption inside a skipped section must still fail the checksum.
	blob := build()
	blob[len(blob)-10] ^= 0x40 // inside the trailing unknown section
	r, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.U32s(1); err != nil {
		t.Fatalf("U32s(1): %v", err)
	}
	if _, err := r.U32sBytes(9); err != nil {
		t.Fatalf("U32sBytes(9): %v", err)
	}
	if _, err := r.U64s(40); err != nil {
		t.Fatalf("U64s(40): %v", err)
	}
	if err := r.Close(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt skipped section: %v, want ErrChecksum", err)
	}
}

// TestSkipBoundedBySizeHint: an unknown section claiming more bytes
// than the file holds must be rejected before any reads when the size
// is known, and hit ErrTruncated when streamed.
func TestSkipBoundedBySizeHint(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	w.Raw(100, []byte("short"))
	w.U32s(60, []uint32{1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// Blow up the unknown section's byte count (offset: magic 4 +
	// version 2 + tag 4).
	blob[10+2] = 0xFF
	blob[10+3] = 0xFF
	for _, hint := range []int64{int64(len(blob)), -1} {
		r, err := NewReader(bytes.NewReader(blob), hint)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.U32s(60); !errors.Is(err, ErrTruncated) {
			t.Fatalf("hint %d: huge skip claim: %v, want ErrTruncated", hint, err)
		}
	}
}

func TestChecksumAndTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	w.U32s(1, []uint32{10, 20, 30})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	// Flip each byte in turn; reading through must fail every time.
	for pos := 6; pos < len(blob); pos++ {
		bad := append([]byte(nil), blob...)
		bad[pos] ^= 0x40
		r, err := NewReader(bytes.NewReader(bad), int64(len(bad)))
		if err != nil {
			continue
		}
		if _, err := r.U32s(1); err != nil {
			continue
		}
		if err := r.Close(); err == nil {
			t.Fatalf("corruption at %d not detected", pos)
		}
	}
	for cut := 0; cut < len(blob); cut++ {
		r, err := NewReader(bytes.NewReader(blob[:cut]), int64(cut))
		if err != nil {
			continue
		}
		if _, err := r.U32s(1); err != nil {
			continue
		}
		if err := r.Close(); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}

	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := NewReader(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("magic: %v", err)
	}
}

// TestCorruptCountCannotForceHugeAlloc: a section claiming 2^40
// elements on a tiny file must fail at EOF without allocating 2^40
// elements first.
func TestCorruptCountCannotForceHugeAlloc(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	w.U32s(1, []uint32{1, 2, 3})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// Section count lives right after magic(4)+version(2)+tag(4).
	blob[10+4] = 0xFF // blow up the low bytes of the count
	blob[10+5] = 0xFF
	blob[10+6] = 0xFF
	r, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.U32s(1); !errors.Is(err, ErrTruncated) {
		t.Fatalf("huge count: %v", err)
	}
}
