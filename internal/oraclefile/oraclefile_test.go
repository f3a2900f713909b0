package oraclefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
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
	raw := []byte("embedded blob")
	rows := [][]uint32{{1, 2}, nil, make([]uint32, 9000)} // the last spans a chunk boundary
	rows[2][8999] = 3
	w.U64s(1, u64s)
	w.U32s(2, u32s)
	w.Raw(4, raw)
	w.U32s(5, nil)
	w.U32Rows(6, rows)
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
	gotRaw, err := r.Raw(4)
	if err != nil || !bytes.Equal(gotRaw, raw) {
		t.Fatalf("Raw: %q %v", gotRaw, err)
	}
	empty, err := r.U32s(5)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty section: %v %v", empty, err)
	}
	// Rows read back as one section of their concatenation.
	gotRows, err := r.U32s(6)
	if err != nil || !reflect.DeepEqual(gotRows, append(append(rows[0], rows[1]...), rows[2]...)) {
		t.Fatalf("U32Rows as U32s: %d words, %v", len(gotRows), err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("reader Close: %v", err)
	}
}

// TestHeadersHoldByteCounts pins the one section encoding: every
// header, whatever the section's element width, holds its payload's
// byte count, and a reader rejects an array section whose bytes are
// not a whole number of its elements.
func TestHeadersHoldByteCounts(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	w.U64s(1, []uint64{1, 2, 3})
	w.U32s(2, []uint32{4, 5})
	w.Raw(3, []byte("five!"))
	w.U32Rows(4, [][]uint32{{6}, {7, 8}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	off := 6 // past the magic and the version
	for _, want := range []struct{ tag, size uint64 }{{1, 24}, {2, 8}, {3, 5}, {4, 12}, {endTag, 0}} {
		tag, size := uint64(binary.LittleEndian.Uint32(blob[off:])), binary.LittleEndian.Uint64(blob[off+4:])
		if tag != want.tag || size != want.size {
			t.Fatalf("header at %d: tag %d, size %d; want tag %d, size %d", off, tag, size, want.tag, want.size)
		}
		off += 12 + int(size)
	}

	// Section 3 holds five bytes: no whole number of u32s or u64s.
	for _, tc := range []struct {
		name string
		read func(r *Reader) error
	}{
		{"u32s", func(r *Reader) error { _, err := r.U32s(3); return err }},
		{"u64s", func(r *Reader) error { _, err := r.U64s(3); return err }},
	} {
		r, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.U64s(1); err != nil {
			t.Fatal(err)
		}
		if _, err := r.U32s(2); err != nil {
			t.Fatal(err)
		}
		if err := tc.read(r); !errors.Is(err, ErrSection) || !strings.Contains(err.Error(), "whole number") {
			t.Errorf("%s over a section of ragged bytes: %v, want ErrSection", tc.name, err)
		}
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
		// Unknown sections carry tags above every known one; every
		// header holds a byte count, so Raw models them exactly.
		w.Raw(100, []byte("future section between known tags"))
		w.U32s(9, []uint32{33})
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
		got9, err := r.U32s(9)
		if err != nil || !reflect.DeepEqual(got9, []uint32{33}) {
			t.Fatalf("U32s(9) = %v, %v", got9, err)
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
	if _, err := r.U32s(9); err != nil {
		t.Fatalf("U32s(9): %v", err)
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
// bytes on a tiny file must fail at EOF without allocating them first.
func TestCorruptCountCannotForceHugeAlloc(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	w.U32s(1, []uint32{1, 2, 3})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// Section size lives right after magic(4)+version(2)+tag(4).
	blob[10+4] = 0xFF // blow up the low bytes of the size
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
