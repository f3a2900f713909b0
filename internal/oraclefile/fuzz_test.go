package oraclefile

import (
	"bytes"
	"testing"
)

// readSchedule is the section sequence the fuzz reader demands; it
// exercises every array width, a raw section and a byte-count section,
// mirroring how the core loader walks a file.
func readSchedule(data []byte, sizeHint int64) error {
	or, err := NewReader(bytes.NewReader(data), sizeHint)
	if err != nil {
		return err
	}
	if _, err := or.U64s(1); err != nil {
		return err
	}
	if _, err := or.U32s(2); err != nil {
		return err
	}
	if _, err := or.Raw(3); err != nil {
		return err
	}
	if _, err := or.U32sBytes(4); err != nil {
		return err
	}
	if _, err := or.U32s(5); err != nil {
		return err
	}
	return or.Close()
}

// validContainer builds a well-formed container matching readSchedule.
func validContainer() []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	w.U64s(1, []uint64{1, 2, 3})
	w.U32s(2, []uint32{4, 5})
	w.Raw(3, []byte("raw-bytes"))
	w.U32sBytes(4, []uint32{6})
	w.U32s(5, []uint32{7, 8, 9})
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReader feeds mutated containers to the section reader, both with
// a size hint (the file path) and without (the stream path). Any error
// is acceptable; panics, hangs and unbounded allocations are not —
// in particular a section header claiming a huge element count must be
// rejected (hinted) or bounded by the data actually present (streamed).
func FuzzReader(f *testing.F) {
	valid := validContainer()
	f.Add(valid, true)
	f.Add(valid, false)
	f.Add(valid[:len(valid)-5], true) // truncated trailer
	f.Add(valid[:8], false)           // truncated header
	f.Add([]byte("VCO1"), true)       // magic only
	f.Add([]byte{}, false)            // empty
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped, true)
	// A header whose count field claims ~2^56 elements.
	huge := append([]byte(nil), valid[:6]...)
	huge = append(huge, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0)
	f.Add(huge, true)
	f.Add(huge, false)
	// A container with unknown (future) sections interleaved between the
	// scheduled tags: the reader must skip them and still verify the CRC.
	var fwd bytes.Buffer
	fw := NewWriter(&fwd, 1)
	fw.U64s(1, []uint64{1, 2, 3})
	fw.Raw(100, []byte("future section"))
	fw.U32s(2, []uint32{4, 5})
	fw.Raw(3, []byte("raw-bytes"))
	fw.U32sBytes(4, []uint32{6})
	fw.U32s(5, []uint32{7, 8, 9})
	fw.Raw(200, []byte("trailing future section"))
	if err := fw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(fwd.Bytes(), true)
	f.Add(fwd.Bytes(), false)

	f.Fuzz(func(t *testing.T, data []byte, sized bool) {
		hint := int64(-1)
		if sized {
			hint = int64(len(data))
		}
		err := readSchedule(data, hint)
		if err == nil && !bytes.Equal(data, valid) {
			// Acceptance of non-seed input is fine (e.g. checksum happens
			// to match a benign mutation of section *contents*), as long
			// as nothing panicked. Nothing to assert.
			_ = err
		}
	})
}

// FuzzRoundTrip writes fuzz-chosen arrays through the writer and
// requires the reader to return them unchanged.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(1))
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, raw []byte, version uint16) {
		u32s := make([]uint32, len(raw)/2)
		for i := range u32s {
			u32s[i] = uint32(raw[2*i]) | uint32(raw[2*i+1])<<8
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, version)
		w.U32s(7, u32s)
		w.Raw(8, raw)
		if err := w.Close(); err != nil {
			t.Fatalf("writer: %v", err)
		}
		or, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
		if or.Version() != version {
			t.Fatalf("version %d, want %d", or.Version(), version)
		}
		gotU32s, err := or.U32s(7)
		if err != nil {
			t.Fatalf("U32s: %v", err)
		}
		gotRaw, err := or.Raw(8)
		if err != nil {
			t.Fatalf("Raw: %v", err)
		}
		if err := or.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if len(gotU32s) != len(u32s) {
			t.Fatalf("u32 count %d, want %d", len(gotU32s), len(u32s))
		}
		for i := range u32s {
			if gotU32s[i] != u32s[i] {
				t.Fatalf("u32[%d] = %d, want %d", i, gotU32s[i], u32s[i])
			}
		}
		if !bytes.Equal(gotRaw, raw) {
			t.Fatal("raw section mismatch")
		}
	})
}
