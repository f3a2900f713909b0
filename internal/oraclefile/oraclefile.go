// Package oraclefile implements the binary container format for
// persisted oracles: a magic header, a sequence of tagged sections,
// and a CRC-32C trailer covering every byte before it.
//
// The container is deliberately dumb — it knows nothing about oracles.
// Each section is
//
//	tag    uint32 (LE)
//	size   uint64 (LE)  payload bytes
//	data   size bytes: a little-endian u32 or u64 array, or raw bytes
//
// and the writer/reader pairs in internal/core (oracle snapshots and
// update deltas) lay their fields out as an agreed sequence of sections
// in strictly increasing tag order. Readers demand sections in order by
// tag: a tag below the wanted one means the wanted section is missing
// or the file is reordered, and fails fast with ErrSection instead of
// misparsing. A tag above the wanted one is a section this reader does
// not know about — written by a newer format revision — and is skipped
// by its byte count, so old readers survive new trailing or interleaved
// sections (forward compatibility). Array data moves through fixed-size
// chunk buffers (near-memcpy speed, allocation proportional to data
// actually present, so a corrupt size on a truncated file cannot force
// a huge allocation).
//
// Integrity, not authentication: the trailing checksum reliably
// detects truncation and accidental corruption, which is the threat
// model for locally produced files. A deliberately crafted file with a
// matching checksum can still encode inconsistent structures; loaders
// validate structural invariants (offset monotonicity, range bounds)
// before trusting anything that could index out of bounds.
package oraclefile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
)

// Magic identifies an oracle container file.
var Magic = [4]byte{'V', 'C', 'O', '1'}

// Errors returned by the reader.
var (
	ErrBadMagic  = errors.New("oraclefile: bad magic (not an oracle file)")
	ErrVersion   = errors.New("oraclefile: unsupported format version")
	ErrChecksum  = errors.New("oraclefile: checksum mismatch (corrupt or truncated file)")
	ErrSection   = errors.New("oraclefile: unexpected section")
	ErrTruncated = errors.New("oraclefile: truncated file")
)

// castagnoli is the CRC-32C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const chunkElems = 8192

// endTag terminates the section sequence; the CRC-32C trailer follows.
const endTag = 0

// Writer emits an oracle container. Errors are sticky: the first write
// failure is remembered and returned by Close.
type Writer struct {
	w   *bufio.Writer
	crc hash.Hash32
	err error
	buf []byte
}

// NewWriter starts a container on w with the given format version.
func NewWriter(w io.Writer, version uint16) *Writer {
	ow := &Writer{
		w:   bufio.NewWriterSize(w, 1<<20),
		crc: crc32.New(castagnoli),
		buf: make([]byte, 8*chunkElems),
	}
	ow.write(Magic[:])
	ow.buf = binary.LittleEndian.AppendUint16(ow.buf[:0], version)
	ow.write(ow.buf[:2])
	ow.buf = ow.buf[:cap(ow.buf)]
	return ow
}

// write sends b to both the output and the checksum.
func (ow *Writer) write(b []byte) {
	if ow.err != nil {
		return
	}
	if _, err := ow.w.Write(b); err != nil {
		ow.err = err
		return
	}
	ow.crc.Write(b)
}

func (ow *Writer) header(tag uint32, size uint64) {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], tag)
	binary.LittleEndian.PutUint64(hdr[4:], size)
	ow.write(hdr[:])
}

// U32s writes a uint32-array section.
func (ow *Writer) U32s(tag uint32, xs []uint32) {
	ow.U32Rows(tag, [][]uint32{xs})
}

// U64s writes a uint64-array section.
func (ow *Writer) U64s(tag uint32, xs []uint64) {
	ow.header(tag, 8*uint64(len(xs)))
	for len(xs) > 0 {
		n := min(len(xs), chunkElems)
		for i, v := range xs[:n] {
			binary.LittleEndian.PutUint64(ow.buf[8*i:], v)
		}
		ow.write(ow.buf[:8*n])
		xs = xs[n:]
	}
}

// Raw writes an opaque byte section (e.g. an embedded sub-format).
func (ow *Writer) Raw(tag uint32, b []byte) {
	ow.header(tag, uint64(len(b)))
	ow.write(b)
}

// U32Rows writes a uint32-array section assembled from several rows.
// The encoding is byte-identical to one U32s call on the rows'
// concatenation, without materializing it (callers keep large tables
// as per-row slices).
func (ow *Writer) U32Rows(tag uint32, rows [][]uint32) {
	var total uint64
	for _, r := range rows {
		total += uint64(len(r))
	}
	ow.header(tag, 4*total)
	fill := 0 // elements staged in buf
	for _, row := range rows {
		for len(row) > 0 {
			n := min(len(row), chunkElems-fill)
			for i, v := range row[:n] {
				binary.LittleEndian.PutUint32(ow.buf[4*(fill+i):], v)
			}
			fill += n
			row = row[n:]
			if fill == chunkElems {
				ow.write(ow.buf[:4*fill])
				fill = 0
			}
		}
	}
	if fill > 0 {
		ow.write(ow.buf[:4*fill])
	}
}

// Close writes the end marker and checksum trailer and flushes.
// It does not close the underlying writer.
func (ow *Writer) Close() error {
	ow.header(endTag, 0)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], ow.crc.Sum32())
	if ow.err == nil {
		if _, err := ow.w.Write(sum[:]); err != nil {
			ow.err = err
		}
	}
	if ow.err != nil {
		return ow.err
	}
	return ow.w.Flush()
}

// Reader consumes an oracle container.
type Reader struct {
	r       *bufio.Reader
	crc     hash.Hash32
	version uint16
	rem     int64 // bytes remaining per the size hint; -1 = unknown
	buf     []byte
}

// NewReader checks the magic and returns a reader positioned at the
// first section. sizeHint is the total byte size of the container when
// known (a file size), or negative for unbounded streams. With a hint,
// array sections allocate their exact size up front — single
// allocation, no growth copies — because a count beyond the remaining
// bytes is rejected before any allocation; without one, sections grow
// chunk by chunk as data actually arrives.
func NewReader(r io.Reader, sizeHint int64) (*Reader, error) {
	or := &Reader{
		r:   bufio.NewReaderSize(r, 1<<20),
		crc: crc32.New(castagnoli),
		rem: sizeHint,
		buf: make([]byte, 8*chunkElems),
	}
	var head [6]byte
	if err := or.read(head[:]); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadMagic, err)
	}
	if [4]byte(head[:4]) != Magic {
		return nil, ErrBadMagic
	}
	or.version = binary.LittleEndian.Uint16(head[4:])
	return or, nil
}

// Version returns the format version from the header.
func (or *Reader) Version() uint16 { return or.version }

// read fills b fully, feeding the checksum.
func (or *Reader) read(b []byte) error {
	if _, err := io.ReadFull(or.r, b); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return fmt.Errorf("%w: %w", ErrTruncated, err)
		}
		return err
	}
	or.crc.Write(b)
	if or.rem >= 0 {
		or.rem -= int64(len(b))
	}
	return nil
}

// sized reports whether a section of count elems of elemSize bytes can
// be allocated in full: true when the size hint proves the bytes are
// present. err is non-nil when the hint proves they are NOT present.
func (or *Reader) sized(count uint64, elemSize int) (bool, error) {
	if or.rem < 0 {
		return false, nil
	}
	if count > uint64(or.rem)/uint64(elemSize) {
		return false, fmt.Errorf("%w: section claims %d elements beyond file size", ErrTruncated, count)
	}
	return true, nil
}

// header reads section headers until it finds the wanted tag and
// returns its payload's byte count.
//
// Sections appear in strictly increasing tag order, so a greater tag
// is one this reader does not know about (a newer format revision
// appended it): its payload is skipped by its byte count, with the
// skipped bytes still feeding the checksum. A smaller tag means the
// wanted section is missing or the file is reordered: fail fast with
// ErrSection.
func (or *Reader) header(tag uint32) (size uint64, err error) {
	for {
		var hdr [12]byte
		if err := or.read(hdr[:]); err != nil {
			return 0, err
		}
		got := binary.LittleEndian.Uint32(hdr[0:])
		n := binary.LittleEndian.Uint64(hdr[4:])
		if got == tag {
			return n, nil
		}
		if got < tag || got == endTag {
			return 0, fmt.Errorf("%w: got tag %d, want %d", ErrSection, got, tag)
		}
		if err := or.skip(n); err != nil {
			return 0, err
		}
	}
}

// skip consumes n payload bytes of an unknown section, feeding the
// checksum. The size hint bounds the claim before any reads, so a
// corrupt length on a truncated file fails fast instead of spinning.
func (or *Reader) skip(n uint64) error {
	if _, err := or.sized(n, 1); err != nil {
		return err
	}
	for n > 0 {
		c := int(min(n, uint64(len(or.buf))))
		if err := or.read(or.buf[:c]); err != nil {
			return err
		}
		n -= uint64(c)
	}
	return nil
}

// arrayHeader reads the header of the array section with the given
// tag, whose elements take elemSize bytes, and returns their count.
func (or *Reader) arrayHeader(tag uint32, elemSize uint64) (uint64, error) {
	size, err := or.header(tag)
	if err != nil {
		return 0, err
	}
	if size%elemSize != 0 {
		return 0, fmt.Errorf("%w: tag %d holds %d bytes, not a whole number of %d-byte elements", ErrSection, tag, size, elemSize)
	}
	return size / elemSize, nil
}

// U32s reads the uint32-array section with the given tag.
func (or *Reader) U32s(tag uint32) ([]uint32, error) {
	count, err := or.arrayHeader(tag, 4)
	if err != nil {
		return nil, err
	}
	exact, err := or.sized(count, 4)
	if err != nil {
		return nil, err
	}
	var xs []uint32
	if exact {
		xs = make([]uint32, 0, count)
	} else {
		xs = make([]uint32, 0, min(count, chunkElems))
	}
	for count > 0 {
		n := int(min(count, chunkElems))
		if err := or.read(or.buf[:4*n]); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			xs = append(xs, binary.LittleEndian.Uint32(or.buf[4*i:]))
		}
		count -= uint64(n)
	}
	return xs, nil
}

// U64s reads the uint64-array section with the given tag.
func (or *Reader) U64s(tag uint32) ([]uint64, error) {
	count, err := or.arrayHeader(tag, 8)
	if err != nil {
		return nil, err
	}
	exact, err := or.sized(count, 8)
	if err != nil {
		return nil, err
	}
	var xs []uint64
	if exact {
		xs = make([]uint64, 0, count)
	} else {
		xs = make([]uint64, 0, min(count, chunkElems))
	}
	for count > 0 {
		n := int(min(count, chunkElems))
		if err := or.read(or.buf[:8*n]); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			xs = append(xs, binary.LittleEndian.Uint64(or.buf[8*i:]))
		}
		count -= uint64(n)
	}
	return xs, nil
}

// Raw reads the opaque byte section with the given tag.
func (or *Reader) Raw(tag uint32) ([]byte, error) {
	count, err := or.header(tag)
	if err != nil {
		return nil, err
	}
	exact, err := or.sized(count, 1)
	if err != nil {
		return nil, err
	}
	var b []byte
	if exact {
		b = make([]byte, 0, count)
	} else {
		b = make([]byte, 0, min(count, 8*chunkElems))
	}
	for count > 0 {
		n := int(min(count, 8*chunkElems))
		if err := or.read(or.buf[:n]); err != nil {
			return nil, err
		}
		b = append(b, or.buf[:n]...)
		count -= uint64(n)
	}
	return b, nil
}

// Close reads the end marker and verifies the checksum trailer.
func (or *Reader) Close() error {
	if _, err := or.header(endTag); err != nil {
		return err
	}
	want := or.crc.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(or.r, sum[:]); err != nil {
		return fmt.Errorf("%w: %w", ErrTruncated, err)
	}
	if binary.LittleEndian.Uint32(sum[:]) != want {
		return ErrChecksum
	}
	return nil
}
