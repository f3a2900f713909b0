package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"vicinity/internal/oraclefile"
)

// Delta artifacts.
//
// A delta is one Update batch serialized in the oraclefile container,
// stamped with the epoch interval it spans: applying a delta to the
// snapshot at FromEpoch yields the snapshot at ToEpoch. The writer's
// catalog (internal/store) emits one per applied update, and replicas
// fetch and replay them instead of re-downloading full snapshots —
// the repair path (ApplyUpdates) is deterministic and structurally
// identical to a fresh build, so replaying the same deltas in order
// reproduces the writer's oracle bit for bit.
//
// The container shares the snapshot format's magic and version (the
// delta sections themselves are unchanged since version 1) but uses a
// disjoint tag range (delta sections start at 64), so feeding a delta
// to the snapshot loader — or a snapshot to ReadDelta — fails fast
// with ErrSection instead of misparsing. Per the post-v1 convention
// every delta section header stores a byte count, which keeps the
// sections skippable by the forward-compatible reader.
const deltaVersion = fileVersion

// Delta section tags (disjoint from the snapshot's 1..26; all headers
// carry byte counts, not element counts).
const (
	secDeltaHead       = 64 // from/to epoch, add-node count
	secDeltaEdges      = 65 // inserted edges, u32 LE pairs
	secDeltaDelEdges   = 66 // deleted edges, u32 LE pairs
	secDeltaDelNodes   = 67 // retired nodes, u32 LE
	secDeltaSetWeights = 68 // weight changes, u32 LE triples
)

// Delta is an Update batch with the epoch interval it spans.
type Delta struct {
	FromEpoch uint64
	ToEpoch   uint64
	Update    Update
}

// ErrBadDeltaFile wraps structural-validation failures while reading a
// delta artifact.
var ErrBadDeltaFile = errors.New("core: invalid delta file")

// appendU32sLE encodes xs as little-endian u32s appended to b.
func appendU32sLE(b []byte, xs ...uint32) []byte {
	for _, x := range xs {
		b = append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return b
}

// WriteDelta serializes d to w as a delta artifact.
func WriteDelta(w io.Writer, d *Delta) error {
	ow := oraclefile.NewWriter(w, deltaVersion)

	head := make([]byte, 0, 3*8)
	for _, x := range []uint64{d.FromEpoch, d.ToEpoch, uint64(d.Update.AddNodes)} {
		head = append(head, byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
			byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
	}
	ow.Raw(secDeltaHead, head)

	pairs := func(tag uint32, es [][2]uint32) {
		b := make([]byte, 0, 8*len(es))
		for _, e := range es {
			b = appendU32sLE(b, e[0], e[1])
		}
		ow.Raw(tag, b)
	}
	pairs(secDeltaEdges, d.Update.Edges)
	pairs(secDeltaDelEdges, d.Update.DelEdges)
	ow.Raw(secDeltaDelNodes, appendU32sLE(nil, d.Update.DelNodes...))
	b := make([]byte, 0, 12*len(d.Update.SetWeights))
	for _, wc := range d.Update.SetWeights {
		b = appendU32sLE(b, wc.U, wc.V, wc.W)
	}
	ow.Raw(secDeltaSetWeights, b)

	return ow.Close()
}

// EncodeDelta serializes d to a byte slice.
func EncodeDelta(d *Delta) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteDelta(&buf, d); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadDelta deserializes a delta artifact written by WriteDelta,
// verifying the checksum before returning.
func ReadDelta(r io.Reader) (*Delta, error) {
	or, err := oraclefile.NewReader(r, -1)
	if err != nil {
		return nil, err
	}
	if or.Version() != deltaVersion {
		return nil, fmt.Errorf("%w: version %d", oraclefile.ErrVersion, or.Version())
	}
	head, err := or.Raw(secDeltaHead)
	if err != nil {
		return nil, err
	}
	if len(head) != 3*8 {
		return nil, fmt.Errorf("%w: head has %d bytes, want %d", ErrBadDeltaFile, len(head), 3*8)
	}
	u64 := func(i int) uint64 {
		b := head[8*i:]
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	}
	d := &Delta{FromEpoch: u64(0), ToEpoch: u64(1)}
	addNodes := u64(2)
	if addNodes > uint64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("%w: add-node count overflows", ErrBadDeltaFile)
	}
	d.Update.AddNodes = int(addNodes)

	u32at := func(b []byte, i int) uint32 {
		b = b[4*i:]
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	}
	pairs := func(tag uint32, what string) ([][2]uint32, error) {
		b, err := or.Raw(tag)
		if err != nil {
			return nil, err
		}
		if len(b)%8 != 0 {
			return nil, fmt.Errorf("%w: %s section has %d bytes, not a pair multiple", ErrBadDeltaFile, what, len(b))
		}
		if len(b) == 0 {
			return nil, nil
		}
		es := make([][2]uint32, len(b)/8)
		for i := range es {
			es[i] = [2]uint32{u32at(b, 2*i), u32at(b, 2*i+1)}
		}
		return es, nil
	}
	if d.Update.Edges, err = pairs(secDeltaEdges, "edges"); err != nil {
		return nil, err
	}
	if d.Update.DelEdges, err = pairs(secDeltaDelEdges, "del-edges"); err != nil {
		return nil, err
	}
	nodes, err := or.Raw(secDeltaDelNodes)
	if err != nil {
		return nil, err
	}
	if len(nodes)%4 != 0 {
		return nil, fmt.Errorf("%w: del-nodes section has %d bytes", ErrBadDeltaFile, len(nodes))
	}
	if len(nodes) > 0 {
		d.Update.DelNodes = make([]uint32, len(nodes)/4)
		for i := range d.Update.DelNodes {
			d.Update.DelNodes[i] = u32at(nodes, i)
		}
	}
	wb, err := or.Raw(secDeltaSetWeights)
	if err != nil {
		return nil, err
	}
	if len(wb)%12 != 0 {
		return nil, fmt.Errorf("%w: set-weights section has %d bytes", ErrBadDeltaFile, len(wb))
	}
	if len(wb) > 0 {
		d.Update.SetWeights = make([]WeightChange, len(wb)/12)
		for i := range d.Update.SetWeights {
			d.Update.SetWeights[i] = WeightChange{
				U: u32at(wb, 3*i), V: u32at(wb, 3*i+1), W: u32at(wb, 3*i+2),
			}
		}
	}
	// Verify the checksum before trusting anything structurally.
	if err := or.Close(); err != nil {
		return nil, err
	}
	if d.ToEpoch != d.FromEpoch+1 {
		return nil, fmt.Errorf("%w: epoch interval %d..%d is not one step", ErrBadDeltaFile, d.FromEpoch, d.ToEpoch)
	}
	return d, nil
}

// DecodeDelta deserializes a delta artifact from a byte slice.
func DecodeDelta(b []byte) (*Delta, error) {
	return ReadDelta(bytes.NewReader(b))
}
