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
// The container shares the snapshot format's magic and version, so a
// replica refuses the deltas of a writer on another format version, but
// uses a disjoint tag range (delta sections start at 64), so feeding a
// delta to the snapshot loader — or a snapshot to ReadDelta — fails
// fast with ErrSection instead of misparsing. A delta's sections are
// the container's own u64 and u32 arrays; their bytes are the ones
// version 1 laid out.
const deltaVersion = fileVersion

// Delta section tags, disjoint from the snapshot's.
const (
	secDeltaHead       = 64 // u64s: from and to epoch, add-node count
	secDeltaEdges      = 65 // u32s: inserted edges, in pairs
	secDeltaDelEdges   = 66 // u32s: deleted edges, in pairs
	secDeltaDelNodes   = 67 // u32s: retired nodes
	secDeltaSetWeights = 68 // u32s: weight changes, in triples
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

// WriteDelta serializes d to w as a delta artifact.
func WriteDelta(w io.Writer, d *Delta) error {
	ow := oraclefile.NewWriter(w, deltaVersion)
	ow.U64s(secDeltaHead, []uint64{d.FromEpoch, d.ToEpoch, uint64(d.Update.AddNodes)})
	pairs := func(tag uint32, es [][2]uint32) {
		xs := make([]uint32, 0, 2*len(es))
		for _, e := range es {
			xs = append(xs, e[0], e[1])
		}
		ow.U32s(tag, xs)
	}
	pairs(secDeltaEdges, d.Update.Edges)
	pairs(secDeltaDelEdges, d.Update.DelEdges)
	ow.U32s(secDeltaDelNodes, d.Update.DelNodes)
	xs := make([]uint32, 0, 3*len(d.Update.SetWeights))
	for _, wc := range d.Update.SetWeights {
		xs = append(xs, wc.U, wc.V, wc.W)
	}
	ow.U32s(secDeltaSetWeights, xs)
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
	head, err := or.U64s(secDeltaHead)
	if err != nil {
		return nil, err
	}
	if len(head) != 3 {
		return nil, fmt.Errorf("%w: head has %d words, want 3", ErrBadDeltaFile, len(head))
	}
	d := &Delta{FromEpoch: head[0], ToEpoch: head[1]}
	if head[2] > uint64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("%w: add-node count overflows", ErrBadDeltaFile)
	}
	d.Update.AddNodes = int(head[2])

	// tuples reads a section of k-word tuples, nil when it is empty.
	tuples := func(tag uint32, what string, k int) ([]uint32, error) {
		xs, err := or.U32s(tag)
		if err != nil {
			return nil, err
		}
		if len(xs)%k != 0 {
			return nil, fmt.Errorf("%w: %s section has %d words, not a multiple of %d", ErrBadDeltaFile, what, len(xs), k)
		}
		if len(xs) == 0 {
			return nil, nil
		}
		return xs, nil
	}
	pairs := func(tag uint32, what string) ([][2]uint32, error) {
		xs, err := tuples(tag, what, 2)
		if err != nil || xs == nil {
			return nil, err
		}
		es := make([][2]uint32, len(xs)/2)
		for i := range es {
			es[i] = [2]uint32{xs[2*i], xs[2*i+1]}
		}
		return es, nil
	}
	if d.Update.Edges, err = pairs(secDeltaEdges, "edges"); err != nil {
		return nil, err
	}
	if d.Update.DelEdges, err = pairs(secDeltaDelEdges, "del-edges"); err != nil {
		return nil, err
	}
	if d.Update.DelNodes, err = tuples(secDeltaDelNodes, "del-nodes", 1); err != nil {
		return nil, err
	}
	wc, err := tuples(secDeltaSetWeights, "set-weights", 3)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(wc); i += 3 {
		d.Update.SetWeights = append(d.Update.SetWeights, WeightChange{U: wc[i], V: wc[i+1], W: wc[i+2]})
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
