package core

import (
	"bytes"
	"errors"
	"maps"
	"reflect"
	"slices"
	"testing"

	"vicinity/internal/oraclefile"
)

// roundTripDeltas are the deltas TestDeltaRoundTrip encodes and
// decodes, and FuzzReadDelta's seeds.
var roundTripDeltas = map[string]*Delta{
	"empty": {FromEpoch: 0, ToEpoch: 1},
	"mixed": {
		FromEpoch: 41,
		ToEpoch:   42,
		Update: Update{
			AddNodes:   3,
			Edges:      [][2]uint32{{1, 2}, {100, 7}},
			DelEdges:   [][2]uint32{{5, 6}},
			DelNodes:   []uint32{9, 11},
			SetWeights: []WeightChange{{U: 1, V: 3, W: 4}},
		},
	},
}

func TestDeltaRoundTrip(t *testing.T) {
	for name, d := range roundTripDeltas {
		t.Run(name, func(t *testing.T) {
			b, err := EncodeDelta(d)
			if err != nil {
				t.Fatalf("EncodeDelta: %v", err)
			}
			got, err := DecodeDelta(b)
			if err != nil {
				t.Fatalf("DecodeDelta: %v", err)
			}
			if !reflect.DeepEqual(got, d) {
				t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, d)
			}
		})
	}
}

func TestDeltaRejectsWrongContainers(t *testing.T) {
	g := socialGraph(11, 100)
	o := mustBuild(t, g, Options{Seed: 11})
	var snap bytes.Buffer
	if err := WriteOracle(&snap, o); err != nil {
		t.Fatal(err)
	}
	// A snapshot is not a delta.
	if _, err := DecodeDelta(snap.Bytes()); !errors.Is(err, oraclefile.ErrSection) {
		t.Fatalf("snapshot accepted as delta: %v", err)
	}
	// A delta is not a snapshot.
	db, err := EncodeDelta(&Delta{FromEpoch: 1, ToEpoch: 2, Update: Update{AddNodes: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadOracle(bytes.NewReader(db)); !errors.Is(err, oraclefile.ErrSection) {
		t.Fatalf("delta accepted as snapshot: %v", err)
	}
	// Corruption is detected.
	for pos := 6; pos < len(db); pos++ {
		bad := append([]byte(nil), db...)
		bad[pos] ^= 0x40
		if _, err := DecodeDelta(bad); err == nil {
			t.Fatalf("corruption at byte %d accepted", pos)
		}
	}
	// A multi-step epoch interval is structurally invalid.
	wide, err := EncodeDelta(&Delta{FromEpoch: 1, ToEpoch: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDelta(wide); !errors.Is(err, ErrBadDeltaFile) {
		t.Fatalf("multi-step delta accepted: %v", err)
	}
}

// TestDeltaReplayMatchesDirectApply: replaying an encoded delta on a
// copy of the base oracle produces answers identical to applying the
// update directly — the property replica catch-up rests on.
func TestDeltaReplayMatchesDirectApply(t *testing.T) {
	g := socialGraph(19, 200)
	o := mustBuild(t, g, Options{Seed: 19})
	replica := roundTrip(t, o) // replica loads the shipped snapshot

	u := Update{
		AddNodes: 2,
		Edges:    [][2]uint32{{200, 3}, {201, 200}, {17, 40}},
		DelEdges: [][2]uint32{{0, 1}},
	}
	direct, err := o.ApplyUpdates(u)
	if err != nil {
		t.Fatalf("direct apply: %v", err)
	}
	b, err := EncodeDelta(&Delta{FromEpoch: 0, ToEpoch: 1, Update: u})
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeDelta(b)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := replica.ApplyUpdates(d.Update)
	if err != nil {
		t.Fatalf("replayed apply: %v", err)
	}
	assertOraclesAgree(t, direct, replayed, direct.Graph().NumNodes(), 400)
}

// FuzzReadDelta feeds mutated delta artifacts to the reader a replica
// runs on every delta it fetches from its writer (DecodeDelta, through
// Replicator and Catalog.ApplyDeltaBytes). It must never panic, and a
// delta it accepts must re-encode to bytes that decode to the same
// delta.
func FuzzReadDelta(f *testing.F) {
	for _, name := range slices.Sorted(maps.Keys(roundTripDeltas)) {
		b, err := EncodeDelta(roundTripDeltas[name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		if name == "mixed" {
			f.Add(b[:len(b)/2]) // truncated mid-section
			flipped := append([]byte(nil), b...)
			flipped[len(b)/3] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDelta(data)
		if err != nil {
			return // rejection is the expected outcome for mutants
		}
		b, err := EncodeDelta(d)
		if err != nil {
			t.Fatalf("re-encoding an accepted delta: %v", err)
		}
		again, err := DecodeDelta(b)
		if err != nil {
			t.Fatalf("re-encoded delta rejected: %v", err)
		}
		if !reflect.DeepEqual(again, d) {
			t.Fatalf("re-encoded delta decodes differently:\n got %+v\nwant %+v", again, d)
		}
	})
}
