package core

import (
	"sync"
	"testing"

	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/xrand"
)

// fuzzBaseGraph is the small fixed graph every fuzz execution churns —
// built once, never mutated (ApplyUpdates is copy-on-write against it).
var fuzzBaseGraph = sync.OnceValue(func() *graph.Graph {
	return gen.HolmeKim(xrand.New(5), 32, 2, 0.4)
})

// FuzzApplyUpdates decodes arbitrary bytes into a sequence of mixed
// update batches — duplicate edges, self-loops, out-of-range ids,
// deletes of absent edges, insert+delete of the same edge — and drives
// an oracle through them. Malformed batches must return an error and
// leave the snapshot untouched (never panic, never corrupt); accepted
// batches must keep the oracle structurally identical to a fresh build
// on the resulting graph.
func FuzzApplyUpdates(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x03, 0, 1, 5, 0, 1, 5, 0, 5, 5})      // dup inserts + self-loop
	f.Add([]byte{0x02, 1, 0, 200, 1, 30, 31})           // out-of-range delete
	f.Add([]byte{0x01, 1, 0, 1})                        // delete of one real edge
	f.Add([]byte{0x02, 0, 2, 9, 1, 2, 9})               // insert+delete same edge
	f.Add([]byte{0x02, 2, 3, 0, 4, 7, 0})               // node retirement + AddNodes
	f.Add([]byte{0x03, 3, 0, 1, 3, 4, 5, 3, 6, 7})      // SetWeights: upsert, zero, rejected
	f.Add([]byte{0x06, 1, 0, 1, 0, 0, 1, 1, 2, 3, 0, 2, // delete, reinsert, more churn
		3, 5, 6, 1, 4, 6, 2, 8, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		base := fuzzBaseGraph()
		cow := mustBuild(t, base, Options{Seed: 5})
		for batches := 0; batches < 4 && len(data) > 0; batches++ {
			ops := int(data[0]&0x07) + 1
			data = data[1:]
			var upd Update
			for i := 0; i < ops && len(data) >= 3; i++ {
				op := data[0] % 6
				a, b := uint32(data[1]), uint32(data[2])
				data = data[3:]
				// Fold most ids near the graph size so batches regularly
				// hit live edges, but let raw bytes through for the
				// out-of-range paths.
				if a < 128 {
					a %= 40
				}
				if b < 128 {
					b %= 40
				}
				switch op {
				case 0:
					upd.Edges = append(upd.Edges, [2]uint32{a, b})
				case 1:
					upd.DelEdges = append(upd.DelEdges, [2]uint32{a, b})
				case 2:
					upd.DelNodes = append(upd.DelNodes, a)
				case 3:
					// b doubles as the weight: 0 (rejected), 1 (upsert) and
					// >1 (ErrWeightedUpdate on this unweighted graph).
					upd.SetWeights = append(upd.SetWeights, WeightChange{U: a, V: a ^ b, W: b % 3})
				case 4:
					upd.AddNodes = int(a % 4)
				case 5:
					// The classic conflict: same edge inserted and deleted.
					upd.Edges = append(upd.Edges, [2]uint32{a, b})
					upd.DelEdges = append(upd.DelEdges, [2]uint32{b, a})
				}
			}
			gBefore := cow.Graph()
			next, errCow := cow.ApplyUpdates(upd)
			if errCow != nil {
				// A rejected batch must not have touched anything.
				if cow.Graph() != gBefore {
					t.Fatalf("rejected batch swapped the graph: %v", errCow)
				}
				continue
			}
			cow = next
			if err := cow.Graph().Validate(); err != nil {
				t.Fatalf("accepted batch produced an invalid graph: %v", err)
			}
		}
		// The survivor must match a fresh build on the final graph.
		fresh := freshTwin(t, cow)
		assertSameStructure(t, cow, fresh)
		assertGroundTruth(t, cow, 4)
	})
}
