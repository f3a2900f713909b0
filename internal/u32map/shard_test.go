package u32map

import (
	"sync"
	"testing"
)

func TestShardAppendAndRebase(t *testing.T) {
	var s Shard
	if s.Len() != 0 {
		t.Fatalf("empty shard Len = %d", s.Len())
	}
	off1 := s.Append([]uint32{10, 20}, []uint32{1, 2})
	off2 := s.Append([]uint32{30, 40, 50}, []uint32{3, 4, 5})
	if off1 != 0 || off2 != 2 || s.Len() != 5 {
		t.Fatalf("offsets %d/%d, len %d", off1, off2, s.Len())
	}

	a := &Arena{
		Keys:  make([]uint32, 5),
		Dists: make([]uint32, 5),
	}
	// Rebase the second batch ahead of the first.
	a.CopyFromShard(0, &s, off2, 3)
	a.CopyFromShard(3, &s, off1, 2)
	wantKeys := []uint32{30, 40, 50, 10, 20}
	for i, k := range wantKeys {
		if a.Keys[i] != k {
			t.Fatalf("merged keys = %v, want %v", a.Keys, wantKeys)
		}
	}
	if a.Dists[3] != 1 || a.Dists[0] != 3 {
		t.Fatalf("merged dists wrong: %v", a.Dists)
	}
}

// TestShardConcurrentMerge exercises the disjoint-destination contract:
// many shards stitched into one arena from concurrent goroutines must
// produce exactly the planned layout.
func TestShardConcurrentMerge(t *testing.T) {
	const shards = 8
	const perShard = 1000
	src := make([]*Shard, shards)
	for w := 0; w < shards; w++ {
		src[w] = &Shard{}
		for i := 0; i < perShard; i++ {
			v := uint32(w*perShard + i)
			src[w].Append([]uint32{v}, []uint32{v * 2})
		}
	}
	total := uint32(shards * perShard)
	a := &Arena{
		Keys:  make([]uint32, total),
		Dists: make([]uint32, total),
	}
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a.CopyFromShard(uint32(w*perShard), src[w], 0, perShard)
		}(w)
	}
	wg.Wait()
	for i := uint32(0); i < total; i++ {
		if a.Keys[i] != i || a.Dists[i] != 2*i {
			t.Fatalf("entry %d = %d/%d", i, a.Keys[i], a.Dists[i])
		}
	}
}
