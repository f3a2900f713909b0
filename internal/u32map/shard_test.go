package u32map

import (
	"slices"
	"sync"
	"testing"
)

func TestShardAppendAndRebase(t *testing.T) {
	var s Shard
	if s.Len() != 0 {
		t.Fatalf("empty shard Len = %d", s.Len())
	}
	off1, _ := s.Append([]uint32{10, 20}, []uint32{1, 2}, nil)
	off2, _ := s.Append([]uint32{30, 40, 50}, []uint32{3, 4, 5}, nil)
	if off1 != 0 || off2 != 2 || s.Len() != 5 {
		t.Fatalf("offsets %d/%d, len %d", off1, off2, s.Len())
	}

	a := &Arena{
		Keys:  make([]uint32, 5),
		Dists: make([]uint32, 5),
	}
	// Rebase the second batch ahead of the first.
	a.CopyFromShard(Range{EOff: 0, ELen: 3}, &s, off2, 0)
	a.CopyFromShard(Range{EOff: 3, ELen: 2}, &s, off1, 0)
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
			src[w].Append([]uint32{v}, []uint32{v * 2}, nil)
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
			a.CopyFromShard(Range{EOff: uint32(w * perShard), ELen: perShard}, src[w], 0, 0)
		}(w)
	}
	wg.Wait()
	for i := uint32(0); i < total; i++ {
		if a.Keys[i] != i || a.Dists[i] != 2*i {
			t.Fatalf("entry %d = %d/%d", i, a.Keys[i], a.Dists[i])
		}
	}
}

// TestShardLeveled stages leveled tables: keys and level starts rebase
// into the arena, and no distance array is written.
func TestShardLeveled(t *testing.T) {
	var s Shard
	e1, l1 := s.Append([]uint32{1, 2, 3}, nil, []uint32{2})
	e2, l2 := s.Append([]uint32{7, 8, 9, 10}, nil, []uint32{2, 3})
	if e1 != 0 || l1 != 0 || e2 != 3 || l2 != 1 || len(s.Dists) != 0 {
		t.Fatalf("offsets %d/%d %d/%d, dists %v", e1, l1, e2, l2, s.Dists)
	}
	a := &Arena{Keys: make([]uint32, 7), Levels: make([]uint32, 3), Leveled: true}
	a.CopyFromShard(Range{EOff: 0, ELen: 4, LOff: 0, LLen: 2}, &s, e2, l2)
	a.CopyFromShard(Range{EOff: 4, ELen: 3, LOff: 2, LLen: 1}, &s, e1, l1)
	if want := []uint32{7, 8, 9, 10, 1, 2, 3}; !slices.Equal(a.Keys, want) {
		t.Fatalf("merged keys %v, want %v", a.Keys, want)
	}
	if want := []uint32{2, 3, 2}; !slices.Equal(a.Levels, want) {
		t.Fatalf("merged levels %v, want %v", a.Levels, want)
	}
}
