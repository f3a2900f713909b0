package u32map

import (
	"slices"
	"sync"
	"testing"
)

func TestShardAppendAndRebase(t *testing.T) {
	var s Shard
	t1 := AppendTable(nil, false, []uint32{10, 20}, nil)
	t2 := AppendTable(nil, false, []uint32{30, 40, 50}, nil)
	w1, e1 := s.Append(t1, []uint32{1, 2})
	w2, e2 := s.Append(t2, []uint32{3, 4, 5})
	if w1 != 0 || e1 != 0 || w2 != uint32(len(t1)) || e2 != 2 || len(s.Words) != len(t1)+len(t2) {
		t.Fatalf("offsets %d/%d %d/%d, %d words", w1, e1, w2, e2, len(s.Words))
	}

	a := &Arena{
		Words: make([]uint32, len(s.Words)),
		Dists: make([]uint32, 5),
	}
	// Rebase the second table ahead of the first.
	r2 := Range{WOff: 0, WLen: uint32(len(t2)), EOff: 0, ELen: 3}
	r1 := Range{WOff: uint32(len(t2)), WLen: uint32(len(t1)), EOff: 3, ELen: 2}
	a.CopyFromShard(r2, &s, w2, e2)
	a.CopyFromShard(r1, &s, w1, e1)
	for _, tc := range []struct {
		r          Range
		keys, dist []uint32
	}{{r2, []uint32{30, 40, 50}, []uint32{3, 4, 5}}, {r1, []uint32{10, 20}, []uint32{1, 2}}} {
		if k, d := entries(a.View(tc.r)); !slices.Equal(k, tc.keys) || !slices.Equal(d, tc.dist) {
			t.Fatalf("rebased table %v/%v, want %v/%v", k, d, tc.keys, tc.dist)
		}
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
			src[w].Append(AppendTable(nil, false, []uint32{v}, nil), []uint32{v * 2})
		}
	}
	per := uint32(len(src[0].Words)) / perShard // every one-key table codes alike
	total := uint32(shards * perShard)
	a := &Arena{
		Words: make([]uint32, total*per),
		Dists: make([]uint32, total),
	}
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint32(0); i < perShard; i++ {
				at := uint32(w)*perShard + i
				a.CopyFromShard(Range{WOff: at * per, WLen: per, EOff: at, ELen: 1}, src[w], i*per, i)
			}
		}(w)
	}
	wg.Wait()
	for i := uint32(0); i < total; i++ {
		f := a.View(Range{WOff: i * per, WLen: per, EOff: i, ELen: 1})
		if d, ok := f.Get(i); !ok || d != 2*i {
			t.Fatalf("entry %d = %d,%v", i, d, ok)
		}
	}
}

// TestShardLeveled stages leveled tables: their words rebase into the
// arena, and no distance array is written.
func TestShardLeveled(t *testing.T) {
	var s Shard
	t1 := AppendTable(nil, true, []uint32{1, 2, 3}, []uint32{2})
	t2 := AppendTable(nil, true, []uint32{7, 8, 9, 10}, []uint32{2, 3})
	w1, _ := s.Append(t1, nil)
	w2, _ := s.Append(t2, nil)
	if w1 != 0 || w2 != uint32(len(t1)) || len(s.Dists) != 0 {
		t.Fatalf("offsets %d/%d, dists %v", w1, w2, s.Dists)
	}
	a := &Arena{Words: make([]uint32, len(s.Words)), Leveled: true}
	r2 := Range{WOff: 0, WLen: uint32(len(t2)), ELen: 4}
	r1 := Range{WOff: uint32(len(t2)), WLen: uint32(len(t1)), ELen: 3}
	a.CopyFromShard(r2, &s, w2, 0)
	a.CopyFromShard(r1, &s, w1, 0)
	if want := append(slices.Clone(t2), t1...); !slices.Equal(a.Words, want) {
		t.Fatalf("merged words %v, want %v", a.Words, want)
	}
	if k, d := entries(a.View(r2)); !slices.Equal(k, []uint32{7, 8, 9, 10}) || !slices.Equal(d, []uint32{0, 1, 2, 3}) {
		t.Fatalf("rebased leveled table %v/%v", k, d)
	}
}
