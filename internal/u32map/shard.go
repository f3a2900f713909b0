package u32map

// Shard is a worker-private, append-only staging arena for parallel
// builds. Each build worker appends the coded tables it constructs onto
// its own shard (amortized growth, no per-table allocations), recording
// shard-local offsets; a deterministic merge pass then rebases every
// table into its final position in a shared Arena with CopyFromShard.
// Tables arrive coded, and every offset inside a coded table is local
// to it, so the merge is a plain copy. Like the arena it feeds, a shard
// stages per-entry distances on weighted builds.
//
// A Shard is not safe for concurrent use; the parallel-build contract
// is one shard per worker.
type Shard struct {
	Words []uint32
	Dists []uint32
}

// Append copies one coded table and its distances (nil on leveled
// builds) onto the end of the shard and returns the shard-local
// offsets of its first word and first distance.
func (s *Shard) Append(words, dists []uint32) (wOff, eOff uint32) {
	wOff, eOff = uint32(len(s.Words)), uint32(len(s.Dists))
	s.Words = append(s.Words, words...)
	s.Dists = append(s.Dists, dists...)
	return wOff, eOff
}

// CopyFromShard rebases one staged table — dst.WLen words at
// shard-local offset wOff and, on weighted arenas, dst.ELen distances
// at eOff — into the arena's arrays at dst. The destination ranges must
// already be allocated; disjoint destination ranges may be copied
// concurrently, which is how a merge pass stitches many shards into one
// arena in parallel.
func (a *Arena) CopyFromShard(dst Range, s *Shard, wOff, eOff uint32) {
	copy(a.Words[dst.WOff:dst.WOff+dst.WLen], s.Words[wOff:wOff+dst.WLen])
	if !a.Leveled {
		copy(a.Dists[dst.EOff:dst.EOff+dst.ELen], s.Dists[eOff:eOff+dst.ELen])
	}
}
