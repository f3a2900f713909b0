package u32map

// Shard is a worker-private, append-only staging arena for parallel
// builds. Each build worker appends the entries of the tables it
// constructs onto its own shard (amortized growth, no per-table
// allocations), recording shard-local offsets; a deterministic merge
// pass then rebases every table into its final position in a shared
// Arena with CopyFromShard. Tables arrive with their runs already
// sorted, so the merge is a plain copy. Like the arena it feeds, a
// shard stages per-table run starts, plus per-entry distances on
// weighted builds.
//
// A Shard is not safe for concurrent use; the parallel-build contract
// is one shard per worker.
type Shard struct {
	Keys   []uint32
	Dists  []uint32
	Levels []uint32
}

// Len returns the number of entries staged in the shard.
func (s *Shard) Len() uint32 { return uint32(len(s.Keys)) }

// Append copies one table's keys, distances (nil on leveled builds) and
// run starts onto the end of the shard and returns the shard-local
// offsets of its first entry and first run start. dists, when given,
// must be as long as keys.
func (s *Shard) Append(keys, dists, levels []uint32) (eOff, lOff uint32) {
	eOff, lOff = uint32(len(s.Keys)), uint32(len(s.Levels))
	s.Keys = append(s.Keys, keys...)
	s.Dists = append(s.Dists, dists...)
	s.Levels = append(s.Levels, levels...)
	return eOff, lOff
}

// CopyFromShard rebases one staged table — dst.ELen entries at
// shard-local offset eOff and dst.LLen run starts at lOff — into the
// arena's entry and level arrays at dst. The destination ranges must
// already be allocated; disjoint destination ranges may be copied
// concurrently, which is how a merge pass stitches many shards into one
// arena in parallel.
func (a *Arena) CopyFromShard(dst Range, s *Shard, eOff, lOff uint32) {
	copy(a.Keys[dst.EOff:dst.EOff+dst.ELen], s.Keys[eOff:eOff+dst.ELen])
	if !a.Leveled {
		copy(a.Dists[dst.EOff:dst.EOff+dst.ELen], s.Dists[eOff:eOff+dst.ELen])
	}
	copy(a.Levels[dst.LOff:dst.LOff+dst.LLen], s.Levels[lOff:lOff+dst.LLen])
}
