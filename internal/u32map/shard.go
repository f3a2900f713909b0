package u32map

// Shard is a worker-private, append-only staging arena for parallel
// builds. Each build worker appends the entry pairs of the tables it
// constructs onto its own shard (amortized growth, no per-table
// allocations), recording shard-local offsets; a deterministic merge
// pass then rebases every table into its final position in a shared
// Arena with CopyFromShard. Shards hold no slot indexes: slot ranges
// depend on final entry order and are built directly in the merged
// arena.
//
// A Shard is not safe for concurrent use; the parallel-build contract
// is one shard per worker.
type Shard struct {
	Keys  []uint32
	Dists []uint32
}

// Len returns the number of entries staged in the shard.
func (s *Shard) Len() uint32 { return uint32(len(s.Keys)) }

// Append copies the parallel key/dist pairs onto the end of the shard
// and returns the shard-local offset of the first appended entry. The
// two slices must have equal length.
func (s *Shard) Append(keys, dists []uint32) uint32 {
	off := uint32(len(s.Keys))
	s.Keys = append(s.Keys, keys...)
	s.Dists = append(s.Dists, dists...)
	return off
}

// CopyFromShard rebases n staged entries at shard-local offset off into
// the arena's entry arrays at offset dst. The destination range must
// already be allocated; disjoint destination ranges may be copied
// concurrently, which is how a merge pass stitches many shards into one
// arena in parallel.
func (a *Arena) CopyFromShard(dst uint32, s *Shard, off, n uint32) {
	copy(a.Keys[dst:dst+n], s.Keys[off:off+n])
	copy(a.Dists[dst:dst+n], s.Dists[off:off+n])
}
