package core

import (
	"context"
	"sync"
	"testing"

	"vicinity/internal/gen"
	"vicinity/internal/xrand"
)

// batchBenchOracle builds the 50k-node LiveJournal-profile oracle the
// acceptance criterion is measured on, shared across benchmarks.
var batchBenchOracle = sync.OnceValue(func() *Oracle {
	g := gen.ProfileLiveJournal.Generate(50000, 42)
	o, err := Build(g, Options{Seed: 42})
	if err != nil {
		panic(err)
	}
	return o
})

// batchBenchQueries returns sources with 100 targets each. With
// resolvedOnly, targets are restricted to pairs the stored tables
// answer — the social-search ranking shape, where candidates are nearby
// nodes (friends-of-friends); otherwise targets are uniform random, a
// mix whose unresolved tail pays one identical bidirectional search on
// both the batch and the per-pair path.
func batchBenchQueries(b *testing.B, o *Oracle, batches int, resolvedOnly bool) (ss []uint32, tss [][]uint32) {
	b.Helper()
	n := uint32(o.Graph().NumNodes())
	r := xrand.New(7)
	for i := 0; i < batches; i++ {
		s := r.Uint32n(n)
		ts := make([]uint32, 0, 100)
		for len(ts) < 100 {
			t := r.Uint32n(n)
			if resolvedOnly {
				_, m, err := queryDist(o, s, t)
				if err != nil {
					b.Fatal(err)
				}
				if !m.Resolved() {
					continue
				}
			}
			ts = append(ts, t)
		}
		ss = append(ss, s)
		tss = append(tss, ts)
	}
	return ss, tss
}

// benchBatches answers the prepared batches with one-to-many Queries.
func benchBatches(b *testing.B, o *Oracle, ss []uint32, tss [][]uint32) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(ss)
		if _, err := o.Query(context.Background(), Request{S: ss[k], Ts: tss[k]}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSingles answers the same batches with per-pair Queries.
func benchSingles(b *testing.B, o *Oracle, ss []uint32, tss [][]uint32) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(ss)
		for _, t := range tss[k] {
			if _, _, err := queryDist(o, ss[k], t); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRankingMany100 is the acceptance benchmark: 100-candidate
// rankings (table-resolved targets) answered by one Query each; compare
// against BenchmarkRankingSingle100 (the bar is ≥ 3×).
func BenchmarkRankingMany100(b *testing.B) {
	o := batchBenchOracle()
	ss, tss := batchBenchQueries(b, o, 64, true)
	benchBatches(b, o, ss, tss)
}

// BenchmarkRankingSingle100 answers the same rankings pair by pair.
func BenchmarkRankingSingle100(b *testing.B) {
	o := batchBenchOracle()
	ss, tss := batchBenchQueries(b, o, 64, true)
	benchSingles(b, o, ss, tss)
}

// BenchmarkMixedMany100 is the uniform-random mix (≈38% of pairs fall
// back to a bidirectional search at this scale, a cost identical on
// both paths — the batch win concentrates in the resolved share).
func BenchmarkMixedMany100(b *testing.B) {
	o := batchBenchOracle()
	ss, tss := batchBenchQueries(b, o, 64, false)
	benchBatches(b, o, ss, tss)
}

// BenchmarkMixedSingle100 answers the same mixed batches pair by pair.
func BenchmarkMixedSingle100(b *testing.B) {
	o := batchBenchOracle()
	ss, tss := batchBenchQueries(b, o, 64, false)
	benchSingles(b, o, ss, tss)
}
