package core

import (
	"testing"

	"vicinity/internal/xrand"
)

// benchPairs returns query pairs whose answers resolve from the stored
// tables (no fallback search), isolating the table-probe hot path.
func benchResolvedPairs(b *testing.B, o *Oracle, n uint32, want Method) [][2]uint32 {
	b.Helper()
	r := xrand.New(3)
	pairs := make([][2]uint32, 0, 1024)
	for len(pairs) < 1024 {
		s, t := r.Uint32n(n), r.Uint32n(n)
		_, m, err := queryDist(o, s, t)
		if err != nil {
			b.Fatal(err)
		}
		if m == want {
			pairs = append(pairs, [2]uint32{s, t})
		}
	}
	return pairs
}

// BenchmarkQueryIntersection measures the boundary-scan intersection
// case (Algorithm 1 lines 5-9), the layout-sensitive hot path.
func BenchmarkQueryIntersection(b *testing.B) {
	g := socialGraph(2, 10000)
	o, err := Build(g, Options{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	pairs := benchResolvedPairs(b, o, 10000, MethodIntersection)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&1023]
		if _, _, err := queryDist(o, p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryIntersectionLarge is the intersection case at social
// scale: 150k nodes and 8k distinct query pairs, so tables are not
// cache resident and the layout's memory behavior dominates.
func BenchmarkQueryIntersectionLarge(b *testing.B) {
	g := socialGraph(2, 150000)
	o, err := Build(g, Options{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(3)
	pairs := make([][2]uint32, 0, 8192)
	for len(pairs) < 8192 {
		s, t := r.Uint32n(150000), r.Uint32n(150000)
		_, m, err := queryDist(o, s, t)
		if err != nil {
			b.Fatal(err)
		}
		if m == MethodIntersection {
			pairs = append(pairs, [2]uint32{s, t})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&8191]
		if _, _, err := queryDist(o, p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryVicinityHit measures the direct t ∈ Γ(s) case.
func BenchmarkQueryVicinityHit(b *testing.B) {
	g := socialGraph(2, 10000)
	o, err := Build(g, Options{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	pairs := benchResolvedPairs(b, o, 10000, MethodVicinitySource)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&1023]
		if _, _, err := queryDist(o, p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}
