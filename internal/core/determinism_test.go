package core

import (
	"bytes"
	"testing"

	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/xrand"
)

// oracleBytes serializes o with WriteOracle; byte equality of two
// serializations is the strongest equality the oracle defines (same
// arenas, same CSR ranges, same landmark tables, same options).
func oracleBytes(t *testing.T, o *Oracle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteOracle(&buf, o); err != nil {
		t.Fatalf("WriteOracle: %v", err)
	}
	return buf.Bytes()
}

// workerCounts is the matrix dimension every golden case is built
// under: sequential, small, odd (the workers split the nodes and the
// landmark batches unevenly), and more-workers-than-typical-cores.
var workerCounts = []int{1, 2, 3, 8}

// assertBuildDeterministic builds g under opts once per worker count
// and requires byte-identical serialized output.
func assertBuildDeterministic(t *testing.T, g *graph.Graph, opts Options) {
	t.Helper()
	opts.Workers = workerCounts[0]
	want := oracleBytes(t, mustBuild(t, g, opts))
	for _, w := range workerCounts[1:] {
		opts.Workers = w
		got := oracleBytes(t, mustBuild(t, g, opts))
		if !bytes.Equal(got, want) {
			t.Fatalf("build with %d workers differs from sequential build (%d vs %d bytes)",
				w, len(got), len(want))
		}
	}
}

// TestBuildDeterminismTableKinds is the golden determinism case for the
// vicinity layout, the only one: sorted, block-coded runs. The subtest
// keeps the name of the hash layout, which format version 4 retired.
func TestBuildDeterminismTableKinds(t *testing.T) {
	g := socialGraph(7, 400)
	t.Run("hash", func(t *testing.T) {
		assertBuildDeterministic(t, g, Options{Seed: 11})
	})
}

// TestBuildDeterminismOptionMatrix covers the build options that change
// what is stored, each under every worker count.
func TestBuildDeterminismOptionMatrix(t *testing.T) {
	g := socialGraph(9, 350)
	cases := map[string]Options{
		"defaults":          {Seed: 5},
		"compact-landmarks": {Seed: 5, Alpha: 1.5}, // four-bit rows are the default; more of them here
		"no-landmark-tabs":  {Seed: 5, DisableLandmarkTables: true},
		"alpha-2":           {Seed: 5, Alpha: 2},
		"sampling-uniform":  {Seed: 5, Sampling: SamplingUniform},
		"sampling-top":      {Seed: 5, Sampling: SamplingTop},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			assertBuildDeterministic(t, g, opts)
		})
	}
}

// TestBuildDeterminismPinnedLandmarks pins Options.Landmarks (the
// update path's rebuild mode) and a restricted build scope.
func TestBuildDeterminismPinnedLandmarks(t *testing.T) {
	g := socialGraph(13, 300)
	landmarks := []uint32{3, 77, 150, 299, 77} // duplicate on purpose
	assertBuildDeterministic(t, g, Options{Seed: 1, Landmarks: landmarks})

	// 130 landmarks fill three 64-source batches of the landmark stage
	// (64 + 64 + 2), which every worker count splits differently.
	perm := xrand.New(8).Perm(300)
	many := make([]uint32, 130)
	for i := range many {
		many[i] = uint32(perm[i])
	}
	assertBuildDeterministic(t, g, Options{Seed: 1, Landmarks: many})

	scope := make([]uint32, 0, 150)
	r := xrand.New(21)
	for len(scope) < 150 {
		scope = append(scope, r.Uint32n(300))
	}
	assertBuildDeterministic(t, g, Options{Seed: 1, Nodes: scope})
}

// TestBuildDeterminismWeighted covers the Dijkstra vicinity path.
func TestBuildDeterminismWeighted(t *testing.T) {
	r := xrand.New(33)
	b := graph.NewBuilder(250)
	base := gen.HolmeKim(xrand.New(17), 250, 3, 0.4)
	base.ForEachEdge(func(u, v, _ uint32) {
		b.AddWeightedEdge(u, v, 1+r.Uint32n(9))
	})
	assertBuildDeterministic(t, b.Build(), Options{Seed: 2})
}

// TestSaveOmitsWorkerCount: the serialized form must not embed the
// execution parallelism — a file written on an 8-core machine must be
// byte-identical to one written on a laptop. The loaded oracle then
// picks its own default for update repairs.
func TestSaveOmitsWorkerCount(t *testing.T) {
	g := socialGraph(3, 200)
	a := oracleBytes(t, mustBuild(t, g, Options{Seed: 9, Workers: 1}))
	b := oracleBytes(t, mustBuild(t, g, Options{Seed: 9, Workers: 7}))
	if !bytes.Equal(a, b) {
		t.Fatal("serialized oracle embeds the worker count")
	}
	o, err := ReadOracle(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("ReadOracle: %v", err)
	}
	if o.Options().Workers <= 0 {
		t.Fatalf("loaded oracle Workers = %d, want a usable default", o.Options().Workers)
	}
}

// TestLoadSaveStable: loading a serialized oracle and re-serializing it
// reproduces the same bytes (no hidden state drifts through a
// round-trip of the coded layout).
func TestLoadSaveStable(t *testing.T) {
	g := socialGraph(5, 300)
	t.Run("hash", func(t *testing.T) {
		want := oracleBytes(t, mustBuild(t, g, Options{Seed: 4}))
		o, err := ReadOracle(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("ReadOracle: %v", err)
		}
		if got := oracleBytes(t, o); !bytes.Equal(got, want) {
			t.Fatal("save→load→save is not byte-stable")
		}
	})
}
