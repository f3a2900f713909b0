package vicinity_test

import (
	"context"
	"errors"
	"fmt"
	"time"

	"vicinity"
)

// Example builds an oracle over a small fixed graph and queries it.
func Example() {
	g := vicinity.NewGraph(6, [][2]uint32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0},
	})
	oracle, err := vicinity.Build(g, &vicinity.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	d, _, err := oracle.Distance(0, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("d(0,3) =", d)
	// Output:
	// d(0,3) = 3
}

// ExampleOracle_ApplyUpdates shows the dynamic update path: the oracle
// absorbs a new user and new friendships without rebuilding, while
// staying exact.
func ExampleOracle_ApplyUpdates() {
	// A 6-cycle: 0-1-2-3-4-5-0.
	g := vicinity.NewGraph(6, [][2]uint32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0},
	})
	oracle, err := vicinity.Build(g, &vicinity.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	d, _, _ := oracle.Distance(0, 3)
	fmt.Println("before:", d)

	// A chord 0-3 and a new node 6 attached to 3, in one batch.
	err = oracle.ApplyUpdates(vicinity.Update{
		AddNodes: 1,
		Edges:    [][2]uint32{{0, 3}, {6, 3}},
	})
	if err != nil {
		panic(err)
	}
	d, _, _ = oracle.Distance(0, 3)
	fmt.Println("after chord:", d)
	d, _, _ = oracle.Distance(0, 6)
	fmt.Println("to new node:", d)
	// Output:
	// before: 3
	// after chord: 1
	// to new node: 2
}

// ExampleOracle_DeleteEdge removes an edge and shows the repaired
// oracle rerouting around it; a second delete of the same edge fails
// with ErrEdgeNotFound.
func ExampleOracle_DeleteEdge() {
	// A 6-cycle with a chord: 0-1-2-3-4-5-0 plus 0-3.
	g := vicinity.NewGraph(6, [][2]uint32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3},
	})
	oracle, err := vicinity.Build(g, &vicinity.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	d, _, _ := oracle.Distance(0, 3)
	fmt.Println("with chord:", d)

	if err := oracle.DeleteEdge(0, 3); err != nil {
		panic(err)
	}
	d, _, _ = oracle.Distance(0, 3)
	fmt.Println("chord deleted:", d)

	err = oracle.DeleteEdge(0, 3)
	fmt.Println("deleting again:", errors.Is(err, vicinity.ErrEdgeNotFound))
	// Output:
	// with chord: 1
	// chord deleted: 3
	// deleting again: true
}

// ExampleOracle_InsertEdge inserts one edge at a time.
func ExampleOracle_InsertEdge() {
	g := vicinity.GenerateSocial(1000, 8, 42)
	oracle, err := vicinity.Build(g, nil)
	if err != nil {
		panic(err)
	}
	id, err := oracle.AddNode()
	if err != nil {
		panic(err)
	}
	if err := oracle.InsertEdge(id, 0); err != nil {
		panic(err)
	}
	d, _, _ := oracle.Distance(id, 0)
	fmt.Println("new node at distance", d)
	// Output:
	// new node at distance 1
}

// ExampleOracle_Query_ranking ranks a candidate set by distance from
// one source — the paper's "social search" shape — in a single
// one-to-many Query.
func ExampleOracle_Query_ranking() {
	g := vicinity.NewGraph(7, [][2]uint32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {2, 6},
	})
	oracle, err := vicinity.Build(g, &vicinity.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	res, err := oracle.Query(context.Background(), vicinity.Request{S: 0, Ts: []uint32{3, 6, 1}})
	if err != nil {
		panic(err)
	}
	for i, t := range []uint32{3, 6, 1} {
		fmt.Printf("d(0,%d) = %d\n", t, res.Items[i].Dist)
	}
	// Output:
	// d(0,3) = 3
	// d(0,6) = 3
	// d(0,1) = 1
}

// ExampleOracle_Query shows the request-scoped v2 API: one call carries
// the deadline, a fallback node budget, per-query policy and the
// want-path flag, and failures come back as a typed taxonomy usable
// with errors.Is.
func ExampleOracle_Query() {
	g := vicinity.NewGraph(6, [][2]uint32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0},
	})
	oracle, err := vicinity.Build(g, &vicinity.Options{Seed: 1})
	if err != nil {
		panic(err)
	}

	// A serving stack answers within a deadline: the context is honored
	// inside the fallback search loop, and table-resolved queries (62%
	// of uniform pairs on the 50,000-node benchmark graph) never notice
	// it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res, err := oracle.Query(ctx, vicinity.Request{
		S: 0, T: 3,
		Policy:   vicinity.PolicyFull, // exact answer even if tables miss
		Budget:   10_000,              // ... but never expand more than 10k nodes
		WantPath: true,
	})
	switch {
	case errors.Is(err, vicinity.ErrBudgetExceeded), errors.Is(err, vicinity.ErrCanceled):
		// Degraded: res.Dist is still the best-known upper bound.
		fmt.Println("bound:", res.Dist)
	case err != nil:
		panic(err)
	default:
		fmt.Printf("d(0,3) = %d via %v, path %v, epoch %d\n",
			res.Dist, res.Method, res.Path, res.Epoch)
	}
	// Output:
	// d(0,3) = 3 via landmark-target, path [0 1 2 3], epoch 0
}

// ExampleOracle_Query_kShortest asks one query for ranked alternative
// routes: Request.K > 1 enumerates up to K loopless shortest paths in
// canonical order (distance, then length, then lexicographic). Fewer
// than K may exist — the 6-cycle below has exactly two simple routes
// between opposite nodes, so K = 3 returns both and stops.
func ExampleOracle_Query_kShortest() {
	g := vicinity.NewGraph(6, [][2]uint32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0},
	})
	oracle, err := vicinity.Build(g, &vicinity.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	res, err := oracle.Query(context.Background(), vicinity.Request{
		S: 0, T: 3,
		K: 3, // up to three ranked loopless alternatives
	})
	if err != nil {
		panic(err)
	}
	for i, alt := range res.Paths {
		fmt.Printf("k=%d dist=%d path=%v\n", i+1, alt.Dist, alt.Path)
	}
	// Output:
	// k=1 dist=3 path=[0 1 2 3]
	// k=2 dist=3 path=[0 5 4 3]
}
