package store

import (
	"fmt"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/gen"
)

// TestDeltaVersusSnapshotAt50k measures what delta shipping buys at the
// 50k-node LiveJournal profile: bytes fetched and apply wall time for
// one churn batch via the delta path versus re-fetching the full
// snapshot. It is the acceptance measurement for the replicated tier,
// not a unit test — building the 50k oracle takes tens of seconds, so
// it only runs when VICINITY_50K=1 (the CI cluster step sets it).
func TestDeltaVersusSnapshotAt50k(t *testing.T) {
	if os.Getenv("VICINITY_50K") == "" {
		t.Skip("set VICINITY_50K=1 to run the 50k-profile replication cost measurement")
	}
	prof, err := gen.ProfileByName("livejournal")
	if err != nil {
		t.Fatal(err)
	}
	g := prof.Generate(50_000, 42)
	o, err := core.Build(g, core.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	n := uint32(g.NumNodes())
	writer := NewCatalog(o, RoleWriter)
	srv := httptest.NewServer(ReplHandler(writer))
	defer srv.Close()

	rep, err := Bootstrap(RoleReplica)
	if err != nil {
		t.Fatal(err)
	}
	r := &Replicator{Catalog: rep, Base: srv.URL}
	ctx := t.Context()

	if err := r.SyncOnce(ctx); err != nil {
		t.Fatalf("bootstrap sync: %v", err)
	}
	rs := rep.ReplStats()
	fullBytes, fullTime := rs.LastSyncBytes, time.Duration(rs.LastSyncNanos)

	// One churn batch: a single edge insertion between two late-arrival
	// (low-degree) nodes — the typical unit step of perfbench's churn
	// workload. A hub edge would instead ripple through thousands of
	// vicinities and dominate the apply-time comparison.
	if _, err := writer.Apply(core.Update{Edges: [][2]uint32{{n - 10, n - 3}}}); err != nil {
		t.Fatal(err)
	}
	if err := r.SyncOnce(ctx); err != nil {
		t.Fatalf("delta sync: %v", err)
	}
	rs = rep.ReplStats()
	if rs.DeltaSyncs == 0 {
		t.Fatalf("catch-up did not take the delta path: %+v", rs)
	}
	deltaBytes, deltaTime := rs.LastSyncBytes, time.Duration(rs.LastSyncNanos)

	fmt.Printf("50k profile replication cost: full snapshot %d bytes / %v apply, delta %d bytes / %v apply (%.0fx fewer bytes)\n",
		fullBytes, fullTime.Round(time.Millisecond), deltaBytes, deltaTime.Round(time.Millisecond),
		float64(fullBytes)/float64(deltaBytes))
	if deltaBytes*100 > fullBytes {
		t.Fatalf("delta fetch (%d bytes) is not measurably cheaper than the full snapshot (%d bytes)", deltaBytes, fullBytes)
	}
	if deltaTime >= fullTime {
		t.Fatalf("delta apply (%v) not cheaper than full snapshot apply (%v)", deltaTime, fullTime)
	}
}
