package core

import (
	"context"
	"errors"
	"fmt"
)

// The query-facing error taxonomy. Every error the query surface
// returns wraps exactly one of these sentinels, so callers at any layer
// — public API, wire protocol, HTTP handlers, CLI exit codes — can
// branch with errors.Is instead of matching strings. ErrStaleSnapshot,
// ErrWeightedUpdate and ErrEdgeNotFound (update.go) complete the
// taxonomy on the mutation surface.
var (
	// ErrNodeRange reports a query node id >= NumNodes.
	ErrNodeRange = errors.New("core: query node out of range")

	// ErrNotCovered reports a query touching nodes outside the build
	// scope (Options.Nodes).
	ErrNotCovered = errors.New("core: node outside oracle build scope")

	// ErrUnreachable reports that no path exists between the endpoints.
	// The query engine itself reports unreachability in-band (NoDist +
	// MethodUnreachable, nil error), since "no path" is an exact answer;
	// this sentinel is the taxonomy entry clients and tools use when
	// they must surface it as an error (e.g. spquery's exit codes).
	ErrUnreachable = errors.New("core: no path between the endpoints")

	// ErrBudgetExceeded reports that a fallback search stopped at
	// Request.Budget node expansions. The accompanying Result still
	// carries the best-known upper bound (or NoDist if the frontiers
	// never met).
	ErrBudgetExceeded = errors.New("core: fallback search node budget exceeded")

	// ErrCanceled reports that the request context was canceled or its
	// deadline expired mid-query. It wraps the context's own error, so
	// errors.Is(err, context.DeadlineExceeded) also works.
	ErrCanceled = errors.New("core: query canceled")
)

// ErrorCode renders the taxonomy as stable snake_case codes — the one
// mapping every JSON-speaking surface (HTTP API, CLI output) shares,
// so a given failure reads identically everywhere. Unrecognized errors
// report "internal"; nil reports "".
func ErrorCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrNodeRange):
		return "node_range"
	case errors.Is(err, ErrNotCovered):
		return "not_covered"
	case errors.Is(err, ErrBudgetExceeded):
		return "budget_exceeded"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrStaleSnapshot):
		return "stale_snapshot"
	case errors.Is(err, ErrUnreachable):
		return "unreachable"
	case errors.Is(err, ErrWeightedUpdate):
		return "weighted_update"
	case errors.Is(err, ErrEdgeNotFound):
		return "edge_not_found"
	default:
		return "internal"
	}
}

// errRange builds the canonical out-of-range error for a graph of n
// nodes. The single-target and batch engines both use it, so a batch
// item and the single-target Query for the same pair return
// byte-identical errors.
func errRange(n int) error {
	return fmt.Errorf("%w: want [0,%d)", ErrNodeRange, n)
}

// errNotCovered builds the canonical uncovered-node error.
func errNotCovered(u uint32) error {
	return fmt.Errorf("%w: %d", ErrNotCovered, u)
}

// errBudget builds the budget-exhaustion error for one request.
func errBudget(budget int) error {
	return fmt.Errorf("%w (budget %d nodes)", ErrBudgetExceeded, budget)
}

// errCanceled wraps a context error into the taxonomy; errors.Is
// matches both ErrCanceled and the context sentinel.
func errCanceled(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}
