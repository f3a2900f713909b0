// Command churnverify proves a churned oracle file is byte-identical to
// a from-scratch build. It loads a saved oracle (typically one that
// lived through a long sequence of insertions, deletions, and weight
// changes via POST /v1/admin/update, then was serialized with POST
// /v1/admin/save), rebuilds a fresh oracle on the embedded final graph
// with the same options and pinned landmarks, and compares the two
// serialized forms byte for byte.
//
// Usage:
//
//	go run ./tools/churnverify -in churned.vco              # verify in-process
//	go run ./tools/churnverify -in churned.vco -out fresh.vco
//
// With -out, the fresh rebuild is also written to disk so an external
// `cmp churned.vco fresh.vco` can double-check the verdict — the form
// the CI end-to-end churn step uses. Every oracle qualifies: it stores
// distances only and derives path hops from them, so nothing in the
// file depends on the order repairs ran in.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"vicinity/internal/core"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "churnverify:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("churnverify", flag.ContinueOnError)
	in := fs.String("in", "", "churned oracle file to verify (required)")
	out := fs.String("out", "", "also write the fresh rebuild here for an external cmp")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}

	churned, err := core.LoadOracleFile(*in)
	if err != nil {
		return fmt.Errorf("load %s: %w", *in, err)
	}
	// Pin the landmarks: the repair invariant is "identical to a fresh
	// build with the SAME landmark set", not "with a re-sampled one".
	opts := churned.Options()
	opts.Landmarks = churned.Landmarks()
	fresh, err := core.Build(churned.Graph(), opts)
	if err != nil {
		return fmt.Errorf("fresh build: %w", err)
	}

	var churnedBytes, freshBytes bytes.Buffer
	if err := core.WriteOracle(&churnedBytes, churned); err != nil {
		return err
	}
	if err := core.WriteOracle(&freshBytes, fresh); err != nil {
		return err
	}
	if *out != "" {
		if err := core.SaveOracleFile(*out, fresh); err != nil {
			return fmt.Errorf("save %s: %w", *out, err)
		}
	}
	if !bytes.Equal(churnedBytes.Bytes(), freshBytes.Bytes()) {
		return fmt.Errorf("%s (%d bytes) differs from a fresh build (%d bytes) on the same graph+landmarks",
			*in, churnedBytes.Len(), freshBytes.Len())
	}
	fmt.Printf("ok: %s is byte-identical to a fresh build (%d bytes, %d nodes)\n",
		*in, churnedBytes.Len(), churned.Graph().NumNodes())
	return nil
}
