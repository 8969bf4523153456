// Command koalalint mechanically enforces the repo's determinism and
// hot-path invariants: the claim that summaries are byte-identical across
// serial, parallel, streaming and multi-node execution holds only while no
// deterministic package reads the wall clock, iterates maps where order
// matters, draws unseeded randomness, or allocates on the event hot path. Reviewers used to hold those rules; this tool holds them at
// lint time, on every path, covered config or not.
//
// Usage:
//
//	go run ./tools/koalalint ./...
//	go run ./tools/koalalint -list
//
// It exits 1 when any analyzer reports a diagnostic, 2 on usage or load
// errors. The analyzers, their scopes and the //koalalint:ordered and
// //koalalint:alloc escape hatches are documented in docs/determinism.md.
//
// The checker is built on tools/koalalint/lint, a stdlib-only frame in the
// shape of golang.org/x/tools/go/analysis (the module deliberately has no
// dependencies, so the real multichecker is not available). It loads
// packages with `go list -deps` and type-checks them — standard library
// included — from source, so `go run ./tools/koalalint` needs nothing but
// the toolchain.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/tools/koalalint/analyzers"
	"repro/tools/koalalint/lint"
)

func main() {
	list := flag.Bool("list", false, "print the analyzers and their docs, then exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: koalalint [-list] [packages]\n\nAnalyzers: ")
		for i, a := range analyzers.All() {
			if i > 0 {
				fmt.Fprint(os.Stderr, ", ")
			}
			fmt.Fprint(os.Stderr, a.Name)
		}
		fmt.Fprintf(os.Stderr, "\n\nPackages default to ./... under the current directory.\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers.All() {
			fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
		}
		return
	}

	pkgs, err := lint.Load(".", flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags, err := lint.Run(pkgs, analyzers.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "koalalint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "koalalint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "koalalint: %d package(s) clean\n", len(pkgs))
}
