// Command kcmlint enforces repository-local invariants that go vet
// does not know about. It is built on the standard library's go/parser
// and go/ast alone (no type checker), so every check is syntactic and
// deliberately conservative:
//
//   - sentinel errors (package-level `ErrXxx` variables) must be
//     matched with errors.Is, never compared with == or !=: wrapped
//     errors make identity comparison silently wrong;
//   - the machine's fetch-execute loops, steps and stepsTraced, must
//     not allocate: no append/make/new calls, composite literals,
//     closures, or go/defer statements inside their bodies — an
//     allocation there shows up in every cycle of every benchmark;
//   - every switch over trace.Kind must either carry a default clause
//     or enumerate all Kind constants: the event vocabulary grows, and
//     a sink that silently drops unknown kinds corrupts analyses
//     downstream;
//   - a function holding both an http.ResponseWriter parameter and a
//     pooled machine (a .Begin/.Lease/.Acquire call) must release the machine
//     with a non-deferred .Close/.Release before touching the writer:
//     a slow client must never hold a machine hostage, so handlers
//     delegate to writer-free run functions (the kcmd discipline).
//
// Usage:
//
//	kcmlint [dir]...
//
// With no arguments it lints the tree rooted at the current
// directory. Findings are printed one per line as file:line:col:
// message; the exit status is 1 when anything was found.
package main

import (
	"fmt"
	"os"
)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	var all []finding
	for _, root := range roots {
		fs, err := lintTree(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kcmlint: %v\n", err)
			os.Exit(2)
		}
		all = append(all, fs...)
	}
	for _, f := range all {
		fmt.Printf("%s: %s\n", f.pos, f.msg)
	}
	if len(all) > 0 {
		os.Exit(1)
	}
}
