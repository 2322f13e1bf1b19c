package dyndb_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dyndb"
	"repro/internal/machine"
	"repro/internal/reader"
)

// Property layer for the mutation path. FuzzAssertRetract checks the
// database against a trivially-correct model: a Go slice of clause
// texts per predicate, mutated by the same ordered assertz / asserta /
// retract rules. Whatever interleaving the fuzzer invents, the
// compiled, indexed, machine-executed chain must enumerate exactly
// the model's clauses in the model's order. FuzzMalformedClause feeds
// arbitrary terms through assert and pins the rejection contract:
// failures are typed (ErrStaticPred, ErrBadClause or a *CodeError),
// never a panic, and the machine still answers a control query after
// every rejection.

const fuzzSrc = `
:- dynamic(p/1).
:- dynamic(q/1).
peek(X) :- p(X).
`

// fuzzAtoms is the constant alphabet mutations draw from.
var fuzzAtoms = [8]string{"a", "b", "c", "d", "e", "f", "g", "h"}

// maxFuzzOps caps one fuzz input's walk. It is well above the number
// of mutations it takes the two chains to pile up enough dead tail
// words to compact (compactingOps does so in under 100), so the fuzzer
// explores interleavings on both sides of a re-layout.
const maxFuzzOps = 256

// compactingOps is a seed that crosses the compaction threshold: 96
// assertz ops alternating p and q over the whole alphabet.
var compactingOps = func() []byte {
	ops := make([]byte, 96)
	for i := range ops {
		ops[i] = byte(i%2) | byte(i%8)<<3
	}
	return ops
}()

// FuzzAssertRetract drives a random interleaving of assertz, asserta
// and retract over two predicates and checks, after every mutation,
// that enumeration matches the model database.
func FuzzAssertRetract(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x04, 0x05})             // assertz then retract on p
	f.Add([]byte{0x02, 0x0a, 0x12, 0x06, 0x04})       // asserta stack on p, retracts
	f.Add([]byte{0x01, 0x09, 0x11, 0x19, 0x05, 0x0d}) // q traffic
	f.Add([]byte{0x38, 0x30, 0x28, 0x20, 0x3c, 0x34})
	f.Add(compactingOps)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > maxFuzzOps {
			ops = ops[:maxFuzzOps]
		}
		runOps(t, ops)
	})
}

// runOps applies one op sequence to a fresh store, checking every
// step against the model, and returns the store.
func runOps(t *testing.T, ops []byte) *dyndb.Store {
	t.Helper()
	st := mustStore(t, fuzzSrc)
	model := map[string][]string{"p": nil, "q": nil}
	for i, op := range ops {
		pred := "p"
		if op&1 != 0 {
			pred = "q"
		}
		atom := fuzzAtoms[(op>>3)&7]
		clause := fmt.Sprintf("%s(%s)", pred, atom)
		switch (op >> 1) & 3 {
		case 0, 3: // assertz (3 keeps the op space dense)
			if err := st.Assertz(pt(t, clause)); err != nil {
				t.Fatalf("op %d: assertz %s: %v", i, clause, err)
			}
			model[pred] = append(model[pred], atom)
		case 1: // asserta
			if err := st.Asserta(pt(t, clause)); err != nil {
				t.Fatalf("op %d: asserta %s: %v", i, clause, err)
			}
			model[pred] = append([]string{atom}, model[pred]...)
		case 2: // retract first occurrence
			got, err := st.Retract(pt(t, clause))
			if err != nil {
				t.Fatalf("op %d: retract %s: %v", i, clause, err)
			}
			want := false
			for j, a := range model[pred] {
				if a == atom {
					model[pred] = append(model[pred][:j:j], model[pred][j+1:]...)
					want = true
					break
				}
			}
			if got != want {
				t.Fatalf("op %d: retract %s = %v, model says %v", i, clause, got, want)
			}
		}
		for _, p := range []string{"p", "q"} {
			want := make([]string, len(model[p]))
			for j, a := range model[p] {
				want[j] = "X=" + a
			}
			wantSols(t, solve(t, st, p+"(X)", 0), want...)
		}
	}
	// The rule over p/1 tracks too (indexing through a caller).
	want := make([]string, len(model["p"]))
	for j, a := range model["p"] {
		want[j] = "X=" + a
	}
	wantSols(t, solve(t, st, "peek(X)", 0), want...)
	return st
}

// FuzzMalformedClause asserts arbitrary fuzz-built terms into a
// database whose named predicates are all static, so every known-head
// clause is rejected and unknown heads exercise on-the-fly
// declaration. The invariants: no panic, every rejection is typed,
// and the store still answers a static control query afterwards.
func FuzzMalformedClause(f *testing.F) {
	f.Add("color(red)")
	f.Add(":- dynamic(z/1)")
	f.Add("42")
	f.Add("X")
	f.Add("zzz(X) :- no_such_pred(X)")
	f.Add("zzz(X) :- app(X, X, X)")
	f.Add("app(a, b)")
	f.Add("foo(") // parse failure
	f.Fuzz(func(t *testing.T, text string) {
		const src = `
color(white).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
`
		db := mustDB(t, src)
		st, err := dyndb.NewStore(db, machine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(strings.TrimSpace(text), ".") {
			text += " ."
		}
		cl, err := reader.ParseTerm(text)
		if err == nil {
			if err := st.Assertz(cl); err != nil {
				var ce *machine.CodeError
				if !errors.Is(err, dyndb.ErrStaticPred) &&
					!errors.Is(err, dyndb.ErrBadClause) &&
					!errors.As(err, &ce) {
					t.Fatalf("untyped rejection for %q: %v", text, err)
				}
			}
		}
		// Whatever happened, the machine still answers.
		wantSols(t, solve(t, st, "app([a], [b], R)", 0), "R=[a,b]")
	})
}

// TestFuzzSeedsAsUnitTests replays the seed corpus deterministically
// so the property layer runs on every plain `go test`, not only under
// -fuzz.
func TestFuzzSeedsAsUnitTests(t *testing.T) {
	st := mustStore(t, fuzzSrc)
	for _, op := range []string{"p(a)", "p(b)", "q(c)"} {
		if err := st.Assertz(pt(t, op)); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := st.Retract(pt(t, "p(a)")); err != nil || !ok {
		t.Fatalf("retract: %v %v", ok, err)
	}
	wantSols(t, solve(t, st, "p(X)", 0), "X=b")
	wantSols(t, solve(t, st, "q(X)", 0), "X=c")
	wantSols(t, solve(t, st, "peek(X)", 0), "X=b")

	// The compacting seed does re-lay the tail.
	if cs := runOps(t, compactingOps).DB().CodeStats(); cs.Compactions == 0 {
		t.Fatalf("compacting seed never compacted: %+v", cs)
	}
}
