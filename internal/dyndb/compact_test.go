package dyndb_test

import (
	"fmt"
	"testing"

	"repro/internal/dyndb"
	"repro/internal/machine"
)

// Tail compaction. A mutation that would leave more dead tail words
// than live ones plus dyndb.CompactFloor re-lays every live block from
// the base frontier and starts a new layout epoch. The tests here pin
// the bound, and the re-layout hazard: a machine synced before a
// compaction must be re-installed from its boot mark, never topped up
// incrementally across the new layout.

// churn asserts item(k) and retracts item(k-band) for k in [from, to),
// the steady write pattern of a tenant keeping a band of live facts;
// band 0 only asserts.
func churn(t *testing.T, db *dyndb.DB, from, to, band int) {
	t.Helper()
	for k := from; k < to; k++ {
		if _, err := db.Assertz(pt(t, fmt.Sprintf("item(%d, v%d)", k, k))); err != nil {
			t.Fatalf("assert %d: %v", k, err)
		}
		if band > 0 && k-band >= 0 {
			ok, _, err := db.Retract(pt(t, fmt.Sprintf("item(%d, v%d)", k-band, k-band)))
			if err != nil || !ok {
				t.Fatalf("retract %d: ok=%v err=%v", k-band, ok, err)
			}
		}
	}
}

// wantBand checks that the store enumerates exactly item(k) for k in
// [from, to).
func wantBand(t *testing.T, st *dyndb.Store, from, to int) {
	t.Helper()
	var want []string
	for k := from; k < to; k++ {
		want = append(want, fmt.Sprintf("K=%d", k))
	}
	wantSols(t, solve(t, st, "item(K, _)", 0), want...)
}

const itemSrc = `
:- dynamic(item/2).
count(K) :- item(K, _).
`

// TestTailBound drives 2000 writes over 4 tenants and checks, after
// every write, that a tenant's tail stays within twice its live code
// plus the floor. The bound is in words, so the test is deterministic.
func TestTailBound(t *testing.T) {
	seed := mustDB(t, itemSrc)
	const tenants, writes, band = 4, 2000, 16
	dbs := make([]*dyndb.DB, tenants)
	for i := range dbs {
		dbs[i] = seed.Clone()
	}
	next := make([]int, tenants)
	for w := 0; w < writes; w++ {
		i := w % tenants
		db := dbs[i]
		k := next[i]
		if w/tenants%2 == 0 {
			if _, err := db.Assertz(pt(t, fmt.Sprintf("item(%d, v%d)", k, k))); err != nil {
				t.Fatal(err)
			}
		} else if k >= band {
			if ok, _, err := db.Retract(pt(t, fmt.Sprintf("item(%d, v%d)", k-band, k-band))); err != nil || !ok {
				t.Fatalf("retract: ok=%v err=%v", ok, err)
			}
		}
		if w/tenants%2 == 1 {
			next[i]++
		}
		cs := db.CodeStats()
		if cs.TailWords > 2*cs.LiveWords+dyndb.CompactFloor {
			t.Fatalf("write %d, tenant %d: tail %d words > 2*%d live + %d",
				w, i, cs.TailWords, cs.LiveWords, dyndb.CompactFloor)
		}
	}
	for i, db := range dbs {
		if cs := db.CodeStats(); cs.Compactions == 0 {
			t.Fatalf("tenant %d never compacted: %+v", i, cs)
		}
		st, err := dyndb.NewStore(db, machine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		wantBand(t, st, max(0, next[i]-band), next[i])
	}
}

// TestCompactionReinstallsStore covers both ways an incremental top-up
// across a re-layout goes wrong. A store synced on a long tail meets
// a compaction that shrinks the tail below its frontier; and a store
// synced on a short tail meets a compaction followed by enough writes
// to grow the new tail past its old frontier, where a top-up would
// load only the words above it and run stale ones below.
func TestCompactionReinstallsStore(t *testing.T) {
	const band = 8
	db := mustDB(t, itemSrc)
	st, err := dyndb.NewStore(db, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Shrink: sync after every write; some writes compact below the
	// frontier the store was synced at.
	shrunk := false
	for k := 0; k < 60; k++ {
		before := db.CodeStats()
		churn(t, db, k, k+1, band)
		after := db.CodeStats()
		if after.Compactions > before.Compactions && after.TailWords < before.TailWords {
			shrunk = true
		}
		wantBand(t, st, max(0, k+1-band), k+1)
	}
	if !shrunk {
		t.Fatal("no compaction shrank the tail below a synced frontier")
	}

	// Grow: sync, then only assert, so the live chain grows, until a
	// compaction lays out a tail longer than the synced frontier.
	synced := db.CodeStats()
	k := 60
	for {
		churn(t, db, k, k+1, 0)
		k++
		cs := db.CodeStats()
		if cs.Compactions > synced.Compactions && cs.TailWords > synced.TailWords {
			break
		}
		if k > 300 {
			t.Fatalf("tail never outgrew the synced frontier: %+v vs %+v", cs, synced)
		}
	}
	wantBand(t, st, 60-band, k)
}

// TestCompactionMutualRecursion: two dynamic predicates calling each
// other, one declared on the fly, keep answering after their blocks
// are re-laid (the pass-2 link resolves forward calls in the new
// tail).
func TestCompactionMutualRecursion(t *testing.T) {
	st := mustStore(t, ":- dynamic(even/1).\n")
	db := st.DB()
	for _, c := range []string{"even(z)", "odd(s(X)) :- even(X)", "even(s(X)) :- odd(X)"} {
		if err := st.Assertz(pt(t, c)); err != nil {
			t.Fatalf("assertz %s: %v", c, err)
		}
	}
	check := func() {
		t.Helper()
		wantSols(t, solve(t, st, "even(s(s(s(s(z)))))", 0), "")
		wantSols(t, solve(t, st, "odd(s(s(s(z))))", 0), "")
		wantSols(t, solve(t, st, "even(s(z))", 0))
		wantSols(t, solve(t, st, "odd(X)", 2), "X=s(z)", "X=s(s(s(z)))")
	}
	check()
	// Rebuild each predicate again and again (assert then retract a
	// junk clause) until both have been re-laid twice.
	for i := 0; db.CodeStats().Compactions < 2; i++ {
		if i > 500 {
			t.Fatalf("no compaction after %d rebuilds: %+v", i, db.CodeStats())
		}
		for _, p := range []string{"even", "odd"} {
			junk := fmt.Sprintf("%s(junk%d)", p, i)
			if err := st.Assertz(pt(t, junk)); err != nil {
				t.Fatal(err)
			}
			if ok, err := st.Retract(pt(t, junk)); err != nil || !ok {
				t.Fatalf("retract %s: ok=%v err=%v", junk, ok, err)
			}
		}
		check()
	}
}
