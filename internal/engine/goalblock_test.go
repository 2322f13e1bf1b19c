package engine_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
)

// kbSrc is the kcmd benchmark's "kb" program: a static list and
// queens library beside the dynamic item/2 that tenants assert into.
const kbSrc = `
:- dynamic(item/2).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
queens(N, Qs) :- range(1, N, Ns), solve(Ns, [], Qs).
range(N, N, [N]) :- !.
range(M, N, [M|Ns]) :- M < N, M1 is M + 1, range(M1, N, Ns).
solve([], Qs, Qs).
solve(Unplaced, Safe, Qs) :- sel(Q, Unplaced, R), safe(Q, Safe, 1), solve(R, [Q|Safe], Qs).
sel(X, [X|T], T).
sel(X, [H|T], [H|R]) :- sel(X, T, R).
safe(_, [], _).
safe(Q, [Q1|Qs], D) :- Q =\= Q1 + D, Q =\= Q1 - D, D1 is D + 1, safe(Q, Qs, D1).
`

// goalBlockAllocBound caps the host allocations of one warm tenant
// query whose goal text differs from the machine's previous one. About
// 70 are measured; the bound is twice that. A per-load re-analysis of
// the whole code image, which cost about 900 allocations a query on
// this program, breaks it.
const goalBlockAllocBound = 140

// TestGoalBlockLoadAllocs pins the cost of swapping the transient goal
// block on a warm pooled machine: one tenant alternates two goal
// texts on a pool of size 1, so every lease reuses the installed
// delta but loads a different goal block. The cost must scale with
// the goal, not with the image.
func TestGoalBlockLoadAllocs(t *testing.T) {
	db := seedDB(t, kbSrc).Clone()
	for k := 1; k <= 8; k++ {
		if _, err := db.Assertz(parse(t, fmt.Sprintf("item(%d, v%d)", k, 10*k))); err != nil {
			t.Fatal(err)
		}
	}
	pool := engine.New(engine.WithPoolSize(1))
	goals := [2]string{"item(3, X)", "item(5, X)"}
	want := [2]string{"v30", "v50"}
	ctx := context.Background()
	i := 0
	query := func() {
		g := i % 2
		i++
		s, err := pool.BeginDyn(ctx, db, parse(t, goals[g]))
		if err != nil {
			t.Fatalf("BeginDyn %q: %v", goals[g], err)
		}
		if !s.Next(ctx) {
			t.Fatalf("%q: no solution (%v)", goals[g], s.Err())
		}
		if v, _ := s.Solution().Binding("X"); v.String() != want[g] {
			t.Fatalf("%q: X = %v, want %s", goals[g], v, want[g])
		}
		s.Close()
	}
	// Warm the one machine and its delta before measuring.
	query()
	query()
	allocs := testing.AllocsPerRun(50, query)
	t.Logf("%.0f allocs per goal-block swap", allocs)
	if allocs > goalBlockAllocBound {
		t.Fatalf("%.0f allocs per tenant query with a new goal block, want <= %d",
			allocs, goalBlockAllocBound)
	}
}
