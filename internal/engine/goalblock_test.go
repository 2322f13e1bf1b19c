package engine_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
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

// smallGoals are the four goal texts of the kcmd benchmark's small
// workload: two single-shot nrev queries, a member enumeration and an
// app enumeration.
var smallGoals = [4]string{
	"nrev([31,7,88,2,64,19,53,70,11,45,96,28], R)",
	"nrev([5,77,40,13,92,61,8,34,26,83,50,17], R)",
	"member(X, [q,w,e,r,t])",
	"app(X, Y, [4,81,36,9,67,22,58,90,15])",
}

// TestSeedLeaseAllocs: serving a goal as a cached block over the
// program's seed database costs no more host allocations than serving
// it from its own whole-program image. One machine alternates the four
// small-workload goals either way, so every lease swaps goal code.
func TestSeedLeaseAllocs(t *testing.T) {
	ctx := context.Background()
	prog := core.MustLoad(kbSrc)
	static := engine.New(engine.WithPoolSize(1))
	var images [len(smallGoals)]*asm.Image
	seed := seedDB(t, kbSrc)
	served := engine.New(engine.WithPoolSize(1))
	var goals [len(smallGoals)]*engine.Goal
	for i, text := range smallGoals {
		im, err := prog.CompileQuery(text + ".")
		if err != nil {
			t.Fatal(err)
		}
		images[i] = im
		if goals[i], err = engine.CompileGoal(seed, parse(t, text)); err != nil {
			t.Fatal(err)
		}
	}
	run := func(lease func(i int) (*engine.Session, error)) float64 {
		i := 0
		query := func() {
			g := i % len(smallGoals)
			i++
			s, err := lease(g)
			if err != nil {
				t.Fatalf("%q: %v", smallGoals[g], err)
			}
			if !s.Next(ctx) {
				t.Fatalf("%q: no solution (%v)", smallGoals[g], s.Err())
			}
			s.Close()
		}
		for range smallGoals {
			query()
		}
		return testing.AllocsPerRun(100, query)
	}
	want := run(func(i int) (*engine.Session, error) { return static.Begin(ctx, images[i]) })
	got := run(func(i int) (*engine.Session, error) { return served.Lease(ctx, seed, goals[i], nil) })
	t.Logf("%.1f allocs per seed lease, %.1f per whole-program Begin", got, want)
	if got > want+4 {
		t.Fatalf("%.1f allocs per seed lease, want <= %.1f (whole-program Begin) + 4", got, want)
	}
}

// TestLeaseWarmBuildsComplement: with WithWarm, the first lease of a
// base image builds the image's full machine complement, so no later
// lease builds a machine under load.
func TestLeaseWarmBuildsComplement(t *testing.T) {
	seed := seedDB(t, kbSrc)
	pool := engine.New(engine.WithPoolSize(3), engine.WithWarm(true))
	s, err := pool.BeginDyn(context.Background(), seed, parse(t, "member(X, [a])"))
	if err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Built != 3 || st.InUse != 1 {
		t.Fatalf("during the first lease: %+v, want 3 built, 1 in use", st)
	}
	s.Close()
}
