package server

import (
	"context"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// One query path: every goal text is a cached goal block over the
// program's one base image, served on the program's one machine set.

// TestDistinctGoalsBounded sends 1000 distinct goal texts — single-shot
// queries, next-driven enumerations, streams and enumerations parked
// to disk and resumed — and checks /v1/stats after every request: one
// image, at most the pool's two machines, and a goal cache within its
// capacity, however many goal texts the daemon has seen.
func TestDistinctGoalsBounded(t *testing.T) {
	srv, err := New(Config{
		Programs:    map[string]string{"lists": testSrc},
		PoolOptions: []engine.PoolOption{engine.WithPoolSize(2)},
		StateDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()
	bounded := func(i int, what string) {
		t.Helper()
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Pool.Images > 1 || st.Pool.Built > 2 || st.Goals > goalCacheCap {
			t.Fatalf("goal %d, after %s: %d images, %d machines, %d cached goals; want <= 1, 2, %d",
				i, what, st.Pool.Images, st.Pool.Built, st.Goals, goalCacheCap)
		}
	}
	// drive follows an enumeration with next to its end and returns
	// the X bindings it delivered.
	drive := func(i int, rep wire.Reply, err error) []string {
		t.Helper()
		var xs []string
		for err == nil && rep.Status == wire.StatusYes {
			xs = append(xs, rep.Bindings["X"])
			bounded(i, "next")
			rep, err = c.Next(ctx, rep.Session, 0)
		}
		if err != nil || rep.Status != wire.StatusNo {
			t.Fatalf("goal %d: enumeration ended %+v %v", i, rep, err)
		}
		return xs
	}
	for i := 0; i < 1000; i++ {
		switch i % 4 {
		case 0:
			rep, err := c.Query(ctx, wire.QueryRequest{Goal: fmt.Sprintf("nrev([%d, a, b], R).", i)})
			if want := fmt.Sprintf("[b,a,%d]", i); err != nil || rep.Bindings["R"] != want {
				t.Fatalf("goal %d: %+v %v, want R = %s", i, rep, err, want)
			}
			bounded(i, "query")
		case 1:
			rep, err := c.Query(ctx, wire.QueryRequest{Goal: fmt.Sprintf("member(X, [a, %d]).", i), Enumerate: true})
			if xs := drive(i, rep, err); strings.Join(xs, ",") != fmt.Sprintf("a,%d", i) {
				t.Fatalf("goal %d: enumerated %v", i, xs)
			}
		case 2:
			var xs []string
			rep, err := c.Stream(ctx, wire.QueryRequest{Goal: fmt.Sprintf("app(X, _, [%d, z]).", i)},
				func(line wire.Reply) bool {
					xs = append(xs, line.Bindings["X"])
					return true
				})
			if err != nil || rep.Status != wire.StatusDone || strings.Join(xs, " ") != fmt.Sprintf("[] [%d] [%d,z]", i, i) {
				t.Fatalf("goal %d: stream %v, end %+v %v", i, xs, rep, err)
			}
			bounded(i, "stream")
		case 3:
			rep, err := c.Query(ctx, wire.QueryRequest{Goal: fmt.Sprintf("member(X, [%d, b]).", i), Enumerate: true})
			if err != nil || rep.Status != wire.StatusYes {
				t.Fatalf("goal %d: %+v %v", i, rep, err)
			}
			bounded(i, "enumerate")
			park, err := c.Suspend(ctx, rep.Session)
			if err != nil || park.Status != wire.StatusParked {
				t.Fatalf("goal %d: suspend %+v %v", i, park, err)
			}
			rep, err = c.Resume(ctx, wire.ResumeRequest{Handle: park.Handle})
			if err != nil || rep.Status != wire.StatusSuspended {
				t.Fatalf("goal %d: resume %+v %v", i, rep, err)
			}
			bounded(i, "resume")
			rep, err = c.Next(ctx, rep.Session, 0)
			if xs := drive(i, rep, err); strings.Join(xs, ",") != "b" {
				t.Fatalf("goal %d: resumed enumeration %v", i, xs)
			}
		}
	}
	if ps := srv.pool.Stats(); ps.InUse != 0 {
		t.Fatalf("machines still leased: %+v", ps)
	}
}

// TestGoalTextCap: a goal text over maxGoalBytes is refused with a 413
// error reply, streamed or not, before it is parsed or compiled; a
// normal query afterwards is served as usual.
func TestGoalTextCap(t *testing.T) {
	srv, err := New(Config{
		Programs:    map[string]string{"lists": testSrc},
		PoolOptions: []engine.PoolOption{engine.WithPoolSize(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	prefix := "member(X, [a"
	goal := prefix + strings.Repeat(",a", (maxGoalBytes-len(prefix))/2) + "])."
	if len(goal) <= maxGoalBytes {
		t.Fatalf("goal of %d bytes is not over the cap", len(goal))
	}
	for _, stream := range []bool{false, true} {
		rep, code := postRaw(t, ts.URL, "/v1/query", wire.QueryRequest{Goal: goal, Stream: stream})
		if code != http.StatusRequestEntityTooLarge || rep.Status != wire.StatusError ||
			!strings.Contains(rep.Error, "goal text exceeds") {
			t.Fatalf("stream=%v: http %d %+v, want 413 error reply", stream, code, rep)
		}
	}
	c := client.New(ts.URL)
	st, err := c.Stats(context.Background())
	if err != nil || st.Goals != 0 {
		t.Fatalf("stats after refusals: %+v %v, want no cached goal", st, err)
	}
	if rep, err := c.Query(context.Background(), wire.QueryRequest{Goal: "member(X, [a])."}); err != nil || rep.Bindings["X"] != "a" {
		t.Fatalf("query after refusals: %+v %v", rep, err)
	}
}

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

// answer is one reply of an enumeration: bindings, then the
// cumulative instruction and inference counts (the final reply of an
// exhausted search has no bindings).
type answer struct {
	bindings           map[string]string
	instrs, inferences uint64
}

// TestStaticGoalCounterParity: a goal served over HTTP as a block over
// the kb program's seed database gives the same solutions, and the
// same simulated instruction and inference counts after every one,
// as the goal compiled with the whole program (CompileQuery) and run
// on its own image. Cycles may differ: the goal's code sits at other
// addresses, so it meets the code cache differently.
func TestStaticGoalCounterParity(t *testing.T) {
	ctx := context.Background()
	prog := core.MustLoad(kbSrc)
	pool := engine.New(engine.WithPoolSize(1))
	_, c := startServer(t, Config{
		Programs:    map[string]string{"kb": kbSrc},
		PoolOptions: []engine.PoolOption{engine.WithPoolSize(1)},
	})
	for _, goal := range []string{
		"nrev([31,7,88,2,64,19,53,70,11,45,96,28], R).",
		"member(X, [q,w,e,r,t]).",
		"app(X, Y, [4,81,36,9,67,22,58,90,15]).",
		"queens(8, [3|Qs]).",
	} {
		im, err := prog.CompileQuery(goal)
		if err != nil {
			t.Fatal(err)
		}
		s, err := pool.Begin(ctx, im)
		if err != nil {
			t.Fatal(err)
		}
		var want []answer
		for s.Next(ctx) {
			b := map[string]string{}
			for name, v := range s.Solution().Bindings() {
				b[name] = v.String()
			}
			res := s.Solution().Result
			want = append(want, answer{b, res.Stats.Instrs, res.Stats.Inferences})
		}
		if s.Err() != nil {
			t.Fatalf("%s: reference: %v", goal, s.Err())
		}
		res := s.Result()
		want = append(want, answer{nil, res.Stats.Instrs, res.Stats.Inferences})
		s.Close()

		var got []answer
		rep, err := c.Query(ctx, wire.QueryRequest{Program: "kb", Goal: goal, Enumerate: true})
		for err == nil && rep.Status == wire.StatusYes {
			got = append(got, answer{rep.Bindings, rep.Stats.Instructions, rep.Stats.Inferences})
			rep, err = c.Next(ctx, rep.Session, 0)
		}
		if err != nil || rep.Status != wire.StatusNo {
			t.Fatalf("%s: served enumeration ended %+v %v", goal, rep, err)
		}
		got = append(got, answer{nil, rep.Stats.Instructions, rep.Stats.Inferences})
		if len(got) != len(want) {
			t.Fatalf("%s: %d replies served, want %d", goal, len(got), len(want))
		}
		for i := range want {
			if !maps.Equal(got[i].bindings, want[i].bindings) ||
				got[i].instrs != want[i].instrs || got[i].inferences != want[i].inferences {
				t.Fatalf("%s: reply %d served %+v, want %+v", goal, i, got[i], want[i])
			}
		}
		t.Logf("%s: %d solutions, %d instructions", goal, len(want)-1, want[len(want)-1].instrs)
	}
}
