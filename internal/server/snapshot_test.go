package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/wire"
)

// The cross-process acceptance test for session migration: a session
// parked to disk by one daemon instance and resumed by another (same
// programs, fresh pool, fresh machines) must continue byte-identically
// — same solutions, same simulated counters — against a session that
// was never suspended.

// postRaw sends one JSON request and returns the decoded reply with
// the HTTP status code (the client helper hides the code; the typed
// 409/410 assertions need it).
func postRaw(t *testing.T, base, path string, body any) (wire.Reply, int) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep wire.Reply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("%s: decode (http %d): %v", path, resp.StatusCode, err)
	}
	return rep, resp.StatusCode
}

// runReference enumerates goal to exhaustion on a throwaway daemon
// and returns the per-solution replies plus the terminal reply.
func runReference(t *testing.T, goal string) ([]wire.Reply, wire.Reply) {
	t.Helper()
	_, c := startServer(t, Config{
		PoolOptions: []engine.PoolOption{engine.WithPoolSize(1)},
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := c.Query(ctx, wire.QueryRequest{Goal: goal, Enumerate: true})
	if err != nil {
		t.Fatal(err)
	}
	var sols []wire.Reply
	for rep.Status == wire.StatusYes {
		sols = append(sols, rep)
		if rep, err = c.Next(ctx, rep.Session, 0); err != nil {
			t.Fatal(err)
		}
	}
	if rep.Status != wire.StatusNo {
		t.Fatalf("reference terminal: %+v", rep)
	}
	return sols, rep
}

// sameSolution compares the observable payload of two solution
// replies: bindings, solution ordinal, and every simulated counter.
func sameSolution(a, b wire.Reply) bool {
	if a.Solutions != b.Solutions || len(a.Bindings) != len(b.Bindings) {
		return false
	}
	for k, v := range a.Bindings {
		if b.Bindings[k] != v {
			return false
		}
	}
	if (a.Stats == nil) != (b.Stats == nil) {
		return false
	}
	return a.Stats == nil || *a.Stats == *b.Stats
}

// TestSuspendResumeAcrossRestart parks a mid-enumeration session to
// disk, drains the daemon, starts a NEW daemon over the same state
// directory, resumes the handle there, and checks the continuation is
// byte-identical to the never-suspended reference.
func TestSuspendResumeAcrossRestart(t *testing.T) {
	refSols, refEnd := runReference(t, longGoal)
	if len(refSols) != 3 {
		t.Fatalf("reference: %d solutions, want 3", len(refSols))
	}

	cfg := Config{
		PoolOptions: []engine.PoolOption{engine.WithPoolSize(1)},
		StateDir:    t.TempDir(),
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Daemon instance one: deliver the first solution, park to disk.
	srvA, cA := startServer(t, cfg)
	rep, err := cA.Query(ctx, wire.QueryRequest{Goal: longGoal, Enumerate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSolution(rep, refSols[0]) {
		t.Fatalf("first solution diverged before suspend:\n got %+v\nwant %+v", rep, refSols[0])
	}
	park, err := cA.Suspend(ctx, rep.Session)
	if err != nil {
		t.Fatal(err)
	}
	if park.Status != wire.StatusParked || park.Handle == "" || park.Solutions != 1 {
		t.Fatalf("suspend: %+v", park)
	}
	if ps := srvA.pool.Stats(); ps.InUse != 0 {
		t.Fatalf("suspend left a machine leased: %+v", ps)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := srvA.Drain(dctx); err != nil {
		t.Fatalf("drain A: %v", err)
	}

	// Daemon instance two: same programs and state dir, fresh pool.
	_, cB := startServer(t, cfg)
	res, err := cB.Resume(ctx, wire.ResumeRequest{Handle: park.Handle})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != wire.StatusSuspended || res.Session == "" || res.Solutions != 1 {
		t.Fatalf("resume: %+v", res)
	}
	// The snapshot is one-shot: consumed by the successful resume.
	if _, err := os.Stat(filepath.Join(cfg.StateDir, park.Handle+".snap")); !os.IsNotExist(err) {
		t.Fatalf("snapshot file not consumed: %v", err)
	}
	rep, err = cB.Next(ctx, res.Session, 0)
	for i := 1; i < len(refSols); i++ {
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolution(rep, refSols[i]) {
			t.Fatalf("solution %d after restart diverged:\n got %+v\nwant %+v", i, rep, refSols[i])
		}
		rep, err = cB.Next(ctx, rep.Session, 0)
	}
	if err != nil || rep.Status != wire.StatusNo || !sameSolution(rep, refEnd) {
		t.Fatalf("terminal after restart:\n got %+v %v\nwant %+v", rep, err, refEnd)
	}
}

// TestDrainParksSessionsToDisk: with a state directory, a drain does
// not run parked sessions to completion — it serializes each under
// its session id, and the next daemon resumes them byte-identically.
func TestDrainParksSessionsToDisk(t *testing.T) {
	refSols, refEnd := runReference(t, longGoal)
	cfg := Config{
		PoolOptions: []engine.PoolOption{engine.WithPoolSize(1)},
		StateDir:    t.TempDir(),
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	srvA, cA := startServer(t, cfg)
	// A budget-suspended session: zero solutions out, search mid-flight.
	rep, err := cA.Query(ctx, wire.QueryRequest{Goal: longGoal, Budget: 100})
	if err != nil || rep.Status != wire.StatusSuspended {
		t.Fatalf("park: %+v %v", rep, err)
	}
	id := rep.Session
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := srvA.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := os.Stat(filepath.Join(cfg.StateDir, id+".snap")); err != nil {
		t.Fatalf("drain did not park the session: %v", err)
	}
	if ps := srvA.pool.Stats(); ps.InUse != 0 {
		t.Fatalf("machines leaked across parking drain: %+v", ps)
	}

	_, cB := startServer(t, cfg)
	res, err := cB.Resume(ctx, wire.ResumeRequest{Handle: id})
	if err != nil || res.Status != wire.StatusSuspended {
		t.Fatalf("resume: %+v %v", res, err)
	}
	var got []wire.Reply
	rep, err = cB.Next(ctx, res.Session, 0)
	for err == nil && (rep.Status == wire.StatusYes || rep.Status == wire.StatusSuspended) {
		if rep.Status == wire.StatusYes {
			got = append(got, rep)
		}
		rep, err = cB.Next(ctx, rep.Session, 0)
	}
	if err != nil || rep.Status != wire.StatusNo {
		t.Fatalf("post-restart enumeration end: %+v %v", rep, err)
	}
	if len(got) != len(refSols) {
		t.Fatalf("post-restart solutions: %d, want %d", len(got), len(refSols))
	}
	for i := range got {
		if !sameSolution(got[i], refSols[i]) {
			t.Fatalf("solution %d diverged:\n got %+v\nwant %+v", i, got[i], refSols[i])
		}
	}
	if !sameSolution(rep, refEnd) {
		t.Fatalf("terminal counters diverged:\n got %+v\nwant %+v", rep, refEnd)
	}
}

// TestTenantSuspendResumeHTTP: tenant sessions park and resume within
// a daemon's lifetime, and a tenant mutation between park and resume
// is a 409 (the snapshot references a rebuilt delta).
func TestTenantSuspendResumeHTTP(t *testing.T) {
	_, c := startServer(t, Config{
		PoolOptions: []engine.PoolOption{engine.WithPoolSize(1)},
		StateDir:    t.TempDir(),
	})
	base := c.Base()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	for _, cl := range []string{"color(red)", "color(green)"} {
		if rep, err := c.Assert(ctx, wire.AssertRequest{Tenant: "t1", Clause: cl}); err != nil || rep.Status != wire.StatusYes {
			t.Fatalf("assert %s: %+v %v", cl, rep, err)
		}
	}
	q := wire.QueryRequest{Goal: "color(X).", Tenant: "t1", Enumerate: true}
	rep, err := c.Query(ctx, q)
	if err != nil || rep.Status != wire.StatusYes || rep.Bindings["X"] != "red" {
		t.Fatalf("tenant query: %+v %v", rep, err)
	}
	park, err := c.Suspend(ctx, rep.Session)
	if err != nil || park.Status != wire.StatusParked {
		t.Fatalf("tenant suspend: %+v %v", park, err)
	}
	res, err := c.Resume(ctx, wire.ResumeRequest{Handle: park.Handle})
	if err != nil || res.Status != wire.StatusSuspended {
		t.Fatalf("tenant resume: %+v %v", res, err)
	}
	if rep, err = c.Next(ctx, res.Session, 0); err != nil ||
		rep.Status != wire.StatusYes || rep.Bindings["X"] != "green" {
		t.Fatalf("tenant continuation: %+v %v", rep, err)
	}
	if _, err := c.Cancel(ctx, rep.Session); err != nil {
		t.Fatal(err)
	}

	// Park again, mutate the tenant, resume: stale delta, 409.
	rep, err = c.Query(ctx, q)
	if err != nil || rep.Status != wire.StatusYes {
		t.Fatalf("tenant query 2: %+v %v", rep, err)
	}
	park, err = c.Suspend(ctx, rep.Session)
	if err != nil || park.Status != wire.StatusParked {
		t.Fatalf("tenant suspend 2: %+v %v", park, err)
	}
	if rep, err = c.Assert(ctx, wire.AssertRequest{Tenant: "t1", Clause: "color(blue)"}); err != nil || rep.Status != wire.StatusYes {
		t.Fatalf("mutating assert: %+v %v", rep, err)
	}
	staleRep, code := postRaw(t, base, "/v1/resume", wire.ResumeRequest{Handle: park.Handle})
	if code != http.StatusConflict || staleRep.Status != wire.StatusError {
		t.Fatalf("stale resume: http %d %+v, want 409", code, staleRep)
	}
}

// TestDoneReasonsTyped is the satellite eviction-race fix's interface
// contract: a next on a session the client cancelled is 409; on one
// the server evicted or suspended to disk, 410 (the latter carrying
// the resume handle).
func TestDoneReasonsTyped(t *testing.T) {
	srv, c := startServer(t, Config{
		PoolOptions: []engine.PoolOption{engine.WithPoolSize(2)},
		IdleTimeout: 300 * time.Millisecond,
		StateDir:    t.TempDir(),
	})
	base := c.Base()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	park := func() string {
		rep, err := c.Query(ctx, wire.QueryRequest{Goal: longGoal, Budget: 100})
		if err != nil || rep.Status != wire.StatusSuspended {
			t.Fatalf("park: %+v %v", rep, err)
		}
		return rep.Session
	}

	// Cancelled: the client's own doing — 409, don't retry.
	id := park()
	if _, err := c.Cancel(ctx, id); err != nil {
		t.Fatal(err)
	}
	if rep, code := postRaw(t, base, "/v1/next", wire.NextRequest{Session: id}); code != http.StatusConflict {
		t.Fatalf("next after cancel: http %d %+v, want 409", code, rep)
	}
	if rep, code := postRaw(t, base, "/v1/cancel", wire.CancelRequest{Session: id}); code != http.StatusConflict {
		t.Fatalf("cancel after cancel: http %d %+v, want 409", code, rep)
	}

	// Suspended to disk: 410 with the resume handle.
	id = park()
	if rep, err := c.Suspend(ctx, id); err != nil || rep.Status != wire.StatusParked {
		t.Fatalf("suspend: %+v %v", rep, err)
	}
	if rep, code := postRaw(t, base, "/v1/next", wire.NextRequest{Session: id}); code != http.StatusGone || rep.Handle != id {
		t.Fatalf("next after suspend: http %d %+v, want 410 with handle", code, rep)
	}

	// Evicted: the janitor's doing — 410.
	id = park()
	deadline := time.Now().Add(10 * time.Second)
	for srv.sessions.active() != 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if rep, code := postRaw(t, base, "/v1/next", wire.NextRequest{Session: id}); code != http.StatusGone {
		t.Fatalf("next after evict: http %d %+v, want 410", code, rep)
	}

	// A session id the daemon never minted stays a plain 404.
	if rep, code := postRaw(t, base, "/v1/next", wire.NextRequest{Session: "0123456789abcdef"}); code != http.StatusNotFound {
		t.Fatalf("next on unknown: http %d %+v, want 404", code, rep)
	}
}

// TestEvictSuspendCancelRace hammers one session id from concurrent
// next, cancel and suspend requests while the janitor evicts on a
// short idle timeout: whatever interleaving wins, every response must be one
// of the typed outcomes — never a 5xx, never a transport error. Run
// under -race this is the regression test for the touch-then-evict
// atomicity and the done-reason protocol.
func TestEvictSuspendCancelRace(t *testing.T) {
	srv, c := startServer(t, Config{
		PoolOptions: []engine.PoolOption{engine.WithPoolSize(2)},
		IdleTimeout: 100 * time.Millisecond,
		StateDir:    t.TempDir(),
	})
	base := c.Base()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	allowed := map[int]bool{
		http.StatusOK:                  true,
		http.StatusNotFound:            true,
		http.StatusConflict:            true,
		http.StatusGone:                true,
		http.StatusUnprocessableEntity: true, // suspend lost to a terminal Next
	}
	for round := 0; round < 10; round++ {
		rep, err := c.Query(ctx, wire.QueryRequest{Goal: longGoal, Budget: 100})
		if err != nil || rep.Status != wire.StatusSuspended {
			t.Fatalf("round %d park: %+v %v", round, rep, err)
		}
		id := rep.Session
		var wg sync.WaitGroup
		errs := make(chan error, 6)
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				time.Sleep(time.Duration(i*20) * time.Millisecond)
				var code int
				var rep wire.Reply
				switch i % 3 {
				case 0:
					rep, code = postRaw(t, base, "/v1/next", wire.NextRequest{Session: id})
				case 1:
					rep, code = postRaw(t, base, "/v1/cancel", wire.CancelRequest{Session: id})
				default:
					rep, code = postRaw(t, base, "/v1/suspend", wire.SuspendRequest{Session: id})
				}
				if !allowed[code] {
					errs <- fmt.Errorf("round %d op %d: http %d %+v", round, i, code, rep)
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
	// However the races resolved, no machine may be stranded.
	deadline := time.Now().Add(10 * time.Second)
	for srv.sessions.active() != 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if ps := srv.pool.Stats(); ps.InUse != 0 {
		t.Fatalf("machines stranded after races: %+v", ps)
	}
}

// TestSuspendWithoutStateDir: the endpoints are 501 when the daemon
// has no state directory.
func TestSuspendWithoutStateDir(t *testing.T) {
	_, c := startServer(t, Config{
		PoolOptions: []engine.PoolOption{engine.WithPoolSize(1)},
	})
	base := c.Base()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := c.Query(ctx, wire.QueryRequest{Goal: longGoal, Budget: 100})
	if err != nil || rep.Status != wire.StatusSuspended {
		t.Fatalf("park: %+v %v", rep, err)
	}
	if rep2, code := postRaw(t, base, "/v1/suspend", wire.SuspendRequest{Session: rep.Session}); code != http.StatusNotImplemented {
		t.Fatalf("suspend without state dir: http %d %+v, want 501", code, rep2)
	}
	if rep2, code := postRaw(t, base, "/v1/resume", wire.ResumeRequest{Handle: "0123456789abcdef"}); code != http.StatusNotImplemented {
		t.Fatalf("resume without state dir: http %d %+v, want 501", code, rep2)
	}
	if _, err := c.Cancel(ctx, rep.Session); err != nil {
		t.Fatal(err)
	}
}
