package engine_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/dyndb"
	"repro/internal/engine"
)

// Pooled machines across a tenant tail compaction. A machine that last
// served the tenant carries a view of the old layout; the next lease
// must re-install the delta from the boot mark instead of topping it up.

// writeUntilCompacted asserts fresh color/1 facts, retracting the
// oldest whenever more than keep are live, until the tenant's tail has
// been re-laid once more, and returns the live facts in chain order.
func writeUntilCompacted(t *testing.T, db *dyndb.DB, live []string, keep int) []string {
	t.Helper()
	c0 := db.CodeStats().Compactions
	for i := 0; db.CodeStats().Compactions == c0; i++ {
		if i > 1000 {
			t.Fatalf("no compaction after %d writes: %+v", i, db.CodeStats())
		}
		f := fmt.Sprintf("c%d", db.Version())
		if _, err := db.Assertz(parse(t, "color("+f+")")); err != nil {
			t.Fatal(err)
		}
		live = append(live, f)
		if len(live) > keep {
			if ok, _, err := db.Retract(parse(t, "color("+live[0]+")")); err != nil || !ok {
				t.Fatalf("retract %s: ok=%v err=%v", live[0], ok, err)
			}
			live = live[1:]
		}
	}
	return live
}

func TestPooledMachineAcrossCompaction(t *testing.T) {
	seed := seedDB(t, tenantSrc)
	pool := engine.New(engine.WithPoolSize(1))
	db := seed.Clone()
	var live []string
	for round := 0; round < 4; round++ {
		// The only machine serves the tenant, then the tenant's tail is
		// re-laid under it.
		if got := collect(t, pool, db, "likes(X)"); strings.Join(got, " ") != strings.Join(live, " ") {
			t.Fatalf("round %d before compaction: %v, want %v", round, got, live)
		}
		live = writeUntilCompacted(t, db, live, 6+4*round)
		if got := collect(t, pool, db, "likes(X)"); strings.Join(got, " ") != strings.Join(live, " ") {
			t.Fatalf("round %d after compaction: %v, want %v", round, got, live)
		}
		if got := collect(t, pool, db, "app([1], [2], X)"); len(got) != 1 || got[0] != "[1,2]" {
			t.Fatalf("round %d static predicate: %v", round, got)
		}
	}
	// Then the other hazard: the machine served a short tail, and the
	// tenant's chain grows until a re-layout is longer than that tail.
	// A top-up would load only the words above the old frontier.
	synced := db.CodeStats()
	for cs := synced; cs.Compactions == synced.Compactions || cs.TailWords <= synced.TailWords; cs = db.CodeStats() {
		if len(live) > 500 {
			t.Fatalf("tail never outgrew the synced frontier: %+v vs %+v", cs, synced)
		}
		f := fmt.Sprintf("c%d", db.Version())
		if _, err := db.Assertz(parse(t, "color("+f+")")); err != nil {
			t.Fatal(err)
		}
		live = append(live, f)
	}
	if got := collect(t, pool, db, "likes(X)"); strings.Join(got, " ") != strings.Join(live, " ") {
		t.Fatalf("after a re-layout past the frontier: %d solutions, want %d", len(got), len(live))
	}
	if st := pool.Stats(); st.InUse != 0 || st.Built != 1 {
		t.Fatalf("pool after compactions: %+v, want one machine, none in use", st)
	}
}

// TestParkedBlobStaleAcrossCompaction: a tenant session parked before
// a compacting write resumes with ErrStaleDelta, and the tenant keeps
// answering afterwards.
func TestParkedBlobStaleAcrossCompaction(t *testing.T) {
	seed := seedDB(t, tenantSrc)
	pool := engine.New(engine.WithPoolSize(1))
	db := seed.Clone()
	live := []string{"red", "green", "blue"}
	for _, c := range live {
		if _, err := db.Assertz(parse(t, "color("+c+")")); err != nil {
			t.Fatal(err)
		}
	}
	goal := parse(t, "likes(X)")
	s, err := pool.BeginDyn(context.Background(), db, goal)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Next(context.Background()) {
		t.Fatalf("first solution: %v", s.Err())
	}
	blob, err := s.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	live = writeUntilCompacted(t, db, live, 3)
	if _, err := resume(t, pool, db, goal, blob); !errors.Is(err, engine.ErrStaleDelta) {
		t.Fatalf("resume across compaction: %v, want ErrStaleDelta", err)
	}
	if got := collect(t, pool, db, "likes(X)"); strings.Join(got, " ") != strings.Join(live, " ") {
		t.Fatalf("after refused resume: %v, want %v", got, live)
	}
}

// TestCompactionRace runs readers of one tenant on a small pool while
// a writer cycles the tenant's facts through many compactions. Each
// read sees one consistent version: a run of consecutive facts.
func TestCompactionRace(t *testing.T) {
	seed := seedDB(t, tenantSrc)
	pool := engine.New(engine.WithPoolSize(2))
	db := seed.Clone()
	const writes, band, readers = 300, 8, 3
	goal := parse(t, "color(X)")
	done := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s, err := pool.BeginDyn(context.Background(), db, goal)
				if err != nil {
					errs <- err
					return
				}
				prev := -1
				for s.Next(context.Background()) {
					v, _ := s.Solution().Binding("X")
					var k int
					if _, err := fmt.Sscanf(v.String(), "c%d", &k); err != nil || (prev >= 0 && k != prev+1) {
						errs <- fmt.Errorf("read saw %v after c%d", v, prev)
						s.Close()
						return
					}
					prev = k
				}
				err = s.Err()
				s.Close()
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	writeErr := func() error {
		for k := 0; k < writes; k++ {
			if _, err := db.Assertz(parse(t, fmt.Sprintf("color(c%d)", k))); err != nil {
				return err
			}
			if k >= band {
				if ok, _, err := db.Retract(parse(t, fmt.Sprintf("color(c%d)", k-band))); err != nil || !ok {
					return fmt.Errorf("retract c%d: ok=%v err=%v", k-band, ok, err)
				}
			}
		}
		return nil
	}()
	close(done)
	wg.Wait()
	close(errs)
	if writeErr != nil {
		t.Fatal(writeErr)
	}
	for err := range errs {
		t.Error(err)
	}
	if cs := db.CodeStats(); cs.Compactions < 10 {
		t.Fatalf("writer compacted only %d times", cs.Compactions)
	}
	if st := pool.Stats(); st.InUse != 0 {
		t.Fatalf("InUse=%d after the race, want 0", st.InUse)
	}
}
