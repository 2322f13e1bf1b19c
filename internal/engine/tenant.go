package engine

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/dyndb"
	"repro/internal/machine"
	"repro/internal/snapshot"
	"repro/internal/term"
)

// Database leases: goal blocks over copy-on-write image sharing.
//
// Every dynamic database (internal/dyndb) layers a private delta —
// rebuilt predicate blocks plus retargeted call sites — above one
// immutable base image, and a goal arrives as a small block linked
// above that delta. The pool keys its machines by the shared base
// image, so N databases and any number of goal texts cost one image
// and one machine complement, not N of each: Lease takes any pooled
// machine and makes it the requesting database's by rolling back
// whatever delta the previous occupant left (restoring the boot
// frontier and patched words) and replaying the database's own delta
// above the base. A program's seed database — its initial clauses, no
// writes of its own — is leased the same way, so a plain query of the
// program is a tenant query with an empty delta.
//
// All delta writes are diff-aware (machine.LoadDyn/PatchDyn skip
// words already holding their value), so the lease protocol is cheap
// in the steady state: acquire prefers a machine that last served the
// same tenant, where an unchanged delta re-install touches nothing
// and the simulated caches stay warm — and even a tenant switch only
// rewrites the words where the two deltas actually differ from the
// base.

// dynState tracks what a pooled machine currently carries: the boot
// mark to roll back to, and the database (with the view version) whose
// delta is installed. It is only ever touched by the machine's current
// lessee; the map holding it is guarded by Pool.mu.
type dynState struct {
	mark machine.CodeMark
	db   *dyndb.DB
	view dyndb.View
}

// dynFor returns (creating on first lease) the machine's dynState.
// The machine must be leased by the caller, and must sit at its boot
// frontier on first call — both guaranteed by Lease: acquire builds
// machines, and release builds fault replacements, at the boot
// frontier.
func (p *Pool) dynFor(m *machine.Machine) *dynState {
	p.mu.Lock()
	st := p.dyn[m]
	p.mu.Unlock()
	if st != nil {
		return st
	}
	st = &dynState{mark: m.Snapshot()}
	p.mu.Lock()
	p.dyn[m] = st
	p.mu.Unlock()
	return st
}

// install brings a leased machine to the database's current version:
// a machine that last served the same tenant keeps its delta (the
// previous goal block is dropped and any blocks asserted since are
// topped up, unless the tenant's tail was compacted meanwhile), any
// other occupant is rolled back to the boot image first. On error the
// machine is scrubbed back to its boot state so it can serve the next
// lease.
func (p *Pool) install(m *machine.Machine, st *dynState, db *dyndb.DB) error {
	have := st.view
	if st.db != db {
		have = dyndb.View{}
	}
	view, err := db.Materialize(m, st.mark, have)
	if err != nil {
		p.scrub(m, st)
		return err
	}
	st.db, st.view = db, view
	return nil
}

// scrub returns a machine whose install failed midway to the boot
// image, forgetting the tenant association.
func (p *Pool) scrub(m *machine.Machine, st *dynState) {
	m.Rollback(st.mark)
	st.db = nil
	st.view = dyndb.View{}
}

// Goal is a goal compiled once for leases over a database's base
// image. Its code is linked per database view, above that view's
// delta; the Goal keeps the block it last linked, so a lease on an
// unchanged view neither compiles nor links. A Goal is safe for
// concurrent leases.
type Goal struct {
	mod *compiler.Module

	mu   sync.Mutex
	last linked
}

// linked is a goal block and the database view it was linked for. A
// database's version and layout epoch fix its entry table and code
// frontier, so they identify the view.
type linked struct {
	db             *dyndb.DB
	version, epoch uint64
	im             *asm.Image
}

// CompileGoal compiles goal for leases over db and its clones, which
// share db's symbol table.
func CompileGoal(db *dyndb.DB, goal term.Term) (*Goal, error) {
	mod, err := compiler.New(db.Syms()).CompileGoal(goal)
	if err != nil {
		return nil, err
	}
	return &Goal{mod: mod}, nil
}

// block returns the goal linked against view, a view of db, for
// loading at the view's frontier. The view's own entry table is used
// rather than the live database's, which may be mutating concurrently.
func (g *Goal) block(db *dyndb.DB, view dyndb.View) (*asm.Image, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if l := g.last; l.db == db && l.version == view.Version && l.epoch == view.Epoch {
		return l.im, nil
	}
	im, err := asm.LinkAt(g.mod, view.Top, view.Entries)
	if err != nil {
		return nil, err
	}
	g.last = linked{db: db, version: view.Version, epoch: view.Epoch, im: im}
	return im, nil
}

// Lease leases a pooled machine of db's base image for goal g: db's
// delta is installed over the shared image and g's block is loaded
// transiently above it. With blob nil the goal boots fresh. Otherwise
// blob is a session parked by Session.Suspend, restored on top: db
// must still be at the version the blob was parked from (else
// ErrStaleDelta), and the blob's image hash proves the reconstruction
// reproduced the code the session ran against. The session's Close
// leaves the delta in place, so the next lease of the same database on
// that machine reuses it for free.
func (p *Pool) Lease(ctx context.Context, db *dyndb.DB, g *Goal, blob []byte, options ...Option) (*Session, error) {
	o := applyOptions(options)
	var st *snapshot.State
	if blob != nil {
		var err error
		if st, err = decodeSession(blob); err != nil {
			return nil, err
		}
		if st.DeltaVersion == 0 {
			return nil, fmt.Errorf("engine: %w: snapshot was taken on a whole-program image; resume it with Resume",
				machine.ErrImageMismatch)
		}
		if got := db.Version(); st.DeltaVersion-1 != got {
			return nil, fmt.Errorf("%w: snapshot at version %d, database now %d",
				ErrStaleDelta, st.DeltaVersion-1, got)
		}
	}
	if p.autoWarm {
		if err := p.warmOnce(ctx, db.Image()); err != nil {
			return nil, err
		}
	}
	m, ip, err := p.acquire(ctx, db.Image(), db)
	if err != nil {
		return nil, err
	}
	ds := p.dynFor(m)
	m.Reset()
	if err := p.install(m, ds, db); err != nil {
		p.release(ip, m)
		return nil, err
	}
	// On any refusal below the machine drops the goal block (if loaded)
	// and goes back to the pool consistent at the delta frontier.
	refuse := func(err error) (*Session, error) {
		m.TruncateCode(ds.view.Top)
		p.release(ip, m)
		return nil, err
	}
	if st != nil && ds.view.Top != st.DeltaTop {
		// Same version but a different frontier can only mean the
		// database object is not the one the blob was parked from.
		return refuse(fmt.Errorf("%w: snapshot delta frontier %d, database view %d",
			ErrStaleDelta, st.DeltaTop, ds.view.Top))
	}
	qim, err := g.block(db, ds.view)
	if err != nil {
		return refuse(err)
	}
	if _, err := m.LoadDyn(qim.Code); err != nil {
		return refuse(err)
	}
	m.SetOut(o.out)
	if st != nil {
		if err := m.Restore(st); err != nil {
			return refuse(err)
		}
	} else {
		m.Begin(qim.Entries[compiler.QueryPI])
	}
	return p.newSession(ip, m, qim, o, st), nil
}

// BeginDyn compiles goal and leases it over db from a fresh boot: the
// Lease of a goal used once.
func (p *Pool) BeginDyn(ctx context.Context, db *dyndb.DB, goal term.Term, options ...Option) (*Session, error) {
	g, err := CompileGoal(db, goal)
	if err != nil {
		return nil, err
	}
	return p.Lease(ctx, db, g, nil, options...)
}
