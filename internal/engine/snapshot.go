package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/asm"
	"repro/internal/machine"
	"repro/internal/snapshot"
)

// Session park and resume: a suspended enumeration serialized to a
// snapshot blob, releasable to disk or another process, and resumed
// onto any pooled machine later — the BinProlog first-class-engine
// idea taken across the process boundary, and the mechanism behind
// kcmd sessions surviving a daemon restart.
//
// The blob embeds, besides the machine state, a small session block
// (enumeration phase, solutions delivered, step budget) and — for
// database leases — the database version the installed delta was
// materialized from. Resume and Lease re-create the code environment
// the same way a fresh session would (same image, same delta install,
// same goal block at the same frontier) and then prove it got the same
// bytes via the blob's image hash before any state is restored.

// Suspend/resume sentinel errors.
var (
	// ErrNotSuspendable reports a session whose enumeration has
	// already ended (exhausted, failed or faulted) — there is nothing
	// left to park.
	ErrNotSuspendable = errors.New("engine: session not suspendable")
	// ErrStaleDelta reports a resume against a tenant database that
	// has been mutated, reloaded or rolled back since the snapshot was
	// taken: the parked blob references a delta that no longer exists,
	// and restoring it would run stale code.
	ErrStaleDelta = errors.New("engine: tenant database changed since snapshot")
	// ErrNoSession reports a resume from a blob that carries bare
	// machine state with no session block.
	ErrNoSession = errors.New("engine: snapshot carries no session")
)

// Session-state values carried in the blob's session block. 0 is
// reserved for "no session" (a bare machine capture).
const (
	blobSessRun  = 1 // next step: RunFor (fresh or budget-suspended)
	blobSessRedo = 2 // a solution is out; Redo before the next RunFor
)

// Suspend serializes the session — machine state, enumeration phase,
// delivered count, budget, and the tenant delta version if any — into
// a snapshot blob and closes the session, releasing its machine back
// to the pool. The enumeration must still be live: mid-stream after a
// solution, budget-suspended, or not yet started. The blob can be
// resumed in this process or another with Resume or Lease.
func (s *Session) Suspend() ([]byte, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.state == sessDone || (s.err != nil && !s.ctxErr) {
		return nil, fmt.Errorf("%w: enumeration already ended", ErrNotSuspendable)
	}
	st, err := s.m.Capture()
	if err != nil {
		return nil, err
	}
	switch s.state {
	case sessRun:
		st.SessState = blobSessRun
	case sessRedo:
		st.SessState = blobSessRedo
	}
	st.SessDelivered = uint64(s.delivered)
	st.SessBudget = s.budget
	// Database leases record which delta version the machine's code
	// was materialized from, offset by one so zero stays unambiguously
	// "whole-program image, no delta".
	s.p.mu.Lock()
	ds := s.p.dyn[s.m]
	s.p.mu.Unlock()
	if ds != nil && ds.db != nil {
		st.DeltaVersion = ds.view.Version + 1
		st.DeltaTop = ds.view.Top
	}
	blob := snapshot.Encode(st)
	s.Close()
	return blob, nil
}

// decodeSession decodes a parked session blob.
func decodeSession(blob []byte) (*snapshot.State, error) {
	st, err := snapshot.Decode(blob)
	if err != nil {
		return nil, err
	}
	if st.SessState == 0 {
		return nil, ErrNoSession
	}
	return st, nil
}

// Resume restores a suspended whole-program session from a blob onto a
// pooled machine of im. The image must be the same compile the session
// was suspended from (the blob's content hash proves it); blobs parked
// from database leases are rejected — resume them with Lease. Options
// may override the parked step budget and output writer.
func (p *Pool) Resume(ctx context.Context, im *asm.Image, blob []byte, options ...Option) (*Session, error) {
	o := applyOptions(options)
	st, err := decodeSession(blob)
	if err != nil {
		return nil, err
	}
	if st.DeltaVersion != 0 {
		return nil, fmt.Errorf("engine: %w: snapshot was taken on a goal block over a database; resume it with Lease",
			machine.ErrImageMismatch)
	}
	m, ip, err := p.acquire(ctx, im, nil)
	if err != nil {
		return nil, err
	}
	m.Reset()
	m.SetOut(o.out)
	if err := m.Restore(st); err != nil {
		p.release(ip, m)
		return nil, err
	}
	return p.newSession(ip, m, im, o, st), nil
}
