package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/snapshot"
)

// Session is a first-class pooled query: a machine leased from the
// pool with a booted goal, enumerated one solution at a time and
// returned to the pool on Close. This is the BinProlog "first-class
// logic engine" shape — an engine is a server-side resource a client
// creates, runs, suspends and resumes — and it is what the kcmd
// network front-end parks in its session table between requests.
//
// The iteration protocol mirrors core.Solutions exactly:
//
//	s, err := pool.Begin(ctx, im, engine.WithBudget(100_000))
//	for s.Next(ctx) {
//	    use(s.Solution())
//	}
//	switch {
//	case s.Err() != nil:   // fault, cancellation or deadline
//	case s.Suspended():    // step budget ran out; Next resumes
//	default:               // enumeration exhausted
//	}
//	s.Close()
//
// Unlike core.Solutions, a context cancellation or deadline does NOT
// end the session: RunFor leaves the machine intact at a stride
// boundary, so the error is reported once through Err and the next
// Next call resumes the search — exactly what a per-request deadline
// over a long enumeration needs.
//
// A Session is not safe for concurrent use; callers multiplexing one
// session across goroutines (the kcmd session table) serialize access
// themselves.
type Session struct {
	p      *Pool
	ip     *imagePool
	m      *machine.Machine
	im     *asm.Image
	budget uint64

	cur       *core.Solution // last outcome (success or the final failure)
	err       error
	ctxErr    bool // err came from ctx: resumable, cleared on next Next
	suspended bool
	delivered int
	state     int
	closed    bool
	final     machine.Result // counters captured at Close
}

// Session states, mirroring core.Solutions.
const (
	sessRun  = iota // next step: RunFor (fresh goal or resumed slice)
	sessRedo        // a solution is out; Redo before the next RunFor
	sessDone        // exhausted, failed, or faulted
)

// ErrSessionClosed is returned through Session.Err by operations on a
// closed session.
var ErrSessionClosed = errors.New("engine: session closed")

// Begin leases a warm machine from the pool and boots the image's
// query on it without executing an instruction. The caller owns the
// returned session until Close, which releases the machine; the
// pool's acquire path provides admission control — Begin blocks when
// every machine is leased, until one is released or ctx ends.
func (p *Pool) Begin(ctx context.Context, im *asm.Image, options ...Option) (*Session, error) {
	o := applyOptions(options)
	entry, ok := im.Entry(compiler.QueryPI)
	if !ok {
		return nil, fmt.Errorf("engine: image has no query entry point")
	}
	if p.autoWarm {
		if err := p.warmOnce(ctx, im); err != nil {
			return nil, err
		}
	}
	m, ip, err := p.acquire(ctx, im, nil)
	if err != nil {
		return nil, err
	}
	m.Reset() // also clears any fault a previous query left behind
	m.SetOut(o.out)
	m.Begin(entry)
	return p.newSession(ip, m, im, o, nil), nil
}

// newSession wraps a leased machine, booted or restored from the
// parked session st, as a Session. Its step budget is the option's,
// else the parked session's, else the pool configuration's MaxSteps,
// else 1G instructions.
func (p *Pool) newSession(ip *imagePool, m *machine.Machine, im *asm.Image, o opts, st *snapshot.State) *Session {
	s := &Session{p: p, ip: ip, m: m, im: im, budget: o.budget}
	if st != nil {
		s.delivered = int(st.SessDelivered)
		if st.SessState == blobSessRedo {
			s.state = sessRedo
		}
		if s.budget == 0 {
			s.budget = st.SessBudget
		}
	}
	if s.budget == 0 {
		s.budget = p.cfg.MaxSteps
	}
	if s.budget == 0 {
		s.budget = 1_000_000_000
	}
	return s
}

// SetBudget replaces the per-slice step budget for subsequent Next
// calls (0 keeps the current budget). The kcmd next-solution verb uses
// it to let every request carry its own budget.
func (s *Session) SetBudget(n uint64) {
	if n > 0 {
		s.budget = n
	}
}

// Next advances the enumeration by at most one budget slice. It
// returns true with a new solution available from Solution, and false
// when the search is exhausted, failed, suspended on its step budget,
// interrupted by ctx, or faulted; check Suspended and Err to tell the
// cases apart. After a budget suspension or a ctx interruption,
// calling Next again resumes the search where it stopped.
func (s *Session) Next(ctx context.Context) bool {
	s.suspended = false
	if s.closed {
		s.err = ErrSessionClosed
		return false
	}
	if s.err != nil {
		if !s.ctxErr {
			return false
		}
		// A cancellation or deadline stopped RunFor at a stride
		// boundary with the machine intact; a fresh Next resumes.
		s.err, s.ctxErr = nil, false
	}
	if s.state == sessDone {
		return false
	}
	if s.state == sessRedo {
		if err := s.m.Redo(); err != nil {
			s.err = err
			s.state = sessDone
			return false
		}
		s.state = sessRun
	}
	st, err := s.m.RunFor(ctx, s.budget)
	if err != nil {
		s.err = err
		if errors.Is(err, machine.ErrCancelled) || errors.Is(err, machine.ErrDeadline) {
			s.ctxErr = true // session stays resumable
		} else {
			s.state = sessDone
		}
		return false
	}
	if st == machine.Suspended {
		s.suspended = true // state stays sessRun: Next resumes
		return false
	}
	res := s.m.Result()
	if !res.Success {
		s.cur = &core.Solution{Success: false, Result: res}
		s.state = sessDone
		return false
	}
	s.cur = &core.Solution{
		Success: true,
		// Read back before any release: the bindings live in this
		// machine's simulated memory (the term builder's slabs keep
		// earlier solutions valid after Close).
		Vars:   s.m.QueryBindings(s.im.QueryVars),
		Result: res,
	}
	s.delivered++
	s.state = sessRedo
	return true
}

// Solution returns the outcome of the last Next call that produced
// one: the current solution after Next reported true, or the final
// failed outcome (Success=false, counters populated) once the search
// is exhausted.
func (s *Session) Solution() *core.Solution { return s.cur }

// Suspended reports whether the last Next call stopped on its step
// budget rather than an outcome; the search resumes on the next Next.
func (s *Session) Suspended() bool { return s.suspended }

// Err returns the error the last Next call hit, if any. An error
// wrapping machine.ErrCancelled or machine.ErrDeadline is resumable
// (the next Next continues the search); any other error ends the
// session's enumeration.
func (s *Session) Err() error { return s.err }

// Delivered is how many solutions the session has produced.
func (s *Session) Delivered() int { return s.delivered }

// Result snapshots the machine counters accumulated since Begin —
// cumulative across the whole enumeration. After Close it returns the
// counters captured at close time.
func (s *Session) Result() machine.Result {
	if s.closed {
		return s.final
	}
	return s.m.Result()
}

// Close ends the session: the profile is harvested into the pool
// aggregate and the machine is released for the next query. The final
// counters stay readable through Result. Close is idempotent.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.final = s.m.Result()
	// Harvest before release on every path, as Pool.Query always did:
	// even a faulted enumeration's partial cycles are attributed.
	s.p.harvest(s.m)
	s.p.release(s.ip, s.m)
	s.m = nil
}
