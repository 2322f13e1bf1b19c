package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/dyndb"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/reader"
	"repro/internal/term"
	"repro/internal/wire"
)

// Databases and goals. Each program lazily compiles one shared base
// image (static predicates compiled, dynamic predicates as stubs) and
// one seed database holding the source's initial dynamic clauses;
// every tenant name clones the seed into a private copy-on-write
// delta, and a request naming no tenant runs against the seed itself.
// A goal is compiled once per program and text into a block linked
// above whichever delta a lease installs. Every goal and thousands of
// tenants therefore share one boot image and one machine complement —
// only the clauses a tenant asserts are its own.

// dynProg is one program's serving state.
type dynProg struct {
	seed    *dyndb.DB
	tenants map[string]*dyndb.DB
	goals   map[string]*engine.Goal // at most goalCacheCap
}

// dynFor returns (building on first use) the program's serving state.
func (s *Server) dynFor(program string) (*dynProg, error) {
	program, prog, err := s.resolveProgram(program)
	if err != nil {
		return nil, err
	}
	s.dynMu.Lock()
	defer s.dynMu.Unlock()
	if dp, ok := s.dynProgs[program]; ok {
		return dp, nil
	}
	im, ds, err := prog.BaseImage()
	if err != nil {
		return nil, fmt.Errorf("program %q: %w", program, err)
	}
	seed, err := dyndb.New(im, ds.Order)
	if err != nil {
		return nil, fmt.Errorf("program %q: %w", program, err)
	}
	for _, pi := range ds.Order {
		if cls := ds.Clauses[pi]; len(cls) > 0 {
			if _, err := seed.Reload(pi, cls); err != nil {
				return nil, fmt.Errorf("program %q: seeding %v: %w", program, pi, err)
			}
		}
	}
	dp := &dynProg{seed: seed, tenants: map[string]*dyndb.DB{}, goals: map[string]*engine.Goal{}}
	s.dynProgs[program] = dp
	return dp, nil
}

// tenantDB returns the program's serving state and the tenant's
// database, cloning the program seed on first sight of the tenant
// name. The empty tenant names the seed, which no write reaches.
func (s *Server) tenantDB(program, tenant string) (*dynProg, *dyndb.DB, error) {
	dp, err := s.dynFor(program)
	if err != nil {
		return nil, nil, err
	}
	if tenant == "" {
		return dp, dp.seed, nil
	}
	s.dynMu.Lock()
	defer s.dynMu.Unlock()
	db, ok := dp.tenants[tenant]
	if !ok {
		db = dp.seed.Clone()
		dp.tenants[tenant] = db
	}
	return dp, db, nil
}

// goal returns the program's compiled goal for text, compiling it on a
// miss. A miss on a full cache evicts an arbitrary goal first.
func (s *Server) goal(dp *dynProg, text string) (*engine.Goal, error) {
	s.dynMu.Lock()
	g, ok := dp.goals[text]
	s.dynMu.Unlock()
	if ok {
		return g, nil
	}
	t, err := parseGoal(text)
	if err != nil {
		return nil, err
	}
	if g, err = engine.CompileGoal(dp.seed, t); err != nil {
		return nil, err
	}
	s.dynMu.Lock()
	defer s.dynMu.Unlock()
	if len(dp.goals) >= goalCacheCap {
		for k := range dp.goals {
			delete(dp.goals, k)
			break
		}
	}
	dp.goals[text] = g
	return g, nil
}

// lease leases a session for a goal text over the program's database
// for tenant, resuming the parked session in blob if it is not nil.
func (s *Server) lease(ctx context.Context, program, tenant, text string, blob []byte, budget uint64) (*engine.Session, error) {
	dp, db, err := s.tenantDB(program, tenant)
	if err != nil {
		return nil, err
	}
	g, err := s.goal(dp, text)
	if err != nil {
		return nil, err
	}
	return s.pool.Lease(ctx, db, g, blob, engine.WithBudget(s.clampBudget(budget)))
}

// dynStats counts the live tenant databases and the cached goals
// across programs and sums the tenants' code tails, for stats.
func (s *Server) dynStats() (n int, code wire.TenantCode, goals int) {
	s.dynMu.Lock()
	defer s.dynMu.Unlock()
	for _, dp := range s.dynProgs {
		goals += len(dp.goals)
		for _, db := range dp.tenants {
			cs := db.CodeStats()
			code.LiveWords += cs.LiveWords
			code.TailWords += cs.TailWords
			code.Compactions += cs.Compactions
			n++
		}
	}
	return n, code, goals
}

// parseGoal reads one goal term, tolerating a missing terminator.
func parseGoal(text string) (term.Term, error) {
	if !strings.HasSuffix(strings.TrimSpace(text), ".") {
		text += " ."
	}
	goal, err := reader.ParseTerm(text)
	if err != nil {
		return nil, fmt.Errorf("goal: %w", err)
	}
	return goal, nil
}

// parseClause reads one clause term for assert/retract.
func parseClause(text string) (term.Term, error) {
	if strings.TrimSpace(text) == "" {
		return nil, fmt.Errorf("empty clause")
	}
	if !strings.HasSuffix(strings.TrimSpace(text), ".") {
		text += " ."
	}
	cl, err := reader.ParseTerm(text)
	if err != nil {
		return nil, fmt.Errorf("clause: %w", err)
	}
	return cl, nil
}

// mutationStatus maps a clause-store rejection onto an HTTP code:
// client mistakes (static target, malformed clause, bad code) are
// unprocessable, everything else is internal.
func mutationStatus(err error) int {
	var ce *machine.CodeError
	if errors.Is(err, dyndb.ErrStaticPred) || errors.Is(err, dyndb.ErrBadClause) || errors.As(err, &ce) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// handleAssert adds a clause to a tenant database. The machines are
// untouched here: pooled machines pick the new version up on their
// next lease.
func (s *Server) handleAssert(w http.ResponseWriter, r *http.Request) {
	var req wire.AssertRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorReply(errTableClosed))
		return
	}
	if req.Tenant == "" {
		writeJSON(w, http.StatusBadRequest, errorReply(fmt.Errorf("assert needs a tenant")))
		return
	}
	cl, err := parseClause(req.Clause)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply(err))
		return
	}
	_, db, err := s.tenantDB(req.Program, req.Tenant)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply(err))
		return
	}
	var version uint64
	if req.Front {
		version, err = db.Asserta(cl)
	} else {
		version, err = db.Assertz(cl)
	}
	if err != nil {
		writeJSON(w, mutationStatus(err), errorReply(err))
		return
	}
	writeJSON(w, http.StatusOK, wire.Reply{Status: wire.StatusYes, Version: version})
}

// handleRetract removes the first variant-equal clause from a tenant
// database; Status "no" reports that nothing matched.
func (s *Server) handleRetract(w http.ResponseWriter, r *http.Request) {
	var req wire.RetractRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorReply(errTableClosed))
		return
	}
	if req.Tenant == "" {
		writeJSON(w, http.StatusBadRequest, errorReply(fmt.Errorf("retract needs a tenant")))
		return
	}
	cl, err := parseClause(req.Clause)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply(err))
		return
	}
	_, db, err := s.tenantDB(req.Program, req.Tenant)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply(err))
		return
	}
	ok, version, err := db.Retract(cl)
	if err != nil {
		writeJSON(w, mutationStatus(err), errorReply(err))
		return
	}
	status := wire.StatusNo
	if ok {
		status = wire.StatusYes
	}
	writeJSON(w, http.StatusOK, wire.Reply{Status: status, Version: version})
}
