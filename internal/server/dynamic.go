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

// Multi-tenant dynamic databases. Each program lazily compiles one
// shared base image (static predicates compiled, dynamic predicates
// as stubs) and one seed database holding the source's initial
// dynamic clauses; every tenant name clones the seed into a private
// copy-on-write delta. Thousands of tenants therefore share one boot
// image and one machine complement — only the clauses a tenant
// asserts are its own.

// dynProg is one program's dynamic serving state.
type dynProg struct {
	seed    *dyndb.DB
	tenants map[string]*dyndb.DB
}

// dynFor returns (building on first use) the program's dynamic state.
// Building compiles the base image, which mutates the program's
// symbol table — serialized with the static image compiles via imgMu.
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
	s.imgMu.Lock()
	im, ds, err := prog.BaseImage()
	s.imgMu.Unlock()
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
	dp := &dynProg{seed: seed, tenants: map[string]*dyndb.DB{}}
	s.dynProgs[program] = dp
	return dp, nil
}

// tenantDB returns the tenant's database, cloning the program seed on
// first sight of the tenant name.
func (s *Server) tenantDB(program, tenant string) (*dyndb.DB, error) {
	dp, err := s.dynFor(program)
	if err != nil {
		return nil, err
	}
	s.dynMu.Lock()
	defer s.dynMu.Unlock()
	db, ok := dp.tenants[tenant]
	if !ok {
		db = dp.seed.Clone()
		dp.tenants[tenant] = db
	}
	return db, nil
}

// tenantStats counts the live tenant databases across programs and
// sums their code tails, for stats.
func (s *Server) tenantStats() (n int, code wire.TenantCode) {
	s.dynMu.Lock()
	defer s.dynMu.Unlock()
	for _, dp := range s.dynProgs {
		for _, db := range dp.tenants {
			cs := db.CodeStats()
			code.LiveWords += cs.LiveWords
			code.TailWords += cs.TailWords
			code.Compactions += cs.Compactions
			n++
		}
	}
	return n, code
}

// begin leases a session for one query request: the compile-once
// image pool for static requests, the tenant's dynamic database for
// requests naming a tenant.
func (s *Server) begin(ctx context.Context, req wire.QueryRequest) (*engine.Session, error) {
	budget := engine.WithBudget(s.clampBudget(req.Budget))
	if req.Tenant == "" {
		im, err := s.image(req.Program, req.Goal)
		if err != nil {
			return nil, err
		}
		return s.pool.Begin(ctx, im, budget)
	}
	db, err := s.tenantDB(req.Program, req.Tenant)
	if err != nil {
		return nil, err
	}
	goal, err := parseGoal(req.Goal)
	if err != nil {
		return nil, err
	}
	return s.pool.BeginDyn(ctx, db, goal, budget)
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
	db, err := s.tenantDB(req.Program, req.Tenant)
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
	db, err := s.tenantDB(req.Program, req.Tenant)
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
