package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dyndb"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/reader"
	"repro/internal/wire"
)

// mimic serves the wire protocol in process by calling, in the order
// kcmd calls them, the public functions of the layers under the HTTP
// front end: wire decode, Program.CompileQuery on an image miss,
// Pool.Begin or Pool.BeginDyn, Session.Next, Solution.Bindings plus
// String, Session.Close, DB.Assertz and DB.Retract, Session.Suspend
// and Pool.Resume, wire encode. With a tracer it records a span around
// each call. Parked blobs stay in memory rather than on disk.
//
// One mimic serves one client goroutine; mimics made by fork share
// the program, pool, images, tenants and sessions, as the daemon's
// handlers do.
type mimic struct {
	*shared
	tr      *tracer // nil: no spans
	cur     reqID   // request being served, for span ids
	buf     bytes.Buffer
	ctx     context.Context
	budgetO engine.Option
}

// shared is the daemon state the mimics of one replay share.
type shared struct {
	prog *core.Program
	pool *engine.Pool

	mu      sync.Mutex // guards everything below
	images  map[string]*asm.Image
	seed    *dyndb.DB
	tenants map[string]*dyndb.DB
	live    map[string]liveSession
	parked  map[string]parkedBlob
	nextID  int
	blobKB  []float64
	count   bool // add closed sessions' counters into sim
	sim     simTotals
}

type liveSession struct {
	s    *engine.Session
	goal string
}

type parkedBlob struct {
	goal string
	blob []byte
}

// simTotals sums the simulated counters of finished enumerations.
type simTotals struct {
	cycles, instrs, fused          uint64
	dAccess, dHits, cAccess, cHits uint64
}

func (t *simTotals) add(res machine.Result) {
	t.cycles += res.Stats.Cycles
	t.instrs += res.Stats.Instrs
	t.fused += res.Fusion.FusedSteps
	t.dAccess += res.DCache.Reads + res.DCache.Writes
	t.dHits += res.DCache.Hits()
	t.cAccess += res.CCache.Reads + res.CCache.Writes
	t.cHits += res.CCache.Hits()
}

// defaultBudget is kcmd's per-slice step budget when a request names
// none.
const defaultBudget = 50_000_000

func newMimic(pool *engine.Pool, tr *tracer) (*mimic, error) {
	prog, err := core.Load(program)
	if err != nil {
		return nil, err
	}
	sh := &shared{
		prog:    prog,
		pool:    pool,
		images:  map[string]*asm.Image{},
		tenants: map[string]*dyndb.DB{},
		live:    map[string]liveSession{},
		parked:  map[string]parkedBlob{},
	}
	return &mimic{shared: sh, tr: tr, ctx: context.Background(), budgetO: engine.WithBudget(defaultBudget)}, nil
}

// fork returns a mimic for another client goroutine over the same
// daemon state.
func (m *mimic) fork() *mimic {
	return &mimic{shared: m.shared, tr: m.tr, ctx: m.ctx, budgetO: m.budgetO}
}

// span records a layer span that started at t0.
func (m *mimic) span(name string, t0 int64) {
	if m.tr != nil {
		m.tr.add(name, m.cur, t0, now())
	}
}

// decode runs the daemon's request decode on the client's encoding of
// req, leaving the result in out.
func (m *mimic) decode(req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	t0 := now()
	err = json.NewDecoder(bytes.NewReader(body)).Decode(out)
	m.span("wire.decode", t0)
	return err
}

// encode runs the daemon's reply encode.
func (m *mimic) encode(rep wire.Reply) wire.Reply {
	m.buf.Reset()
	t0 := now()
	_ = json.NewEncoder(&m.buf).Encode(rep) // a Reply always encodes
	m.span("wire.encode", t0)
	return rep
}

func (m *mimic) image(text string) (*asm.Image, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if im, ok := m.images[text]; ok {
		return im, nil
	}
	t0 := now()
	im, err := m.prog.CompileQuery(text)
	m.span("core.compile", t0)
	if err != nil {
		return nil, err
	}
	m.images[text] = im
	return im, nil
}

// tenant returns the tenant's database, building the program's seed
// database on first use as the daemon does.
func (m *mimic) tenant(name string) (*dyndb.DB, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if db, ok := m.tenants[name]; ok {
		return db, nil
	}
	if m.seed == nil {
		im, ds, err := m.prog.BaseImage()
		if err != nil {
			return nil, err
		}
		seed, err := dyndb.New(im, ds.Order)
		if err != nil {
			return nil, err
		}
		for _, pi := range ds.Order {
			if cls := ds.Clauses[pi]; len(cls) > 0 {
				if _, err := seed.Reload(pi, cls); err != nil {
					return nil, err
				}
			}
		}
		m.seed = seed
	}
	db := m.seed.Clone()
	m.tenants[name] = db
	return db, nil
}

func (m *mimic) run(s *engine.Session) bool {
	for {
		t0 := now()
		ok := s.Next(m.ctx)
		m.span("machine.run", t0)
		if ok || !s.Suspended() {
			return ok
		}
	}
}

func (m *mimic) bindings(sol *core.Solution) map[string]string {
	t0 := now()
	out := make(map[string]string, len(sol.Vars))
	for name, t := range sol.Bindings() {
		out[name] = t.String()
	}
	m.span("term.readback", t0)
	return out
}

func (m *mimic) close(s *engine.Session) {
	t0 := now()
	s.Close()
	m.span("engine.close", t0)
	m.mu.Lock()
	if m.count {
		m.sim.add(s.Result())
	}
	m.mu.Unlock()
}

func counters(res machine.Result) *wire.Counters {
	return &wire.Counters{
		Cycles:        res.Stats.Cycles,
		Instructions:  res.Stats.Instrs,
		Inferences:    res.Stats.Inferences,
		Millis:        res.Stats.Millis(),
		GCCollections: res.GC.Collections,
		GCCycles:      res.GC.Cycles,
		FusedSteps:    res.Fusion.FusedSteps,
	}
}

func (m *mimic) begin(req wire.QueryRequest) (*engine.Session, error) {
	if req.Tenant == "" {
		im, err := m.image(req.Goal)
		if err != nil {
			return nil, err
		}
		t0 := now()
		s, err := m.pool.Begin(m.ctx, im, m.budgetO)
		m.span("engine.begin", t0)
		return s, err
	}
	db, err := m.tenant(req.Tenant)
	if err != nil {
		return nil, err
	}
	g, err := reader.ParseTerm(req.Goal)
	if err != nil {
		return nil, err
	}
	// BeginDyn compiles the goal itself; this separate call measures
	// that step alone and is not part of the daemon's request.
	t0 := now()
	_, err = compiler.New(db.Syms()).CompileGoal(g)
	m.span(probeGoalCompile, t0)
	if err != nil {
		return nil, err
	}
	t0 = now()
	s, err := m.pool.BeginDyn(m.ctx, db, g, m.budgetO)
	m.span("engine.begin_dyn", t0)
	return s, err
}

func (m *mimic) keep(s *engine.Session, goal string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	id := fmt.Sprintf("%016x", m.nextID)
	m.live[id] = liveSession{s: s, goal: goal}
	return id
}

func (m *mimic) session(id string) (liveSession, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls, ok := m.live[id]
	return ls, ok
}

func (m *mimic) query(id reqID, r wire.QueryRequest) (wire.Reply, error) {
	m.cur = id
	var req wire.QueryRequest
	if err := m.decode(r, &req); err != nil {
		return wire.Reply{}, err
	}
	s, err := m.begin(req)
	if err != nil {
		return wire.Reply{}, err
	}
	if !m.run(s) {
		rep := m.finish(s)
		return m.encode(rep), nil
	}
	sol := s.Solution()
	rep := wire.Reply{Status: wire.StatusYes, Bindings: m.bindings(sol), Solutions: s.Delivered(), Stats: counters(sol.Result)}
	if req.Enumerate {
		rep.Session = m.keep(s, req.Goal)
	} else {
		m.close(s)
	}
	return m.encode(rep), nil
}

// finish ends an exhausted or faulted enumeration.
func (m *mimic) finish(s *engine.Session) wire.Reply {
	if err := s.Err(); err != nil {
		m.close(s)
		return wire.Reply{Status: wire.StatusError, Error: err.Error()}
	}
	rep := wire.Reply{Status: wire.StatusNo, Solutions: s.Delivered(), Stats: counters(s.Result())}
	m.close(s)
	return rep
}

func (m *mimic) next(id reqID, session string) (wire.Reply, error) {
	m.cur = id
	var req wire.NextRequest
	if err := m.decode(wire.NextRequest{Session: session}, &req); err != nil {
		return wire.Reply{}, err
	}
	ls, ok := m.session(req.Session)
	if !ok {
		return wire.Reply{}, fmt.Errorf("unknown session %q", req.Session)
	}
	s := ls.s
	if !m.run(s) {
		m.mu.Lock()
		delete(m.live, req.Session)
		m.mu.Unlock()
		return m.encode(m.finish(s)), nil
	}
	sol := s.Solution()
	return m.encode(wire.Reply{Status: wire.StatusYes, Session: req.Session, Bindings: m.bindings(sol),
		Solutions: s.Delivered(), Stats: counters(sol.Result)}), nil
}

func (m *mimic) stream(id reqID, r wire.QueryRequest) ([]wire.Reply, wire.Reply, error) {
	m.cur = id
	var req wire.QueryRequest
	r.Stream = true
	if err := m.decode(r, &req); err != nil {
		return nil, wire.Reply{}, err
	}
	s, err := m.begin(req)
	if err != nil {
		return nil, wire.Reply{}, err
	}
	var lines []wire.Reply
	for m.run(s) {
		lines = append(lines, m.encode(wire.Reply{Status: wire.StatusYes, Bindings: m.bindings(s.Solution()), Solutions: s.Delivered()}))
	}
	last := m.finish(s)
	if last.Status == wire.StatusNo {
		last.Status = wire.StatusDone
	}
	return lines, m.encode(last), nil
}

func (m *mimic) assert(id reqID, r wire.AssertRequest) (wire.Reply, error) {
	m.cur = id
	var req wire.AssertRequest
	if err := m.decode(r, &req); err != nil {
		return wire.Reply{}, err
	}
	cl, err := reader.ParseTerm(req.Clause + " .")
	if err != nil {
		return wire.Reply{}, err
	}
	db, err := m.tenant(req.Tenant)
	if err != nil {
		return wire.Reply{}, err
	}
	t0 := now()
	v, err := db.Assertz(cl)
	m.span("dyndb.assert", t0)
	if err != nil {
		return wire.Reply{}, err
	}
	return m.encode(wire.Reply{Status: wire.StatusYes, Version: v}), nil
}

func (m *mimic) retract(id reqID, r wire.RetractRequest) (wire.Reply, error) {
	m.cur = id
	var req wire.RetractRequest
	if err := m.decode(r, &req); err != nil {
		return wire.Reply{}, err
	}
	cl, err := reader.ParseTerm(req.Clause + " .")
	if err != nil {
		return wire.Reply{}, err
	}
	db, err := m.tenant(req.Tenant)
	if err != nil {
		return wire.Reply{}, err
	}
	t0 := now()
	ok, v, err := db.Retract(cl)
	m.span("dyndb.retract", t0)
	if err != nil {
		return wire.Reply{}, err
	}
	rep := wire.Reply{Status: wire.StatusNo, Version: v}
	if ok {
		rep.Status = wire.StatusYes
	}
	return m.encode(rep), nil
}

func (m *mimic) suspend(id reqID, session string) (wire.Reply, error) {
	m.cur = id
	var req wire.SuspendRequest
	if err := m.decode(wire.SuspendRequest{Session: session}, &req); err != nil {
		return wire.Reply{}, err
	}
	ls, ok := m.session(req.Session)
	if !ok {
		return wire.Reply{}, fmt.Errorf("unknown session %q", req.Session)
	}
	s := ls.s
	t0 := now()
	blob, err := s.Suspend()
	m.span("snapshot.suspend", t0)
	if err != nil {
		return wire.Reply{}, err
	}
	m.mu.Lock()
	delete(m.live, req.Session)
	m.parked[req.Session] = parkedBlob{goal: ls.goal, blob: blob}
	m.blobKB = append(m.blobKB, float64(len(blob))/1024)
	m.mu.Unlock()
	return m.encode(wire.Reply{Status: wire.StatusParked, Handle: req.Session, Solutions: s.Delivered()}), nil
}

func (m *mimic) resume(id reqID, handle string) (wire.Reply, error) {
	m.cur = id
	var req wire.ResumeRequest
	if err := m.decode(wire.ResumeRequest{Handle: handle}, &req); err != nil {
		return wire.Reply{}, err
	}
	m.mu.Lock()
	pb, ok := m.parked[req.Handle]
	delete(m.parked, req.Handle)
	m.mu.Unlock()
	if !ok {
		return wire.Reply{}, fmt.Errorf("unknown handle %q", req.Handle)
	}
	im, err := m.image(pb.goal)
	if err != nil {
		return wire.Reply{}, err
	}
	t0 := now()
	s, err := m.pool.Resume(m.ctx, im, pb.blob, m.budgetO)
	m.span("snapshot.resume", t0)
	if err != nil {
		return wire.Reply{}, err
	}
	return m.encode(wire.Reply{Status: wire.StatusSuspended, Session: m.keep(s, pb.goal), Solutions: s.Delivered()}), nil
}
