package main

import (
	"context"
	"fmt"
	"maps"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// daemon is what a benchmark client talks to: kcmd over loopback HTTP
// (httpDaemon) or the in-process replay of kcmd's calls (mimic).
// Stream returns the solution lines and the terminal line.
type daemon interface {
	query(id reqID, req wire.QueryRequest) (wire.Reply, error)
	next(id reqID, session string) (wire.Reply, error)
	stream(id reqID, req wire.QueryRequest) ([]wire.Reply, wire.Reply, error)
	assert(id reqID, req wire.AssertRequest) (wire.Reply, error)
	retract(id reqID, req wire.RetractRequest) (wire.Reply, error)
	suspend(id reqID, session string) (wire.Reply, error)
	resume(id reqID, handle string) (wire.Reply, error)
}

// reqID names one request: its client (-1 for set-up), the ordinal of
// the action within that client's run, and the request within the
// action. The replay's ordinals count one lap, so an HTTP request
// matches replay request (client, ordinal mod lap length, sub).
type reqID struct {
	client int32
	op     int64
	sub    int32
}

func (id reqID) String() string { return fmt.Sprintf("%d.%d.%d", id.client, id.op, id.sub) }

func parseReqID(s string) (reqID, bool) {
	parts := strings.Split(s, ".")
	if len(parts) != 3 {
		return reqID{}, false
	}
	c, err1 := strconv.ParseInt(parts[0], 10, 32)
	n, err2 := strconv.ParseInt(parts[1], 10, 64)
	sub, err3 := strconv.ParseInt(parts[2], 10, 32)
	if err1 != nil || err2 != nil || err3 != nil {
		return reqID{}, false
	}
	return reqID{client: int32(c), op: n, sub: int32(sub)}, true
}

// sample is one request as its client saw it.
type sample struct {
	cls        class
	goal       int16 // static goal, -1 for tenant requests
	id         reqID
	start, end int64 // ns since the process epoch
}

func (s sample) dur() int64 { return s.end - s.start }

var epoch = time.Now()

// now reads the monotonic clock as ns since the process epoch.
func now() int64 { return int64(time.Since(epoch)) }

// runner plays actions of a plan against a daemon as one client,
// checking every reply and recording a sample per request.
type runner struct {
	d       daemon
	p       *plan
	client  int32
	goal    int16 // static goal of the action being run, -1 for none
	samples []sample
	failed  int
	errs    []string
}

func (r *runner) fail(id reqID, format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, id.String()+": "+fmt.Sprintf(format, args...))
	}
}

// call sends one request and records its sample.
func (r *runner) call(cls class, id reqID, f func() (wire.Reply, error)) (wire.Reply, bool) {
	t0 := now()
	rep, err := f()
	r.samples = append(r.samples, sample{cls: cls, goal: r.goal, id: id, start: t0, end: now()})
	if err != nil {
		r.fail(id, "%s: %v", cls, err)
		return rep, false
	}
	return rep, true
}

// do runs action o as action n of this client.
func (r *runner) do(n int64, o op) {
	id := reqID{client: r.client, op: n}
	r.goal = -1
	switch o.kind {
	case opQuery, opEnum, opPark, opStream:
		r.goal = int16(o.goal)
	}
	switch o.kind {
	case opQuery:
		g := r.p.goals[o.goal]
		if rep, ok := r.call(clQuery, id, func() (wire.Reply, error) {
			return r.d.query(id, wire.QueryRequest{Program: progName, Goal: g.text})
		}); ok {
			r.checkSol(id, rep, g, 0)
		}
	case opEnum, opPark:
		g := r.p.goals[o.goal]
		rep, ok := r.call(clEnum, id, func() (wire.Reply, error) {
			return r.d.query(id, wire.QueryRequest{Program: progName, Goal: g.text, Enumerate: true})
		})
		if !ok {
			return
		}
		// A wrong reply is counted and the enumeration still driven to
		// its end, so the daemon does not keep a machine leased.
		r.checkSol(id, rep, g, 0)
		if rep.Session == "" {
			r.fail(id, "enumeration kept no session: %+v", rep)
			return
		}
		sess := rep.Session
		if o.kind == opPark {
			if sess, ok = r.park(id, sess); !ok {
				return
			}
			id.sub += 2
		}
		for i := 1; i <= len(g.sols); i++ {
			id.sub++
			rep, ok := r.call(clNext, id, func() (wire.Reply, error) { return r.d.next(id, sess) })
			if !ok {
				return
			}
			if i < len(g.sols) {
				r.checkSol(id, rep, g, i)
			} else {
				r.checkEnd(id, rep.Status, wire.StatusNo, rep.Stats, g)
			}
		}
	case opStream:
		g := r.p.goals[o.goal]
		var lines []wire.Reply
		last, ok := r.call(clStream, id, func() (wire.Reply, error) {
			var (
				last wire.Reply
				err  error
			)
			lines, last, err = r.d.stream(id, wire.QueryRequest{Program: progName, Goal: g.text})
			return last, err
		})
		if !ok {
			return
		}
		if len(lines) != len(g.sols) {
			r.fail(id, "stream %q: %d solutions, want %d", g.text, len(lines), len(g.sols))
			return
		}
		for i, l := range lines {
			if !maps.Equal(l.Bindings, g.sols[i]) {
				r.fail(id, "stream %q solution %d: %v, want %v", g.text, i, l.Bindings, g.sols[i])
				return
			}
		}
		r.checkEnd(id, last.Status, wire.StatusDone, last.Stats, g)
	case opTQuery:
		t := r.p.tenants[o.tenant]
		want := map[string]string{"V": fmt.Sprintf("v%d", t.value(o.key))}
		rep, ok := r.call(clTQuery, id, func() (wire.Reply, error) {
			return r.d.query(id, wire.QueryRequest{Program: progName, Tenant: t.name, Goal: fmt.Sprintf("item(%d, V).", o.key)})
		})
		if !ok {
			return
		}
		if rep.Status != wire.StatusYes || !maps.Equal(rep.Bindings, want) {
			r.fail(id, "tenant %s key %d: %s %v %s, want %v", t.name, o.key, rep.Status, rep.Bindings, rep.Error, want)
			return
		}
		r.checkCounts(id, rep.Stats, r.p.tcounts[[2]int{o.size, o.pos}])
	case opWrite:
		r.assert(id, o.tenant, o.key)
		id.sub++
		r.retract(id, o.tenant, o.old)
	case opAssert:
		r.assert(id, o.tenant, o.key)
	case opRetract:
		r.retract(id, o.tenant, o.key)
	}
}

// park suspends a live enumeration to disk and resumes it, returning
// the resumed session.
func (r *runner) park(id reqID, sess string) (string, bool) {
	id.sub++
	rep, ok := r.call(clSuspend, id, func() (wire.Reply, error) { return r.d.suspend(id, sess) })
	if !ok {
		return "", false
	}
	if rep.Status != wire.StatusParked || rep.Handle == "" || rep.Solutions != 1 {
		r.fail(id, "suspend: %+v", rep)
		return "", false
	}
	handle := rep.Handle
	id.sub++
	rep, ok = r.call(clResume, id, func() (wire.Reply, error) { return r.d.resume(id, handle) })
	if !ok {
		return "", false
	}
	if rep.Status != wire.StatusSuspended || rep.Session == "" || rep.Solutions != 1 {
		r.fail(id, "resume: %+v", rep)
		return "", false
	}
	return rep.Session, true
}

func (r *runner) assert(id reqID, tenant, key int) {
	t := r.p.tenants[tenant]
	rep, ok := r.call(clAssert, id, func() (wire.Reply, error) {
		return r.d.assert(id, wire.AssertRequest{Program: progName, Tenant: t.name, Clause: t.fact(key)})
	})
	if ok && (rep.Status != wire.StatusYes || rep.Version == 0) {
		r.fail(id, "assert %s into %s: %+v", t.fact(key), t.name, rep)
	}
}

func (r *runner) retract(id reqID, tenant, key int) {
	t := r.p.tenants[tenant]
	rep, ok := r.call(clRetract, id, func() (wire.Reply, error) {
		return r.d.retract(id, wire.RetractRequest{Program: progName, Tenant: t.name, Clause: t.fact(key)})
	})
	if ok && rep.Status != wire.StatusYes {
		r.fail(id, "retract %s from %s: %+v", t.fact(key), t.name, rep)
	}
}

// checkSol checks a reply carrying solution i of g.
func (r *runner) checkSol(id reqID, rep wire.Reply, g *goal, i int) {
	if rep.Status != wire.StatusYes || !maps.Equal(rep.Bindings, g.sols[i]) {
		r.fail(id, "%q solution %d: %s %v %s, want %v", g.text, i, rep.Status, rep.Bindings, rep.Error, g.sols[i])
		return
	}
	r.checkCounts(id, rep.Stats, g.counts[i])
}

// checkEnd checks the reply that ends an enumeration of g.
func (r *runner) checkEnd(id reqID, status, want string, st *wire.Counters, g *goal) {
	if status != want {
		r.fail(id, "%q end: status %s, want %s", g.text, status, want)
		return
	}
	r.checkCounts(id, st, g.counts[len(g.sols)])
}

func (r *runner) checkCounts(id reqID, st *wire.Counters, want counts) {
	if st == nil || st.Instructions != want.instrs || st.Inferences != want.infs {
		r.fail(id, "counters %+v, want %d instructions and %d inferences", st, want.instrs, want.infs)
	}
}

// httpDaemon is kcmd over loopback HTTP via internal/client. When
// traced, each request goes through a client whose base URL carries
// the request id as a path prefix, which the daemon's tracing wrapper
// strips and records.
type httpDaemon struct {
	base   string
	c      *client.Client
	traced bool
}

func newHTTPDaemon(base string) *httpDaemon {
	return &httpDaemon{base: base, c: client.New(base)}
}

func (h *httpDaemon) cl(id reqID) *client.Client {
	if !h.traced {
		return h.c
	}
	return client.New(h.base + idPrefix + id.String())
}

// Requests run to completion even after the run's deadline, so no
// request is cut off mid-reply.
var bg = context.Background()

func (h *httpDaemon) query(id reqID, req wire.QueryRequest) (wire.Reply, error) {
	return h.cl(id).Query(bg, req)
}

func (h *httpDaemon) next(id reqID, session string) (wire.Reply, error) {
	return h.cl(id).Next(bg, session, 0)
}

func (h *httpDaemon) stream(id reqID, req wire.QueryRequest) ([]wire.Reply, wire.Reply, error) {
	var lines []wire.Reply
	last, err := h.cl(id).Stream(bg, req, func(rep wire.Reply) bool {
		lines = append(lines, rep)
		return true
	})
	return lines, last, err
}

func (h *httpDaemon) assert(id reqID, req wire.AssertRequest) (wire.Reply, error) {
	return h.cl(id).Assert(bg, req)
}

func (h *httpDaemon) retract(id reqID, req wire.RetractRequest) (wire.Reply, error) {
	return h.cl(id).Retract(bg, req)
}

func (h *httpDaemon) suspend(id reqID, session string) (wire.Reply, error) {
	return h.cl(id).Suspend(bg, session)
}

func (h *httpDaemon) resume(id reqID, handle string) (wire.Reply, error) {
	return h.cl(id).Resume(bg, wire.ResumeRequest{Handle: handle})
}
