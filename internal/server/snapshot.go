package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/snapshot"
	"repro/internal/wire"
)

// Session park-to-disk: the wire face of the snapshot subsystem. A
// parked session's machine state is already position-independent (the
// blob carries live ranges, cache residency and every counter, keyed
// to the code image by content hash), so the server only has to
// record, next to the blob, how to rebuild the code environment: the
// program name, the goal text, and the tenant if any. A resuming
// daemon — this process or its successor after a restart — recompiles
// the same program and goal, and the blob's image hash proves the
// reconstruction produced the very bytes the session was running
// before any state lands on a machine.

// envelope is the on-disk form of one suspended session: the code
// environment identity plus the machine snapshot blob (base64 in the
// JSON encoding).
type envelope struct {
	Program string `json:"program"`
	Tenant  string `json:"tenant,omitempty"`
	Goal    string `json:"goal"`
	Blob    []byte `json:"blob"`
}

// stateFile maps a handle onto its snapshot path, refusing anything
// but the 16-hex-digit session ids the server mints so a handle can
// never traverse outside StateDir.
func (s *Server) stateFile(handle string) (string, error) {
	if len(handle) != 16 {
		return "", fmt.Errorf("bad handle %q", handle)
	}
	for _, c := range handle {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", fmt.Errorf("bad handle %q", handle)
		}
	}
	return filepath.Join(s.cfg.StateDir, handle+".snap"), nil
}

// writeEnvelope persists one suspended session under its handle.
func (s *Server) writeEnvelope(handle string, env envelope) error {
	path, err := s.stateFile(handle)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(s.cfg.StateDir, 0o700); err != nil {
		return err
	}
	buf, err := json.Marshal(env)
	if err != nil {
		return err
	}
	// Write-then-rename so a crash mid-write never leaves a torn
	// envelope under a resumable name.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o600); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readEnvelope loads the envelope stored at path.
func readEnvelope(path string) (envelope, error) {
	var env envelope
	buf, err := os.ReadFile(path)
	if err != nil {
		return env, err
	}
	if err := json.Unmarshal(buf, &env); err != nil {
		return env, fmt.Errorf("%w %s: %w", errBadEnvelope, filepath.Base(path), err)
	}
	return env, nil
}

// handleSuspend serializes a parked session to the state directory.
// The session leaves the table — its machine goes back to the pool —
// and the reply's handle (the session id) names the snapshot for
// /v1/resume.
func (s *Server) handleSuspend(w http.ResponseWriter, r *http.Request) {
	var req wire.SuspendRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if s.cfg.StateDir == "" {
		writeJSON(w, http.StatusNotImplemented,
			errorReply(fmt.Errorf("daemon has no state directory (start kcmd with -state)")))
		return
	}
	e, ok := s.sessions.get(req.Session)
	if !ok {
		writeJSON(w, http.StatusNotFound,
			errorReply(fmt.Errorf("unknown session %q", req.Session)))
		return
	}
	e.ops.Lock()
	defer e.ops.Unlock()
	if e.done {
		rep, code := doneReply(e, req.Session)
		writeJSON(w, code, rep)
		return
	}
	blob, err := e.sess.Suspend()
	if err != nil {
		// Suspend refused: the enumeration already ended. The session
		// stays in the table for a final next/cancel.
		writeJSON(w, http.StatusUnprocessableEntity, errorReply(err))
		return
	}
	// The machine is released; the entry must leave the table whether
	// or not the disk write succeeds.
	e.done = true
	e.reason = reasonParked
	delivered := e.sess.Delivered()
	s.sessions.retire(e)
	s.account(e.sess, false)
	if err := s.writeEnvelope(e.id, envelope{
		Program: e.program, Tenant: e.tenant, Goal: e.goal, Blob: blob,
	}); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorReply(err))
		return
	}
	s.sessions.mu.Lock()
	s.sessions.parked++
	s.sessions.mu.Unlock()
	writeJSON(w, http.StatusOK, wire.Reply{
		Status:    wire.StatusParked,
		Handle:    e.id,
		Solutions: delivered,
	})
}

// handleResume rebuilds a suspended session from its on-disk handle
// and parks it in the table, ready for /v1/next — the continuation is
// byte-identical to a session that was never suspended.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	var req wire.ResumeRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	rep, code := s.runResume(r.Context(), req)
	writeJSON(w, code, rep)
}

// runResume is the writer-free body of resume. The snapshot file is
// one-shot: a successful resume consumes it, and so does a refusal no
// retry can mend (see refused). A file the daemon could not serve for
// now — every machine busy, an unknown program — stays for a retry.
func (s *Server) runResume(ctx context.Context, req wire.ResumeRequest) (wire.Reply, int) {
	if s.draining.Load() {
		return errorReply(errTableClosed), http.StatusServiceUnavailable
	}
	if s.cfg.StateDir == "" {
		return errorReply(fmt.Errorf("daemon has no state directory (start kcmd with -state)")),
			http.StatusNotImplemented
	}
	path, err := s.stateFile(req.Handle)
	if err != nil {
		return errorReply(err), http.StatusBadRequest
	}
	env, err := readEnvelope(path)
	if errors.Is(err, os.ErrNotExist) {
		return errorReply(fmt.Errorf("unknown handle %q", req.Handle)), http.StatusNotFound
	}
	var sess *engine.Session
	if err == nil {
		runCtx, cancel := s.runCtx(ctx, req.TimeoutMS)
		defer cancel()
		sess, err = s.lease(runCtx, env.Program, env.Tenant, env.Goal, env.Blob, req.Budget)
	}
	if err != nil {
		if refused(err) {
			os.Remove(path)
		}
		return errorReply(err), resumeStatus(err)
	}
	e, err := s.sessions.add(env.Program, env.Tenant, env.Goal, sess)
	if err != nil {
		sess.Close()
		s.account(sess, false)
		return errorReply(fmt.Errorf("resumed but cannot park: %w", err)), http.StatusServiceUnavailable
	}
	os.Remove(path)
	return wire.Reply{
		Status:    wire.StatusSuspended,
		Session:   e.id,
		Solutions: sess.Delivered(),
	}, http.StatusOK
}

// errBadEnvelope reports a snapshot file that does not parse.
var errBadEnvelope = errors.New("corrupt snapshot envelope")

// refused reports a resume failure no retry can mend: the envelope or
// its blob does not decode, or the blob no longer fits the code it was
// parked from (another image or configuration, or a database changed
// since).
func refused(err error) bool {
	for _, target := range []error{
		errBadEnvelope,
		snapshot.ErrTruncated, snapshot.ErrChecksum, snapshot.ErrVersion, snapshot.ErrMalformed,
		machine.ErrImageMismatch, machine.ErrConfigMismatch, machine.ErrBadSnapshot,
		engine.ErrNoSession, engine.ErrStaleDelta,
	} {
		if errors.Is(err, target) {
			return true
		}
	}
	return false
}

// resumeStatus maps a resume failure onto an HTTP code: a stale tenant
// delta is a conflict the client can observe (the database moved on),
// admission-control timeouts are 503, and everything else — corrupt
// blob, image or config mismatch — is unprocessable.
func resumeStatus(err error) int {
	switch {
	case errors.Is(err, engine.ErrStaleDelta):
		return http.StatusConflict
	case errors.Is(err, machine.ErrCancelled), errors.Is(err, machine.ErrDeadline):
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

// parkAll serializes every live table session to the state directory
// under its session id, so clients resume across the daemon restart
// with the session id as the handle. Sessions that refuse to suspend
// (enumeration already ended) are left for drainAll to close.
func (s *Server) parkAll() {
	for _, e := range s.sessions.snapshot() {
		e.ops.Lock()
		if e.done {
			e.ops.Unlock()
			continue
		}
		blob, err := e.sess.Suspend()
		if err != nil {
			e.ops.Unlock()
			continue
		}
		e.done = true
		e.reason = reasonParked
		err = s.writeEnvelope(e.id, envelope{
			Program: e.program, Tenant: e.tenant, Goal: e.goal, Blob: blob,
		})
		e.ops.Unlock()
		s.sessions.retire(e)
		s.account(e.sess, false)
		if err == nil {
			s.sessions.mu.Lock()
			s.sessions.parked++
			s.sessions.mu.Unlock()
		}
	}
}
