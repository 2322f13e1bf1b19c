package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
)

// span is one timed call: a layer's work for one request.
type span struct {
	name       string
	id         reqID
	start, end int64 // ns since the process epoch
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(name string, id reqID, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, id: id, start: start, end: end})
	t.mu.Unlock()
}

// probeGoalCompile names the span of the replay's own call to
// compiler.CompileGoal. The daemon makes that call inside
// Pool.BeginDyn, so the span is measured for its layer but not counted
// again when the replay's request is split into layers.
const probeGoalCompile = "compiler.goal"

// idPrefix starts the path prefix that carries a traced request's id.
const idPrefix = "/r/"

// traceHandler wraps the daemon's handler: a request whose path starts
// with idPrefix and an id is served with the prefix stripped, and its
// span is recorded as "server.handler". Other requests pass through
// untimed.
func traceHandler(h http.Handler, t *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rest, ok := strings.CutPrefix(r.URL.Path, idPrefix)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		idText, path, _ := strings.Cut(rest, "/")
		id, ok := parseReqID(idText)
		if !ok {
			http.NotFound(w, r)
			return
		}
		r2 := new(http.Request)
		*r2 = *r
		r2.URL = new(url.URL)
		*r2.URL = *r.URL
		r2.URL.Path = "/" + path
		r2.URL.RawPath = ""
		t0 := now()
		h.ServeHTTP(w, r2)
		t.add("server.handler", id, t0, now())
	})
}

// covered is how much of parent's interval the children cover, each
// instant counted once however many children overlap it.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if s < e {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach int64
	reach = parent.start
	for _, v := range iv {
		if v[1] <= reach {
			continue
		}
		total += v[1] - max(v[0], reach)
		reach = v[1]
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - covered(parent, children)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name  string `json:"name"`
		ID    string `json:"id"`
		Start int64  `json:"start_ns"`
		End   int64  `json:"end_ns"`
	}
	for _, s := range spans {
		if err := enc.Encode(line{s.name, s.id.String(), s.start, s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
