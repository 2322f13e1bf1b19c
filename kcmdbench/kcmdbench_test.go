package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// requests renders every request a plan sends, set-up first, then one
// lap per client: class, tenant and the goal or clause text.
func requests(p *plan) []string {
	var out []string
	add := func(c class, tenant, text string) {
		out = append(out, fmt.Sprintf("%s|%s|%s", c, tenant, text))
	}
	render := func(ops []op) {
		for _, o := range ops {
			switch o.kind {
			case opQuery:
				add(clQuery, "", p.goals[o.goal].text)
			case opEnum, opPark:
				g := p.goals[o.goal]
				add(clEnum, "", g.text)
				if o.kind == opPark {
					add(clSuspend, "", g.text)
					add(clResume, "", g.text)
				}
				for range g.sols {
					add(clNext, "", g.text)
				}
			case opStream:
				add(clStream, "", p.goals[o.goal].text)
			case opTQuery:
				add(clTQuery, p.tenants[o.tenant].name, fmt.Sprintf("item(%d, V).", o.key))
			case opWrite:
				t := p.tenants[o.tenant]
				add(clAssert, t.name, t.fact(o.key))
				add(clRetract, t.name, t.fact(o.old))
			case opAssert:
				add(clAssert, p.tenants[o.tenant].name, p.tenants[o.tenant].fact(o.key))
			case opRetract:
				add(clRetract, p.tenants[o.tenant].name, p.tenants[o.tenant].fact(o.key))
			}
		}
	}
	render(p.setup)
	for c, lap := range p.laps {
		out = append(out, fmt.Sprintf("client %d", c))
		render(lap)
	}
	return out
}

func mustPlan(t *testing.T, name string, seed int64) *plan {
	t.Helper()
	p, err := newPlan(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSeedYieldsIdenticalRequests(t *testing.T) {
	for name := range workloads {
		a, b := requests(mustPlan(t, name, 42)), requests(mustPlan(t, name, 42))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 42 gave two different request sequences", name)
		}
		if reflect.DeepEqual(a, requests(mustPlan(t, name, 43))) {
			t.Errorf("%s: seeds 42 and 43 gave the same request sequence", name)
		}
	}
}

// TestSeedKeepsMix checks that the seed changes the inputs but not the
// request mix: every seed sends the same count of each class.
func TestSeedKeepsMix(t *testing.T) {
	mix := func(p *plan) map[string]int {
		n := map[string]int{}
		for _, r := range requests(p) {
			cls, _, _ := strings.Cut(r, "|")
			n[cls]++
		}
		return n
	}
	for name := range workloads {
		want := mix(mustPlan(t, name, 1))
		for seed := int64(2); seed < 6; seed++ {
			if got := mix(mustPlan(t, name, seed)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: mix %v, seed 1 %v", name, seed, got, want)
			}
		}
	}
}

// TestChurnLapReturnsTenants replays a churn lap against a model of the
// tenants: every tenant must end the lap holding the facts it started
// with, in the same order, and never hold more or fewer than the band.
func TestChurnLapReturnsTenants(t *testing.T) {
	p := mustPlan(t, "churn", 7)
	live := make([][]int, churnTenants)
	for _, o := range p.setup {
		if o.kind == opAssert && o.tenant < churnTenants {
			live[o.tenant] = append(live[o.tenant], o.key)
		}
	}
	start := fmt.Sprint(live)
	writes := make([]int, churnTenants)
	for _, o := range p.laps[0] {
		switch o.kind {
		case opWrite:
			if live[o.tenant][0] != o.old {
				t.Fatalf("write retracts %d, oldest live key is %d", o.old, live[o.tenant][0])
			}
			live[o.tenant] = append(live[o.tenant][1:], o.key)
			writes[o.tenant]++
		case opTQuery:
			if got := live[o.tenant][o.pos]; got != o.key || len(live[o.tenant]) != o.size {
				t.Fatalf("tenant query of key %d at place %d, model has %d of %d", o.key, o.pos, got, len(live[o.tenant]))
			}
		}
		for tn := range live {
			if len(live[tn]) != churnBand {
				t.Fatalf("tenant %d holds %d facts", tn, len(live[tn]))
			}
		}
	}
	if got := fmt.Sprint(live); got != start {
		t.Errorf("after a lap tenants hold %s, started with %s", got, start)
	}
	for tn, n := range writes {
		if n != churnKeys {
			t.Errorf("tenant %d: %d writes per lap, want %d", tn, n, churnKeys)
		}
	}
}

func TestQueensModel(t *testing.T) {
	sols := queens(8)
	if len(sols) != 92 {
		t.Fatalf("%d solutions of 8 queens, want 92", len(sols))
	}
	var byLast [9]int
	for _, qs := range sols {
		byLast[qs[0]]++
	}
	if want := [9]int{0, 4, 8, 16, 18, 18, 16, 8, 4}; byLast != want {
		t.Errorf("solutions by last queen %v, want %v", byLast, want)
	}
	if n := len(queens(9)); n != 352 {
		t.Errorf("%d solutions of 9 queens, want 352", n)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{99, 0, false}, {100, 0.9, true}, {999, 0.9, true}, {1000, 0.99, true}, {25000, 0.999, true}} {
		q, ok := tailQuantile(c.n)
		if ok != c.ok || (ok && fmt.Sprintf("%.6f", q) != fmt.Sprintf("%.6f", c.want)) {
			t.Errorf("tailQuantile(%d) = %g, %v; want %g, %v", c.n, q, ok, c.want, c.ok)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{start: 0, end: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{start: 10, end: 30}}, 80},
		{"overlapping children count once", []span{{start: 10, end: 30}, {start: 20, end: 40}}, 70},
		{"nested child", []span{{start: 10, end: 40}, {start: 15, end: 20}}, 70},
		{"children clipped to parent", []span{{start: -5, end: 5}, {start: 90, end: 120}}, 85},
		{"child outside parent", []span{{start: 200, end: 300}}, 100},
		{"child covering parent", []span{{start: -1, end: 101}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestMixMargin(t *testing.T) {
	var ss []sample
	add := func(n int, cls class, goal int16, ns int64) {
		for i := 0; i < n; i++ {
			ss = append(ss, sample{cls: cls, goal: goal, end: ns})
		}
	}
	add(70, clStream, 0, 1_000_000)
	add(10, clNext, 1, 1_200_000) // within tierRatio of the streams: same tier
	add(20, clStream, 2, 5_000_000)
	kinds := mixOf(ss, byKind)
	if len(kinds.tiers) != 2 {
		t.Fatalf("tiers %v, want two", kinds.tiers)
	}
	for _, c := range []struct {
		q      float64
		margin float64
		tier   int
	}{{0.5, 0.3, 0}, {0.9, 0.1, 1}, {0.78, 0.02, 0}} {
		m, tier := kinds.margin(c.q)
		if fmt.Sprintf("%.6f", m) != fmt.Sprintf("%.6f", c.margin) || tier != c.tier {
			t.Errorf("margin(%g) = %g in tier %d, want %g in tier %d", c.q, m, tier, c.margin, c.tier)
		}
	}
	// By class alone the two stream goals merge into one class.
	classes := mixOf(ss, byClass)
	if k := (kind{cls: clStream, goal: -1}); classes.count[k] != 90 || classes.median[k] != 1 {
		t.Errorf("stream class: %d samples, median %g ms; want 90 and 1", classes.count[k], classes.median[k])
	}
}

func TestTraceHandler(t *testing.T) {
	var paths []string
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { paths = append(paths, r.URL.Path) })
	tr := &tracer{}
	h := traceHandler(inner, tr)
	id := reqID{client: 1, op: 42, sub: 3}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", idPrefix+id.String()+"/v1/query", nil))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/next", nil))
	if want := []string{"/v1/query", "/v1/next"}; !reflect.DeepEqual(paths, want) {
		t.Errorf("handler saw %v, want %v", paths, want)
	}
	if len(tr.spans) != 1 || tr.spans[0].id != id || tr.spans[0].name != "server.handler" {
		t.Errorf("spans %+v, want one server.handler span for %v", tr.spans, id)
	}
}
