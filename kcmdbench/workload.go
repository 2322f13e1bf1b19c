package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// program is the one Prolog program every workload serves, under the
// name "kb". item/2 is the dynamic predicate tenants assert into.
const program = `
:- dynamic(item/2).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
queens(N, Qs) :- range(1, N, Ns), solve(Ns, [], Qs).
range(N, N, [N]) :- !.
range(M, N, [M|Ns]) :- M < N, M1 is M + 1, range(M1, N, Ns).
solve([], Qs, Qs).
solve(Unplaced, Safe, Qs) :- sel(Q, Unplaced, R), safe(Q, Safe, 1), solve(R, [Q|Safe], Qs).
sel(X, [X|T], T).
sel(X, [H|T], [H|R]) :- sel(X, T, R).
safe(_, [], _).
safe(Q, [Q1|Qs], D) :- Q =\= Q1 + D, Q =\= Q1 - D, D1 is D + 1, safe(Q, Qs, D1).
`

const progName = "kb"

// opKind is one client action; an action sends one or more requests.
type opKind uint8

const (
	opQuery   opKind = iota // static single-shot /v1/query
	opEnum                  // /v1/query with enumerate, then /v1/next to exhaustion
	opStream                // /v1/query streaming every solution as NDJSON
	opPark                  // enumerate, /v1/suspend, /v1/resume, /v1/next to exhaustion
	opTQuery                // tenant /v1/query of one live key
	opWrite                 // tenant /v1/assert of a new key, then /v1/retract of the oldest
	opAssert                // tenant /v1/assert alone (set-up fill)
	opRetract               // tenant /v1/retract alone (set-up preflight)
)

// class is the request class a latency sample belongs to.
type class uint8

const (
	clQuery class = iota
	clEnum
	clNext
	clStream
	clTQuery
	clAssert
	clRetract
	clSuspend
	clResume
	numClasses
)

var classNames = [numClasses]string{"query", "enum", "next", "stream", "tquery", "assert", "retract", "suspend", "resume"}

func (c class) String() string { return classNames[c] }

// op is one action of a client's request sequence.
type op struct {
	kind   opKind
	goal   int // static goal (index into plan.goals)
	tenant int // tenant (index into plan.tenants)
	key    int // key asserted, or queried by opTQuery
	old    int // opWrite: key retracted
	pos    int // opTQuery: the key's place in the tenant's FIFO, oldest first
	size   int // opTQuery: live facts in the tenant when the query runs
}

// goal is one static goal text with its answers. sols comes from the
// Go model of the program; counts from the reference run at set-up.
type goal struct {
	text   string
	sols   []map[string]string
	counts []counts // cumulative after each solution, then at exhaustion
}

// counts are the simulated counters a reply is checked against. They
// do not depend on which pooled machine ran the goal; cycles do, so
// cycles are reported but not checked.
type counts struct{ instrs, infs uint64 }

// tenant is one dynamic database. Its value for a key is fixed, so
// the fact asserted for a key is the same text on every lap.
type tenant struct {
	name string
	salt int
}

func (t *tenant) fact(key int) string { return fmt.Sprintf("item(%d, v%d)", key, t.value(key)) }

func (t *tenant) value(key int) int { return (key*7919 + t.salt) % 100000 }

// plan is everything a workload sends, derived from the seed alone:
// the static goals warmed at set-up, the set-up actions, and one lap
// of each client's request sequence. Clients repeat their lap for as
// long as the run lasts; a lap leaves every tenant as it found it.
type plan struct {
	workload string
	clients  int
	warm     bool // pool builds every machine of an image on first use
	goals    []*goal
	tenants  []*tenant
	band     int // live facts per churn tenant in steady state
	// drifts marks a plan whose cost per request grows with the laps
	// already run: it runs a fixed number of laps, and only its first
	// lap finds the daemon in the state its replay starts from.
	drifts bool
	setup  []op // warm-up, tenant fill and preflight, in order
	laps   [][]op
	sizes  []int // tenant sizes whose tquery counts the reference needs

	// tcounts maps (tenant size, key place) to a tenant query's
	// counters, filled by the reference run.
	tcounts map[[2]int]counts
}

// workloads names the benchmark's workloads.
var workloads = map[string]func(*rand.Rand) *plan{
	"small":  smallPlan,
	"search": searchPlan,
	"churn":  churnPlan,
}

// newPlan seeds the generator and builds the named workload's plan.
func newPlan(name string, seed int64) (*plan, error) {
	build, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (small, search, churn)", name)
	}
	return build(rand.New(rand.NewSource(seed))), nil
}

// smallPlan: two clients send cheap goals. Per lap and client, 6
// single-shot nrev queries, 2 enumerations of 5 solutions driven by
// next (12 requests), and 4 streams of 10 solutions: 22 requests, of
// which the slow class, stream, is 18%.
func smallPlan(rng *rand.Rand) *plan {
	p := &plan{workload: "small", clients: 2, warm: true}
	q1 := p.addGoal(nrevGoal(randInts(rng, 12, 100)))
	q2 := p.addGoal(nrevGoal(randInts(rng, 12, 100)))
	en := p.addGoal(memberGoal(randAtoms(rng, 5)))
	st := p.addGoal(appGoal(randInts(rng, 9, 100)))
	p.warmUp()
	p.preflight(en)
	for c := 0; c < p.clients; c++ {
		var lap []op
		for i := 0; i < 3; i++ {
			lap = append(lap, op{kind: opQuery, goal: q1}, op{kind: opQuery, goal: q2})
		}
		for i := 0; i < 2; i++ {
			lap = append(lap, op{kind: opEnum, goal: en})
		}
		for i := 0; i < 4; i++ {
			lap = append(lap, op{kind: opStream, goal: st})
		}
		rng.Shuffle(len(lap), func(i, j int) { lap[i], lap[j] = lap[j], lap[i] })
		p.laps = append(p.laps, lap)
	}
	return p
}

// searchPlan: one client streams every solution of n-queens goals
// whose last queen is fixed. Each runs the whole search, so the
// machine does nearly all the work. The seed picks each goal's column
// from a mirror pair, whose two columns have the same number of
// solutions, so every seed streams the same number of lines. Per lap,
// 12 streams over three 8-queens goals (columns 1|8, 2|7, 4|5: 4, 8
// and 18 solutions) and 3 streams of one 9-queens goal (column 2|8,
// 28 solutions, about five times the search): the slow class is 20%
// of requests, so the p90 rank falls mid-class and not on the tail of
// a single class, where it follows the host's stalls.
//
// One client, not two: two concurrent searches contend for the host's
// two hardware threads, and request latency then splits into two modes
// (about 11 and 17 ms on the reference host) whose mix, and so the
// median, moves from run to run.
func searchPlan(rng *rand.Rand) *plan {
	p := &plan{workload: "search", clients: 1, warm: true}
	mirror := func(n, k int) int {
		if rng.Intn(2) == 1 {
			return n + 1 - k
		}
		return k
	}
	var q8 []int
	for _, k := range []int{1, 2, 4} {
		q8 = append(q8, p.addGoal(queensGoal(8, mirror(8, k))))
	}
	q9 := p.addGoal(queensGoal(9, mirror(9, 2)))
	p.warmUp()
	p.preflight(q8[0])
	var lap []op
	for i := 0; i < 4; i++ {
		for _, g := range q8 {
			lap = append(lap, op{kind: opStream, goal: g})
		}
	}
	for i := 0; i < 3; i++ {
		lap = append(lap, op{kind: opStream, goal: q9})
	}
	rng.Shuffle(len(lap), func(i, j int) { lap[i], lap[j] = lap[j], lap[i] })
	p.laps = [][]op{lap}
	return p
}

// Churn shape: tenants, the steady band of live facts per tenant, and
// the key space. A lap writes every key of every tenant once, so each
// tenant ends the lap with the facts it started with, in that order.
const (
	churnTenants = 4
	churnBand    = 16
	churnKeys    = 2 * churnBand
)

// churnPlan: one client writes beside reads. Per lap: 128 writes
// (assert, then retract of the fact asserted churnBand writes
// earlier on that tenant), 128 tenant queries, 128 static queries
// over 16 goal texts, and 4 enumerations parked to disk and resumed:
// 540 requests.
func churnPlan(rng *rand.Rand) *plan {
	p := &plan{workload: "churn", clients: 1, band: churnBand, drifts: true}
	var nrevs, members []int
	for n := 4; n < 16; n++ {
		nrevs = append(nrevs, p.addGoal(nrevGoal(randInts(rng, n, 1000))))
	}
	for i := 0; i < 4; i++ {
		members = append(members, p.addGoal(memberGoal(randAtoms(rng, 4))))
	}
	for i := 0; i < churnTenants; i++ {
		p.tenants = append(p.tenants, &tenant{name: fmt.Sprintf("t%d-%d", i, rng.Intn(1000)), salt: rng.Intn(100000)})
	}
	p.warmUp()
	// Fill each tenant with its first band of keys, oldest first.
	live := make([][]int, len(p.tenants))
	for t := range p.tenants {
		for k := 0; k < churnBand; k++ {
			p.setup = append(p.setup, op{kind: opAssert, tenant: t, key: k})
			live[t] = append(live[t], k)
		}
	}
	p.preflight(members[0])

	// One lap. The tenant actions run in a fixed round: a write then a
	// query on each tenant in turn, so every tenant query switches the
	// tenant machine to another tenant, after the same number of
	// writes to that tenant for every seed. The seed draws the queried
	// keys and where among them the static queries and parks fall.
	var tenantOps []op
	next := make([]int, len(live))
	for i := range next {
		next[i] = churnBand
	}
	for r := 0; r < churnKeys; r++ {
		for t := range live {
			w := op{kind: opWrite, tenant: t, key: next[t] % churnKeys, old: live[t][0]}
			live[t] = append(live[t][1:], w.key)
			next[t]++
			q := op{kind: opTQuery, tenant: t, pos: rng.Intn(len(live[t])), size: len(live[t])}
			q.key = live[t][q.pos]
			tenantOps = append(tenantOps, w, q)
		}
	}
	var static []op
	for i := 0; i < 8; i++ {
		for _, g := range append(nrevs, members...) {
			static = append(static, op{kind: opQuery, goal: g})
		}
	}
	for _, g := range members {
		static = append(static, op{kind: opPark, goal: g})
	}
	rng.Shuffle(len(static), func(i, j int) { static[i], static[j] = static[j], static[i] })
	isStatic := make([]bool, len(tenantOps)+len(static))
	for i := range static {
		isStatic[i] = true
	}
	rng.Shuffle(len(isStatic), func(i, j int) { isStatic[i], isStatic[j] = isStatic[j], isStatic[i] })
	deck := make([]op, 0, len(isStatic))
	for _, st := range isStatic {
		if st {
			deck, static = append(deck, static[0]), static[1:]
		} else {
			deck, tenantOps = append(deck, tenantOps[0]), tenantOps[1:]
		}
	}
	p.laps = [][]op{deck}
	p.sizes = append(p.sizes, churnBand)
	return p
}

func (p *plan) addGoal(g *goal) int {
	p.goals = append(p.goals, g)
	return len(p.goals) - 1
}

// warmUp queries every static goal once, so the image cache and the
// machine pool are full before timing starts.
func (p *plan) warmUp() {
	for g := range p.goals {
		p.setup = append(p.setup, op{kind: opQuery, goal: g})
	}
}

// preflight sends every request class once before timing: a tenant
// assert, query and retract on a tenant of its own, and an
// enumeration of goal g parked to disk and resumed. It proves each
// verb answers correctly, and it gives every layer a measurement in
// every workload's traced run.
func (p *plan) preflight(g int) {
	t := len(p.tenants)
	p.tenants = append(p.tenants, &tenant{name: "preflight", salt: 1})
	p.setup = append(p.setup,
		op{kind: opAssert, tenant: t, key: 1},
		op{kind: opTQuery, tenant: t, key: 1, pos: 0, size: 1},
		op{kind: opRetract, tenant: t, key: 1},
		op{kind: opEnum, goal: g},
		op{kind: opPark, goal: g},
		op{kind: opStream, goal: g},
	)
	p.sizes = append(p.sizes, 1)
}

// --- goal texts and their answers, computed in Go ---

func randInts(rng *rand.Rand, n, max int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(max)
	}
	return out
}

// randAtoms draws n distinct atoms.
func randAtoms(rng *rand.Rand, n int) []string {
	out := make([]string, 0, n)
	seen := map[string]bool{}
	for len(out) < n {
		a := fmt.Sprintf("%c%d", 'a'+rng.Intn(26), rng.Intn(100))
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

func list[T any](xs []T) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func nrevGoal(xs []int) *goal {
	rev := make([]int, len(xs))
	for i, x := range xs {
		rev[len(xs)-1-i] = x
	}
	return &goal{
		text: fmt.Sprintf("nrev(%s, R).", list(xs)),
		sols: []map[string]string{{"R": list(rev)}},
	}
}

func memberGoal(xs []string) *goal {
	g := &goal{text: fmt.Sprintf("member(X, %s).", list(xs))}
	for _, x := range xs {
		g.sols = append(g.sols, map[string]string{"X": x})
	}
	return g
}

func appGoal(xs []int) *goal {
	g := &goal{text: fmt.Sprintf("app(X, Y, %s).", list(xs))}
	for i := 0; i <= len(xs); i++ {
		g.sols = append(g.sols, map[string]string{"X": list(xs[:i]), "Y": list(xs[i:])})
	}
	return g
}

// queensGoal asks for the n-queens placements whose last-placed queen
// is in column k. The program unifies the answer only after the whole
// placement, so every such goal searches the full tree.
func queensGoal(n, k int) *goal {
	g := &goal{text: fmt.Sprintf("queens(%d, [%d|Qs]).", n, k)}
	for _, qs := range queens(n) {
		if qs[0] == k {
			g.sols = append(g.sols, map[string]string{"Qs": list(qs[1:])})
		}
	}
	return g
}

// queens mirrors the program's solve/3 in Go, solutions in the order
// the program finds them: sel/3 takes queens in list order, and the
// answer is the placement list, last-placed queen first.
func queens(n int) [][]int {
	var out [][]int
	var solve func(unplaced, safe []int)
	solve = func(unplaced, safe []int) {
		if len(unplaced) == 0 {
			out = append(out, append([]int(nil), safe...))
			return
		}
		for i, q := range unplaced {
			ok := true
			for d, q1 := range safe {
				if q == q1+d+1 || q == q1-d-1 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			rest := append(append([]int(nil), unplaced[:i]...), unplaced[i+1:]...)
			solve(rest, append([]int{q}, safe...))
		}
	}
	ns := make([]int, n)
	for i := range ns {
		ns[i] = i + 1
	}
	solve(ns, nil)
	return out
}
