// Command kcmdbench is the repository's end-to-end benchmark. It
// starts an in-process kcmd daemon (internal/server) on a loopback
// port, drives it closed-loop from the same process with
// internal/client, checks every reply, and prints the run's metrics.
//
//	go run . --workload small --seed 1 --seconds 10 --trace 0
//
// Workloads are small, search and churn (see README.md). With
// --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports per-layer metrics from a traced run and an in-process
// replay of the same request sequence. The last line of standard
// output is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/wire"
)

// setupRuns is how many times an untraced run sets the daemon up; it
// reports the median and times the last.
const setupRuns = 3

// poolSize is the machines per image, one per client at most.
const poolSize = 2

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "small", "workload: small, search or churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's requests are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "kcmdbench"), "directory for state, spans and result records")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "kcmdbench:", err)
		os.Exit(1)
	}
}

// bench collects a run's checks.
type bench struct {
	cfg       config
	p         *plan
	attempted int
	failed    int
	errs      []string
	steal     float64 // the host's steal share of CPU time while timing
}

func (b *bench) tally(rs ...*runner) {
	for _, r := range rs {
		b.attempted += len(r.samples)
		b.failed += r.failed
		b.errs = append(b.errs, r.errs...)
	}
}

func (b *bench) fail(msg string) {
	b.failed++
	b.errs = append(b.errs, msg)
}

func run(cfg config) error {
	p, err := newPlan(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	b := &bench{cfg: cfg, p: p}
	if err := b.reference(); err != nil {
		return err
	}
	freeMemory()
	ms := map[string]metric{}
	if b.failed == 0 {
		if cfg.trace {
			ms, err = b.traced()
		} else {
			ms, err = b.untraced()
		}
		if err != nil {
			return err
		}
	}
	res := result{Correct: b.failed == 0, Attempted: max(b.attempted, 1), Failed: b.failed, Metrics: ms}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	return b.report(res)
}

// reference computes, in process, the simulated counters every reply
// is checked against: each static goal enumerated to exhaustion, and a
// tenant query of each key place at each tenant size the plan uses.
// Bindings must match the Go model of the program.
func (b *bench) reference() error {
	m, err := newMimic(engine.New(engine.WithPoolSize(1)), nil)
	if err != nil {
		return err
	}
	id := reqID{client: -1}
	for _, g := range b.p.goals {
		rep, err := m.query(id, wire.QueryRequest{Program: progName, Goal: g.text, Enumerate: true})
		sess := rep.Session
		for i := 0; err == nil && rep.Status == wire.StatusYes; i++ {
			if i >= len(g.sols) || !maps.Equal(rep.Bindings, g.sols[i]) {
				b.fail(fmt.Sprintf("reference %q solution %d: %v", g.text, i, rep.Bindings))
				return nil
			}
			g.counts = append(g.counts, counts{rep.Stats.Instructions, rep.Stats.Inferences})
			rep, err = m.next(id, sess)
		}
		if err != nil {
			return fmt.Errorf("reference %q: %w", g.text, err)
		}
		if rep.Status != wire.StatusNo || len(g.counts) != len(g.sols) {
			b.fail(fmt.Sprintf("reference %q: %d solutions then %q, want %d", g.text, len(g.counts), rep.Status, len(g.sols)))
			return nil
		}
		g.counts = append(g.counts, counts{rep.Stats.Instructions, rep.Stats.Inferences})
	}
	b.p.tcounts = map[[2]int]counts{}
	for _, size := range b.p.sizes {
		t := &tenant{name: fmt.Sprintf("reference-%d", size), salt: size}
		for k := 0; k < size; k++ {
			if _, err := m.assert(id, wire.AssertRequest{Tenant: t.name, Clause: t.fact(k)}); err != nil {
				return fmt.Errorf("reference assert: %w", err)
			}
		}
		for k := 0; k < size; k++ {
			rep, err := m.query(id, wire.QueryRequest{Tenant: t.name, Goal: fmt.Sprintf("item(%d, V).", k)})
			if err != nil {
				return fmt.Errorf("reference tenant query: %w", err)
			}
			if want := fmt.Sprintf("v%d", t.value(k)); rep.Status != wire.StatusYes || rep.Bindings["V"] != want {
				b.fail(fmt.Sprintf("reference tenant key %d: %s %v, want V = %s", k, rep.Status, rep.Bindings, want))
				return nil
			}
			b.p.tcounts[[2]int{size, k}] = counts{rep.Stats.Instructions, rep.Stats.Inferences}
		}
	}
	return nil
}

// freeMemory collects garbage and returns it to the OS, so each
// set-up starts from the same memory state.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// kcmd is the daemon under test: a server.Server on a loopback listener.
type kcmd struct {
	srv   *server.Server
	hs    *http.Server // traced runs serve through the tracing wrapper
	done  chan error
	state string
	http  *httpDaemon
}

func (b *bench) start(tr *tracer) (*kcmd, error) {
	state, err := os.MkdirTemp(b.cfg.out, "state-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Programs:    map[string]string{progName: program},
		PoolOptions: []engine.PoolOption{engine.WithPoolSize(poolSize), engine.WithWarm(b.p.warm)},
		StateDir:    state,
	})
	if err != nil {
		os.RemoveAll(state)
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(state)
		return nil, err
	}
	k := &kcmd{srv: srv, done: make(chan error, 1), state: state, http: newHTTPDaemon("http://" + l.Addr().String())}
	if tr == nil {
		go func() { k.done <- srv.Serve(l) }()
	} else {
		k.hs = &http.Server{Handler: traceHandler(srv.Handler(), tr)}
		go func() { k.done <- k.hs.Serve(l) }()
	}
	return k, nil
}

// stop drains the daemon and waits for its serve loop to return.
func (k *kcmd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	if k.hs != nil {
		err = k.hs.Shutdown(ctx)
	}
	if derr := k.srv.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-k.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	if rerr := os.RemoveAll(k.state); err == nil {
		err = rerr
	}
	return err
}

// quiesce waits until the daemon has no machine leased. A stream's
// session is closed after its terminal line is sent, so a request
// right after a stream can find that machine still leased and make
// the pool build another; waiting keeps the machine count, and with it
// churn's heap, fixed by the seed.
func (k *kcmd) quiesce() error {
	for start := time.Now(); time.Since(start) < 10*time.Second; time.Sleep(time.Millisecond) {
		st, err := k.http.c.Stats(context.Background())
		if err != nil {
			return err
		}
		if st.Pool.InUse == 0 {
			return nil
		}
	}
	return fmt.Errorf("daemon still leases machines after 10s")
}

// setUp starts a daemon and sends the plan's set-up actions: warm-up
// of every static goal, tenant fill and the preflight. It returns the
// seconds from server.New to the end of set-up, and set-up's samples.
func (b *bench) setUp(tr *tracer) (*kcmd, float64, []sample, error) {
	t0 := time.Now()
	k, err := b.start(tr)
	if err != nil {
		return nil, 0, nil, err
	}
	r := &runner{d: k.http, p: b.p, client: -1}
	for i, o := range b.p.setup {
		r.do(int64(i), o)
	}
	if err := k.quiesce(); err != nil {
		b.fail(err.Error())
	}
	secs := time.Since(t0).Seconds()
	b.tally(r)
	return k, secs, r.samples, nil
}

// drive runs the plan's clients closed-loop, client c against
// daemons(c), each continuing its lap from its ordinal in next. Each
// client runs whole laps: laps of them when laps > 0, otherwise as many
// as start before dur has passed, at least one. A phase's request mix
// is therefore the lap's.
func (b *bench) drive(daemons func(c int) daemon, dur time.Duration, laps int, next []int64) []*runner {
	deadline := time.Now().Add(dur)
	rs := make([]*runner, b.p.clients)
	var wg sync.WaitGroup
	for c := range rs {
		r := &runner{d: daemons(c), p: b.p, client: int32(c), samples: make([]sample, 0, 1<<15)}
		rs[c] = r
		lap := b.p.laps[c]
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n, l := next[c], int64(len(lap))
			for done := 0; ; {
				r.do(n, lap[n%l])
				n++
				if n%l != 0 {
					continue
				}
				done++
				if laps > 0 && done >= laps || laps == 0 && !time.Now().Before(deadline) {
					break
				}
			}
			next[c] = n
		}(c)
	}
	wg.Wait()
	b.tally(rs...)
	return rs
}

// timedLaps is how many laps churn's client runs: the cost of its
// tenant queries grows with every write a tenant has seen (the tenant
// database keeps each rebuilt clause block), so only a fixed amount of
// work gives a figure that does not depend on the host's speed. Five
// seconds a lap is about what a lap takes on the reference host.
func (b *bench) timedLaps(seconds float64) int {
	if !b.p.drifts {
		return 0
	}
	return max(1, int(seconds/5+0.5))
}

func samplesOf(rs []*runner) []sample {
	var out []sample
	for _, r := range rs {
		out = append(out, r.samples...)
	}
	return out
}

// tenantSizes counts each churn tenant's live facts by streaming
// item(K, V) over it.
func (b *bench) tenantSizes(k *kcmd) []int {
	sizes := make([]int, 0, churnTenants)
	for i, t := range b.p.tenants[:churnTenants] {
		lines, last, err := k.http.stream(reqID{client: -2, sub: int32(i)}, wire.QueryRequest{Program: progName, Tenant: t.name, Goal: "item(K, V)."})
		if err == nil {
			err = k.quiesce()
		}
		if err != nil || last.Status != wire.StatusDone {
			b.fail(fmt.Sprintf("tenant %s size: %v %+v", t.name, err, last))
		}
		sizes = append(sizes, len(lines))
	}
	return sizes
}

// steady checks that churn's tenants hold the band of facts they held
// when timing started.
func (b *bench) steady(start, end []int) {
	for i := range start {
		if start[i] != b.p.band || end[i] != start[i] {
			b.fail(fmt.Sprintf("tenant %s: %d facts at start of timing, %d at end, want %d", b.p.tenants[i].name, start[i], end[i], b.p.band))
		}
	}
}

// usage is the process's resource counters at one instant.
type usage struct {
	cpu      time.Duration // user + system
	allocs   uint64        // heap objects allocated
	gcCPU    float64       // runtime estimate of GC CPU seconds
	totalCPU float64       // runtime estimate of all CPU seconds
	gcCycles uint64
	steal    uint64 // host CPU ticks stolen by the hypervisor
	ticks    uint64 // host CPU ticks in all states
}

func (u usage) minus(v usage) usage {
	return usage{u.cpu - v.cpu, u.allocs - v.allocs, u.gcCPU - v.gcCPU, u.totalCPU - v.totalCPU, u.gcCycles - v.gcCycles, u.steal - v.steal, u.ticks - v.ticks}
}

func (u usage) plus(v usage) usage {
	return usage{u.cpu + v.cpu, u.allocs + v.allocs, u.gcCPU + v.gcCPU, u.totalCPU + v.totalCPU, u.gcCycles + v.gcCycles, u.steal + v.steal, u.ticks + v.ticks}
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(ms)
	u := usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   ms[0].Value.Uint64(),
		gcCPU:    ms[1].Value.Float64(),
		totalCPU: ms[2].Value.Float64(),
		gcCycles: ms[3].Value.Uint64(),
	}
	u.steal, u.ticks = hostTicks()
	return u
}

// hostTicks reads the host's stolen and total CPU ticks from
// /proc/stat; both are zero where it cannot be read. Steal is time the
// hypervisor ran other guests on this machine's CPUs: it stretches
// every latency without showing in process CPU time.
func hostTicks() (steal, total uint64) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func (u usage) stealShare() float64 { return float64(u.steal) / float64(max(u.ticks, 1)) }

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	ms := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(ms)
	return float64(ms[0].Value.Uint64()) / 1e6
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// untraced is the end-to-end run: setupRuns set-ups, then one timed
// phase on the last daemon.
func (b *bench) untraced() (map[string]metric, error) {
	var (
		k     *kcmd
		setup []float64
	)
	for i := 0; i < setupRuns; i++ {
		if k != nil {
			if err := k.stop(); err != nil {
				return nil, err
			}
			k = nil
			freeMemory()
		}
		var secs float64
		var err error
		if k, secs, _, err = b.setUp(nil); err != nil {
			return nil, err
		}
		setup = append(setup, secs)
	}
	var start []int
	if b.p.band > 0 {
		start = b.tenantSizes(k)
	}
	runtime.GC()
	u0 := readUsage()
	rs := b.drive(func(int) daemon { return k.http }, time.Duration(b.cfg.seconds*float64(time.Second)),
		b.timedLaps(b.cfg.seconds), make([]int64, b.p.clients))
	u1 := readUsage()
	if b.p.band > 0 {
		b.steady(start, b.tenantSizes(k))
	}
	ss := samplesOf(rs)
	if len(ss) == 0 {
		return nil, fmt.Errorf("no requests completed")
	}
	lat := latencies(ss)
	n := float64(len(ss))
	b.describe(ss, lat)
	fmt.Fprintf(os.Stderr, "set-up seconds: %.4f\n", setup)
	b.steal = u1.minus(u0).stealShare()
	fmt.Fprintf(os.Stderr, "host steal share of CPU time while timing: %.3f\n", b.steal)
	ms := map[string]metric{
		"setup_s":        {median(setup), "s"},
		"p50_ms":         {quantile(lat, 0.5), "ms"},
		"p90_ms":         {quantile(lat, 0.9), "ms"},
		"cpu_us_per_req": {float64(u1.cpu-u0.cpu) / 1e3 / n, "us"},
		"allocs_per_req": {float64(u1.allocs-u0.allocs) / n, "count"},
	}
	// The samples are dead from here, so the collection before the
	// heap is read frees them: heap_mb is the daemon's and does not
	// grow with the number of requests.
	ms["heap_mb"] = metric{liveHeapMB(), "MB"}
	if err := k.stop(); err != nil {
		return nil, err
	}
	return ms, nil
}

// describe prints the request mix to standard error: each class's
// count, share and median, the latency tiers, where the p50 and p90
// ranks fall, and the highest percentile with 10 samples beyond it.
func (b *bench) describe(ss []sample, lat []float64) {
	classes, kinds := mixOf(ss, byClass), mixOf(ss, byKind)
	fmt.Fprintf(os.Stderr, "%d timed requests\n", len(ss))
	for c := class(0); c < numClasses; c++ {
		if k := (kind{cls: c, goal: -1}); classes.count[k] > 0 {
			fmt.Fprintf(os.Stderr, "  %-8s %7d  share %.3f  p50 %.4f ms\n", c, classes.count[k], classes.share(k), classes.median[k])
		}
	}
	for _, q := range []float64{0.5, 0.9} {
		m, t := kinds.margin(q)
		fmt.Fprintf(os.Stderr, "  p%.0f rank falls in tier %v, %.3f from a tier boundary\n", q*100, kinds.tiers[t], m)
	}
	for i, g := range b.p.goals {
		fmt.Fprintf(os.Stderr, "  g%d = %s\n", i, g.text)
	}
	if q, ok := tailQuantile(len(lat)); ok {
		fmt.Fprintf(os.Stderr, "  highest percentile with 10 samples beyond: p%g = %.4f ms\n", q*100, quantile(lat, q))
	}
}

// traced is the per-layer run: one set-up through the tracing
// wrapper, four timed segments of which two are traced, then the
// in-process replay of set-up and one lap of every client with a span
// around each layer call.
func (b *bench) traced() (map[string]metric, error) {
	tr := &tracer{}
	k, _, setupSS, err := b.setUp(tr)
	if err != nil {
		return nil, err
	}
	var start []int
	if b.p.band > 0 {
		start = b.tenantSizes(k)
	}
	// Four segments, traced, untraced, untraced, traced, so that both
	// halves sample the run alike even where its cost drifts; together
	// two thirds of the run, or one lap each on churn.
	seg := time.Duration(b.cfg.seconds / 6 * float64(time.Second))
	segLaps := min(b.timedLaps(b.cfg.seconds), 1)
	next := make([]int64, b.p.clients)
	traced := &httpDaemon{base: k.http.base, c: k.http.c, traced: true}
	var plain, rs []*runner
	var u usage
	for _, on := range []bool{true, false, false, true} {
		if !on {
			plain = append(plain, b.drive(func(int) daemon { return k.http }, seg, segLaps, next)...)
			continue
		}
		u0 := readUsage()
		rs = append(rs, b.drive(func(int) daemon { return traced }, seg, segLaps, next)...)
		u = u.plus(readUsage().minus(u0))
	}
	b.steal = u.stealShare()
	if b.p.band > 0 {
		b.steady(start, b.tenantSizes(k))
	}
	stats, err := k.http.c.Stats(context.Background())
	if err != nil {
		return nil, err
	}
	built := k.srv.Pool().Stats().Built
	if err := k.stop(); err != nil {
		return nil, err
	}
	freeMemory()

	// Replay: set-up, then one lap per client, the clients concurrent
	// as in the HTTP run.
	rt := &tracer{}
	m, err := newMimic(engine.New(engine.WithPoolSize(poolSize), engine.WithWarm(b.p.warm)), rt)
	if err != nil {
		return nil, err
	}
	setup := &runner{d: m, p: b.p, client: -1}
	for i, o := range b.p.setup {
		setup.do(int64(i), o)
	}
	m.count = true
	laps := b.drive(func(int) daemon { return m.fork() }, 0, 1, make([]int64, b.p.clients))
	b.tally(setup)

	tracedSS, plainSS := samplesOf(rs), samplesOf(plain)
	httpSS := append(append(append([]sample(nil), setupSS...), plainSS...), tracedSS...)
	replaySS := append(samplesOf(laps), setup.samples...)
	if len(tracedSS) == 0 || len(plainSS) == 0 {
		return nil, fmt.Errorf("no requests completed")
	}
	ms := b.layers(tr.spans, tracedSS, rt.spans, replaySS, m)
	ms["server.image_misses"] = metric{float64(stats.Pool.Images), "count"}
	ms["server.sessions_parked"] = metric{float64(stats.Sessions.Parked), "count"}
	ms["engine.machines_built"] = metric{float64(built), "count"}
	ms["runtime.gc_cpu_share"] = metric{u.gcCPU / max(u.totalCPU, 1e-9), "ratio"}
	ms["runtime.gc_cycles_per_kreq"] = metric{float64(u.gcCycles) * 1000 / float64(len(tracedSS)), "count"}

	tracedP50, plainP50 := quantile(latencies(tracedSS), 0.5), quantile(latencies(plainSS), 0.5)
	ms["trace.traced_p50_ms"] = metric{tracedP50, "ms"}
	ms["trace.untraced_p50_ms"] = metric{plainP50, "ms"}
	ms["trace.overhead_ratio"] = metric{tracedP50 / plainP50, "ratio"}
	kinds := mixOf(plainSS, byKind)
	m50, _ := kinds.margin(0.5)
	m90, _ := kinds.margin(0.9)
	ms["rank.p50_margin"] = metric{m50, "share"}
	ms["rank.p90_margin"] = metric{m90, "share"}
	b.describe(plainSS, latencies(plainSS))

	all := mixOf(httpSS, byClass)
	for c := class(0); c < numClasses; c++ {
		k := kind{cls: c, goal: -1}
		ms["op."+c.String()+".p50_ms"] = metric{all.median[k], "ms"}
		ms["op."+c.String()+".count"] = metric{float64(all.count[k]), "count"}
	}

	var spans []span
	for _, s := range httpSS {
		spans = append(spans, span{name: "client." + s.cls.String(), id: s.id, start: s.start, end: s.end})
	}
	spans = append(spans, tr.spans...)
	for _, s := range replaySS {
		spans = append(spans, span{name: "replay." + s.cls.String(), id: s.id, start: s.start, end: s.end})
	}
	spans = append(spans, rt.spans...)
	path := filepath.Join(b.cfg.out, fmt.Sprintf("spans-%s.jsonl", b.cfg.workload))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	return ms, nil
}

// layers computes the per-layer metrics from the traced HTTP phase
// (client samples and server handler spans) and the replay (request
// samples and layer spans).
func (b *bench) layers(handler []span, traced []sample, replay []span, replaySS []sample, m *mimic) map[string]metric {
	ms := map[string]metric{}
	us := map[string][]float64{}
	for _, s := range replay {
		us[s.name] = append(us[s.name], float64(s.dur())/1e3)
	}
	layer := func(name, spanName string) {
		ms[name] = metric{median(us[spanName]), "us"}
	}
	layer("wire.decode_us", "wire.decode")
	layer("wire.encode_us", "wire.encode")
	layer("core.compile_us", "core.compile")
	layer("compiler.goal_us", probeGoalCompile)
	layer("engine.begin_us", "engine.begin")
	layer("engine.begin_dyn_us", "engine.begin_dyn")
	layer("engine.close_us", "engine.close")
	layer("machine.run_us", "machine.run")
	layer("term.readback_us", "term.readback")
	layer("dyndb.assert_us", "dyndb.assert")
	layer("dyndb.retract_us", "dyndb.retract")
	layer("snapshot.suspend_us", "snapshot.suspend")
	layer("snapshot.resume_us", "snapshot.resume")
	ms["snapshot.blob_kb"] = metric{median(m.blobKB), "KiB"}

	// Client self time: the client span minus the server span of the
	// same request.
	byID := map[reqID]span{}
	for _, s := range handler {
		byID[s.id] = s
	}
	var clientSelf, handlerUS []float64
	for _, s := range traced {
		if h, ok := byID[s.id]; ok {
			clientSelf = append(clientSelf, float64(selfTime(span{start: s.start, end: s.end}, []span{h}))/1e3)
			handlerUS = append(handlerUS, float64(h.dur())/1e3)
		}
	}
	ms["client.self_us"] = metric{median(clientSelf), "us"}
	ms["server.handler_us"] = metric{median(handlerUS), "us"}

	// Server self time: the handler span minus the part of the same
	// request's replay that the layer spans cover.
	children := map[reqID][]span{}
	var runNS int64
	for _, s := range replay {
		if s.name == probeGoalCompile {
			continue
		}
		children[s.id] = append(children[s.id], s)
		if s.name == "machine.run" && s.id.client >= 0 {
			runNS += s.dur()
		}
	}
	layerNS := map[reqID]int64{}
	lapReqs := 0
	for _, s := range replaySS {
		if s.id.client >= 0 {
			layerNS[s.id] = covered(span{start: s.start, end: s.end}, children[s.id])
			lapReqs++
		}
	}
	var serverSelf []float64
	for _, h := range handler {
		if h.id.client < 0 {
			continue
		}
		key := h.id
		l := int64(len(b.p.laps[key.client]))
		if b.p.drifts && key.op >= l {
			continue
		}
		key.op %= l
		if cov, ok := layerNS[key]; ok {
			serverSelf = append(serverSelf, float64(h.dur()-cov)/1e3)
		}
	}
	ms["server.self_us"] = metric{median(serverSelf), "us"}

	sim := m.sim
	ms["machine.host_ns_per_cycle"] = metric{float64(runNS) / float64(max(sim.cycles, 1)), "ns"}
	ms["machine.sim_cycles_per_req"] = metric{float64(sim.cycles) / float64(max(lapReqs, 1)), "count"}
	ms["machine.sim_instrs_per_req"] = metric{float64(sim.instrs) / float64(max(lapReqs, 1)), "count"}
	ms["machine.dcache_hit_ratio"] = metric{float64(sim.dHits) / float64(max(sim.dAccess, 1)), "ratio"}
	ms["machine.ccache_hit_ratio"] = metric{float64(sim.cHits) / float64(max(sim.cAccess, 1)), "ratio"}
	ms["machine.fused_step_share"] = metric{float64(sim.fused) / float64(max(sim.instrs, 1)), "ratio"}
	return ms
}

// host identifies the machine a result was measured on.
func host() map[string]any {
	cpu := "unknown"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}

// report writes the run's record under the output directory, prints
// the host line and then the result as the last line of standard
// output.
func (b *bench) report(res result) error {
	for name, m := range res.Metrics {
		if m.Value != m.Value {
			return fmt.Errorf("metric %s is not a number", name)
		}
	}
	h := host()
	record := map[string]any{
		"workload": b.cfg.workload, "seed": b.cfg.seed, "seconds": b.cfg.seconds, "trace": b.cfg.trace,
		"host": h, "host_steal_share": b.steal, "result": res, "errors": b.errs,
	}
	buf, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%t.json", b.cfg.workload, b.cfg.seed, b.cfg.trace)
	if err := os.WriteFile(filepath.Join(b.cfg.out, name), buf, 0o644); err != nil {
		return err
	}
	hostLine, err := json.Marshal(map[string]any{"host": h})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(hostLine))
	fmt.Println(string(line))
	return nil
}
