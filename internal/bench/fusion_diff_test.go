package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/word"
)

// The host-tier differential harness. It was written for the
// superinstruction fusion tier, which is deleted; the predecoded code
// cache is the one host-side translation tier left, and the harness
// holds it to the same contract: for every suite program a warm run
// that dispatches on predecoded entries and a warm run that must
// re-decode every instruction are indistinguishable in everything
// simulated — solutions and output, instruction/cycle counters, cache
// and MMU statistics, GC activity, and the structured trace stream.
// The Fusion vestige of the result stays zero on both.

// runRedecoded is RunKCMWarm with the predecoded code dropped between
// the warm-up and the measured run: the whole loaded image is patched
// with its own words, which invalidates every predecoded entry (and
// its residency flag) while leaving the simulated code space and the
// code cache contents as the warm-up left them.
func runRedecoded(p Program, pure bool, cfg machine.Config) (RunResult, error) {
	im, err := Compile(p, pure)
	if err != nil {
		return RunResult{}, err
	}
	var out strings.Builder
	if cfg.Out == nil {
		cfg.Out = &out
	}
	m, err := machine.New(im, cfg)
	if err != nil {
		return RunResult{}, err
	}
	entry, _ := im.Entry(compiler.QueryPI)
	if _, err := m.Run(entry); err != nil {
		return RunResult{}, fmt.Errorf("bench %s (warm-up): %w", p.Name, err)
	}
	code := make([]word.Word, m.CodeTop())
	for a := range code {
		code[a] = m.CodeWordAt(uint32(a))
	}
	if err := m.PatchCode(0, code); err != nil {
		return RunResult{}, fmt.Errorf("bench %s (self-patch): %w", p.Name, err)
	}
	for a := uint32(0); a < m.CodeTop(); a++ {
		if w := m.PredecodedWidth(a); w != 0 {
			return RunResult{}, fmt.Errorf("bench %s: predecoded entry at %d survived the self-patch (width %d)", p.Name, a, w)
		}
	}
	out.Reset()
	m.ResetStats()
	res, err := m.Run(entry)
	if err != nil {
		return RunResult{}, fmt.Errorf("bench %s: %w", p.Name, err)
	}
	return RunResult{
		Program: p.Name,
		Pure:    pure,
		Success: res.Success,
		Stats:   res.Stats,
		Result:  res,
		Output:  out.String(),
	}, nil
}

// runPair executes one suite program warm with predecoded dispatch
// and with every instruction re-decoded.
func runPair(t *testing.T, p Program) (pre, dec RunResult) {
	t.Helper()
	pre, err := RunKCMWarm(p, true, machine.Config{})
	if err != nil {
		t.Fatalf("%s predecoded: %v", p.Name, err)
	}
	dec, err = runRedecoded(p, true, machine.Config{})
	if err != nil {
		t.Fatalf("%s re-decoded: %v", p.Name, err)
	}
	return pre, dec
}

func TestFusionDifferentialSuite(t *testing.T) {
	for _, p := range Suite {
		t.Run(p.Name, func(t *testing.T) {
			pre, dec := runPair(t, p)
			if pre.Success != dec.Success || pre.Output != dec.Output {
				t.Fatalf("solution diverged: predecoded (%v, %q) vs re-decoded (%v, %q)",
					pre.Success, pre.Output, dec.Success, dec.Output)
			}
			if pre.Stats != dec.Stats {
				t.Errorf("machine counters diverged:\npredecoded %+v\nre-decoded %+v", pre.Stats, dec.Stats)
			}
			if a, b := pre.Result.DCache, dec.Result.DCache; a != b {
				t.Errorf("data cache stats diverged:\npredecoded %+v\nre-decoded %+v", a, b)
			}
			if a, b := pre.Result.CCache, dec.Result.CCache; a != b {
				t.Errorf("code cache stats diverged:\npredecoded %+v\nre-decoded %+v", a, b)
			}
			if a, b := pre.Result.Mem, dec.Result.Mem; a != b {
				t.Errorf("memory stats diverged:\npredecoded %+v\nre-decoded %+v", a, b)
			}
			if a, b := pre.Result.DataMMU, dec.Result.DataMMU; a != b {
				t.Errorf("mmu stats diverged:\npredecoded %+v\nre-decoded %+v", a, b)
			}
			if a, b := pre.Result.GC, dec.Result.GC; a != b {
				t.Errorf("gc stats diverged:\npredecoded %+v\nre-decoded %+v", a, b)
			}
			if pre.Result.Fusion.FusedSteps != 0 || dec.Result.Fusion.FusedSteps != 0 {
				t.Errorf("fusion vestige not zero: %d / %d",
					pre.Result.Fusion.FusedSteps, dec.Result.Fusion.FusedSteps)
			}
		})
	}
}

// measuredRun records the trace events of the last run only: a
// KReset (ResetStats between warm-up and measured run) starts a fresh
// recording.
type measuredRun struct {
	limit int
	rec   *trace.Recorder
}

func (r *measuredRun) Emit(ev trace.Event) {
	if r.rec == nil || ev.Kind == trace.KReset {
		r.rec = trace.NewRecorder(r.limit)
	}
	r.rec.Emit(ev)
}

// TestFusionDifferentialTrace drives the traced twin: the structured
// event stream of a measured warm run through the traced dispatch
// loop must be event-for-event identical, cycles included, whether
// the loop dispatches on predecoded entries or re-decodes.
func TestFusionDifferentialTrace(t *testing.T) {
	const limit = 200_000
	for _, p := range Suite {
		t.Run(p.Name, func(t *testing.T) {
			recPre := &measuredRun{limit: limit}
			recDec := &measuredRun{limit: limit}
			if _, err := RunKCMWarm(p, true, machine.Config{Hook: recPre}); err != nil {
				t.Fatalf("predecoded: %v", err)
			}
			if _, err := runRedecoded(p, true, machine.Config{Hook: recDec}); err != nil {
				t.Fatalf("re-decoded: %v", err)
			}
			a, b := recPre.rec.Events(), recDec.rec.Events()
			if len(a) == 0 {
				t.Fatalf("no events recorded for the measured run")
			}
			if len(a) != len(b) {
				t.Fatalf("event count diverged: predecoded %d vs re-decoded %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("event %d diverged:\npredecoded %s\nre-decoded %s",
						i, trace.FormatEvent(a[i], nil), trace.FormatEvent(b[i], nil))
				}
			}
		})
	}
}
