package engine_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mix/internal/cgen"
	"mix/internal/core"
	"mix/internal/corpus"
	"mix/internal/engine"
	"mix/internal/langgen"
	"mix/internal/microc"
	"mix/internal/mixy"
	"mix/internal/solver"
	"mix/internal/types"
)

// freshOracle re-decides every query a pool answers with a fresh
// solver.New() on the monolithic formula pc ∧ extras — no interval
// fast path, slicing, memo, counterexample cache or warm solver — and
// records each verdict that disagrees with the pool's.
type freshOracle struct {
	mu      sync.Mutex
	queries int
	diffs   []string
}

func verdict(sat bool, err error) string {
	switch {
	case err == nil && sat:
		return "sat"
	case err == nil:
		return "unsat"
	case errors.Is(err, solver.ErrLimit):
		return "unknown"
	}
	return "error: " + err.Error()
}

func (o *freshOracle) observe(pc *solver.PC, extras []solver.Formula, sat bool, err error) {
	f := pc.Formula()
	for _, x := range extras {
		f = solver.NewAnd(f, x)
	}
	want, werr := solver.New().Sat(f)
	got, exp := verdict(sat, err), verdict(want, werr)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.queries++
	if got != exp && len(o.diffs) < 5 {
		o.diffs = append(o.diffs, fmt.Sprintf("%s: pipeline %s, fresh solver %s", f, got, exp))
	}
}

// legs are the engine configurations every corpus runs under.
var legs = []struct {
	name string
	opts engine.Options
}{
	{"workers=1", engine.Options{Workers: 1}},
	{"workers=4", engine.Options{Workers: 4}},
	{"workers=1,nomemo", engine.Options{Workers: 1, NoMemo: true}},
}

// runLegs runs one program under every leg with the oracle armed and
// returns the per-leg outputs and the number of queries re-decided,
// failing on any query whose pipeline verdict differs from the fresh
// solver's.
func runLegs(t *testing.T, name string, run func(*engine.Engine) string) (outs []string, queries int) {
	t.Helper()
	outs = make([]string, len(legs))
	for i, leg := range legs {
		o := &freshOracle{}
		restore := engine.SetQueryHook(o.observe)
		eng := engine.New(leg.opts)
		outs[i] = run(eng)
		eng.Close()
		restore()
		if len(o.diffs) > 0 {
			t.Fatalf("%s (%s): pipeline verdicts differ from a fresh solver:\n%s",
				name, leg.name, strings.Join(o.diffs, "\n"))
		}
		queries += o.queries
	}
	for i := range outs[1:] {
		if outs[i+1] != outs[0] {
			t.Fatalf("%s: %s output differs from %s\n%s:\n%s\n%s:\n%s",
				name, legs[i+1].name, legs[0].name, legs[0].name, outs[0], legs[i+1].name, outs[i+1])
		}
	}
	return outs, queries
}

// TestPipelineMatchesFreshSolver is the per-query differential for the
// engine's solver pipeline (interval fast path → slicing → memo →
// counterexample cache → core): on langgen core-language programs,
// cgen MicroC programs and a synthetic vsftpd, every query the pool
// answers at one worker, at four, and with the memo off gets the same
// sat/unsat/unknown verdict as a fresh solver on the unsliced formula,
// and each program's verdict, type and warnings agree across the legs.
func TestPipelineMatchesFreshSolver(t *testing.T) {
	for _, symb := range []bool{false, true} {
		name := "core-typed"
		if symb {
			name = "core-symbolic"
		}
		t.Run(name, func(t *testing.T) {
			gen := langgen.New(0xE9E9, langgen.DefaultConfig())
			accepted, rejected, queries := 0, 0, 0
			for i := 0; i < 200; i++ {
				prog := gen.Closed()
				outs, n := runLegs(t, prog.String(), func(eng *engine.Engine) string {
					c := core.New(core.Options{Engine: eng})
					var ty types.Type
					var err error
					if symb {
						ty, err = c.CheckSymbolic(types.EmptyEnv(), prog)
					} else {
						ty, err = c.Check(types.EmptyEnv(), prog)
					}
					if err != nil {
						return "rejected"
					}
					return "type " + ty.String()
				})
				queries += n
				if outs[0] == "rejected" {
					rejected++
				} else {
					accepted++
				}
			}
			if accepted == 0 || rejected == 0 || queries == 0 {
				t.Fatalf("degenerate corpus: %d accepted, %d rejected, %d queries", accepted, rejected, queries)
			}
		})
	}

	mixyRun := func(t *testing.T, src string, opts mixy.Options) func(*engine.Engine) string {
		return func(eng *engine.Engine) string {
			prog, err := microc.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			opts.Engine = eng
			a, err := mixy.Run(prog, opts)
			if err != nil {
				t.Fatalf("%v\n%s", err, src)
			}
			out := []string{fmt.Sprintf("iters=%d blocks=%d", a.Stats.FixpointIters, a.Stats.BlocksAnalyzed)}
			for _, w := range a.Warnings {
				out = append(out, w.String())
			}
			return strings.Join(out, "\n")
		}
	}
	t.Run("cgen", func(t *testing.T) {
		cfg := cgen.DefaultConfig()
		cfg.SymbolicEntry = true
		gen := cgen.New(0xD1FF, cfg)
		diverse, queries := 0, 0
		for i := 0; i < 120; i++ {
			src := gen.Program()
			outs, n := runLegs(t, fmt.Sprintf("program %d", i), mixyRun(t, src, mixy.Options{StrictInit: true}))
			queries += n
			if strings.Contains(outs[0], "\n") {
				diverse++
			}
		}
		if diverse < 10 || queries == 0 {
			t.Fatalf("only %d of 120 programs produced warnings (%d queries); property too weak", diverse, queries)
		}
	})
	t.Run("vsftpd", func(t *testing.T) {
		if _, n := runLegs(t, "SyntheticVsftpd(12,2)", mixyRun(t, corpus.SyntheticVsftpd(12, 2), mixy.Options{})); n == 0 {
			t.Fatal("the pool answered no queries")
		}
	})
}
