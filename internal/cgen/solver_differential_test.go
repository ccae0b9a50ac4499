package cgen

import (
	"strings"
	"testing"

	"mix/internal/engine"
	"mix/internal/mixy"
	"mix/internal/solver"
)

// TestSearchCoresMatchOnGeneratedC: MIXY warnings over generated C
// programs must be byte-identical under every -solver setting — the
// CDCL core with its incremental assumption stacks and the legacy DPLL
// oracle — through the engine's pooled incremental solvers at one
// worker and at four. Any learned clause that survives where it
// shouldn't, or any assumption that leaks across a pop, shows up here
// as a warning diff.
func TestSearchCoresMatchOnGeneratedC(t *testing.T) {
	const programs = 60
	cfg := DefaultConfig()
	cfg.SymbolicEntry = true
	gen := New(0xCDC2, cfg)
	algos := []solver.Algo{solver.AlgoCDCL, solver.AlgoDPLL}

	diverse := 0
	for i := 0; i < programs; i++ {
		src := gen.Program()
		base, err := mixy.Run(mustParse(src), mixy.Options{StrictInit: true})
		if err != nil {
			t.Fatalf("program %d: default run failed: %v\n%s", i, err, src)
		}
		want := warningText(base)
		if len(base.Warnings) > 0 {
			diverse++
		}
		for _, a := range algos {
			for _, workers := range []int{1, 4} {
				eng := engine.New(engine.Options{Workers: workers, SolverAlgo: a})
				pooled, err := mixy.Run(mustParse(src), mixy.Options{StrictInit: true, Engine: eng})
				eng.Close()
				if err != nil {
					t.Fatalf("program %d (%v, workers=%d): %v\n%s", i, a, workers, err, src)
				}
				if got := warningText(pooled); got != want {
					t.Fatalf("program %d (%v, workers=%d): warnings diverge\ndefault:\n%s\ngot:\n%s\nprogram:\n%s",
						i, a, workers, want, got, src)
				}
			}
		}
	}
	if diverse < 5 {
		t.Fatalf("only %d of %d programs produced warnings; property too weak", diverse, programs)
	}
}

func warningText(a *mixy.Analysis) string {
	out := make([]string, len(a.Warnings))
	for i, w := range a.Warnings {
		out[i] = w.String()
	}
	return strings.Join(out, "\n")
}
