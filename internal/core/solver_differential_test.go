package core

import (
	"testing"

	"mix/internal/engine"
	"mix/internal/langgen"
	"mix/internal/solver"
	"mix/internal/types"
)

// TestSearchCoresMatchOnGeneratedPrograms: the CDCL core and the
// legacy DPLL core are interchangeable back ends — checking randomly
// generated programs must produce the same accept/reject verdict and
// the same derived type under every -solver setting, at one worker
// and at two. The DPLL core stays in the tree exactly to serve as this
// differential oracle.
func TestSearchCoresMatchOnGeneratedPrograms(t *testing.T) {
	const programs = 120
	algos := []solver.Algo{solver.AlgoCDCL, solver.AlgoDPLL}

	for _, symb := range []bool{false, true} {
		name := "typed"
		if symb {
			name = "symbolic"
		}
		t.Run(name, func(t *testing.T) {
			gen := langgen.New(0xCDC1, langgen.DefaultConfig())
			accepted, rejected := 0, 0
			for i := 0; i < programs; i++ {
				prog := gen.Closed()
				check := func(opts Options) (types.Type, error) {
					c := New(opts)
					if symb {
						return c.CheckSymbolic(types.EmptyEnv(), prog)
					}
					return c.Check(types.EmptyEnv(), prog)
				}
				wantTy, wantErr := check(Options{})
				for _, a := range algos {
					for _, workers := range []int{1, 2} {
						eng := engine.New(engine.Options{Workers: workers, SolverAlgo: a})
						gotTy, gotErr := check(Options{Engine: eng})
						eng.Close()
						if (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("program %s: verdict diverges under %v (workers=%d): default err=%v, got err=%v",
								prog, a, workers, wantErr, gotErr)
						}
						if wantErr == nil && !types.Equal(wantTy, gotTy) {
							t.Fatalf("program %s: type diverges under %v (workers=%d): %s vs %s",
								prog, a, workers, wantTy, gotTy)
						}
					}
				}
				if wantErr == nil {
					accepted++
				} else {
					rejected++
				}
			}
			if accepted == 0 || rejected == 0 {
				t.Fatalf("degenerate distribution: %d accepted, %d rejected", accepted, rejected)
			}
		})
	}
}
