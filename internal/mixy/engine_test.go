package mixy

import (
	"sort"
	"strings"
	"testing"

	"mix/internal/corpus"
)

func warningStrings(a *Analysis) []string {
	out := make([]string, len(a.Warnings))
	for i, w := range a.Warnings {
		out[i] = w.String()
	}
	return out
}

// TestCachedContextsSortedAndStable: the block cache is a map; its
// exported view must be sorted and identical across repeated runs so
// fixpoint diagnostics are reproducible.
func TestCachedContextsSortedAndStable(t *testing.T) {
	src := corpus.SyntheticVsftpd(8, 2)
	var first []string
	for run := 0; run < 3; run++ {
		a, err := Run(mustParse(src), Options{})
		if err != nil {
			t.Fatal(err)
		}
		keys := a.CachedContexts()
		if len(keys) == 0 {
			t.Fatal("expected cached block contexts")
		}
		if !sort.StringsAreSorted(keys) {
			t.Fatalf("CachedContexts not sorted: %v", keys)
		}
		if run == 0 {
			first = keys
			continue
		}
		if strings.Join(keys, "\n") != strings.Join(first, "\n") {
			t.Fatalf("run %d cache keys differ:\n%v\nvs\n%v", run, keys, first)
		}
	}
}

// TestFixpointItersReproducible: iteration counts must not depend on
// map iteration order anywhere in the driver.
func TestFixpointItersReproducible(t *testing.T) {
	src := corpus.SyntheticVsftpd(12, 3)
	var iters, blocks int
	for run := 0; run < 3; run++ {
		a, err := Run(mustParse(src), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			iters, blocks = a.Stats.FixpointIters, a.Stats.BlocksAnalyzed
			continue
		}
		if a.Stats.FixpointIters != iters || a.Stats.BlocksAnalyzed != blocks {
			t.Fatalf("run %d: iters=%d blocks=%d, first run iters=%d blocks=%d",
				run, a.Stats.FixpointIters, a.Stats.BlocksAnalyzed, iters, blocks)
		}
	}
}
