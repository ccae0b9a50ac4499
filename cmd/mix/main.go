// Command mix checks a core-language program (.mix file) with the
// mixed type checking / symbolic execution analysis.
//
// Usage:
//
//	mix [-symbolic] [-unsound] [-defer] [-merge mode]
//	    [-env name:type,...]
//	    [-workers n] [-max-paths n] [-memo=false] [-cache-dir dir]
//	    [-deadline d] [-solver-timeout d]
//	    [-stats] [-metrics] [-trace file] [-trace-det] [-pprof addr]
//	    file.mix
//
// The program is read from the file (or stdin when the argument is
// "-"). Free variables are declared with -env, e.g.
// -env b:bool,x:int. Exit status 1 means the program was rejected.
//
// The analysis flags are shared with mixy and with the mixd request
// schema (see internal/cliflags): every check runs on the
// path-exploration engine, and -workers n gives it n workers (0, the
// default, keeps exploration sequential); -max-paths bounds the
// engine's total path budget; -memo=false disables the engine's solver
// memo table. With -v the engine's fork/steal/memo statistics are
// printed alongside path and query counts. -cache-dir persists the engine's definite solver
// verdicts and counterexample models under a directory, so a repeat
// run answers previously decided queries from disk.
//
// -merge selects veritesting-style state merging at conditional join
// points (DESIGN.md section 12): "joins" (the default) folds the two
// arms of a forked conditional back into one guarded state when both
// reach the join alive, "aggressive" additionally folds multi-path
// arms, and "off" restores pure forking (2^k paths on k sequential
// diamonds).
//
// -deadline bounds the whole check's wall-clock time and
// -solver-timeout bounds each solver query. A check cut short by
// either (or by -max-paths) degrades instead of failing: it prints an
// imprecision report naming the fault class and exits 0, because a
// truncated exploration certifies nothing and refutes nothing.
//
// -shards n distributes exploration across n worker processes
// (DESIGN.md section 15): the path tree splits at its first
// -shard-depth fork decisions into 2^depth subtree work items, workers
// heartbeat while exploring, and a worker that crashes or stalls is
// killed, respawned, and its item retried (-shard-attempts, with
// jittered exponential backoff) before the subtree is declared lost
// and the verdict degrades to explicit imprecision. The merged output
// is byte-identical at any shard count.
//
// Observability (see README "Stats and metrics schema" and DESIGN.md
// section 11): -stats prints the run's metrics registry as sorted
// "name value" lines — the same schema mixy -stats uses; -metrics
// prints the registry as a JSON snapshot instead and moves the
// human-readable verdict to stderr, leaving stdout pure JSON for
// pipelines. -trace file writes
// a JSONL event trace of the exploration (validate or convert it for
// Perfetto with cmd/mixtrace); -trace-det makes the trace
// deterministic — wall-clock-free and byte-comparable across runs and
// worker counts. -pprof addr serves net/http/pprof for the duration
// of the run.
package main

import (
	"flag"
	"fmt"
	"os"

	"mix"
	"mix/internal/cliflags"
	"mix/internal/obs"
	"mix/internal/profiling"
	"mix/internal/shard"
)

func main() {
	shard.WorkerMain() // no-op unless re-executed as a shard worker
	var a cliflags.Analysis
	var o cliflags.Obs
	var sh cliflags.Sharding
	a.Register(flag.CommandLine, cliflags.Core)
	o.Register(flag.CommandLine)
	sh.Register(flag.CommandLine)
	verbose := flag.Bool("v", false, "print discarded reports and statistics")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mix [flags] file.mix")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := cliflags.ReadInput(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mix:", err)
		os.Exit(2)
	}

	if o.PprofAddr != "" {
		addr, err := profiling.Serve(o.PprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mix: pprof:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "mix: pprof serving on http://%s/debug/pprof/\n", addr)
	}

	cfg := a.MixConfig()
	if cfg.Env == nil {
		cfg.Env = map[string]string{}
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err) // Validate errors carry the package prefix
		os.Exit(2)
	}
	if o.Stats || o.MetricsJSON {
		cfg.Metrics = obs.NewRegistry()
	}
	if o.TraceFile != "" {
		cfg.Tracer = obs.NewTracer(obs.TraceOptions{Deterministic: o.TraceDet})
	}

	// With -metrics, stdout carries exactly one JSON document; the
	// human-readable verdict moves to stderr.
	human := os.Stdout
	if o.MetricsJSON {
		human = os.Stderr
	}

	var res mix.Result
	if sh.Shards > 0 {
		sopts := shard.FromFlags(sh)
		sopts.Tracer, sopts.Metrics = cfg.Tracer, cfg.Metrics
		res, err = shard.ExploreCore(src, a, sopts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		res = mix.Check(src, cfg)
	}
	if cfg.Tracer != nil {
		if err := cliflags.WriteTrace(o.TraceFile, cfg.Tracer); err != nil {
			fmt.Fprintln(os.Stderr, "mix: trace:", err)
			os.Exit(2)
		}
	}
	if o.MetricsJSON {
		if err := cfg.Metrics.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "mix: metrics:", err)
			os.Exit(2)
		}
	} else if o.Stats {
		if err := cfg.Metrics.WriteStats(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "mix: stats:", err)
			os.Exit(2)
		}
	}
	if *verbose {
		for _, r := range res.Reports {
			fmt.Fprintln(human, r)
		}
		fmt.Fprintf(human, "paths=%d solver-queries=%d\n", res.Paths, res.SolverQueries)
		fmt.Fprintf(human, "engine: forks=%d steals=%d memo-hits=%d memo-misses=%d solver-time=%v\n",
			res.Forks, res.Steals, res.MemoHits, res.MemoMisses, res.SolverTime)
		fmt.Fprintf(human, "pipeline: quick-decided=%d slices=%d max-slice=%d cex-hits=%d\n",
			res.QuickDecided, res.Slices, res.MaxSlice, res.CexHits)
		fmt.Fprintf(human, "faults: timeouts=%d panics-recovered=%d paths-truncated=%d\n",
			res.Timeouts, res.PanicsRecovered, res.PathsTruncated)
	}
	if res.Degraded {
		// A degraded check is unknown, not rejected: report the
		// imprecision and exit 0 so batch drivers keep going.
		fmt.Fprintf(human, "imprecision: analysis degraded (%s): %s\n", res.Fault, res.FaultDetail)
		fmt.Fprintln(human, "type: unknown (exploration truncated; cannot certify)")
		return
	}
	if res.Err != nil {
		fmt.Fprintln(os.Stderr, res.Err)
		os.Exit(1)
	}
	fmt.Fprintln(human, "type:", res.Type)
}
