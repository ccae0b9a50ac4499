// Command perfbench is the repository's benchmark. It times MIX/MIXY
// end to end through the public facade (mix.AnalyzeC) and the
// in-process daemon (serve.Server's handler, called directly with no
// sockets), checks every verdict against an oracle that does not come
// from an analysis run, and, in a separate traced run, breaks each
// operation's wall time down by layer. README.md gives the workloads,
// the reasons for them and the metric definitions.
//
//	go run . --workload vsftpd --seed 1 --seconds 25 --trace 0
//	go run . compare before.out after.out
//
// Each run prints one "metric" line per metric, a "report" JSON line
// carrying the host and input fingerprint, and last a JSON summary:
// {"correct", "attempted", "failed", "metrics"}. It exits 1 when any
// operation failed. A traced run also writes its span trees to
// .bench_build/spans/ under the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"mix/internal/serve"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fingerprint identifies the host and the inputs of a run; compare
// refuses to put results with different fingerprints side by side.
type fingerprint struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	Inputs     string `json:"inputs_sha256"`
}

// report is the full record of one run.
type report struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Samples     int               `json:"samples"`
	BeyondP90   int               `json:"samples_beyond_p90"`
	RepeatShare float64           `json:"repeat_share,omitempty"`
	Failures    []string          `json:"failures,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	// Wall holds an untraced run's wall-clock figures, reported but
	// not judged (endToEnd).
	Wall map[string]metric `json:"wall,omitempty"`
}

// runSummary is the last line of a run's output.
type runSummary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// minOps is the fewest measured operations per run, so that at least
// ten samples lie beyond the p90.
const minOps = 100

// serveWarm is the number of most popular pool entries the serve
// client sends once each before the measured window. It
// covers the unmerged ladder at rank 0, so the memo miss of the
// exhaustiveness query all of them share — seconds long — is always
// paid before the window, never inside it by the luck of the draw.
const serveWarm = 63

// An untraced serve run measures a fixed count of requests, serveRate
// per second of its budget, which a 2-vCPU host sends in about the
// budget. A window bounded by time instead would hold fewer requests
// on a slower host, and so a larger share of the stream's early,
// costlier first-time requests: the host's speed would change what was
// measured. serveLimit caps the window at that many budgets all the
// same, so that a very slow host still ends the run in time.
const (
	serveRate  = 420
	serveLimit = 4
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == setupCommand {
		os.Exit(setupProbe(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: vsftpd, typed, cgen or serve")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 25, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	rep, sum, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, n := range sortedNames(sum.Metrics) {
		m := sum.Metrics[n]
		fmt.Printf("metric %s %.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("samples %d beyond_p90 %d\n", rep.Samples, rep.BeyondP90)
	for _, f := range rep.Failures {
		fmt.Printf("failure %s\n", f)
	}
	emit(map[string]report{"report": rep})
	emit(sum)
	if !sum.Correct {
		os.Exit(1)
	}
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run times the system's set-up, generates the inputs, and measures
// the system on them.
func run(w workload, seed int64, budget time.Duration, traced bool) (report, runSummary, error) {
	var t tally
	var setup time.Duration
	if !traced {
		var err error
		if setup, err = measureSetup(w); err != nil {
			return report{}, runSummary{}, err
		}
	}
	var st *serveTracer
	if w.serve {
		s := serve.New(serve.Options{})
		st = &serveTracer{h: s.Handler(), srv: s}
	}
	in, err := w.gen(seed)
	if err != nil {
		return report{}, runSummary{}, fmt.Errorf("generate %s inputs: %w", w.name, err)
	}
	pool := in.ops
	rep := report{Fingerprint: fingerprint{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Workload:   w.name,
		Seed:       seed,
		Inputs:     inputsDigest(in),
	}}
	if traced {
		rep.Fingerprint.Trace = 1
	}
	// Warm up: the serve client takes the pool's popular head into the
	// caches; the facade runs its first two inputs.
	var untraced execFn
	var loop func(budget time.Duration, exec execFn) phase
	if st != nil {
		untraced = serveExec(st.h)
		warmServe(pool[:serveWarm], untraced, &t)
		next := 0
		loop = func(budget time.Duration, exec execFn) phase {
			if traced {
				return serveLoop(in.stream, &next, pool, math.MaxInt, budget, exec, &t)
			}
			return serveLoop(in.stream, &next, pool, int(budget.Seconds()*serveRate), serveLimit*budget, exec, &t)
		}
	} else {
		untraced = runFacade
		for i := 0; i < 2; i++ {
			v, _, err := runFacade(&pool[i])
			t.record(&pool[i], v, err)
		}
		loop = func(budget time.Duration, exec execFn) phase { return cycleLoop(pool, budget, minOps, exec, &t) }
	}

	// Measure from a collected heap, with freed memory returned to the
	// operating system, so neither the garbage nor the peak of input
	// generation and warm-up is charged to the window.
	debug.FreeOSMemory()
	var metrics map[string]metric
	var p phase
	if !traced {
		p = loop(budget, untraced)
		metrics = endToEnd(p, setup)
		rep.Wall = wallFigures(p)
	} else {
		// An untraced third gives the baseline for the tracing overhead
		// and the Go runtime's figures, which the replays of the traced
		// part would disturb; the traced two thirds give the layers.
		r0 := readRuntime()
		base := loop(budget/3, untraced)
		r1 := readRuntime()
		la := newLayerAgg()
		var exec execFn
		var sc0 map[string]float64
		if st != nil {
			sc0 = serverCounts(st.srv)
			exec = tracedExec(la, st.op)
		} else {
			exec = tracedExec(la, tracedFacade)
		}
		p = loop(budget-budget/3, exec)
		if st != nil {
			for k, v := range serverCounts(st.srv) {
				la.counts[k] += v - sc0[k]
			}
		}
		metrics = la.perLayer()
		spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := la.writeSpans(spans); err != nil {
			return rep, runSummary{}, fmt.Errorf("write spans: %w", err)
		}
		metrics["trace.overhead_frac"] = metric{ratio(float64(quantile(p.lat, 0.5)), float64(quantile(base.lat, 0.5))) - 1, "ratio"}
		metrics["runtime.gc.cpu_frac"] = metric{ratio(r1.gcCPU-r0.gcCPU, r1.busyCPU-r0.busyCPU), "ratio"}
		metrics["runtime.alloc.bytes_per_op"] = metric{ratio(r1.alloc-r0.alloc, float64(len(base.lat))), "B"}
		metrics["failed_frac"] = metric{ratio(float64(t.failed), float64(t.attempted)), "ratio"}
	}
	rep.Samples = len(p.lat)
	rep.BeyondP90 = beyond(p.lat, quantile(p.lat, 0.9))
	if w.serve {
		rep.RepeatShare = repeatShare(pool, p.idx)
	}
	if traced {
		metrics["serve.repeat_share"] = metric{rep.RepeatShare, "ratio"}
	}
	rep.Failures = t.firstErrs
	rep.Metrics = metrics
	return rep, runSummary{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// endToEnd computes the user-visible metrics of a measured window.
// The time to a verdict is measured in CPU time, which the program
// sets; the wall time it took is reported beside them (wallFigures)
// but not judged, because on a shared host it moves with the load
// other tenants put on it.
func endToEnd(p phase, setup time.Duration) map[string]metric {
	return map[string]metric{
		"setup_s":            {setup.Seconds(), "s"},
		"verdict_cpu_ms.p50": {float64(quantile(p.cpuLat, 0.5)) / 1e6, "ms"},
		"verdict_cpu_ms.p90": {float64(quantile(p.cpuLat, 0.9)) / 1e6, "ms"},
		"cpu_ms_per_op":      {float64(p.cpu) / 1e6 / float64(len(p.lat)), "ms"},
		"peak_rss_mb":        {p.peakMB, "MB"},
	}
}

// wallFigures are the wall-clock figures of a measured window.
func wallFigures(p phase) map[string]metric {
	return map[string]metric{
		"verdict_ms.p50": {float64(quantile(p.lat, 0.5)) / 1e6, "ms"},
		"verdict_ms.p90": {float64(quantile(p.lat, 0.9)) / 1e6, "ms"},
		"ops_per_s":      {float64(len(p.lat)) / p.wall.Seconds(), "1/s"},
	}
}

// repeatShare is the share of measured requests whose request (path,
// source and options) appeared earlier in the window.
func repeatShare(pool []op, idx []int) float64 {
	seen := map[string]bool{}
	rep := 0
	for _, i := range idx {
		o := &pool[i]
		k := fmt.Sprintf("%s\x00%s\x00%+v", o.path, o.src, o.req)
		if seen[k] {
			rep++
		}
		seen[k] = true
	}
	return ratio(float64(rep), float64(len(idx)))
}

// compare prints the median of each metric on two sets of saved run
// outputs, and refuses when the sets' fingerprints differ: another
// host, toolchain, workload, seed or input set.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BEFORE AFTER (files of saved run output)")
		return 2
	}
	var sides [2][]report
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		for _, line := range strings.Split(string(b), "\n") {
			if !strings.HasPrefix(line, `{"report":`) {
				continue
			}
			var r map[string]report
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", path, err)
				return 2
			}
			sides[i] = append(sides[i], r["report"])
		}
		if len(sides[i]) == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s holds no run report\n", path)
			return 2
		}
	}
	if err := sameFingerprints(sides[0], sides[1]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare: %v\n", err)
		return 3
	}
	fmt.Printf("%-32s %14s %14s %9s\n", "metric", "before", "after", "after/before")
	for _, name := range sortedNames(sides[0][0].Metrics) {
		a, b := medianMetric(sides[0], name), medianMetric(sides[1], name)
		fmt.Printf("%-32s %14.6g %14.6g %9.3f  %s\n", name, a, b, ratio(b, a), sides[0][0].Metrics[name].Unit)
	}
	return 0
}

// sameFingerprints requires both sides to hold the same multiset of
// fingerprints.
func sameFingerprints(a, b []report) error {
	count := map[fingerprint]int{}
	for _, r := range a {
		count[r.Fingerprint]++
	}
	for _, r := range b {
		count[r.Fingerprint]--
	}
	for f, n := range count {
		if n != 0 {
			return fmt.Errorf("fingerprint %+v appears on one side only", f)
		}
	}
	return nil
}

func medianMetric(rs []report, name string) float64 {
	var vals []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}
