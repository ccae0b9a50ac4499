package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"mix"
	"mix/internal/engine"
	"mix/internal/lang"
	"mix/internal/microc"
	"mix/internal/mixy"
	"mix/internal/obs"
	"mix/internal/pointer"
	"mix/internal/qual"
	"mix/internal/serve"
	"mix/internal/solver"
	"mix/internal/summary"
	"mix/internal/symexec"
)

// span is one layer's time inside an operation. A child's interval
// lies inside its parent's, so a span's self time is its duration
// minus its children's, and the self times of a tree sum to the
// root's duration: the root is the operation and its self time is the
// unattributed remainder.
type span struct {
	name     string
	dur      int64
	children []*span
}

func (s *span) add(name string, dur time.Duration) *span {
	c := &span{name: name, dur: int64(dur)}
	s.children = append(s.children, c)
	return c
}

// walk visits s and its descendants in depth-first order.
func (s *span) walk(f func(*span)) {
	f(s)
	for _, c := range s.children {
		c.walk(f)
	}
}

// selfTimes maps each span name to its self time. A name may appear
// once per tree, so no layer is counted twice, and no self time may be
// negative: children that outlast their parent were not measured
// inside it.
func (s *span) selfTimes() (map[string]int64, error) {
	out := map[string]int64{}
	var err error
	s.walk(func(n *span) {
		if _, dup := out[n.name]; dup && err == nil {
			err = fmt.Errorf("layer %s appears twice in one operation", n.name)
		}
		self := n.dur
		for _, c := range n.children {
			self -= c.dur
		}
		if self < 0 && err == nil {
			err = fmt.Errorf("layer %s: children outlast it by %d ns", n.name, -self)
		}
		out[n.name] = self
	})
	return out, err
}

// tracedOp is one operation of a traced run. tree partitions the
// operation's wall time (tree.dur). replay holds layer times measured
// outside that wall time, on a re-run of the same input, for layers a
// request hides inside the server; it is not part of the partition.
type tracedOp struct {
	tree   *span
	replay *span
	counts map[string]float64
}

// registryTimes adds the solver pool's own timers from a run's
// metrics registry under parent: the whole pipeline per query
// (solver.query.ns), and inside it the search core (solver.dpll.ns,
// which times whichever core runs).
func registryTimes(parent *span, reg *obs.Registry) {
	q := parent.add("engine.solver", time.Duration(reg.Histogram("solver.query.ns").Sum()))
	q.add("solver.core", time.Duration(reg.Histogram("solver.dpll.ns").Sum()))
}

// tracedFacade is the traced form of a facade operation. It makes the
// same calls mix.AnalyzeC makes for the facade workloads'
// configuration (parse, engine, mixy.Run), timing each, with a metrics
// registry on the engine for the solver pool's timers. Points-to and
// qualifier inference run inside mixy.Run, where they cannot be timed
// from outside; they are estimated by running their public entry
// points on the same parsed program just before mixy.Run, with the
// wall clock paused, and placed under mixy.run (estimateUnder).
func tracedFacade(o *op) (tracedOp, verdict, error) {
	cfg := o.cfg
	if cfg.Summaries || cfg.Cache != nil || cfg.PureTypes || cfg.NoCache {
		return tracedOp{}, verdict{}, fmt.Errorf("tracedFacade: unsupported configuration")
	}
	reg := obs.NewRegistry()
	root := &span{name: "op"}
	t0 := time.Now()
	prog, err := microc.Parse(o.src)
	tParse := time.Now()
	if err != nil {
		return tracedOp{}, verdict{}, err
	}
	algo, err := solver.ParseAlgo(cfg.Solver)
	if err != nil {
		return tracedOp{}, verdict{}, err
	}
	eng := engine.New(engine.Options{Workers: cfg.Workers, Metrics: reg, SolverAlgo: algo})
	var mm engine.MergeMode
	if cfg.Merge != "" {
		if mm, err = engine.ParseMergeMode(cfg.Merge); err != nil {
			eng.Close()
			return tracedOp{}, verdict{}, err
		}
	}
	tp := time.Now()
	pointer.Analyze(prog)
	tq := time.Now()
	inf := qual.New(prog)
	if cfg.StrictInit {
		inf.AddImplicitNullGlobals()
	}
	for _, f := range prog.Funcs {
		inf.AddFunction(f)
	}
	inf.Solve()
	pointerEst, qualEst := tq.Sub(tp), time.Since(tq)
	paused := time.Since(tp)

	clones0, _, writes0 := symexec.MemoryStats()
	tRun := time.Now()
	a, err := mixy.Run(prog, mixy.Options{
		Entry:      cfg.Entry,
		StrictInit: cfg.StrictInit,
		Merge:      mm,
		MergeCap:   cfg.MergeCap,
		Engine:     eng,
	})
	tRan := time.Now()
	clones1, _, writes1 := symexec.MemoryStats()
	if err != nil {
		eng.Close()
		return tracedOp{}, verdict{}, err
	}
	es := eng.Snapshot()
	eng.Close()
	v := verdict{Degraded: a.Degraded() != nil}
	for _, w := range a.Warnings {
		v.Warnings = append(v.Warnings, w.String())
	}
	root.dur = int64(time.Since(t0) - paused)

	root.add("microc.parse", tParse.Sub(t0))
	run := root.add("mixy.run", tRan.Sub(tRun))
	registryTimes(run, reg)
	clamped := estimateUnder(run, map[string]time.Duration{"pointer.analyze": pointerEst, "qual.infer": qualEst})

	return tracedOp{tree: root, counts: map[string]float64{
		"trace.clamped":           clamped,
		"mixy.fixpoint_iters":     float64(a.Stats.FixpointIters),
		"mixy.blocks_analyzed":    float64(a.Stats.BlocksAnalyzed),
		"mixy.block_cache.hits":   float64(a.Stats.CacheHits),
		"mixy.block_cache.misses": float64(a.Stats.CacheMisses),
		"symexec.mem.clones":      float64(clones1 - clones0),
		"symexec.mem.writes":      float64(writes1 - writes0),
		"symexec.merges":          float64(a.Exec.Stats.Merges),
		"engine.queries":          float64(es.SolverQueries),
		"engine.quick":            float64(es.QuickDecided),
		"engine.memo.hits":        float64(es.MemoHits),
		"engine.memo.misses":      float64(es.MemoMisses),
		"engine.cex.hits":         float64(es.CexHits),
		"solver.core.queries":     float64(reg.Histogram("solver.dpll.ns").Count()),
		"facade.solver_queries":   float64(a.Stats.SolverQueries),
	}}, v, nil
}

// estimateUnder adds layers timed on a separate run as children of
// parent, in a fixed order. Should the estimates exceed the part of
// parent its measured children leave, they are scaled down to fill
// exactly that part, so that parent's self time stays non-negative;
// it returns 1 when it scaled, else 0.
func estimateUnder(parent *span, est map[string]time.Duration) float64 {
	left := parent.dur
	for _, c := range parent.children {
		left -= c.dur
	}
	var sum int64
	for _, d := range est {
		sum += int64(d)
	}
	scale, clamped := 1.0, 0.0
	if sum > left {
		scale, clamped = float64(max(left, 0))/float64(sum), 1
	}
	names := make([]string, 0, len(est))
	for n := range est {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := int64(float64(est[n]) * scale)
		parent.add(n, time.Duration(d))
	}
	return clamped
}

// serveTracer traces the serve workload. Its one client waits for
// each replay, so the process-wide symexec counters a replay reads see
// no other analysis.
type serveTracer struct {
	h   http.Handler
	srv *serve.Server
}

// serverDeadline is the serve.Server default request deadline, which
// replays reuse.
const serverDeadline = 10 * time.Second

// op traces one request. The partition: the client side (encode,
// decode) is the root's self time; serve.server is the time inside
// ServeHTTP; under it the parse (timed by parsing the same source
// after the request, an estimate placed by estimateUnder) and, when
// the verdict cache missed, the analysis (the server's own latency_ns
// minus that parse). Counts that depend
// only on the input — paths, forks, merges, blocks, summary
// instantiations, pool queries — come from replaying a missed request
// through the facade with private cold caches, outside the wall time.
func (st *serveTracer) op(o *op) (tracedOp, verdict, error) {
	c, v, err := callServe(st.h, o)
	if err != nil {
		return tracedOp{}, v, err
	}
	root := &span{name: "op", dur: int64(c.wall)}
	sv := root.add("serve.server", c.server)
	counts := map[string]float64{"serve.requests": 1}
	if c.resp.Cached {
		counts["serve.respcache.hits"] = 1
	}
	core := o.path == "/check"
	tp := time.Now()
	if core {
		_, err = lang.Parse(o.src)
	} else {
		_, err = microc.Parse(o.src)
	}
	parse := time.Since(tp)
	if err != nil {
		return tracedOp{}, v, err
	}
	parseName := "microc.parse"
	if core {
		parseName = "lang.parse"
	}
	if c.resp.Cached {
		counts["trace.clamped"] = estimateUnder(sv, map[string]time.Duration{parseName: parse})
		return tracedOp{tree: root, counts: counts}, v, nil
	}
	analysis := max(time.Duration(c.resp.LatencyNS)-parse, 0)
	if core {
		sv.add("core.check", analysis)
	} else {
		sv.add("mixy.run", analysis)
	}
	counts["trace.clamped"] = estimateUnder(sv, map[string]time.Duration{parseName: parse})
	replay := &span{name: "replay"}
	reg := obs.NewRegistry()
	if core {
		cfg := o.req.MixConfig()
		cfg.Cache = engine.NewCache(engine.CacheOptions{})
		cfg.Deadline = serverDeadline
		cfg.Metrics = reg
		res := mix.Check(o.src, cfg)
		counts["core.paths"] = float64(res.Paths)
		counts["core.forks"] = float64(res.Forks)
		counts["core.merges"] = float64(res.Merges)
		counts["engine.quick"] = float64(res.QuickDecided)
		counts["facade.solver_queries"] = float64(res.SolverQueries)
	} else {
		cfg := o.req.CConfig()
		cfg.Cache = engine.NewCache(engine.CacheOptions{})
		cfg.Deadline = serverDeadline
		cfg.Metrics = reg
		if cfg.Summaries {
			cfg.SummaryStore = summary.NewStore("")
		}
		res, err := mix.AnalyzeC(o.src, cfg)
		if err != nil {
			return tracedOp{}, v, fmt.Errorf("replay: %w", err)
		}
		counts["mixy.fixpoint_iters"] = float64(res.FixpointIters)
		counts["mixy.blocks_analyzed"] = float64(res.BlocksAnalyzed)
		counts["mixy.block_cache.hits"] = float64(res.CacheHits)
		// With block caching on, each cache miss analyzes one block.
		counts["mixy.block_cache.misses"] = float64(res.BlocksAnalyzed)
		counts["symexec.mem.clones"] = float64(res.MemClones)
		counts["symexec.mem.writes"] = float64(res.MemWrites)
		counts["symexec.merges"] = float64(res.Merges)
		counts["summary.instantiated"] = float64(res.SummaryInstantiated)
		counts["summary.fallbacks"] = float64(res.SummaryFallbacks)
		counts["engine.quick"] = float64(res.QuickDecided)
		counts["facade.solver_queries"] = float64(res.SolverQueries)
		if cfg.Summaries {
			prog, err := microc.Parse(o.src)
			if err != nil {
				return tracedOp{}, v, err
			}
			t := time.Now()
			summary.NewStore("").Precompute(prog, cfg.SummaryCap)
			replay.add("summary.precompute", time.Since(t))
		}
	}
	registryTimes(replay, reg)
	counts["engine.queries"] = float64(reg.Gauge("solver.queries").Value())
	counts["solver.core.queries"] = float64(reg.Histogram("solver.dpll.ns").Count())
	return tracedOp{tree: root, replay: replay, counts: counts}, v, nil
}

// serverCounts reads the server's shared-cache counters; a traced
// run reports their change over its window.
func serverCounts(s *serve.Server) map[string]float64 {
	cs := s.Cache().Stats()
	ss := s.Summaries().Stats()
	return map[string]float64{
		"engine.memo.hits":            float64(cs.MemoHits),
		"engine.memo.misses":          float64(cs.MemoMisses),
		"engine.cex.hits":             float64(cs.CexHits),
		"serve.solvercache.evictions": float64(cs.Evictions),
		"summary.store.hits":          float64(ss.MemHits + ss.DiskHits),
		"summary.store.computed":      float64(ss.Computed),
	}
}

// runtimeSample reads the Go runtime's cumulative GC CPU, non-idle
// CPU and allocated bytes.
type runtimeSample struct{ gcCPU, busyCPU, alloc float64 }

func readRuntime() runtimeSample {
	ms := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(ms)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(ms[0]), busyCPU: val(ms[1]) - val(ms[2]), alloc: val(ms[3])}
}

// layerAgg accumulates traced operations into the per-layer metrics.
type layerAgg struct {
	ops    int
	incl   map[string]float64 // inclusive ns by layer, partition and replay
	self   map[string]float64 // self ns by layer, partition only
	counts map[string]float64
	walls  []int64
	cores  []int64 // solver.core ns inside each operation's wall time, aligned with walls
	kept   []tracedOp
}

func newLayerAgg() *layerAgg {
	return &layerAgg{incl: map[string]float64{}, self: map[string]float64{}, counts: map[string]float64{}}
}

func (la *layerAgg) add(t tracedOp) error {
	self, err := t.tree.selfTimes()
	if err != nil {
		return err
	}
	la.ops++
	var core int64
	t.tree.walk(func(s *span) {
		la.incl[s.name] += float64(s.dur)
		if s.name == "solver.core" {
			core += s.dur
		}
	})
	if t.replay != nil {
		t.replay.walk(func(s *span) { la.incl[s.name] += float64(s.dur) })
	}
	for k, v := range self {
		la.self[k] += float64(v)
	}
	for k, v := range t.counts {
		la.counts[k] += v
	}
	la.walls = append(la.walls, t.tree.dur)
	la.cores = append(la.cores, core)
	la.kept = append(la.kept, t)
	return nil
}

// spanJSON is a span tree as written to the span file.
type spanJSON struct {
	Name     string     `json:"name"`
	NS       int64      `json:"ns"`
	Children []spanJSON `json:"children,omitempty"`
}

func toJSON(s *span) *spanJSON {
	if s == nil {
		return nil
	}
	j := &spanJSON{Name: s.name, NS: s.dur}
	for _, c := range s.children {
		j.Children = append(j.Children, *toJSON(c))
	}
	return j
}

// writeSpans writes every kept operation's span trees as JSON lines,
// in completion order.
func (la *layerAgg) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, t := range la.kept {
		row := struct {
			Op     int                `json:"op"`
			Tree   *spanJSON          `json:"tree"`
			Replay *spanJSON          `json:"replay,omitempty"`
			Counts map[string]float64 `json:"counts,omitempty"`
		}{i, toJSON(t.tree), toJSON(t.replay), t.counts}
		if err := enc.Encode(row); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedExec adapts a traced operation to the closed loop, feeding
// the aggregate; a broken partition fails the operation.
func tracedExec(la *layerAgg, f func(*op) (tracedOp, verdict, error)) execFn {
	return func(o *op) (verdict, time.Duration, error) {
		t, v, err := f(o)
		if err != nil {
			return v, 0, err
		}
		return v, time.Duration(t.tree.dur), la.add(t)
	}
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer turns the aggregate into the per-layer metrics. Times are
// means per traced operation; counts are per operation; ratios are
// over the whole traced window.
func (la *layerAgg) perLayer() map[string]metric {
	n := float64(la.ops)
	if n == 0 {
		n = 1
	}
	m := map[string]metric{}
	for _, name := range []string{
		"microc.parse", "lang.parse", "pointer.analyze", "qual.infer", "mixy.run",
		"summary.precompute", "core.check", "engine.solver", "solver.core", "serve.server",
	} {
		m[name+".ns"] = metric{la.incl[name] / n, "ns"}
	}
	m["mixy.self.ns"] = metric{la.self["mixy.run"] / n, "ns"}
	m["unattributed.ns"] = metric{la.self["op"] / n, "ns"}
	over := 0.0
	if la.incl["serve.server"] > 0 {
		over = (la.incl["op"] - la.incl["serve.server"]) / n
	}
	m["serve.overhead.ns"] = metric{over, "ns"}
	for _, name := range []string{
		"mixy.fixpoint_iters", "mixy.blocks_analyzed", "symexec.mem.clones", "symexec.mem.writes",
		"symexec.merges", "summary.instantiated", "summary.fallbacks", "core.paths", "core.forks",
		"core.merges", "engine.queries", "solver.core.queries",
	} {
		m[name] = metric{la.counts[name] / n, "count"}
	}
	c := la.counts
	m["facade.solver_queries_excess"] = metric{(c["facade.solver_queries"] - c["engine.queries"]) / n, "count"}
	m["serve.solvercache.evictions"] = metric{c["serve.solvercache.evictions"], "count"}
	m["mixy.block_cache.hit_ratio"] = metric{ratio(c["mixy.block_cache.hits"], c["mixy.block_cache.hits"]+c["mixy.block_cache.misses"]), "ratio"}
	m["engine.quick.ratio"] = metric{ratio(c["engine.quick"], c["engine.queries"]), "ratio"}
	m["engine.memo.hit_ratio"] = metric{ratio(c["engine.memo.hits"], c["engine.memo.hits"]+c["engine.memo.misses"]), "ratio"}
	m["engine.cex.hit_ratio"] = metric{ratio(c["engine.cex.hits"], c["engine.memo.misses"]), "ratio"}
	m["summary.store.hit_ratio"] = metric{ratio(c["summary.store.hits"], c["summary.store.hits"]+c["summary.store.computed"]), "ratio"}
	m["serve.respcache.hit_ratio"] = metric{ratio(c["serve.respcache.hits"], c["serve.requests"]), "ratio"}

	// The tail is the traced operations at or above the p90 wall time.
	p90 := quantile(la.walls, 0.9)
	var tailWall, allWall, tailCore float64
	for i, w := range la.walls {
		allWall += float64(w)
		if w >= p90 {
			tailWall += float64(w)
			tailCore += float64(la.cores[i])
		}
	}
	m["tail.wall_frac"] = metric{ratio(tailWall, allWall), "ratio"}
	m["tail.solver.core_frac"] = metric{ratio(tailCore, tailWall), "ratio"}
	m["trace.ops"] = metric{float64(la.ops), "count"}
	m["trace.clamped_frac"] = metric{c["trace.clamped"] / n, "ratio"}
	return m
}

// sortedNames lists a metric map's names in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
