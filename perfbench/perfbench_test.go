package main

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"mix"
	"mix/internal/serve"
)

// TestSeedsFixInputs: the same seed gives byte-identical inputs and
// another seed changes them, for every workload.
func TestSeedsFixInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := w.gen(7)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := w.gen(7)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		c, err := w.gen(8)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(a.ops) != len(b.ops) {
			t.Fatalf("%s: seed 7 gave %d then %d inputs", w.name, len(a.ops), len(b.ops))
		}
		for i := range a.ops {
			if a.ops[i].src != b.ops[i].src || a.ops[i].path != b.ops[i].path || a.ops[i].family != b.ops[i].family {
				t.Fatalf("%s: input %d differs between two generations with seed 7", w.name, i)
			}
		}
		if inputsDigest(a) != inputsDigest(b) {
			t.Errorf("%s: same seed, different digests", w.name)
		}
		if inputsDigest(a) == inputsDigest(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.name)
		}
	}
}

// flip returns a verdict that disagrees with v in the direction the
// oracle can see: warnings dropped or added, an acceptance turned into
// a rejection and back.
func flip(v verdict) verdict {
	switch {
	case len(v.Warnings) > 0:
		return verdict{}
	case v.Type != "":
		return verdict{Err: "flipped"}
	case v.Err != "":
		return verdict{Type: "int"}
	default:
		return verdict{Warnings: []string{"flipped"}}
	}
}

// decisive reports whether the oracle rejects some verdict at all:
// one-directional oracles (crash implies warn, Theorem 1) say nothing
// about a program that neither crashes nor goes wrong.
func decisive(o *op) bool {
	return o.oracle(verdict{}) != nil || o.oracle(verdict{Warnings: []string{"w"}}) != nil ||
		o.oracle(verdict{Type: "int"}) != nil || o.oracle(verdict{Err: "e"}) != nil
}

// TestOraclesCountFlippedVerdicts runs real operations of every
// workload, checks that the true verdict passes its oracle, and that
// the same verdict flipped — or degraded — counts as failed.
func TestOraclesCountFlippedVerdicts(t *testing.T) {
	srv := serve.New(serve.Options{})
	h := srv.Handler()
	for _, w := range workloads {
		in, err := w.gen(3)
		if err != nil {
			t.Fatal(err)
		}
		pool := in.ops
		// Two operations of a facade workload, one per family of serve.
		seen := map[string]bool{}
		checked := 0
		for i := range pool {
			o := &pool[i]
			key := o.family
			if !w.serve {
				key = w.name
			}
			if !decisive(o) || (w.serve && seen[key]) || (!w.serve && checked == 2) {
				continue
			}
			seen[key] = true
			var v verdict
			if w.serve {
				_, v, err = callServe(h, o)
			} else {
				v, _, err = runFacade(o)
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", w.name, o.family, err)
			}
			var tl tally
			if !tl.record(o, v, nil) {
				t.Fatalf("%s/%s: true verdict failed its oracle: %v", w.name, o.family, tl.firstErrs)
			}
			if tl.record(o, flip(v), nil) {
				t.Errorf("%s/%s: flipped verdict %+v passed the oracle", w.name, o.family, flip(v))
			}
			v.Degraded = true
			if tl.record(o, v, nil) {
				t.Errorf("%s/%s: degraded verdict passed the oracle", w.name, o.family)
			}
			if tl.attempted != 3 || tl.failed != 2 {
				t.Errorf("%s/%s: tally %d attempted %d failed, want 3 and 2", w.name, o.family, tl.attempted, tl.failed)
			}
			checked++
		}
		if checked == 0 {
			t.Errorf("%s: no decisive oracle exercised", w.name)
		}
	}
}

// TestTheorem1OracleIsDecisive: a program that goes wrong concretely
// must be rejected, so accepting it fails the oracle.
func TestTheorem1OracleIsDecisive(t *testing.T) {
	wrong, err := goesWrongConcretely("1 + true")
	if err != nil || !wrong {
		t.Fatalf("1 + true: wrong=%v err=%v", wrong, err)
	}
	o := rejectsIfWrong(wrong)
	if o(verdict{Err: "type error"}) != nil {
		t.Error("rejection of a wrong program failed the oracle")
	}
	if o(verdict{Type: "int"}) == nil {
		t.Error("acceptance of a wrong program passed the oracle")
	}
}

// partitionHolds checks that an operation's layer self times sum to
// its wall time and that none is negative (selfTimes reports that).
func partitionHolds(t *testing.T, name string, to tracedOp) {
	t.Helper()
	self, err := to.tree.selfTimes()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != to.tree.dur {
		t.Errorf("%s: parts plus unattributed sum to %d ns, wall time is %d ns", name, sum, to.tree.dur)
	}
}

// TestTracedPartsSumToWall: in every traced operation the parts plus
// unattributed.ns equal the operation's wall time, and a layer cannot
// appear twice in one tree.
func TestTracedPartsSumToWall(t *testing.T) {
	for _, gen := range []func(int64) (inputs, error){genVsftpd, genTyped, genCgen} {
		in, err := gen(5)
		if err != nil {
			t.Fatal(err)
		}
		pool := in.ops
		for i := 0; i < 3; i++ {
			to, _, err := tracedFacade(&pool[i])
			if err != nil {
				t.Fatal(err)
			}
			partitionHolds(t, pool[i].family, to)
		}
	}
	in, err := genServe(5)
	if err != nil {
		t.Fatal(err)
	}
	pool := in.ops
	srv := serve.New(serve.Options{})
	st := &serveTracer{h: srv.Handler(), srv: srv}
	for i := 0; i < 40; i++ {
		o := &pool[i%20] // the second pass hits the verdict cache
		to, _, err := st.op(o)
		if err != nil {
			t.Fatal(err)
		}
		partitionHolds(t, o.family, to)
	}

	dup := &span{name: "op", dur: 10}
	dup.add("mixy.run", 4).add("mixy.run", 1)
	if _, err := dup.selfTimes(); err == nil {
		t.Error("a layer counted twice was not reported")
	}
	over := &span{name: "op", dur: 10}
	over.add("mixy.run", 4).add("engine.solver", 5)
	if _, err := over.selfTimes(); err == nil {
		t.Error("a child outlasting its parent was not reported")
	}
}

// TestEstimatesFitTheirParent: estimates that exceed what the measured
// children leave of their parent are scaled to fill it exactly; ones
// that fit are kept as timed.
func TestEstimatesFitTheirParent(t *testing.T) {
	run := &span{name: "mixy.run", dur: 100}
	run.add("engine.solver", 40)
	if c := estimateUnder(run, map[string]time.Duration{"pointer.analyze": 50, "qual.infer": 30}); c != 1 {
		t.Errorf("estimates of 80 ns in 60 ns left: clamped %v, want 1", c)
	}
	self, err := (&span{name: "op", dur: 100, children: []*span{run}}).selfTimes()
	if err != nil {
		t.Fatal(err)
	}
	if self["mixy.run"] < 0 || self["mixy.run"] > 1 {
		t.Errorf("scaled estimates leave mixy.run %d ns of self time, want 0 or 1", self["mixy.run"])
	}
	fit := &span{name: "mixy.run", dur: 100}
	if c := estimateUnder(fit, map[string]time.Duration{"pointer.analyze": 50, "qual.infer": 30}); c != 0 {
		t.Errorf("estimates that fit were clamped")
	}
	if self, _ := fit.selfTimes(); self["mixy.run"] != 20 {
		t.Errorf("mixy.run self %d ns, want 20", self["mixy.run"])
	}
}

// TestTracedFacadeMatchesFacade: the traced operation makes the same
// calls as mix.AnalyzeC, so it gives the same warnings and counters.
func TestTracedFacadeMatchesFacade(t *testing.T) {
	for _, gen := range []func(int64) (inputs, error){genVsftpd, genTyped, genCgen} {
		in, err := gen(11)
		if err != nil {
			t.Fatal(err)
		}
		pool := in.ops
		o := &pool[0]
		want, err := mix.AnalyzeC(o.src, o.cfg)
		if err != nil {
			t.Fatal(err)
		}
		to, got, err := tracedFacade(o)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(got.Warnings, "\n") != strings.Join(want.Warnings, "\n") || got.Degraded != want.Degraded {
			t.Errorf("%s: traced verdict differs from mix.AnalyzeC", o.family)
		}
		for name, w := range map[string]int{
			"facade.solver_queries": want.SolverQueries,
			"mixy.fixpoint_iters":   want.FixpointIters,
			"mixy.blocks_analyzed":  want.BlocksAnalyzed,
			"engine.quick":          want.QuickDecided,
			"symexec.merges":        want.Merges,
		} {
			if int(to.counts[name]) != w {
				t.Errorf("%s: %s traced %v, facade %d", o.family, name, to.counts[name], w)
			}
		}
	}
}

// TestServeHeadPassesOracles sends the serve pool's most popular
// requests once through a default server: every request answers 200
// with a verdict its oracle accepts.
func TestServeHeadPassesOracles(t *testing.T) {
	in, err := genServe(1)
	if err != nil {
		t.Fatal(err)
	}
	pool := in.ops
	srv := serve.New(serve.Options{})
	var h http.Handler = srv.Handler()
	var tl tally
	for i := 0; i < 60; i++ {
		_, v, err := callServe(h, &pool[i])
		tl.record(&pool[i], v, err)
	}
	if tl.failed != 0 {
		t.Fatalf("%d of %d requests failed: %v", tl.failed, tl.attempted, tl.firstErrs)
	}
}

// TestPhaseTimesCPUApart: an operation's CPU time counts the work it
// did and not the time it spent waiting, which its wall time counts.
func TestPhaseTimesCPUApart(t *testing.T) {
	const busy, idle = 30 * time.Millisecond, 40 * time.Millisecond
	exec := func(o *op) (verdict, time.Duration, error) {
		t0 := time.Now()
		for c0 := cpuTime(); cpuTime()-c0 < busy; {
		}
		time.Sleep(idle)
		return verdict{}, time.Since(t0), nil
	}
	pool := []op{{family: "spin", oracle: func(verdict) error { return nil }}}
	var p phase
	var tl tally
	p.run(pool, 0, exec, &tl)
	wall, cpu := time.Duration(p.lat[0]), time.Duration(p.cpuLat[0])
	if cpu < busy || wall < busy+idle {
		t.Fatalf("cpu %v wall %v; want cpu >= %v and wall >= %v", cpu, wall, busy, busy+idle)
	}
	if cpu > wall-idle/2 {
		t.Errorf("cpu %v counts the %v sleep (wall %v)", cpu, idle, wall)
	}
	if tl.attempted != 1 || tl.failed != 0 {
		t.Errorf("tally %d attempted %d failed", tl.attempted, tl.failed)
	}
}

// TestServeLoopMeasuresACount: an untraced serve window holds the
// count of requests it was given, whatever the host's speed.
func TestServeLoopMeasuresACount(t *testing.T) {
	pool := []op{{family: "a", oracle: func(verdict) error { return nil }}, {family: "b", oracle: func(verdict) error { return nil }}}
	exec := func(o *op) (verdict, time.Duration, error) { return verdict{}, time.Microsecond, nil }
	next := 0
	var tl tally
	p := serveLoop([]int32{0, 1, 1}, &next, pool, 7, time.Minute, exec, &tl)
	if len(p.lat) != 7 || len(p.cpuLat) != 7 || next != 7 || tl.attempted != 7 {
		t.Fatalf("window of %d requests (cpu %d), next %d, attempted %d; want 7", len(p.lat), len(p.cpuLat), next, tl.attempted)
	}
	want := []int{0, 1, 1, 0, 1, 1, 0}
	for i, k := range p.idx {
		if k != want[i] {
			t.Fatalf("request %d was pool entry %d, want %d: the stream starts over at its end", i, k, want[i])
		}
	}
}
