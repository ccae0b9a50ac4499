package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"mix"
	"mix/internal/cexec"
	"mix/internal/cgen"
	"mix/internal/cliflags"
	"mix/internal/concrete"
	"mix/internal/corpus"
	"mix/internal/lang"
	"mix/internal/langgen"
	"mix/internal/microc"
)

// op is one generated operation: a source, how to submit it, and the
// oracle its verdict must pass.
type op struct {
	family string
	src    string
	// cfg configures a facade operation (mix.AnalyzeC).
	cfg mix.CConfig
	// path and req describe a serve operation: the endpoint and the
	// request's analysis fields (Source is filled from src).
	path string
	req  cliflags.Analysis
	// oracle judges the verdict; it is computed from the generator's
	// construction or a concrete interpreter, never from an analysis run.
	oracle oracle
}

// verdict is what an operation answered: MicroC warnings, or a core
// type / rejection. Degraded marks an analysis that gave no verdict.
type verdict struct {
	Warnings []string
	Type     string
	Err      string
	Degraded bool
}

// oracle returns nil when a verdict agrees with the known answer.
type oracle func(verdict) error

// inputs are a workload's generated inputs: its distinct operations
// and, for serve, the client's request stream as indexes into ops.
type inputs struct {
	ops    []op
	stream []int32
}

// workload is a named generator; the set is fixed and documented in
// README.md.
type workload struct {
	name string
	// serve workloads run against one in-process server with a
	// stream of Zipf draws; facade workloads cycle through their pool.
	serve bool
	gen   func(seed int64) (inputs, error)
	// cfg is a facade workload's analysis configuration, which its
	// set-up probe uses too.
	cfg mix.CConfig
}

var workloads = []workload{
	{name: "vsftpd", gen: genVsftpd, cfg: mixyDefaults()},
	{name: "typed", gen: genTyped, cfg: mixyDefaults()},
	{name: "cgen", gen: genCgen, cfg: cgenConfig()},
	{name: "serve", serve: true, gen: genServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mixyDefaults is the `mixy -workers 1` configuration: engine on with
// one worker, merge joins, merge cap 8, the default (cdcl) solver.
func mixyDefaults() mix.CConfig {
	return mix.CConfig{Workers: 1, Merge: "joins", MergeCap: 8}
}

// genVsftpd runs SyntheticVsftpd(n,k), the paper's E3 family, for
// every n in 12..32 and k in 1..3 — all 63 programs of the range — in
// a seeded order. Drawing a random subset instead would let the mix of
// sizes, and with it every figure, move from seed to seed.
func genVsftpd(seed int64) (inputs, error) {
	r := rand.New(rand.NewSource(seed))
	var ops []op
	for k := 1; k <= 3; k++ {
		for n := 12; n <= 32; n++ {
			ops = append(ops, op{
				family: fmt.Sprintf("vsftpd-%dx%d", n, k),
				src:    corpus.SyntheticVsftpd(n, k),
				cfg:    mixyDefaults(),
				oracle: warnCount(n + 2),
			})
		}
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return inputs{ops: ops}, nil
}

// genTyped draws SyntheticVsftpd(n,0): no symbolic blocks, so only
// the front end (parse, points-to, qualifier inference) works. n is
// stratified over [400,1600), one draw in each of 60 strata of width
// 20, so every seed covers the size range evenly.
func genTyped(seed int64) (inputs, error) {
	r := rand.New(rand.NewSource(seed))
	var ops []op
	for s := 0; s < 60; s++ {
		n := 400 + 20*s + r.Intn(20)
		ops = append(ops, op{
			family: fmt.Sprintf("typed-%d", n),
			src:    corpus.SyntheticVsftpd(n, 0),
			cfg:    mixyDefaults(),
			oracle: warnCount(2),
		})
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return inputs{ops: ops}, nil
}

// The cgen workload's corpus is fixed: the first cgenPool programs of
// generator seed cgenCorpusSeed, the corpus whose tail the solver's
// theory layer sets (one program takes seconds in Fourier–Motzkin).
// The workload seed only orders it. A corpus drawn afresh per seed
// would hold a different handful of tail programs, each costing from
// a tenth of a second to tens of seconds, and every figure would move
// with them.
const (
	cgenPool       = 200
	cgenCorpusSeed = 1
)

// cgenConfig is the mixy -workers 1 configuration with StrictInit,
// which matches the concrete semantics: a global without an
// initializer is null.
func cgenConfig() mix.CConfig {
	cfg := mixyDefaults()
	cfg.StrictInit = true
	return cfg
}

// genCgen runs random MicroC programs from internal/cgen with a
// symbolic entry, int helpers gated by conditions, and 4 pointers, in
// a seeded order. The oracle is one concrete run (internal/cexec): a
// crash requires a warning.
func genCgen(seed int64) (inputs, error) {
	g := cgen.New(cgenCorpusSeed, cgen.Config{Pointers: 4, Stmts: 8, SymbolicEntry: true, IntHelpers: 2})
	ops := make([]op, 0, cgenPool)
	for i := 0; i < cgenPool; i++ {
		src := g.Program()
		crashed, err := crashesConcretely(src, "main", []int64{1})
		if err != nil {
			return inputs{}, fmt.Errorf("cgen program %d: %w", i, err)
		}
		ops = append(ops, op{family: fmt.Sprintf("cgen-%d", i), src: src, cfg: cgenConfig(), oracle: crashImpliesWarn(crashed)})
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return inputs{ops: ops}, nil
}

// The serve workload: one client, a closed loop over a seeded stream
// of requests. Every request is a Zipf draw,
// P(rank k) ∝ (k+1)^-zipfS, over a pool of servePool distinct
// requests indexed by popularity rank. Only the drawn ranks are ever
// generated, each from the seed and its rank alone. The pool is large
// so that its tail does not run dry within a run: a small pool's
// share of first-time requests falls as a run goes on, so a slower run
// stays among costlier requests and slows further. The pool size and
// zipfS are assumptions, not taken from recorded daemon traffic
// (README.md).
const (
	servePool = 1_000_000
	zipfS     = 1.1
	// zipfBlock draws are sampled together, systematically: the
	// block's quantiles are (j+u)/zipfBlock for j = 0..zipfBlock-1
	// with one seeded offset u, in a seeded order. Each block thus
	// holds every popularity band in its Zipf proportion, and the
	// share of never-requested sources, which sets a run's cost, does
	// not swing with the luck of independent draws.
	zipfBlock = 400
	// serveStreamLen is the number of requests in the client's
	// stream; a run that needs more starts the stream over.
	serveStreamLen = 40000
)

// serveMiniRank is vsftpd-mini's rank: inside the head the warm-up
// sends, so its one miss is paid before the window.
const serveMiniRank = 50

// serveFamilies and serveLadderEvery fix the family of every rank, so
// each popularity band, and the head in particular, holds the families
// in the same shares and order for every seed: the head takes most
// requests, and its families' verdict-cache hits differ fourfold in
// cost. The four cheap families share equally. Unmerged ladders take
// one rank in serveLadderEvery, starting with rank 0: a miss of one
// costs about 0.4 s, 25 to 2000 times the others', so at a larger
// share the number of them a run happened to draw set its throughput.
// The shares and the order are assumptions (README.md).
var serveFamilies = []string{"ladder-joins", "langgen", "synthetic", "helpers"}

const serveLadderEvery = 561

// serveFamily returns the family of a rank and the rank's index among
// that family's ranks.
func serveFamily(rank int) (string, int) {
	b, j := rank/serveLadderEvery, rank%serveLadderEvery
	if j == 0 {
		return "ladder-off", b
	}
	m := b*(serveLadderEvery-1) + j - 1
	return serveFamilies[m%len(serveFamilies)], m / len(serveFamilies)
}

// genServe generates the serve inputs: the requests of the warm-up
// head — ranks 0..serveWarm-1 — and of every other rank the client's
// stream draws, in ascending rank order, and the stream of
// serveStreamLen requests. Families:
//
//	ladder-off    core, symbolic ladders of 13 forks, merge off
//	ladder-joins  core, symbolic ladders of 10..12 forks, merge joins
//	langgen       core, random programs from internal/langgen
//	synthetic     MicroC, SyntheticVsftpd(n,k), n 6..12, k 1..2
//	helpers       MicroC, SharedHelpers(n,k) with summaries, n 1..6, k 3..4
//
// and vsftpd-mini, the combined case study, once, at rank
// serveMiniRank. Thirteen forks is the smallest unmerged ladder whose
// exhaustiveness query the interval fast path does not decide, so it
// reaches the shared memo table: the first one costs seconds (a memo
// miss), later ones hit. Fourteen exceeds the daemon's 10 s default
// deadline. Request fields a family does not set keep the daemon's
// defaults. The helpers family sets merge joins with cap 8, as the
// summary benchmark (mixbench X9) does; from k = 5 a request grows
// about 30× per step.
func genServe(seed int64) (inputs, error) {
	cdf := make([]float64, servePool)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -zipfS)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	var draws []int
	r := rand.New(rand.NewSource(seed*7919 + 1))
	for len(draws) < serveStreamLen {
		u := r.Float64()
		block := make([]int, zipfBlock)
		for j := range block {
			block[j] = min(sort.SearchFloat64s(cdf, (float64(j)+u)/zipfBlock), servePool-1)
		}
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		draws = append(draws, block[:min(len(block), serveStreamLen-len(draws))]...)
	}
	drawn := map[int]bool{}
	for _, k := range draws {
		drawn[k] = true
	}
	ranks := make([]int, 0, serveWarm+len(drawn))
	for k := 0; k < serveWarm; k++ {
		ranks = append(ranks, k)
	}
	var rest []int
	for k := range drawn {
		if k >= serveWarm {
			rest = append(rest, k)
		}
	}
	sort.Ints(rest)
	ranks = append(ranks, rest...)

	g := newServeGen(seed)
	in := inputs{ops: make([]op, len(ranks)), stream: make([]int32, len(draws))}
	index := make(map[int]int32, len(ranks))
	for i, k := range ranks {
		o, err := g.op(k)
		if err != nil {
			return inputs{}, err
		}
		in.ops[i], index[k] = o, int32(i)
	}
	for n, k := range draws {
		in.stream[n] = index[k]
	}
	return in, nil
}

// sizeDeck deals a family's sizes: every size once per round, each
// round in a seeded order. A family's ranks in any stretch of the pool
// thus cover its size range evenly, so the cost of the requests a run
// draws does not move with which sizes a seed happened to pick.
type sizeDeck struct {
	all    [][2]int
	rounds map[int][]int
}

func newSizeDeck(n0, n1, k0, k1 int) *sizeDeck {
	d := &sizeDeck{rounds: map[int][]int{}}
	for n := n0; n <= n1; n++ {
		for k := k0; k <= k1; k++ {
			d.all = append(d.all, [2]int{n, k})
		}
	}
	return d
}

// size returns the size of the family's j-th rank.
func (d *sizeDeck) size(seed int64, j int) (n, k int) {
	round := j / len(d.all)
	perm, ok := d.rounds[round]
	if !ok {
		perm = rand.New(rand.NewSource(seed*1_000_003 + int64(round))).Perm(len(d.all))
		d.rounds[round] = perm
	}
	c := d.all[perm[j%len(d.all)]]
	return c[0], c[1]
}

// serveGen generates the request of a rank from the seed and the rank.
type serveGen struct {
	seed  int64
	decks map[string]*sizeDeck
}

func newServeGen(seed int64) *serveGen {
	return &serveGen{seed: seed, decks: map[string]*sizeDeck{
		"ladder-joins": newSizeDeck(10, 12, 0, 0),
		"synthetic":    newSizeDeck(6, 12, 1, 2),
		"helpers":      newSizeDeck(1, 6, 3, 4),
	}}
}

func (g *serveGen) op(rank int) (op, error) {
	if rank == serveMiniRank {
		crash, err := crashesConcretely(corpus.VsftpdMini.Source, corpus.VsftpdMini.Entry, []int64{1, 2, 3, 4, 5, 6, 7, 8})
		if err != nil {
			return op{}, fmt.Errorf("vsftpd-mini: %w", err)
		}
		return op{family: "vsftpd-mini", path: "/analyze", src: corpus.VsftpdMini.Source, oracle: crashImpliesWarn(crash)}, nil
	}
	family, j := serveFamily(rank)
	rs := g.seed*1_000_003 + int64(rank)
	r := rand.New(rand.NewSource(rs))
	o := op{family: family}
	switch family {
	case "ladder-off", "ladder-joins":
		n, merge := 13, "off"
		if family == "ladder-joins" {
			n, _ = g.decks[family].size(g.seed, j)
			merge = "joins"
		}
		src, env := ladder(r, n)
		o.path, o.src, o.oracle = "/check", src, typesTo("int")
		o.req = cliflags.Analysis{Symbolic: true, Env: env, Merge: merge}
	case "langgen":
		src := langgen.New(rs, langgen.DefaultConfig()).Closed().String()
		wrong, err := goesWrongConcretely(src)
		if err != nil {
			return op{}, fmt.Errorf("langgen program: %w", err)
		}
		o.path, o.src, o.oracle = "/check", src, rejectsIfWrong(wrong)
	case "synthetic":
		n, k := g.decks[family].size(g.seed, j)
		o.path, o.src, o.oracle = "/analyze", drawHeader(rank)+corpus.SyntheticVsftpd(n, k), warnCount(n+2)
	case "helpers":
		n, k := g.decks[family].size(g.seed, j)
		o.path, o.src, o.oracle = "/analyze", drawHeader(rank)+corpus.SharedHelpers(n, k), warnCount(0)
		o.req = cliflags.Analysis{Summaries: true, Entry: "entry", Merge: "joins", MergeCap: 8}
	default:
		return op{}, fmt.Errorf("unknown serve family %q", family)
	}
	return o, nil
}

// drawHeader makes each MicroC rank a distinct source: the generators
// have few distinct outputs, and a repeated source would only ever
// exercise the verdict cache. The code itself still repeats, so the
// summary store and the shared solver cache can answer it.
func drawHeader(i int) string {
	return fmt.Sprintf("/* draw %d */\n", i)
}

// ladder builds n sequential conditionals over symbolic booleans, the
// shape of corpus.Ladder with seeded constants so that each draw is a
// distinct source. Every arm is an int, so the program types to int.
func ladder(r *rand.Rand, n int) (string, map[string]string) {
	env := map[string]string{}
	var b strings.Builder
	for i := 0; i < n; i++ {
		env[fmt.Sprintf("b%d", i)] = "bool"
		fmt.Fprintf(&b, "let t%d = (if b%d then %d else %d) in ", i, i, 1+r.Intn(9), 1+r.Intn(9))
	}
	b.WriteString("0")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " + t%d", i)
	}
	return b.String(), env
}

// crashesConcretely runs src's entry under internal/cexec once per
// seed (the seed drives extern results) and reports whether any run
// dereferenced null. Other runtime errors are generator bugs.
func crashesConcretely(src, entry string, seeds []int64) (bool, error) {
	for _, s := range seeds {
		prog, err := microc.Parse(src)
		if err != nil {
			return false, err
		}
		_, err = cexec.New(prog, s).Run(entry)
		switch {
		case errors.Is(err, cexec.ErrNullDeref):
			return true, nil
		case err != nil && !errors.Is(err, cexec.ErrFuel):
			return false, err
		}
	}
	return false, nil
}

// goesWrongConcretely evaluates a closed core program with
// internal/concrete and reports a run-time type error.
func goesWrongConcretely(src string) (bool, error) {
	e, err := lang.Parse(src)
	if err != nil {
		return false, err
	}
	_, err = concrete.NewEvaluator().Eval(concrete.EmptyEnv(), concrete.NewMemory(), e)
	return errors.Is(err, concrete.ErrTypeError), nil
}

func warnCount(want int) oracle {
	return func(v verdict) error {
		if v.Degraded {
			return errors.New("degraded: no verdict")
		}
		if len(v.Warnings) != want {
			return fmt.Errorf("%d warnings, construction says %d", len(v.Warnings), want)
		}
		return nil
	}
}

// crashImpliesWarn is the X3 relation: a program that crashes
// concretely must be warned about.
func crashImpliesWarn(crashed bool) oracle {
	return func(v verdict) error {
		if v.Degraded {
			return errors.New("degraded: no verdict")
		}
		if crashed && len(v.Warnings) == 0 {
			return errors.New("crashes concretely but no warning")
		}
		return nil
	}
}

func typesTo(want string) oracle {
	return func(v verdict) error {
		if v.Degraded {
			return errors.New("degraded: no verdict")
		}
		if v.Err != "" || v.Type != want {
			return fmt.Errorf("type %q error %q, construction says %s", v.Type, v.Err, want)
		}
		return nil
	}
}

// rejectsIfWrong is Theorem 1: an accepted program's concrete run does
// not go wrong, so a program that goes wrong must be rejected.
func rejectsIfWrong(wrong bool) oracle {
	return func(v verdict) error {
		if v.Degraded {
			return errors.New("degraded: no verdict")
		}
		if wrong && v.Err == "" {
			return fmt.Errorf("accepted at type %q but goes wrong concretely", v.Type)
		}
		return nil
	}
}

// inputsDigest fingerprints the generated inputs: every source and
// request, in pool order, and every stream.
func inputsDigest(in inputs) string {
	h := sha256.New()
	for _, o := range in.ops {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%+v\x00%+v\x00", o.family, o.path, o.src, o.req, o.cfg)
	}
	fmt.Fprint(h, in.stream, "\x00")
	return hex.EncodeToString(h.Sum(nil))
}
