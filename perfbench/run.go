package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"mix"
	"mix/internal/serve"
)

// execFn runs one operation and returns its verdict and its wall time
// from issue until the verdict is in hand.
type execFn func(o *op) (verdict, time.Duration, error)

// runFacade is the untraced facade operation: one mix.AnalyzeC call.
func runFacade(o *op) (verdict, time.Duration, error) {
	t0 := time.Now()
	res, err := mix.AnalyzeC(o.src, o.cfg)
	d := time.Since(t0)
	if err != nil {
		return verdict{}, d, err
	}
	return verdict{Warnings: res.Warnings, Degraded: res.Degraded}, d, nil
}

// serveCall is one request through the in-process handler, with no
// sockets: encode the request, ServeHTTP on a recorder, decode the
// response. server is the time inside ServeHTTP.
type serveCall struct {
	resp   serve.Response
	wall   time.Duration
	server time.Duration
}

func callServe(h http.Handler, o *op) (serveCall, verdict, error) {
	var c serveCall
	t0 := time.Now()
	body, err := json.Marshal(serve.Request{Analysis: o.req, Source: o.src})
	if err != nil {
		return c, verdict{}, err
	}
	req := httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t1 := time.Now()
	h.ServeHTTP(rec, req)
	c.server = time.Since(t1)
	if rec.Code != http.StatusOK {
		c.wall = time.Since(t0)
		return c, verdict{}, fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &c.resp); err != nil {
		c.wall = time.Since(t0)
		return c, verdict{}, fmt.Errorf("decode response: %w", err)
	}
	var v verdict
	switch {
	case c.resp.Check != nil:
		v = verdict{Type: c.resp.Check.Type, Err: c.resp.Check.Error, Degraded: c.resp.Check.Degraded}
	case c.resp.Analyze != nil:
		v = verdict{Warnings: c.resp.Analyze.Warnings, Degraded: c.resp.Analyze.Degraded}
	default:
		c.wall = time.Since(t0)
		return c, verdict{}, fmt.Errorf("response carries no result")
	}
	c.wall = time.Since(t0)
	return c, v, nil
}

func serveExec(h http.Handler) execFn {
	return func(o *op) (verdict, time.Duration, error) {
		c, v, err := callServe(h, o)
		return v, c.wall, err
	}
}

// tally counts attempted and failed operations across phases. An
// operation fails on an error, a non-200 status, a degraded verdict or
// an oracle mismatch.
type tally struct {
	attempted int
	failed    int
	firstErrs []string
}

func (t *tally) record(o *op, v verdict, err error) bool {
	if err == nil {
		err = o.oracle(v)
	}
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.firstErrs) < 5 {
		t.firstErrs = append(t.firstErrs, fmt.Sprintf("%s: %v", o.family, err))
	}
	return false
}

// phase is one measured window of a closed loop.
type phase struct {
	lat []int64 // per-operation wall time, ns
	// cpuLat is each operation's process CPU time, ns: user plus
	// system time of every thread, from issue until the verdict. With
	// one client nothing else runs meanwhile, so this is what the
	// operation cost, and time the host gave to other tenants is not
	// in it.
	cpuLat []int64
	idx    []int // pool index of each operation, in client order
	wall   time.Duration
	cpu    time.Duration
	// peakMB is the peak memory held during the window (memSampler).
	peakMB float64
}

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuTime is the process's user plus system CPU time, to the
// nanosecond (getrusage would round it to microseconds).
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// memSampler tracks the peak of the memory the Go runtime holds from
// the operating system and has not returned to it — the program's
// resident memory, less its code — over a measured window. It polls
// runtime/metrics, so it needs no file outside the checkout.
type memSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const memSamplePeriod = 2 * time.Millisecond

func heldBytes() uint64 {
	ms := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(ms)
	return ms[0].Value.Uint64() - ms[1].Value.Uint64()
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: heldBytes()}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(memSamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				if b := heldBytes(); b > m.peak {
					m.peak = b
				}
			}
		}
	}()
	return m
}

// peakMB stops the sampler and returns the peak in MiB.
func (m *memSampler) peakMB() float64 {
	close(m.stop)
	<-m.done
	if b := heldBytes(); b > m.peak {
		m.peak = b
	}
	return float64(m.peak) / (1 << 20)
}

// cycleLoop is the facade workloads' closed loop with one client: it
// runs the pool in order, whole passes only, until another pass would
// overrun the budget and at least minOps operations were measured.
// Whole passes make every run measure the same mix of inputs.
func cycleLoop(pool []op, budget time.Duration, minOps int, exec execFn, t *tally) phase {
	var p phase
	mem := startMemSampler()
	c0, t0 := cpuTime(), time.Now()
	var pass time.Duration
	for {
		elapsed := time.Since(t0)
		if len(p.lat) > 0 && elapsed+pass > budget && len(p.lat) >= minOps {
			break
		}
		ps := time.Now()
		for i := range pool {
			p.run(pool, i, exec, t)
		}
		pass = time.Since(ps)
	}
	p.wall, p.cpu = time.Since(t0), cpuTime()-c0
	p.peakMB = mem.peakMB()
	return p
}

// run executes pool[i] once, records its verdict in t and its wall
// and CPU time in p.
func (p *phase) run(pool []op, i int, exec execFn, t *tally) {
	c0 := cpuTime()
	v, d, err := exec(&pool[i])
	c := cpuTime() - c0
	t.record(&pool[i], v, err)
	p.lat = append(p.lat, int64(d))
	p.cpuLat = append(p.cpuLat, int64(c))
	p.idx = append(p.idx, i)
}

// warmServe sends each request of head once, in order.
func warmServe(head []op, exec execFn, t *tally) {
	for i := range head {
		v, _, err := exec(&head[i])
		t.record(&head[i], v, err)
	}
}

// serveLoop is the serve workload's closed loop with one client: it
// sends the stream's requests in order from request *next on, n of
// them or until limit has passed. A client that reaches the end of its
// stream starts it over.
func serveLoop(stream []int32, next *int, pool []op, n int, limit time.Duration, exec execFn, t *tally) phase {
	var p phase
	mem := startMemSampler()
	c0, t0 := cpuTime(), time.Now()
	for len(p.lat) < n && time.Since(t0) < limit {
		i := int(stream[*next%len(stream)])
		*next++
		p.run(pool, i, exec, t)
	}
	p.wall, p.cpu = time.Since(t0), cpuTime()-c0
	p.peakMB = mem.peakMB()
	return p
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// beyond counts the samples strictly above v.
func beyond(xs []int64, v int64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// median of a small slice of durations.
func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// setupReps is how many cold set-ups a run times; it reports their
// median.
const setupReps = 101

// readyProgram is the facade's readiness probe: the smallest program
// the analysis accepts.
const readyProgram = "int main(void) { return 0; }\n"

// setupCommand is the argument that makes the benchmark binary a
// set-up probe: it builds the system cold, answers one readiness
// check, prints setupReady and exits.
const (
	setupCommand = "setup-probe"
	setupReady   = "ready"
)

// measureSetup times setupReps cold set-ups of workload w, each in a
// fresh process of this binary: from starting the process until it
// reports that the system has answered its readiness check. A fresh
// process pays what a user's first operation pays — program start,
// package initialisation, first-use allocation — which repeating a
// set-up inside one warm process would hide.
func measureSetup(w workload) (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ds := make([]time.Duration, setupReps)
	for i := range ds {
		cmd := exec.Command(self, setupCommand, w.name)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line := make([]byte, len(setupReady)+1)
		_, rerr := io.ReadFull(out, line)
		ds[i] = time.Since(t0)
		werr := cmd.Wait()
		if rerr != nil || string(line) != setupReady+"\n" || werr != nil {
			return 0, fmt.Errorf("set-up probe: %q %v %v", line, rerr, werr)
		}
	}
	return medianDur(ds), nil
}

// setupProbe is the child side of measureSetup. For serve it builds a
// default serve.Server (shared caches, summary store, verdict cache,
// admission state) and sends GET /healthz; for the stateless facade it
// answers the readiness probe through mix.AnalyzeC under the
// workload's configuration.
func setupProbe(args []string) int {
	w, ok := workload{}, len(args) == 1
	if ok {
		w, ok = findWorkload(args[0])
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: usage: %s WORKLOAD\n", setupCommand)
		return 2
	}
	if w.serve {
		rec := httptest.NewRecorder()
		serve.New(serve.Options{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK {
			fmt.Fprintf(os.Stderr, "perfbench: healthz: status %d\n", rec.Code)
			return 1
		}
	} else {
		res, err := mix.AnalyzeC(readyProgram, w.cfg)
		if err != nil || res.Degraded || len(res.Warnings) != 0 {
			fmt.Fprintf(os.Stderr, "perfbench: readiness probe failed: %v %+v\n", err, res)
			return 1
		}
	}
	fmt.Println(setupReady)
	return 0
}
