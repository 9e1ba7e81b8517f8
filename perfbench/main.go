// Command perfbench is the repository's served-path benchmark. It drives
// the xpvserved request path in-process, through
// server.New(...).Handler().ServeHTTP with the daemon's defaults, under
// one of three seeded workloads:
//
//	hot-read    XMark 0.5, 300 views, 64 queries in Zipf(1.1) order, warm
//	            plan cache, one closed-loop client
//	plan-churn  XMark 0.05, 2000 views, 2048 queries cycled in a seeded
//	            permutation (more than the plan cache holds), one
//	            closed-loop client
//	update-mix  hot-read's fixture and pool, open-loop reads at 200/s and
//	            writes (alternating insert/delete) at 1/s
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the traced per-layer replay (trace.go) at the default GOMAXPROCS
// and at GOMAXPROCS=1. Every run ends with the answer check (check.go).
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the full
// report: host record, request accounting per phase, and every metric
// with its sample count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is the seed reserved for validating performance claims;
// tune nothing on it.
const heldOutSeed = 20080407

const (
	setupReps = 5                       // set-ups per run; setup_s is their median
	warmup    = 1500 * time.Millisecond // closed-loop warm-up after one pass over the pool
	// tracedProbePairs is the number of insert+delete pairs a read-only
	// workload's traced pass serves between its read segments; fewer
	// than the end-to-end run's, to bound the run time.
	tracedProbePairs = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record printed before the result line.
type report struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	HeldOutSeed int64             `json:"held_out_seed"`
	Trace       int               `json:"trace"`
	Host        host              `json:"host"`
	Fixture     map[string]any    `json:"fixture"`
	Phases      map[string]phase  `json:"phases"`
	Metrics     map[string]any    `json:"metrics"`
	Samples     map[string]int    `json:"samples"`
	Lateness    map[string]any    `json:"lateness,omitempty"`
	PlanCache   map[string]uint64 `json:"plan_cache,omitempty"`
	Check       checkResult       `json:"check"`
	Notes       []string          `json:"notes,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "hot-read", "workload: hot-read, plan-churn or update-mix")
	seed := fs.Int64("seed", 1, "seed for the document, views, query pool and op sequence")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specFor(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	rep := &report{Workload: sp.name, Seed: *seed, HeldOutSeed: heldOutSeed, Trace: *trace,
		Host: hostRecord(), Phases: map[string]phase{}, Metrics: map[string]any{}, Samples: map[string]int{}}
	d := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(sp, *seed, d, rep)
	} else {
		res, err = runE2E(sp, *seed, d, rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": rep}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d requests failed or answered wrongly\n", sp.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// prepareRun mines the corpus and builds the fixture setupReps times,
// keeping the last build. It returns the set-up times in seconds.
func prepareRun(sp spec, seed int64, withTwin bool, rep *report) (*corpus, *fixture, []float64, error) {
	c, err := mine(sp, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	var f *fixture
	var setups []float64
	for i := 0; i < setupReps; i++ {
		f = nil
		runtime.GC()
		if f, err = build(sp, seed, c, withTwin && i == setupReps-1); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, f.times.total().Seconds())
	}
	rep.Fixture = map[string]any{
		"xmark_scale": sp.scale, "nodes": c.nodes, "views": len(c.views), "pool": len(c.pool),
		"view_bytes": f.viewBytes, "setup_s": setups,
	}
	return c, f, setups, nil
}

// warm serves every pool query once, then runs the closed-loop sequence
// for the warm-up period, so the plan cache and the runtime reach their
// steady state before measuring.
func warm(c *client, bodies [][]byte, seq *opSeq, acct *phase) {
	for _, b := range bodies {
		status, _, _ := c.do("/v1/query", b)
		acct.count(status)
	}
	closedLoop(c, bodies, seq, warmup, acct)
}

func runE2E(sp spec, seed int64, d time.Duration, rep *report) (*result, error) {
	c, f, setups, err := prepareRun(sp, seed, false, rep)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / (1 << 20)

	bodies := make([][]byte, len(c.pool))
	for i, q := range c.pool {
		bodies[i] = queryBody(q)
	}
	cl := newClient(f.srv.Handler())
	seq := newOpSeq(sp, seed)
	w := newWriter(c, seed)
	var warmAcct, measAcct, probeAcct phase
	warm(cl, bodies, seq, &warmAcct)
	runtime.GC()

	pc0 := f.sys.PlanCacheStats()
	var reads, writes []time.Duration
	var qps, p50us, p99us float64
	if sp.readRate > 0 {
		// A segment is one write cycle: its p99 is the second-slowest of
		// its reads, so the median over segments is the typical cycle's
		// p99. Across 8 seeds that spread 0.12 around its median, against
		// 0.17 for the run-wide p99, which hangs on the few slowest
		// writes.
		cycle := int(sp.readRate / sp.writeRate)
		or, el := openLoop(f.srv.Handler(), bodies, seq, w, sp.readRate, sp.writeRate, cycle, d)
		if or.writeErr != nil {
			return nil, or.writeErr
		}
		reads, writes = or.reads, or.writes
		measAcct.add(or.readAcct)
		measAcct.add(or.writeAcct)
		qps = float64(or.readAcct.Succeeded) / el.Seconds()
		segs := openSegments(reads, or.marks, cycle, time.Duration(float64(time.Second)/sp.readRate))
		_, p50us, p99us = calmStats(segs)
		rep.Metrics["segments"] = segs
		var lockNs time.Duration
		for _, x := range or.writeServe {
			lockNs += x
		}
		rep.Lateness = map[string]any{"reads": latenessOf(or.readLate), "writes": latenessOf(or.writeLate)}
		rep.Metrics["maintain_lock_share"] = lockNs.Seconds() / el.Seconds()
	} else {
		// The reads run in probePairs segments. After each, off the read
		// clock, one insert+delete pair is served, so write latency is
		// sampled across the whole run. A forced GC on either side of the
		// pair means the pair pays for the collections its own garbage
		// causes and no more, and no read pays for a write's garbage.
		segs := make([]segment, sp.probePairs)
		for i := range segs {
			a := cpuTicks()
			l, el := closedLoop(cl, bodies, seq, d/time.Duration(sp.probePairs), &measAcct)
			segs[i] = summarize(l, el, a, cpuTicks())
			reads = append(reads, l...)
			runtime.GC()
			pair, err := probeWrites(cl, w, 2, &probeAcct)
			if err != nil {
				return nil, err
			}
			writes = append(writes, pair...)
			runtime.GC()
		}
		qps, p50us, p99us = calmStats(segs)
		rep.Metrics["segments"] = segs
	}
	pc1 := f.sys.PlanCacheStats()
	rep.PlanCache = map[string]uint64{
		"hits": pc1.Hits - pc0.Hits, "misses": pc1.Misses - pc0.Misses,
		"evictions": pc1.Evictions - pc0.Evictions, "invalidations": pc1.Invalidations - pc0.Invalidations,
	}
	check, err := checkFixture(f, c.pool)
	if err != nil {
		return nil, err
	}
	rep.Check = check
	rep.Phases["warmup"], rep.Phases["measured"] = warmAcct, measAcct
	if sp.probePairs > 0 {
		rep.Phases["write_probe"] = probeAcct
	}
	rep.Phases["check"] = phase{Sent: check.Checked, Succeeded: check.Checked - check.Non2xx, Failed: check.Non2xx}

	// A non-2xx check request is counted once, by its phase.
	attempted, failed := 0, len(check.Mismatches)-check.Non2xx
	for _, p := range rep.Phases {
		attempted += p.Sent
		failed += p.Failed
	}
	ws := sortedCopy(writes)
	setupS := median(setups)
	m := map[string]metric{
		"setup_s":       {setupS, "s"},
		"qps":           {qps, "1/s"},
		"query_p50_us":  {p50us, "us"},
		"query_p99_us":  {p99us, "us"},
		"update_p50_ms": {ms(pairMedian(writes)), "ms"},
		"heap_mb":       {heapMB, "MB"},
	}
	for k, v := range m {
		rep.Metrics[k] = v
	}
	rep.Metrics["failed_ratio"] = metric{ratio(float64(failed), float64(attempted)), "1"}
	// A percentile is reported only with at least ten samples beyond it.
	if len(ws) >= 100 {
		rep.Metrics["update_p90_ms"] = metric{ms(quantile(ws, 0.90)), "ms"}
	} else {
		rep.Metrics["update_p90_ms"] = nil
		rep.Notes = append(rep.Notes, fmt.Sprintf("update_p90_ms omitted: %d writes, 100 needed for ten beyond p90", len(ws)))
	}
	rep.Samples["query"], rep.Samples["update"], rep.Samples["setup"] = len(reads), len(ws), len(setups)
	wms := make([]float64, len(writes))
	for i, x := range writes {
		wms[i] = ms(x)
	}
	rep.Metrics["update_ms"] = wms
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// gmpRun is one traced measurement at a GOMAXPROCS setting.
type gmpRun struct {
	prefix string
	procs  int
}

// spanDir is where the traced run writes its spans, under the build
// directory run.sh uses.
var spanDir = filepath.Join(".bench_build", "spans")

func runTraced(sp spec, seed int64, d time.Duration, rep *report) (*result, error) {
	c, f, _, err := prepareRun(sp, seed, true, rep)
	if err != nil {
		return nil, err
	}
	p := &pass{f: f, c: newClient(f.srv.Handler()), pool: c.pool, seq: newOpSeq(sp, seed), w: newWriter(c, seed)}
	p.bodies = make([][]byte, len(c.pool))
	for i, q := range c.pool {
		p.bodies[i] = queryBody(q)
	}
	if sp.readRate > 0 {
		p.every = int(sp.readRate / sp.writeRate)
	} else {
		p.pairs = tracedProbePairs
	}
	// Warm both tenants: each pool query once, then the op sequence.
	for k := range c.pool {
		if _, err := p.mirrorRead(k); err != nil {
			return nil, err
		}
	}
	for t0 := time.Now(); time.Since(t0) < warmup; {
		if _, _, err := p.step(nil, 0); err != nil {
			return nil, err
		}
	}
	rep.Phases["warmup"] = p.acct
	p.acct = phase{}

	m := map[string]metric{
		"dewey.encode_ms":      {ms(f.times.encode), "ms"},
		"views.materialize_ms": {ms(f.times.materialize), "ms"},
		"views.bytes_kb":       {float64(f.viewBytes) / 1024, "KB"},
	}
	defaultProcs := runtime.GOMAXPROCS(0)
	req := 0
	failed := 0
	for _, g := range []gmpRun{{"", defaultProcs}, {"gmp1.", 1}} {
		runtime.GOMAXPROCS(g.procs)
		// Untraced pass: served read time only, the twin mirrored off the
		// clock, to set the baseline the tracing overhead is taken against.
		untracedNs, untracedReads, _, err := p.run(nil, d/4, &req)
		if err != nil {
			return nil, err
		}
		rep.Phases[g.prefix+"untraced"] = p.acct
		p.acct = phase{}
		tr := &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
		passStart := time.Now()
		pc0 := f.sys.PlanCacheStats()
		tracedNs, tracedReads, _, err := p.run(tr, d/4, &req)
		if err != nil {
			return nil, err
		}
		pc1 := f.sys.PlanCacheStats()
		wall := time.Since(passStart)
		rep.Phases[g.prefix+"traced"] = p.acct
		p.acct = phase{}
		ls := foldSpans(tr.spans)
		failed += ls.ansDiffer
		lm := ls.metrics(wall)
		lookups := float64((pc1.Hits - pc0.Hits) + (pc1.Misses - pc0.Misses))
		lm["plancache.hit_ratio"] = ratio(float64(pc1.Hits-pc0.Hits), lookups)
		lm["plancache.evictions_per_kq"] = ratio(1000*float64(pc1.Evictions-pc0.Evictions), float64(tracedReads))
		lm["plancache.invalidations_per_kq"] = ratio(1000*float64(pc1.Invalidations-pc0.Invalidations), float64(tracedReads))
		untracedQPS := ratio(float64(untracedReads), untracedNs.Seconds())
		tracedQPS := ratio(float64(tracedReads), tracedNs.Seconds())
		lm["trace.untraced_qps"] = untracedQPS
		lm["trace.traced_qps"] = tracedQPS
		lm["trace.qps_ratio"] = ratio(tracedQPS, untracedQPS)
		for k, v := range lm {
			m[g.prefix+k] = metric{v, unitOf(k)}
		}
		rep.Samples[g.prefix+"traced_reads"] = tracedReads
		rep.Samples[g.prefix+"traced_writes"] = ls.writes
		rep.Samples[g.prefix+"untraced_reads"] = untracedReads
		rep.Metrics[g.prefix+"twin_hit_differs"] = ls.hitDiffers
		rep.Metrics[g.prefix+"replay_answers_differ"] = ls.ansDiffer
		if err := writeSpans(filepath.Join(spanDir, fmt.Sprintf("%s-gmp%d.jsonl", sp.name, g.procs)), tr.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	runtime.GOMAXPROCS(defaultProcs)
	check, err := checkFixture(f, c.pool)
	if err != nil {
		return nil, err
	}
	rep.Check = check
	rep.Phases["check"] = phase{Sent: check.Checked, Succeeded: check.Checked - check.Non2xx, Failed: check.Non2xx}
	// A non-2xx check request is counted once, by its phase.
	attempted := 0
	failed += len(check.Mismatches) - check.Non2xx
	for _, ph := range rep.Phases {
		attempted += ph.Sent
		failed += ph.Failed
	}
	for k, v := range m {
		rep.Metrics[k] = v
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_us", "us"}, {"_ms", "ms"}, {"_kb", "KB"}, {"_bytes", "bytes"}, {"_qps", "1/s"},
		{"_per_kq", "1/kq"}, {"_ratio", "ratio"}, {"_share", "ratio"}, {"precision", "ratio"},
	} {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	return "count"
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
