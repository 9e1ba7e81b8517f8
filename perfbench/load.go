package main

// Load generation: one closed-loop client, or open-loop read and write
// generators on their own goroutines, each timing requests at ServeHTTP.

import (
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// phase accounts the requests of one phase (warm-up, measured, probe,
// check).
type phase struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

func (p *phase) count(status int) {
	p.Sent++
	if ok2xx(status) {
		p.Succeeded++
	} else {
		p.Failed++
	}
}

func (p *phase) add(q phase) {
	p.Sent += q.Sent
	p.Succeeded += q.Succeeded
	p.Failed += q.Failed
}

// lateness is how far behind its schedule an open-loop generator ran.
type lateness struct {
	MeanUS float64 `json:"mean_us"`
	P99US  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`
}

func latenessOf(ds []time.Duration) lateness {
	if len(ds) == 0 {
		return lateness{}
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	s := sortedCopy(ds)
	return lateness{
		MeanUS: us(sum) / float64(len(ds)),
		P99US:  us(quantile(s, 0.99)),
		MaxUS:  us(s[len(s)-1]),
	}
}

func sortedCopy(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile is the nearest-rank q-quantile of sorted s.
func quantile(s []time.Duration, q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// closedLoop serves requests in seq order, one at a time, for d. It
// returns each request's latency and the time the loop took.
func closedLoop(c *client, bodies [][]byte, seq *opSeq, d time.Duration, acct *phase) ([]time.Duration, time.Duration) {
	lat := make([]time.Duration, 0, 1<<14)
	start := time.Now()
	for time.Since(start) < d {
		status, _, el := c.do("/v1/query", bodies[seq.next()])
		acct.count(status)
		lat = append(lat, el)
	}
	return lat, time.Since(start)
}

// segment summarizes a run of consecutive reads.
type segment struct {
	QPS   float64 `json:"qps"`
	P50US float64 `json:"p50_us"`
	P99US float64 `json:"p99_us"`
	// Steal is the share of the machine's CPU time that the hypervisor
	// gave to other guests during the segment.
	Steal float64 `json:"steal"`
}

// calmSteal is a steal share too small to move a segment's latencies.
const calmSteal = 0.02

// calmStats takes the median of throughput, p50 and p99 over the
// segments whose steal share is at most the median steal share, or at
// most calmSteal. A virtual machine loses its CPUs to other guests in
// bursts of seconds to minutes; a burst inside the run then moves the
// result less. Where little is stolen, every segment counts.
func calmStats(segs []segment) (qps, p50us, p99us float64) {
	steals := make([]float64, len(segs))
	for i, s := range segs {
		steals[i] = s.Steal
	}
	limit := max(median(steals), calmSteal)
	var q, a, b []float64
	for _, s := range segs {
		if s.Steal <= limit {
			q, a, b = append(q, s.QPS), append(a, s.P50US), append(b, s.P99US)
		}
	}
	return median(q), median(a), median(b)
}

// ticks is the machine's cumulative stolen and total CPU time, in clock
// ticks, from /proc/stat.
type ticks struct{ steal, total uint64 }

// cpuTicks reads ticks; both are 0 where /proc/stat cannot be read.
func cpuTicks() ticks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return ticks{}
	}
	var t ticks
	for i, x := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return ticks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// summarize makes a segment of reads that took el, between the /proc/stat
// readings a and b.
func summarize(lat []time.Duration, el time.Duration, a, b ticks) segment {
	s := sortedCopy(lat)
	return segment{QPS: float64(len(lat)) / el.Seconds(), P50US: us(quantile(s, 0.50)),
		P99US: us(quantile(s, 0.99)), Steal: ratio(float64(b.steal-a.steal), float64(b.total-a.total))}
}

// openSegments splits an open-loop run's reads, in the order they were
// sent, into segments of one write cycle (size reads); marks holds the
// /proc/stat readings taken as each segment began and when the reads
// stopped. A run shorter than one cycle is one segment.
func openSegments(reads []time.Duration, marks []ticks, size int, interval time.Duration) []segment {
	n := len(reads) / size
	if n == 0 {
		return []segment{summarize(reads, time.Duration(len(reads))*interval, marks[0], marks[len(marks)-1])}
	}
	segs := make([]segment, n)
	for k := range segs {
		segs[k] = summarize(reads[k*size:(k+1)*size], time.Duration(size)*interval, marks[k], marks[k+1])
	}
	return segs
}

// pairMedian is the median over consecutive (insert, delete) pairs of
// the pair's mean latency. Inserts and deletes cost differently, and
// with as many of each a plain median falls in the gap between the two.
func pairMedian(writes []time.Duration) time.Duration {
	means := make([]float64, 0, len(writes)/2)
	for i := 0; i+1 < len(writes); i += 2 {
		means = append(means, float64(writes[i]+writes[i+1])/2)
	}
	return time.Duration(median(means))
}

// spinAhead is how long before a read's due time its generator stops
// sleeping and starts yielding.
const spinAhead = 1500 * time.Microsecond

// openResult is what the open-loop generators measured.
type openResult struct {
	reads, writes       []time.Duration // latency from each request's due time
	marks               []ticks         // /proc/stat every cycle reads, and at the end
	readLate, writeLate []time.Duration // start minus due time
	writeServe          []time.Duration // ServeHTTP time of each write
	readAcct, writeAcct phase
	writeErr            error // the first failed write; writes stop there
}

// openLoop runs the read and write generators side by side for d: reads
// every 1/readRate, writes every 1/writeRate, each due on its own fixed
// schedule. The reader reads /proc/stat at the start of every write
// cycle of cycle reads. A generator that falls behind issues late requests back to
// back; their latency still counts from the due time. One still behind
// at 2d stops, and counts each request it did not send as failed, so an
// overloaded system fails the run instead of stretching it.
func openLoop(h http.Handler, bodies [][]byte, seq *opSeq, w *writer,
	readRate, writeRate float64, cycle int, d time.Duration) (*openResult, time.Duration) {
	res := &openResult{}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer func() { res.marks = append(res.marks, cpuTicks()) }()
		c := newClient(h)
		interval := time.Duration(float64(time.Second) / readRate)
		for i := 0; ; i++ {
			if i%cycle == 0 {
				res.marks = append(res.marks, cpuTicks())
			}
			due := start.Add(time.Duration(i) * interval)
			if due.Sub(start) >= d {
				return
			}
			if time.Since(start) >= 2*d {
				unsent := int((d - due.Sub(start) + interval - 1) / interval)
				res.readAcct.Sent += unsent
				res.readAcct.Failed += unsent
				return
			}
			// Sleep to just short of the due time, then yield until it:
			// waking from a sleep is up to a millisecond late on a
			// virtual machine, more than a read takes, and that lateness
			// would be charged to the read.
			if wait := time.Until(due) - spinAhead; wait > 0 {
				time.Sleep(wait)
			}
			for time.Now().Before(due) {
				runtime.Gosched()
			}
			res.readLate = append(res.readLate, time.Since(due))
			status, _, _ := c.do("/v1/query", bodies[seq.next()])
			res.readAcct.count(status)
			res.reads = append(res.reads, time.Since(due))
		}
	}()
	go func() {
		defer wg.Done()
		c := newClient(h)
		interval := time.Duration(float64(time.Second) / writeRate)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			if due.Sub(start) >= d {
				return
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			res.writeLate = append(res.writeLate, time.Since(due))
			served, err := c.update(w)
			if err != nil {
				res.writeAcct.count(500)
				res.writeErr = err
				return
			}
			res.writeAcct.count(200)
			res.writes = append(res.writes, time.Since(due))
			res.writeServe = append(res.writeServe, served)
		}
	}()
	wg.Wait()
	return res, time.Since(start)
}

// probeWrites serves n closed-loop writes and returns their latencies.
func probeWrites(c *client, w *writer, n int, acct *phase) ([]time.Duration, error) {
	var lat []time.Duration
	for i := 0; i < n; i++ {
		d, err := c.update(w)
		if err != nil {
			acct.count(500)
			return lat, err
		}
		acct.count(200)
		lat = append(lat, d)
	}
	return lat, nil
}
