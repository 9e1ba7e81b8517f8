package main

// The traced run: a single-goroutine pass over a workload's op sequence
// that records one span per layer call, from the benchmark's own files.
//
// Per read request the pass records:
//
//	server.ServeHTTP          the served request (tenant "default")
//	 └ system.AnswerResilient the same query on the twin tenant
//	    ├ xpath.Parse         a replay of the pipeline on the twin's own
//	    ├ pattern.Minimize    Filter(), Registry() and FST()
//	    ├ vfilter.FilteringBudget
//	    ├ selection.HeuristicBudget
//	    ├ rewrite.PlanJoin
//	    └ rewrite.ExecuteOptions
//
// When the served call hit the plan cache it did no planning, so the
// three planning spans hang off a root span of their own, replay.plan,
// and AnswerResilient keeps only the spans its call did run. Planning is
// thus timed per call on every workload, hits included. Per write the
// pass records a server.ServeHTTP.update span with a
// maintain.InsertSubtree or maintain.DeleteSubtree child on the twin.
// The calls run one after another, not nested, so a span's self time is
// its duration minus the durations of its children. Allocation counts
// come from runtime.MemStats reads taken outside each span's clock.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"xpathviews"
	"xpathviews/internal/dewey"
	"xpathviews/internal/pattern"
	"xpathviews/internal/rewrite"
	"xpathviews/internal/selection"
	"xpathviews/internal/xpath"
)

// span is one timed layer call.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // -1 for a request's root
	Req    int              `json:"req"`    // shared by a request's spans
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"` // since the pass began
	End    int64            `json:"end_ns"`
	Allocs uint64           `json:"allocs"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

func (s *span) set(k string, v int64) {
	if s.Attrs == nil {
		s.Attrs = map[string]int64{}
	}
	s.Attrs[k] = v
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	t0    time.Time
	spans []span
	ms    runtime.MemStats
}

func (t *tracer) begin(req, parent int, name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name})
	runtime.ReadMemStats(&t.ms)
	t.spans[id].Allocs = t.ms.Mallocs
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) *span {
	e := int64(time.Since(t.t0))
	runtime.ReadMemStats(&t.ms)
	s := &t.spans[id]
	s.End = e
	s.Allocs = t.ms.Mallocs - s.Allocs
	return s
}

// pass drives the served tenant and its twin in lockstep.
type pass struct {
	f       *fixture
	c       *client
	bodies  [][]byte
	pool    []string
	seq     *opSeq
	w       *writer
	twinPos dewey.Code // the twin's pending inserted subtree, nil if none
	reads   int        // reads since the last write
	every   int        // reads per write (0 = no interleaved writes)
	pairs   int        // insert+delete pairs between read segments
	acct    phase
}

// mirrorRead serves pool query k untraced and answers it on the twin, so
// both plan caches see the same traffic. It returns the ServeHTTP time.
func (p *pass) mirrorRead(k int) (time.Duration, error) {
	status, _, d := p.c.do("/v1/query", p.bodies[k])
	p.acct.count(status)
	if _, err := p.f.twin.AnswerResilient(context.Background(), p.pool[k], xpathviews.Options{}); err != nil {
		return d, fmt.Errorf("twin %s: %w", p.pool[k], err)
	}
	return d, nil
}

// twinWrite applies op on the twin, returning the maintenance result.
func (p *pass) twinWrite(op writeOp) (*xpathviews.MaintainResult, error) {
	if op.insert {
		pc, err := dewey.ParseCode(op.parent)
		if err != nil {
			return nil, err
		}
		r, err := p.f.twin.InsertSubtree(pc, op.xml)
		if err == nil {
			p.twinPos = r.Code
		}
		return r, err
	}
	r, err := p.f.twin.DeleteSubtree(p.twinPos)
	p.twinPos = nil
	return r, err
}

// write serves the writer's next update on the served tenant and applies
// the same update to the twin; tr may be nil for an untraced write.
func (p *pass) write(tr *tracer, req int) error {
	op := p.w.next()
	httpReq := prepare("/v1/update", op.body())
	root := -1
	if tr != nil {
		root = tr.begin(req, -1, "server.ServeHTTP.update")
	}
	status, resp, _ := p.c.serve(httpReq)
	if tr != nil {
		tr.end(root)
	}
	p.acct.count(status)
	var ur updateResp
	if !ok2xx(status) || json.Unmarshal(resp, &ur) != nil {
		return fmt.Errorf("update %s: status %d: %s", op.body(), status, resp)
	}
	p.w.applied(ur.Code)
	name := "maintain.DeleteSubtree"
	if op.insert {
		name = "maintain.InsertSubtree"
	}
	id := -1
	if tr != nil {
		id = tr.begin(req, root, name)
	}
	r, err := p.twinWrite(op)
	if tr != nil {
		s := tr.end(id)
		if r != nil {
			s.set("views_checked", int64(r.ViewsChecked))
			s.set("dirty_views", int64(r.DirtyViews))
			s.set("frags_changed", int64(r.FragmentsAdded+r.FragmentsRemoved+r.FragmentsRefreshed))
		}
	}
	if err != nil {
		return fmt.Errorf("twin %s: %w", name, err)
	}
	return nil
}

// step runs the next op of the sequence untraced (tr == nil) or traced,
// returning the served read time (0 for a write) and whether it read.
// The served time of a traced read includes opening and closing its
// root span, so the two compare as the tracing overhead.
func (p *pass) step(tr *tracer, req int) (time.Duration, bool, error) {
	if p.every > 0 && p.reads >= p.every {
		p.reads = 0
		return 0, false, p.write(tr, req)
	}
	p.reads++
	k := p.seq.next()
	if tr == nil {
		d, err := p.mirrorRead(k)
		return d, true, err
	}
	d, err := p.tracedRead(tr, req, k)
	return d, true, err
}

// run serves the op sequence for d, traced when tr is not nil, and
// returns the served time and count of the reads and the count of the
// writes. A read-only workload serves one insert+delete pair after each
// of its p.pairs read segments, as its end-to-end run does; an
// interleaved mix runs on until it has served an insert and a delete.
func (p *pass) run(tr *tracer, d time.Duration, req *int) (readNs time.Duration, reads, writes int, err error) {
	segs := max(p.pairs, 1)
	for seg := 0; seg < segs; seg++ {
		for t0 := time.Now(); time.Since(t0) < d/time.Duration(segs) || (p.every > 0 && writes < 2); {
			dt, read, err := p.step(tr, *req)
			*req++
			if err != nil {
				return readNs, reads, writes, err
			}
			if read {
				readNs += dt
				reads++
			} else {
				writes++
			}
		}
		for i := 0; p.pairs > 0 && i < 2; i++ {
			if err := p.write(tr, *req); err != nil {
				return readNs, reads, writes, err
			}
			*req++
			writes++
		}
	}
	return readNs, reads, writes, nil
}

// tracedRead records one read request's spans and returns its served
// time, span bookkeeping included.
func (p *pass) tracedRead(tr *tracer, req, k int) (time.Duration, error) {
	src := p.pool[k]
	httpReq := prepare("/v1/query", p.bodies[k])
	t0 := time.Now()
	root := tr.begin(req, -1, "server.ServeHTTP")
	status, body, _ := p.c.serve(httpReq)
	rs := tr.end(root)
	served := time.Since(t0)
	err := p.replay(tr, req, root, rs, src, status, body)
	return served, err
}

// replay records the twin's AnswerResilient span and the layer spans
// under it for one read served with status and body.
func (p *pass) replay(tr *tracer, req, root int, rs *span, src string, status int, body []byte) error {
	p.acct.count(status)
	var qr queryResp
	if err := json.Unmarshal(body, &qr); err != nil || !ok2xx(status) {
		return fmt.Errorf("query %s: status %d: %s", src, status, body)
	}
	rs.set("resp_bytes", int64(len(body)))
	rs.set("answers", int64(len(qr.Answers)))

	twin := p.f.twin
	ar := tr.begin(req, root, "system.AnswerResilient")
	res, err := twin.AnswerResilient(context.Background(), src, xpathviews.Options{})
	as := tr.end(ar)
	if err != nil {
		return fmt.Errorf("twin %s: %w", src, err)
	}
	if res.PlanCacheHit {
		as.set("plan_cache_hit", 1)
	}
	if res.PlanCacheHit != qr.PlanCacheHit {
		as.set("hit_differs", 1)
	}

	id := tr.begin(req, ar, "xpath.Parse")
	q, err := xpath.Parse(src)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(req, ar, "pattern.Minimize")
	q = pattern.Minimize(q)
	tr.end(id)

	planParent := ar
	if res.PlanCacheHit {
		planParent = tr.begin(req, -1, "replay.plan")
	}
	id = tr.begin(req, planParent, "vfilter.FilteringBudget")
	fres, err := twin.Filter().FilteringBudget(q, nil)
	s := tr.end(id)
	if err != nil {
		return err
	}
	s.set("candidates", int64(len(fres.Candidates)))
	id = tr.begin(req, planParent, "selection.HeuristicBudget")
	sel, err := selection.HeuristicBudget(q, fres, twin.Registry(), nil)
	s = tr.end(id)
	if err != nil {
		return err
	}
	s.set("homs", int64(sel.HomsComputed))
	s.set("covers", int64(len(sel.Covers)))
	id = tr.begin(req, planParent, "rewrite.PlanJoin")
	jp, err := rewrite.PlanJoin(q, sel.Covers)
	tr.end(id)
	if err != nil {
		return err
	}
	if res.PlanCacheHit {
		tr.end(planParent)
	}
	id = tr.begin(req, ar, "rewrite.ExecuteOptions")
	out, err := rewrite.ExecuteOptions(q, sel, twin.FST(), nil, rewrite.Options{Plan: jp})
	s = tr.end(id)
	if err != nil {
		return err
	}
	var scanned, kept int64
	for i := range out.ViewScanned {
		scanned += int64(out.ViewScanned[i])
		kept += int64(out.ViewKept[i])
	}
	s.set("refine_ns", out.RefineNanos)
	s.set("join_build_ns", out.JoinBuildNanos)
	s.set("join_embed_ns", out.JoinNanos-out.JoinBuildNanos)
	s.set("extract_ns", out.ExtractNanos)
	s.set("frags_scanned", int64(out.FragmentsScanned))
	s.set("view_scanned", scanned)
	s.set("view_kept", kept)
	s.set("answers", int64(len(out.Answers)))
	if len(out.Answers) != len(qr.Answers) {
		s.set("answers_differ", 1)
	}
	return nil
}

// writeSpans writes a pass's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// layerStats folds a traced pass's spans into the per-layer metrics.
type layerStats struct {
	reads, plans, writes  int
	sum                   map[string]float64 // per-metric sums
	updateNs              int64              // ServeHTTP time of the writes
	inserts, deletes      int
	insertNs, deleteNs    int64
	hitDiffers, ansDiffer int
}

func foldSpans(spans []span) *layerStats {
	ls := &layerStats{sum: map[string]float64{}}
	childDur := make([]int64, len(spans))
	childAllocs := make([]uint64, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			childDur[p] += spans[i].dur()
			childAllocs[p] += spans[i].Allocs
		}
	}
	for i := range spans {
		s := &spans[i]
		selfUS := float64(s.dur()-childDur[i]) / 1e3
		selfAllocs := float64(s.Allocs) - float64(childAllocs[i])
		a := s.Attrs
		switch s.Name {
		case "server.ServeHTTP":
			ls.reads++
			ls.sum["server.self_us"] += selfUS
			ls.sum["server.allocs"] += selfAllocs
			ls.sum["server.resp_bytes"] += float64(a["resp_bytes"])
		case "server.ServeHTTP.update":
			ls.writes++
			ls.updateNs += s.dur()
		case "system.AnswerResilient":
			ls.sum["system.self_us"] += selfUS
			ls.sum["system.allocs"] += selfAllocs
			ls.hitDiffers += int(a["hit_differs"])
		case "xpath.Parse":
			ls.sum["xpath.parse_us"] += selfUS
		case "pattern.Minimize":
			ls.sum["pattern.minimize_us"] += selfUS
		case "vfilter.FilteringBudget":
			ls.plans++
			ls.sum["vfilter.filter_us"] += selfUS
			ls.sum["vfilter.candidates"] += float64(a["candidates"])
		case "selection.HeuristicBudget":
			ls.sum["selection.select_us"] += selfUS
			ls.sum["selection.homs"] += float64(a["homs"])
			ls.sum["selection.covers"] += float64(a["covers"])
		case "rewrite.PlanJoin":
			ls.sum["rewrite.planjoin_us"] += selfUS
		case "rewrite.ExecuteOptions":
			ls.sum["rewrite.refine_us"] += float64(a["refine_ns"]) / 1e3
			ls.sum["rewrite.join_build_us"] += float64(a["join_build_ns"]) / 1e3
			ls.sum["rewrite.join_embed_us"] += float64(a["join_embed_ns"]) / 1e3
			ls.sum["rewrite.extract_us"] += float64(a["extract_ns"]) / 1e3
			ls.sum["rewrite.frags_scanned"] += float64(a["frags_scanned"])
			ls.sum["view_scanned"] += float64(a["view_scanned"])
			ls.sum["view_kept"] += float64(a["view_kept"])
			ls.sum["rewrite.answers"] += float64(a["answers"])
			ls.sum["rewrite.allocs"] += selfAllocs
			ls.ansDiffer += int(a["answers_differ"])
		case "maintain.InsertSubtree", "maintain.DeleteSubtree":
			if s.Name == "maintain.InsertSubtree" {
				ls.inserts++
				ls.insertNs += s.dur()
			} else {
				ls.deletes++
				ls.deleteNs += s.dur()
			}
			ls.sum["maintain.views_checked"] += float64(a["views_checked"])
			ls.sum["dirty_views"] += float64(a["dirty_views"])
			ls.sum["maintain.frags_changed"] += float64(a["frags_changed"])
		}
	}
	return ls
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics turns the folded sums into per-request means and ratios.
// Planning metrics (vfilter, selection, rewrite.planjoin_us) are per
// planning call, and every read plans once, in the served call or in
// replay.plan; how often the served path pays for planning is
// plancache.hit_ratio. Other read metrics are per read request, and
// maintain metrics per write. wall is the traced pass's duration.
func (ls *layerStats) metrics(wall time.Duration) map[string]float64 {
	out := map[string]float64{}
	perRead := []string{"server.self_us", "server.allocs", "server.resp_bytes", "system.self_us", "system.allocs",
		"xpath.parse_us", "pattern.minimize_us",
		"rewrite.refine_us", "rewrite.join_build_us", "rewrite.join_embed_us", "rewrite.extract_us",
		"rewrite.frags_scanned", "rewrite.answers", "rewrite.allocs"}
	for _, k := range perRead {
		out[k] = ratio(ls.sum[k], float64(ls.reads))
	}
	for _, k := range []string{"vfilter.filter_us", "vfilter.candidates", "selection.select_us",
		"selection.homs", "selection.covers", "rewrite.planjoin_us"} {
		out[k] = ratio(ls.sum[k], float64(ls.plans))
	}
	out["vfilter.precision"] = ratio(ls.sum["selection.covers"], ls.sum["vfilter.candidates"])
	out["rewrite.kept_ratio"] = ratio(ls.sum["view_kept"], ls.sum["view_scanned"])
	out["maintain.insert_ms"] = ratio(float64(ls.insertNs)/1e6, float64(ls.inserts))
	out["maintain.delete_ms"] = ratio(float64(ls.deleteNs)/1e6, float64(ls.deletes))
	out["maintain.views_checked"] = ratio(ls.sum["maintain.views_checked"], float64(ls.writes))
	out["maintain.dirty_ratio"] = ratio(ls.sum["dirty_views"], ls.sum["maintain.views_checked"])
	out["maintain.frags_changed"] = ratio(ls.sum["maintain.frags_changed"], float64(ls.writes))
	out["maintain.lock_share"] = ratio(float64(ls.updateNs), float64(wall))
	return out
}
