package main

// Fixtures: the seeded document, view set and query pool of a workload,
// and the timed set-up that turns them into a served daemon.

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"xpathviews"
	"xpathviews/internal/engine"
	"xpathviews/internal/pattern"
	"xpathviews/internal/selection"
	"xpathviews/internal/server"
	"xpathviews/internal/workload"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xmltree"
	"xpathviews/internal/xpath"
)

// paperParams are the §VI-A generator settings for views and queries.
var paperParams = workload.Params{MaxDepth: 4, ProbWild: 0.2, ProbDesc: 0.2, NumPred: 1, NumNestedPath: 1}

// The view and query generator streams are part of a workload's
// definition and do not vary with --seed: views and queries are still
// filtered against the seeded document, but a 64-query pool drawn over a
// seed-dependent view set varies in cost by tens of percent from seed to
// seed, which would swamp any regression bound. The seed drives the
// document, the request order and the writers.
const (
	viewStreamSeed  = 2008
	queryStreamSeed = 2009
	opStream        = 3
)

// spec sizes one workload.
type spec struct {
	name  string
	scale float64 // XMark document scale
	views int     // materialized views
	pool  int     // distinct queries
	zipf  bool    // Zipf(1.1) request order; otherwise a cycled permutation
	// readRate and writeRate (per second) make the load open-loop; zero
	// means one closed-loop client.
	readRate, writeRate float64
	// probePairs is the number of closed-loop insert+delete pairs a
	// read-only workload serves between its read segments (update-mix
	// writes in its mix).
	probePairs int
}

var specs = []spec{
	{name: "hot-read", scale: 0.5, views: 300, pool: 64, zipf: true, probePairs: 10},
	{name: "plan-churn", scale: 0.05, views: 2000, pool: 2048, probePairs: 10},
	{name: "update-mix", scale: 0.5, views: 300, pool: 64, zipf: true, readRate: 200, writeRate: 1},
}

func specFor(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// corpus is a workload's mined inputs: view and query sources, plus the
// insertion shapes and parents the writers use.
type corpus struct {
	views []string
	pool  []string
	// parents maps an insertion-parent label to the codes of every node
	// with that label in the freshly generated document.
	parents map[string][]string
	nodes   int
}

func genDoc(sp spec, seed int64) *xmltree.Tree {
	return xmark.Generate(xmark.Config{Scale: sp.scale, Seed: seed})
}

// mine derives the views and the query pool from the seed. Views are
// distinct, positive and within the fragment cap; queries are distinct
// after minimization and NormalizeQuery, positive, and answerable by HV
// over those views. Mining is the benchmark's own work and is not timed
// as set-up.
func mine(sp spec, seed int64) (*corpus, error) {
	doc := genDoc(sp, seed)
	sys, err := xpathviews.Open(doc)
	if err != nil {
		return nil, fmt.Errorf("mine: open: %w", err)
	}
	c := &corpus{parents: map[string][]string{}, nodes: doc.Size()}
	idx := engine.BuildLabelIndex(doc)
	vgen := workload.New(viewStreamSeed, xmark.Schema(), xmark.Attributes(), paperParams)
	seen := map[string]bool{}
	for tries := 0; len(c.views) < sp.views; tries++ {
		if tries > 200*sp.views {
			return nil, fmt.Errorf("mine: only %d of %d views after %d tries", len(c.views), sp.views, tries)
		}
		q := vgen.Query()
		src := q.String()
		if seen[src] {
			continue
		}
		seen[src] = true
		if len(engine.AnswersFast(doc, idx, q)) == 0 {
			continue
		}
		if _, err := sys.AddView(src, xpathviews.DefaultFragmentLimit); err != nil {
			continue // over the fragment cap
		}
		c.views = append(c.views, src)
	}
	qgen := workload.New(queryStreamSeed, xmark.Schema(), xmark.Attributes(), paperParams)
	seen = map[string]bool{}
	for tries := 0; len(c.pool) < sp.pool; tries++ {
		if tries > 400*sp.pool {
			return nil, fmt.Errorf("mine: only %d of %d queries after %d tries", len(c.pool), sp.pool, tries)
		}
		m := pattern.Minimize(qgen.Query())
		src := xpathviews.NormalizeQuery(m.String())
		if seen[src] {
			continue
		}
		seen[src] = true
		if len(engine.AnswersFast(doc, idx, m)) == 0 || !hvAnswerable(sys, src) {
			continue
		}
		c.pool = append(c.pool, src)
	}
	for _, ms := range maintainShapes {
		if _, ok := c.parents[ms.parent]; ok {
			continue
		}
		var codes []string
		doc.Walk(func(n *xmltree.Node) bool {
			if n.Label == ms.parent {
				codes = append(codes, sys.Encoding().MustCode(n).String())
			}
			return true
		})
		if len(codes) == 0 {
			return nil, fmt.Errorf("mine: no %q node at scale %g", ms.parent, sp.scale)
		}
		c.parents[ms.parent] = codes
	}
	return c, nil
}

// hvAnswerable runs VFilter and the §IV heuristic selection directly, so
// mining never touches the plan cache.
func hvAnswerable(sys *xpathviews.System, src string) bool {
	q, err := xpath.Parse(src)
	if err != nil {
		return false
	}
	q = pattern.Minimize(q)
	fres, err := sys.Filter().FilteringBudget(q, nil)
	if err != nil {
		return false
	}
	_, err = selection.HeuristicBudget(q, fres, sys.Registry(), nil)
	return err == nil
}

// maintainShape is one inserted-subtree shape; the shapes (1 to 17
// nodes) are those of the maintenance experiment in
// internal/experiments/maintain.go.
type maintainShape struct {
	parent string
	xml    string
}

var maintainShapes = []maintainShape{
	{"item", "<quantity/>"},
	{"item", "<mailbox><mail><from/><to/><date/></mail></mailbox>"},
	{"item", "<description><parlist><listitem><text><bold/><keyword/></text></listitem>" +
		"<listitem><text><emph/></text></listitem></parlist></description>"},
	{"people", "<person><name/><emailaddress/><phone/>" +
		"<address><street/><city/><country/><zipcode/></address>" +
		"<homepage/><creditcard/><profile><interest/><education/><age/></profile>" +
		"<watches><watch/></watches></person>"},
}

// setupTimes splits one set-up into its layers.
type setupTimes struct {
	encode, materialize, serverNew time.Duration
}

func (t setupTimes) total() time.Duration { return t.encode + t.materialize + t.serverNew }

// fixture is a served daemon over one workload's corpus.
type fixture struct {
	srv *server.Server
	// sys is the served tenant's System; twin, when present, is a second
	// tenant over an identical document and view set that the traced
	// replay drives directly, so its plan cache sees the same traffic as
	// the served one without perturbing it.
	sys, twin *xpathviews.System
	times     setupTimes
	viewBytes int
}

const twinTenant = "twin"

// build generates the document (untimed) and times xpathviews.Open (the
// Dewey encode), materializing every view, and server.New with the
// daemon's defaults: the process metrics registry, no trace export, the
// default resilient strategy and the daemon's 100 ms slow-query log.
// (A fresh registry per build would leak: the library's per-registry
// metric bundles are never released, and they reach the tenants.)
func build(sp spec, seed int64, c *corpus, withTwin bool) (*fixture, error) {
	doc := genDoc(sp, seed)
	f := &fixture{}
	t0 := time.Now()
	t, err := server.NewTenant(server.TenantConfig{Name: server.DefaultTenant}, doc)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	for _, v := range c.views {
		if err := t.AddView(v); err != nil {
			return nil, err
		}
	}
	t2 := time.Now()
	tenants := []*server.Tenant{t}
	if withTwin {
		tt, err := server.NewTenant(server.TenantConfig{Name: twinTenant, Views: c.views}, genDoc(sp, seed))
		if err != nil {
			return nil, err
		}
		tenants = append(tenants, tt)
	}
	t3 := time.Now()
	srv, err := server.New(server.Config{
		SlowQueryThreshold: 100 * time.Millisecond,
	}, tenants)
	if err != nil {
		return nil, err
	}
	f.times = setupTimes{encode: t1.Sub(t0), materialize: t2.Sub(t1), serverNew: time.Since(t3)}
	f.srv, f.sys = srv, t.System()
	if withTwin {
		f.twin = srv.Tenant(twinTenant).System()
	}
	f.viewBytes = f.sys.Registry().TotalBytes()
	return f, nil
}

// opSeq yields a workload's seeded request order over pool indices.
type opSeq struct {
	r    *rand.Rand
	zipf *rand.Zipf
	perm []int
	i    int
}

func newOpSeq(sp spec, seed int64) *opSeq {
	r := rand.New(rand.NewSource(seed + opStream))
	s := &opSeq{r: r}
	if sp.zipf {
		s.zipf = rand.NewZipf(r, 1.1, 1, uint64(sp.pool-1))
	} else {
		s.perm = r.Perm(sp.pool)
	}
	return s
}

func (s *opSeq) next() int {
	if s.zipf != nil {
		return int(s.zipf.Uint64())
	}
	k := s.perm[s.i%len(s.perm)]
	s.i++
	return k
}

// writeOp is one update: an insert of xml under parent, or a delete of
// the subtree at code.
type writeOp struct {
	insert            bool
	parent, xml, code string
}

func (op writeOp) body() []byte {
	if op.insert {
		return []byte(fmt.Sprintf(`{"op":"insert","parent_code":%q,"xml":%q}`, op.parent, op.xml))
	}
	return []byte(fmt.Sprintf(`{"op":"delete","code":%q}`, op.code))
}

// writer alternates insert and delete requests, so the document size
// stays constant: each delete removes the subtree the previous insert
// added. Shapes cycle; parents are drawn from the seeded stream.
type writer struct {
	r       *rand.Rand
	parents map[string][]string
	k       int
	pending string // code of the last inserted subtree root, "" if none
}

func newWriter(c *corpus, seed int64) *writer {
	return &writer{r: rand.New(rand.NewSource(seed + opStream + 1)), parents: c.parents}
}

// next returns the next update. Call applied once it has been served.
func (w *writer) next() writeOp {
	if w.pending != "" {
		return writeOp{code: w.pending}
	}
	ms := maintainShapes[w.k%len(maintainShapes)]
	w.k++
	ps := w.parents[ms.parent]
	return writeOp{insert: true, parent: ps[w.r.Intn(len(ps))], xml: ms.xml}
}

// applied records the code the served update reported.
func (w *writer) applied(code string) {
	if w.pending == "" {
		w.pending = code
	} else {
		w.pending = ""
	}
}

// bfCodes answers src by direct BF evaluation on sys's current document
// state: the ground truth served answers are checked against. Codes are
// sorted as strings, the order the server returns them in.
func bfCodes(sys *xpathviews.System, bf *engine.BF, src string) ([]string, error) {
	q, err := xpath.Parse(src)
	if err != nil {
		return nil, err
	}
	nodes := bf.Eval(q)
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		c, ok := sys.Encoding().CodeOf(n)
		if !ok {
			return nil, fmt.Errorf("bf: answer node %s has no code", n.Label)
		}
		out = append(out, c.String())
	}
	sort.Strings(out)
	return out, nil
}
