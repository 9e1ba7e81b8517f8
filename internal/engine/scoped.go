package engine

// Scoped evaluation for incremental view maintenance: AnswersWithin
// re-evaluates a pattern only over the candidates inside one subtree,
// matching them navigationally against the full document. The maintain
// subsystem picks the scope (the "dirty root") so that every answer
// whose membership a mutation can change lies inside it; this evaluator
// then recomputes exactly that slice of the answer set.
//
// The cost follows the candidates, not the scope: a subtree is one
// contiguous preorder range, so the spine-last label's nodes inside it
// are a binary-searched slice of the label index (the paper's §VI BN
// index), and the verdict memo is a dense array the caller reuses
// across patterns.

import (
	"sort"

	"xpathviews/internal/pattern"
	"xpathviews/internal/xmltree"
)

// Memo is reusable scratch for AnswersWithin: one spine-embedding
// verdict per (spine step, document node), stored densely at
// step*n + ord and stamped with the epoch of the call that wrote it, so
// starting a new call invalidates every entry without clearing. The
// zero value is ready to use; a Memo must not be shared by concurrent
// calls.
type Memo struct {
	cells []uint32 // epoch<<1 | verdict; epoch 0 never matches
	epoch uint32
}

// begin sizes the memo for a steps×n table and opens a fresh epoch.
func (m *Memo) begin(steps, n int) {
	if need := steps * n; len(m.cells) < need {
		// Patterns differ in spine length: grow geometrically so a
		// mutation's views reallocate a few times, not once per length.
		m.cells = make([]uint32, max(need, 2*len(m.cells)))
		m.epoch = 0
	}
	if m.epoch == 1<<31-1 {
		clear(m.cells)
		m.epoch = 0
	}
	m.epoch++
}

// AnswersWithin returns, in document order, the answers of q that lie in
// the subtree rooted at scope (inclusive). Matching is against the whole
// document — ancestors above scope participate in spine embedding and
// predicate checks as usual — only the candidate set is restricted.
// idx must index t's current nodes in document order.
func AnswersWithin(t *xmltree.Tree, idx *LabelIndex, q *pattern.Pattern, scope *xmltree.Node, memo *Memo) []*xmltree.Node {
	spine := q.Spine()
	last := len(spine) - 1
	root := t.Root()
	n := t.Size()
	memo.begin(len(spine), n)
	epoch := memo.epoch << 1

	// up reports whether spine[0..step] can embed along dn's ancestor
	// path with dn as the image of spine[step], all predicates
	// satisfied. Candidates in a subtree share ancestors, so memoizing
	// keeps the work near-linear in the candidates; a label mismatch is
	// decided before the memo is touched.
	var up func(step int, dn *xmltree.Node) bool
	up = func(step int, dn *xmltree.Node) bool {
		pn := spine[step]
		if pn.Label != pattern.Wildcard && pn.Label != dn.Label {
			return false
		}
		k := step*n + t.Ord(dn)
		if c := memo.cells[k]; c&^1 == epoch {
			return c&1 == 1
		}
		ok := matchNodeNav(pn, dn, spine, step)
		if ok {
			if step == 0 {
				// The virtual document root has the real root as its only
				// child: a Child-axis pattern root images the document root
				// alone, a Descendant-axis root images any node.
				ok = pn.Axis == pattern.Descendant || dn == root
			} else if pn.Axis == pattern.Child {
				ok = dn.Parent != nil && up(step-1, dn.Parent)
			} else {
				ok = false
				for a := dn.Parent; a != nil; a = a.Parent {
					if up(step-1, a) {
						ok = true
						break
					}
				}
			}
		}
		c := epoch
		if ok {
			c |= 1
		}
		memo.cells[k] = c
		return ok
	}

	var out []*xmltree.Node
	for _, dn := range scopeCandidates(t, idx, spine[last].Label, scope) {
		if up(last, dn) {
			out = append(out, dn)
		}
	}
	return out
}

// scopeCandidates returns the nodes labelled label (any node for the
// wildcard) in the subtree rooted at scope, in document order. The
// subtree is the preorder range [Ord(scope), Ord(last descendant)+1),
// and the last descendant is reached by following last children.
func scopeCandidates(t *xmltree.Tree, idx *LabelIndex, label string, scope *xmltree.Node) []*xmltree.Node {
	end := scope
	for len(end.Children) > 0 {
		end = end.Children[len(end.Children)-1]
	}
	lo, hi := t.Ord(scope), t.Ord(end)+1
	if label == pattern.Wildcard {
		return t.Nodes()[lo:hi]
	}
	nodes := idx.Nodes(label)
	i := sort.Search(len(nodes), func(i int) bool { return t.Ord(nodes[i]) >= lo })
	j := i + sort.Search(len(nodes)-i, func(k int) bool { return t.Ord(nodes[i+k]) >= hi })
	return nodes[i:j]
}
