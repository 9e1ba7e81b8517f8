package maintain

// Delta application: incrementally maintain one view after a subtree
// mutation. The caller (the owning System, under its write lock) has
// already applied the structural change to the document, encoding and
// label index; this file updates the view's fragment store to match.

import (
	"fmt"

	"xpathviews/internal/dewey"
	"xpathviews/internal/engine"
	"xpathviews/internal/pattern"
	"xpathviews/internal/views"
	"xpathviews/internal/xmltree"
)

// DeltaStats reports what one view's maintenance pass did.
type DeltaStats struct {
	// Added/Removed count fragments whose roots entered/left the view;
	// Refreshed counts fragments whose membership held but whose copied
	// content contained the mutation point and was re-copied.
	Added, Removed, Refreshed int
	// Changed reports that the fragment store was modified at all — the
	// signal that bumps the view's generation.
	Changed bool
}

// Mutation is one applied subtree mutation as every view's maintenance
// pass sees it. The owning System builds it once per mutation, after the
// document, encoding and label index already reflect the change, and
// hands the same value to ApplyDelta for each view; it also carries the
// scratch those passes share (the evaluation memo and the resolved dirty
// scopes), so one value must not be used by concurrent passes.
type Mutation struct {
	// Doc, Index and Enc are the post-mutation document, its label index
	// and its Dewey encoding.
	Doc   *xmltree.Tree
	Index *engine.LabelIndex
	Enc   *dewey.Encoding
	// Code is the mutation root's code: the inserted subtree's root, or
	// the deleted one's.
	Code dewey.Code
	// Path is the mutation root's root-to-self label path, taken before
	// the mutation (a deleted root no longer has one afterwards).
	Path []string
	// Labels is the label set of the mutated subtree.
	Labels map[string]struct{}

	memo   engine.Memo
	scopes map[int]*xmltree.Node // dirty depth -> resolved scope (nil: the deleted root)
}

// scope resolves the dirty root at depth in the post-mutation document,
// once per depth. It is nil exactly when the dirty root was the deleted
// subtree itself.
func (m *Mutation) scope(depth int) *xmltree.Node {
	n, ok := m.scopes[depth]
	if !ok {
		if m.scopes == nil {
			m.scopes = make(map[int]*xmltree.Node)
		}
		n, _ = ResolveCode(m.Doc, m.Enc, m.Code[:depth+1])
		m.scopes[depth] = n
	}
	return n
}

// ApplyDelta maintains v after the mutation m. Views whose patterns
// cannot touch the mutated labels skip re-evaluation; the rest are
// re-evaluated inside their dirty root (DirtyDepth) and the result is
// spliced over that root's code-prefix range.
func ApplyDelta(v *views.View, m *Mutation) (DeltaStats, error) {
	var st DeltaStats

	if !patternTouches(v.Pattern, m.Labels) {
		// Membership cannot change: every witness a membership flip needs
		// would carry a label from the mutated subtree. Only fragments
		// whose copied content contains the mutation point (roots at
		// proper-ancestor-or-self codes of the mutation root) need a
		// re-copy.
		if err := refreshAncestors(v, m, len(m.Code), &st); err != nil {
			return st, err
		}
		st.Changed = st.Refreshed > 0
		return st, nil
	}

	// Re-evaluate the pattern inside the dirty scope against the full
	// document and splice the result over the scope's prefix range.
	depth := DirtyDepth(v.Pattern, m.Path)
	scopeCode := m.Code[:depth+1]
	var answers []*xmltree.Node
	if scope := m.scope(depth); scope != nil {
		answers = engine.AnswersWithin(m.Doc, m.Index, v.Pattern, scope, &m.memo)
	}
	lo, hi := v.PrefixRange(scopeCode)
	if err := splice(v, m, lo, hi, answers, &st); err != nil {
		return st, err
	}

	// Fragments rooted above the splice range that contain the mutation
	// point: membership unchanged, content re-copied. The scope root and
	// everything below it were already handled by the splice.
	if err := refreshAncestors(v, m, len(scopeCode)-1, &st); err != nil {
		return st, err
	}
	st.Changed = st.Changed || st.Refreshed > 0
	return st, nil
}

// splice merges the fresh answers (document order) against the old
// fragments v.Fragments[lo:hi] (code order, the same relation). An old
// code the answers lack was removed; an answer code the old range lacks
// was added; a shared code keeps its old fragment unless that fragment
// contains or lies inside the mutation point, in which case its copied
// content changed and it is rebuilt. Only added and rebuilt fragments
// are copied out of the document, and the store is replaced only when
// something changed.
func splice(v *views.View, m *Mutation, lo, hi int, answers []*xmltree.Node, st *DeltaStats) error {
	old := v.Fragments[lo:hi]
	// fresh stays nil while the merge has only reused fragments in
	// order; the first change seeds it with that unchanged run.
	var fresh []views.Fragment
	i := 0
	diverge := func() {
		if fresh == nil {
			fresh = make([]views.Fragment, 0, len(answers))
			fresh = append(fresh, old[:i]...)
		}
	}
	build := func(a *xmltree.Node) error {
		f, err := views.BuildFragment(m.Enc, a)
		if err != nil {
			return fmt.Errorf("maintain: view %d: %w", v.ID, err)
		}
		fresh = append(fresh, f)
		return nil
	}
	for _, a := range answers {
		code, ok := m.Enc.CodeOf(a)
		if !ok {
			return fmt.Errorf("maintain: view %d: answer node %q has no dewey code", v.ID, a.Label)
		}
		for i < len(old) && dewey.Compare(old[i].Code, code) < 0 {
			diverge()
			st.Removed++
			i++
		}
		switch {
		case i == len(old) || dewey.Compare(old[i].Code, code) != 0:
			diverge()
			st.Added++
			if err := build(a); err != nil {
				return err
			}
		case dewey.IsPrefix(code, m.Code) || dewey.IsPrefix(m.Code, code):
			diverge()
			st.Refreshed++
			i++
			if err := build(a); err != nil {
				return err
			}
		default:
			if fresh != nil {
				fresh = append(fresh, old[i])
			}
			i++
		}
	}
	if i < len(old) {
		diverge()
		st.Removed += len(old) - i
	}
	if fresh != nil {
		v.ReplaceRange(lo, hi, fresh)
		st.Changed = true
	}
	return nil
}

// refreshAncestors re-copies every fragment rooted at a prefix of
// m.Code shorter than limit components — the fragments whose stored
// subtree copies contain the mutation point but whose membership is
// untouched. For deletes the deepest prefix (the deleted root itself,
// when limit permits) can no longer resolve; by the prefilter/splice
// arguments no fragment can be rooted there, so resolution failure for
// an existing fragment is reported as corruption.
func refreshAncestors(v *views.View, m *Mutation, limit int, st *DeltaStats) error {
	for l := 1; l <= limit && l <= len(m.Code); l++ {
		prefix := m.Code[:l]
		i := v.FindCode(prefix)
		if i < 0 {
			continue
		}
		n, ok := ResolveCode(m.Doc, m.Enc, prefix)
		if !ok {
			return fmt.Errorf("maintain: view %d: fragment root %s no longer resolves", v.ID, prefix)
		}
		f, err := views.BuildFragment(m.Enc, n)
		if err != nil {
			return fmt.Errorf("maintain: view %d: %w", v.ID, err)
		}
		v.TotalBytes += f.Bytes - v.Fragments[i].Bytes
		v.Fragments[i] = f
		st.Refreshed++
	}
	return nil
}

// patternTouches reports whether any node of p could image a node of
// the mutated subtree: a wildcard matches anything, otherwise some
// pattern label must occur among the subtree's labels.
func patternTouches(p *pattern.Pattern, mutLabels map[string]struct{}) bool {
	touched := false
	p.Walk(func(n *pattern.Node) bool {
		if n.Label == pattern.Wildcard {
			touched = true
			return false
		}
		if _, ok := mutLabels[n.Label]; ok {
			touched = true
			return false
		}
		return true
	})
	return touched
}

// SubtreeLabels collects the label set of the subtree rooted at n.
func SubtreeLabels(n *xmltree.Node) map[string]struct{} {
	out := make(map[string]struct{})
	var walk func(m *xmltree.Node)
	walk = func(m *xmltree.Node) {
		out[m.Label] = struct{}{}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}
