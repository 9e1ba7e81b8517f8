package maintain_test

import (
	"testing"

	"xpathviews/internal/dewey"
	"xpathviews/internal/engine"
	"xpathviews/internal/maintain"
	"xpathviews/internal/views"
	"xpathviews/internal/xmltree"
	"xpathviews/internal/xpath"
)

// TestApplyDeltaReusesFragments: a maintenance pass copies out of the
// document only the fragments that entered the view or whose content
// holds the mutation point. Every other fragment in the re-evaluated
// scope keeps its stored copy (the same Tree pointer), and the counts
// equal a full diff against a from-scratch materialization.
func TestApplyDeltaReusesFragments(t *testing.T) {
	tree, enc := bookFixture(t)
	idx := engine.BuildLabelIndex(tree)
	var vs []*views.View
	for i, q := range []string{
		"//s[t]/p",  // dirty root lifts to the mutated section
		"//*[t]//p", // dirty root lifts to the document root
		"//s[p]",    // the section holding the point is rebuilt, its subsections kept
		"//s",       // prefilter path: only ancestors are refreshed
		"//s//p",    // no lift: the scope is the mutation root
	} {
		p, err := xpath.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		v, err := views.Materialize(i, p, tree, enc, idx, 0)
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, v)
	}

	// Insert a paragraph into section s2 (0.8), which holds p1, p2 and
	// the subsections s3 and s5.
	parent, ok := maintain.ResolveCode(tree, enc, dewey.Code{0, 8})
	if !ok {
		t.Fatal("section 0.8 does not resolve")
	}
	sub, err := xmltree.ParseString("<p/>")
	if err != nil {
		t.Fatal(err)
	}
	n := sub.Root()
	probe, err := maintain.ChildCode(enc, parent, n.Label)
	if err != nil {
		t.Fatal(err)
	}
	tree.GraftAt(parent, n, maintain.ChildPos(enc, parent, probe[len(probe)-1]))
	if _, err := maintain.EncodeSubtree(enc, n); err != nil {
		t.Fatal(err)
	}
	idx.AddSubtree(tree, n)
	code := enc.MustCode(n).Clone()
	applyAndCheckReuse(t, "insert", vs, &maintain.Mutation{
		Doc: tree, Index: idx, Enc: enc,
		Code: code, Path: n.LabelPath(), Labels: maintain.SubtreeLabels(n),
	})

	// Delete it again.
	path, labels := n.LabelPath(), maintain.SubtreeLabels(n)
	if err := tree.Detach(n); err != nil {
		t.Fatal(err)
	}
	idx.RemoveSubtree(n)
	maintain.ForgetSubtree(enc, n)
	applyAndCheckReuse(t, "delete", vs, &maintain.Mutation{
		Doc: tree, Index: idx, Enc: enc,
		Code: code, Path: path, Labels: labels,
	})
}

// applyAndCheckReuse runs ApplyDelta for every view and checks the
// result against a fresh materialization, the reuse of stored copies,
// and the Added/Removed/Refreshed counts of a full diff.
func applyAndCheckReuse(t *testing.T, tag string, vs []*views.View, mut *maintain.Mutation) {
	t.Helper()
	for _, v := range vs {
		before := make(map[string]*xmltree.Tree, len(v.Fragments))
		for _, f := range v.Fragments {
			before[f.Code.String()] = f.Tree
		}
		st, err := maintain.ApplyDelta(v, mut)
		if err != nil {
			t.Fatalf("%s: view %d: %v", tag, v.ID, err)
		}
		fresh, err := views.Materialize(v.ID, v.Pattern, mut.Doc, mut.Enc, mut.Index, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Fragments) != len(fresh.Fragments) || v.TotalBytes != fresh.TotalBytes {
			t.Fatalf("%s: view %d: %d fragments/%d bytes, fresh %d/%d", tag, v.ID,
				len(v.Fragments), v.TotalBytes, len(fresh.Fragments), fresh.TotalBytes)
		}

		var want maintain.DeltaStats
		after := make(map[string]bool, len(v.Fragments))
		for i, f := range v.Fragments {
			c := f.Code.String()
			after[c] = true
			if dewey.Compare(f.Code, fresh.Fragments[i].Code) != 0 ||
				f.Tree.Root().String() != fresh.Fragments[i].Tree.Root().String() {
				t.Fatalf("%s: view %d fragment %d: got %s %s, fresh %s %s", tag, v.ID, i,
					f.Code, f.Tree.Root(), fresh.Fragments[i].Code, fresh.Fragments[i].Tree.Root())
			}
			old, kept := before[c]
			touched := dewey.IsPrefix(f.Code, mut.Code) || dewey.IsPrefix(mut.Code, f.Code)
			switch {
			case !kept:
				want.Added++
			case touched:
				want.Refreshed++
				if f.Tree == old {
					t.Errorf("%s: view %d fragment %s holds the mutation point but was not re-copied", tag, v.ID, c)
				}
			case f.Tree != old:
				t.Errorf("%s: view %d fragment %s is unrelated to the mutation point %s but was re-copied",
					tag, v.ID, c, mut.Code)
			}
		}
		for c := range before {
			if !after[c] {
				want.Removed++
			}
		}
		want.Changed = want.Added+want.Removed+want.Refreshed > 0
		if st != want {
			t.Errorf("%s: view %d (%s): stats %+v, full diff %+v", tag, v.ID, v.Pattern, st, want)
		}
	}
}
