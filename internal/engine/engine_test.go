package engine_test

import (
	"math/rand"
	"slices"
	"testing"

	"xpathviews/internal/engine"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/pattern"
	"xpathviews/internal/xmltree"
	"xpathviews/internal/xpath"
)

func bookTree(t *testing.T) *xmltree.Tree {
	t.Helper()
	return paperdata.BookTree()
}

func TestAnswersOnBook(t *testing.T) {
	tree := bookTree(t)
	cases := []struct {
		q    string
		want int
	}{
		{"//s", 5},
		{"//s/p", 8},
		{"//s[t]/p", 8},
		{"//s[f//i][t]/p", 5}, // Example 5.1's result set
		{"//s[p]/f", 3},
		{"/b/s", 2},
		{"//s//s/t", 3},
		{"//*/f", 3},
		{"//b", 1}, // the root itself sits at depth 1 below the virtual root
		{"/b", 1},
		{"//f/i", 3},
		{"//s[x]", 0},
	}
	for _, c := range cases {
		q := xpath.MustParse(c.q)
		got := engine.Answers(tree, q)
		if len(got) != c.want {
			t.Errorf("Answers(%s) = %d nodes, want %d", c.q, len(got), c.want)
		}
	}
}

func TestBNAndBFAndFastAgree(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	labels := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 25; trial++ {
		tree := randomTree(r, 80+r.Intn(150), labels)
		idx := engine.BuildLabelIndex(tree)
		bn := engine.NewBN(tree)
		bf := engine.NewBF(tree)
		for qi := 0; qi < 25; qi++ {
			q := randomPattern(r, labels, 6)
			ref := engine.Answers(tree, q)
			fast := engine.AnswersFast(tree, idx, q)
			nav := bn.Eval(q)
			full := bf.Eval(q)
			if !sameNodes(tree, ref, fast) {
				t.Fatalf("AnswersFast disagrees on %s: %d vs %d", q, len(fast), len(ref))
			}
			if !sameNodes(tree, ref, nav) {
				t.Fatalf("BN disagrees on %s: %d vs %d", q, len(nav), len(ref))
			}
			if !sameNodes(tree, ref, full) {
				t.Fatalf("BF disagrees on %s: %d vs %d", q, len(full), len(ref))
			}
		}
	}
}

func TestMatchesAtRoot(t *testing.T) {
	tree, err := xmltree.ParseString(`<s><t/><p><f/></p></s>`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		q    string
		want bool
	}{
		{"//s[t]", true},
		{"//s[t][p/f]", true},
		{"//s[x]", false},
		{"//s//f", true},
		{"//t", false}, // pinned root has label s
		{"//*[t]", true},
	}
	for _, c := range cases {
		if got := engine.MatchesAtRoot(tree, xpath.MustParse(c.q)); got != c.want {
			t.Errorf("MatchesAtRoot(%s) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestAnswersAtRoot(t *testing.T) {
	tree, err := xmltree.ParseString(`<s><p/><s><p/><p/></s></s>`)
	if err != nil {
		t.Fatal(err)
	}
	got := engine.AnswersAtRoot(tree, xpath.MustParse("//s//p"))
	if len(got) != 3 {
		t.Fatalf("AnswersAtRoot(//s//p) = %d, want 3", len(got))
	}
	got = engine.AnswersAtRoot(tree, xpath.MustParse("//s/p"))
	if len(got) != 1 {
		t.Fatalf("AnswersAtRoot(//s/p) = %d, want 1 (root-pinned)", len(got))
	}
}

func TestAttrPredicates(t *testing.T) {
	tree, err := xmltree.ParseString(`<r><x id="1" price="20"/><x id="2" price="5"/><x price="100"/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		q    string
		want int
	}{
		{"//x[@id]", 2},
		{"//x[@price<50]", 2},
		{"//x[@price>=20]", 2},
		{"//x[@id=2]", 1},
		{"//x[@id!=2]", 1},
		{"//x[@missing]", 0},
	}
	for _, c := range cases {
		got := engine.Answers(tree, xpath.MustParse(c.q))
		if len(got) != c.want {
			t.Errorf("%s: got %d, want %d", c.q, len(got), c.want)
		}
	}
}

func TestBFPathIndexShortcut(t *testing.T) {
	tree := bookTree(t)
	bf := engine.NewBF(tree)
	if bf.IndexBytes() <= 0 {
		t.Fatal("index accounting must be positive")
	}
	got := bf.Eval(xpath.MustParse("/b/s/s/p"))
	want := engine.Answers(tree, xpath.MustParse("/b/s/s/p"))
	if len(got) != len(want) {
		t.Fatalf("path-index shortcut disagrees: %d vs %d", len(got), len(want))
	}
	if len(got) == 0 {
		t.Fatal("expected some /b/s/s/p answers")
	}
}

func sameNodes(tr *xmltree.Tree, a, b []*xmltree.Node) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]bool, len(a))
	for _, n := range a {
		seen[tr.Ord(n)] = true
	}
	for _, n := range b {
		if !seen[tr.Ord(n)] {
			return false
		}
	}
	return true
}

func randomTree(r *rand.Rand, n int, labels []string) *xmltree.Tree {
	t := xmltree.New(labels[0])
	nodes := []*xmltree.Node{t.Root()}
	for len(nodes) < n {
		parent := nodes[r.Intn(len(nodes))]
		c := t.AddChild(parent, labels[r.Intn(len(labels))])
		if r.Intn(10) == 0 {
			c.SetAttr("id", labels[r.Intn(len(labels))])
		}
		nodes = append(nodes, c)
	}
	t.Renumber()
	return t
}

func randomPattern(r *rand.Rand, labels []string, maxNodes int) *pattern.Pattern {
	root := pattern.NewNode(labels[r.Intn(len(labels))], pattern.Axis(r.Intn(2)))
	nodes := []*pattern.Node{root}
	n := 1 + r.Intn(maxNodes)
	for len(nodes) < n {
		parent := nodes[r.Intn(len(nodes))]
		lb := labels[r.Intn(len(labels))]
		if r.Intn(6) == 0 {
			lb = pattern.Wildcard
		}
		nodes = append(nodes, parent.AddChild(lb, pattern.Axis(r.Intn(2))))
	}
	return &pattern.Pattern{Root: root, Ret: nodes[r.Intn(len(nodes))]}
}

// TestAnswersWithinMatchesAnswers: scoped evaluation equals the
// reference answer set restricted to the scope's subtree, for the root,
// inner and leaf scopes, after random inserts and deletes have been
// applied to the tree and folded into the label index incrementally.
// One memo serves every call, as it does across a mutation's views.
func TestAnswersWithinMatchesAnswers(t *testing.T) {
	r := rand.New(rand.NewSource(1208))
	labels := []string{"a", "b", "c", "d"}
	memo := new(engine.Memo)
	for trial := 0; trial < 15; trial++ {
		tree := randomTree(r, 60+r.Intn(100), labels)
		idx := engine.BuildLabelIndex(tree)
		for step := 0; step < 12; step++ {
			nodes := tree.Nodes()
			if r.Intn(3) > 0 || len(nodes) < 20 {
				parent := nodes[r.Intn(len(nodes))]
				sub := randomTree(r, 1+r.Intn(6), labels).Root()
				tree.GraftAt(parent, sub, r.Intn(len(parent.Children)+1))
				idx.AddSubtree(tree, sub)
			} else {
				n := nodes[1+r.Intn(len(nodes)-1)]
				if err := tree.Detach(n); err != nil {
					t.Fatal(err)
				}
				idx.RemoveSubtree(n)
			}

			nodes = tree.Nodes()
			var inner, leaves []*xmltree.Node
			for _, n := range nodes[1:] {
				if len(n.Children) > 0 {
					inner = append(inner, n)
				} else {
					leaves = append(leaves, n)
				}
			}
			scopes := []*xmltree.Node{tree.Root(), leaves[r.Intn(len(leaves))]}
			if len(inner) > 0 {
				scopes = append(scopes, inner[r.Intn(len(inner))])
			}
			for qi := 0; qi < 6; qi++ {
				q := randomPattern(r, labels, 5)
				ref := engine.Answers(tree, q)
				for _, scope := range scopes {
					var want []*xmltree.Node
					for _, a := range ref {
						if a == scope || scope.IsAncestorOf(a) {
							want = append(want, a)
						}
					}
					got := engine.AnswersWithin(tree, idx, q, scope, memo)
					if !slices.Equal(got, want) {
						t.Fatalf("trial %d step %d: AnswersWithin(%s, scope %s@%d) = %d nodes, want %d",
							trial, step, q, scope.Label, tree.Ord(scope), len(got), len(want))
					}
				}
			}
		}
	}
}
