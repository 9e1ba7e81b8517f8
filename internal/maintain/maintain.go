// Package maintain implements incremental maintenance of materialized
// XPath views under subtree mutations (insert/delete), exploiting the
// paper's extended Dewey encoding (§III): a subtree is exactly a code
// prefix range, so the fragments a mutation can affect are found by
// intersecting that range with each view's code-sorted fragment store,
// and the view pattern is re-evaluated only over the affected subtree.
//
// Three ideas carry the subsystem:
//
//   - Gap allocation (alloc.go): an inserted child takes the smallest
//     unused component in its label's residue class, so existing codes
//     never shift and the allocation is a pure function of the live
//     sibling set — which is what makes WAL replay reproduce identical
//     codes.
//
//   - Dirty-root detection (dirty.go): for downward patterns, an answer
//     outside the mutated subtree can only change when some
//     predicate-bearing spine node images a proper ancestor of the
//     mutation root. The highest such ancestor bounds the re-evaluation
//     scope; by default the scope is the mutation root itself.
//
//   - Delta application (delta.go): re-evaluate the pattern inside the
//     dirty scope (engine.AnswersWithin), splice the result over the
//     scope's prefix range, and refresh ancestor fragments whose copied
//     content contains the mutation point.
//
// A pass costs in proportion to the view's candidates and changed
// fragments, not to the size of its dirty scope. AnswersWithin takes
// its candidates from the label index: the spine-last label's nodes
// inside the scope's preorder range, found by binary search. Its
// verdict memo is a dense, epoch-stamped array that one Mutation value
// (built once per mutation) lends to every view's pass. The splice
// copies out of the document only the fragments that entered the view
// or whose content holds the mutation point, and carries every other
// stored fragment over unchanged.
//
// The package is storage- and lock-agnostic: the owning System drives it
// under its write lock and appends the WAL records (record.go) to
// internal/storage.
package maintain

import (
	"errors"

	"xpathviews/internal/faults"
)

// ErrSchema reports an insert whose labels are not in the FST's child
// alphabets. Growing an alphabet would change the modulus and silently
// re-label every existing code, so such inserts are rejected outright.
var ErrSchema = errors.New("maintain: label outside the FST child alphabet")

// ErrNoSuchNode reports a mutation addressed at a code that resolves to
// no live node.
var ErrNoSuchNode = errors.New("maintain: no node with that code")

// FaultApply is the chaos-injection point for mutations. The owning
// System fires it before any state changes, so an injected error or
// panic always leaves document, encoding, indexes and views consistent.
var FaultApply = faults.New("maintain.apply")
