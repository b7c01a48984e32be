package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/formula"
	"repro/internal/pdb"
)

// This file is the pipelined physical runtime of the lineage route. It
// replaces the eager, fully-materializing operators of pdb/algebra.go
// in the query path: operators are pull-based cursors, tuples stream
// from the scans into the final grouping sink, and only join build
// sides are buffered. Clause merges are interned through one
// formula.Interner per pipeline, so lineage clauses reaching the sink
// share canonical backing arrays.

// cursor is a pull-based tuple stream.
type cursor interface {
	next() (pdb.Tuple, bool)
}

// Lineage evaluates root with the pipelined runtime and returns its
// answers with grouped lineage DNFs — the relational encoding of DNFs
// the confidence algorithms consume. A root that is not a GroupLineage
// is treated as a Boolean query over its output. A nil root has no
// answers. The answer values and order are identical to the eager
// algebra's (pdb.GroupProject, pdb.BooleanAnswer).
func Lineage(root Node) []pdb.Answer {
	return LineageWith(root, nil)
}

// LineageWith is Lineage running the pipeline through a caller-owned
// clause interner (nil allocates a fresh one). Reusing one interner
// across the queries of a database keeps canonical clause instances —
// and the allocation they cost — shared; an Interner is not safe for
// concurrent use, so callers must hand each concurrent pipeline its
// own (the façade DB keeps a pool).
func LineageWith(root Node, in *formula.Interner) []pdb.Answer {
	ans, _ := lineageWithStats(root, in)
	return ans
}

// lineageStats reports one lineage materialization's output volumes:
// distinct answer groups, clauses across the normalized answer DNFs,
// and tuples drained from the pipeline into the sink.
type lineageStats struct {
	answers int64
	clauses int64
	tuples  int64
}

// lineageWithStats is LineageWith additionally reporting the
// pipeline's volumes for the observability layer.
func lineageWithStats(root Node, in *formula.Interner) ([]pdb.Answer, lineageStats) {
	if root == nil {
		return nil, lineageStats{}
	}
	g, ok := root.(*GroupLineage)
	if !ok {
		g = &GroupLineage{Input: root}
	}
	if in == nil {
		in = formula.NewInterner()
	}
	cur := newCursor(g.Input, in)
	var (
		ans    []pdb.Answer
		tuples int64
	)
	if len(g.Cols) == 0 {
		ans, tuples = booleanSink(cur)
	} else {
		ans, tuples = groupSink(cur, g.Cols)
	}
	st := lineageStats{answers: int64(len(ans)), tuples: tuples}
	for _, a := range ans {
		st.clauses += int64(len(a.Lin))
	}
	return ans, st
}

// newCursor builds the cursor tree for n.
func newCursor(n Node, in *formula.Interner) cursor {
	switch t := n.(type) {
	case *Scan:
		return &scanCursor{rel: t.Rel}
	case *Select:
		return &selectCursor{in: newCursor(t.Input, in), pred: t.Pred}
	case *EquiJoin:
		return newHashJoinCursor(t, in)
	case *ThetaJoin:
		return newThetaJoinCursor(t, in)
	case *Project:
		return &projectCursor{in: newCursor(t.Input, in), cols: t.Cols}
	case *GroupLineage:
		// invariant: compile strips GroupLineage off the root and the
		// façade rejects nested ones before a plan reaches the runtime.
		panic("plan: GroupLineage below the plan root")
	case *TopK, *Threshold:
		// invariant: ranking roots are stripped by compile; validate and
		// the façade reject non-root placement.
		panic("plan: TopK/Threshold must be the plan root")
	}
	// invariant: Node is sealed and every IR type is handled above;
	// foreign embedders are rejected by the façade's checkNode before
	// any cursor is built.
	panic(fmt.Sprintf("plan: unknown node %T", n))
}

type scanCursor struct {
	rel *pdb.Relation
	i   int
}

func (c *scanCursor) next() (pdb.Tuple, bool) {
	if c.i >= len(c.rel.Tups) {
		return pdb.Tuple{}, false
	}
	t := c.rel.Tups[c.i]
	c.i++
	return t, true
}

type selectCursor struct {
	in   cursor
	pred func([]pdb.Value) bool
}

func (c *selectCursor) next() (pdb.Tuple, bool) {
	for {
		t, ok := c.in.next()
		if !ok {
			return pdb.Tuple{}, false
		}
		if c.pred(t.Vals) {
			return t, true
		}
	}
}

type projectCursor struct {
	in   cursor
	cols []int
}

func (c *projectCursor) next() (pdb.Tuple, bool) {
	t, ok := c.in.next()
	if !ok {
		return pdb.Tuple{}, false
	}
	vals := make([]pdb.Value, len(c.cols))
	for i, col := range c.cols {
		vals[i] = t.Vals[col]
	}
	return pdb.Tuple{Vals: vals, Lin: t.Lin}, true
}

// hashJoinCursor streams its left input against a hash index built by
// draining the right input once (the only buffering in the pipeline).
type hashJoinCursor struct {
	left    cursor
	index   map[pdb.Value][]pdb.Tuple
	lcol    int
	on      func(left, right []pdb.Value) bool
	in      *formula.Interner
	cur     pdb.Tuple // current left tuple
	matches []pdb.Tuple
	mi      int
}

func newHashJoinCursor(t *EquiJoin, in *formula.Interner) cursor {
	right := newCursor(t.Right, in)
	index := make(map[pdb.Value][]pdb.Tuple)
	for {
		rt, ok := right.next()
		if !ok {
			break
		}
		k := rt.Vals[t.RightCol]
		index[k] = append(index[k], rt)
	}
	return &hashJoinCursor{
		left: newCursor(t.Left, in), index: index,
		lcol: t.LeftCol, on: t.On, in: in,
	}
}

func (c *hashJoinCursor) next() (pdb.Tuple, bool) {
	for {
		for c.mi < len(c.matches) {
			rt := c.matches[c.mi]
			c.mi++
			if c.on != nil && !c.on(c.cur.Vals, rt.Vals) {
				continue
			}
			if out, ok := joinTuple(c.cur, rt, c.in); ok {
				return out, true
			}
		}
		lt, ok := c.left.next()
		if !ok {
			return pdb.Tuple{}, false
		}
		c.cur = lt
		c.matches = c.index[lt.Vals[c.lcol]]
		c.mi = 0
	}
}

// thetaJoinCursor streams its left input against the buffered right.
type thetaJoinCursor struct {
	left  cursor
	right []pdb.Tuple
	pred  func(left, right []pdb.Value) bool
	in    *formula.Interner
	cur   pdb.Tuple
	ri    int
	open  bool
}

func newThetaJoinCursor(t *ThetaJoin, in *formula.Interner) cursor {
	rc := newCursor(t.Right, in)
	var right []pdb.Tuple
	for {
		rt, ok := rc.next()
		if !ok {
			break
		}
		right = append(right, rt)
	}
	return &thetaJoinCursor{left: newCursor(t.Left, in), right: right, pred: thetaPred(t), in: in}
}

// thetaPred composes a ThetaJoin's condition: the structured Less (and
// any residual predicate), or the opaque Pred alone.
func thetaPred(t *ThetaJoin) func(left, right []pdb.Value) bool {
	pred := t.Pred
	if t.Less != nil {
		less := *t.Less
		extra := pred
		pred = func(lv, rv []pdb.Value) bool {
			if lv[less.LeftCol] >= rv[less.RightCol] {
				return false
			}
			return extra == nil || extra(lv, rv)
		}
	}
	if pred == nil {
		// invariant: the façade's builder and checkNode guarantee every
		// ThetaJoin carries Less or Pred before a plan is compiled.
		panic("plan: ThetaJoin without Less or Pred")
	}
	return pred
}

func (c *thetaJoinCursor) next() (pdb.Tuple, bool) {
	for {
		if c.open {
			for c.ri < len(c.right) {
				rt := c.right[c.ri]
				c.ri++
				if !c.pred(c.cur.Vals, rt.Vals) {
					continue
				}
				if out, ok := joinTuple(c.cur, rt, c.in); ok {
					return out, true
				}
			}
			c.open = false
		}
		lt, ok := c.left.next()
		if !ok {
			return pdb.Tuple{}, false
		}
		c.cur = lt
		c.ri = 0
		c.open = true
	}
}

// joinTuple concatenates values and merges lineage through the
// interner; ok = false when the lineages are inconsistent (mutually
// exclusive BID alternatives never co-exist).
func joinTuple(lt, rt pdb.Tuple, in *formula.Interner) (pdb.Tuple, bool) {
	merged, ok := in.MergeInterned(lt.Lin, rt.Lin)
	if !ok {
		return pdb.Tuple{}, false
	}
	vals := make([]pdb.Value, 0, len(lt.Vals)+len(rt.Vals))
	vals = append(vals, lt.Vals...)
	vals = append(vals, rt.Vals...)
	return pdb.Tuple{Vals: vals, Lin: merged}, true
}

// booleanSink drains the stream into the Boolean answer: the lineage of
// "some tuple exists". No tuples means no answer (certainly false).
// The second result counts the tuples drained.
func booleanSink(cur cursor) ([]pdb.Answer, int64) {
	var d formula.DNF
	for {
		t, ok := cur.next()
		if !ok {
			break
		}
		d = append(d, t.Lin)
	}
	if len(d) == 0 {
		return nil, 0
	}
	return []pdb.Answer{{Lin: d.Normalize()}}, int64(len(d))
}

// groupSink drains the stream grouping by the projected values,
// mirroring pdb.GroupProject (including its sorted output order). The
// second result counts the tuples drained.
func groupSink(cur cursor, cols []int) ([]pdb.Answer, int64) {
	groups := make(map[string]*pdb.Answer)
	var order []string
	var keyBuf strings.Builder
	var tuples int64
	for {
		t, ok := cur.next()
		if !ok {
			break
		}
		tuples++
		keyBuf.Reset()
		vals := make([]pdb.Value, len(cols))
		for i, c := range cols {
			vals[i] = t.Vals[c]
			pdb.WriteValueKey(&keyBuf, t.Vals[c])
		}
		k := keyBuf.String()
		a, ok := groups[k]
		if !ok {
			a = &pdb.Answer{Vals: vals}
			groups[k] = a
			order = append(order, k)
		}
		a.Lin = append(a.Lin, t.Lin)
	}
	sort.Strings(order)
	out := make([]pdb.Answer, 0, len(order))
	for _, k := range order {
		a := groups[k]
		a.Lin = a.Lin.Normalize()
		out = append(out, *a)
	}
	return out, tuples
}
