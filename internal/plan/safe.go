package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/formula"
	"repro/internal/pdb"
	"repro/internal/sprout"
)

// Safe-plan compilation (the SPROUT extensional route, Section VII-1).
// The query graph is viewed as a conjunctive query: each leaf is a
// subgoal, equality-connected columns form query variables, and the
// GroupLineage columns are the head variables. For hierarchical queries
// without self-joins the classic recursion produces a safe plan over
// extensional operators (independent project / independent join on
// sprout.ProbTable) that computes exact confidences without ever
// materializing lineage:
//
//   - one subgoal: independent-project the (filtered, tuple-independent)
//     relation onto its head variables;
//   - several connected components w.r.t. non-head variables: compile
//     each and join the results on their shared head variables
//     (independent join — distinct relations, independent events);
//   - one component: a root variable occurring in every subgoal is moved
//     into the head and projected away on top of the recursion. No such
//     variable ⇒ the query is not hierarchical ⇒ not safe.

// safePlan is a compiled safe plan.
type safePlan struct {
	// eval produces the extensional answer table; its columns are the
	// sorted head variable classes of the root.
	eval func(s *formula.Space) *varTable
	// headClasses maps each requested output column to its variable
	// class (answers reorder the root table into this order).
	headClasses []int
	// desc is a one-line plan description for traces.
	desc string
}

// safeRow is one extensional answer: values in requested head-column
// order, and the exact confidence.
type safeRow struct {
	vals []pdb.Value
	p    float64
}

// varTable is a sprout.ProbTable whose columns are labeled with query
// variable classes.
type varTable struct {
	t    *sprout.ProbTable
	vars []int
}

func (vt *varTable) pos(class int) int {
	for i, v := range vt.vars {
		if v == class {
			return i
		}
	}
	return -1
}

// compileSafe attempts the safe route. On failure it returns the reason
// the query is not (recognizably) safe. Compilation is pure plan-shape
// work; leaf filtering happens inside the compiled evaluator, at
// evaluation time.
func compileSafe(a *analysis) (*safePlan, string) {
	if a.taint != "" {
		return nil, a.taint
	}
	if len(a.ineqs) > 0 {
		return nil, "inequality join (IQ candidate)"
	}
	if !selfJoinFree(a.leaves) {
		return nil, "self-join"
	}

	c := &safeCompiler{leaves: a.leaves}
	c.buildClasses(a)

	allLeaves := make([]int, len(a.leaves))
	for i := range allLeaves {
		allLeaves[i] = i
	}
	head := make([]int, 0, len(a.head))
	for _, o := range a.head {
		head = append(head, c.classOf[o])
	}
	eval, reason := c.compile(allLeaves, sortedUnique(head))
	if eval == nil {
		return nil, reason
	}
	names := make([]string, len(a.leaves))
	for i := range a.leaves {
		names[i] = a.leaves[i].rel.Name
	}
	return &safePlan{
		eval:        eval,
		headClasses: head,
		desc:        fmt.Sprintf("safe plan over %s", strings.Join(names, ", ")),
	}, ""
}

// safeCompiler carries the variable-class structure during compilation.
type safeCompiler struct {
	leaves []leafInfo
	// classOf maps every origin participating in a join or the head to
	// its variable class (dense ids).
	classOf map[origin]int
	// colsOf[class][leaf] lists the leaf's columns of that class.
	colsOf map[int]map[int][]int
	// leafClasses[leaf] is the sorted classes present in the leaf.
	leafClasses [][]int
}

func (c *safeCompiler) buildClasses(a *analysis) {
	// Union-find over origins linked by equality edges; head origins get
	// classes too.
	parent := make(map[origin]origin)
	var find func(o origin) origin
	find = func(o origin) origin {
		p, ok := parent[o]
		if !ok {
			parent[o] = o
			return o
		}
		if p == o {
			return o
		}
		r := find(p)
		parent[o] = r
		return r
	}
	union := func(x, y origin) {
		rx, ry := find(x), find(y)
		if rx != ry {
			parent[rx] = ry
		}
	}
	for _, e := range a.eqs {
		union(e.a, e.b)
	}
	for _, o := range a.head {
		find(o)
	}
	// Dense class ids in deterministic (origin-sorted) order.
	members := make([]origin, 0, len(parent))
	for o := range parent {
		members = append(members, o)
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].leaf != members[j].leaf {
			return members[i].leaf < members[j].leaf
		}
		return members[i].col < members[j].col
	})
	c.classOf = make(map[origin]int)
	c.colsOf = make(map[int]map[int][]int)
	rootID := make(map[origin]int)
	for _, o := range members {
		r := find(o)
		id, ok := rootID[r]
		if !ok {
			id = len(rootID)
			rootID[r] = id
			c.colsOf[id] = make(map[int][]int)
		}
		c.classOf[o] = id
		c.colsOf[id][o.leaf] = append(c.colsOf[id][o.leaf], o.col)
	}
	c.leafClasses = make([][]int, len(a.leaves))
	for class, byLeaf := range c.colsOf {
		for leaf := range byLeaf {
			c.leafClasses[leaf] = append(c.leafClasses[leaf], class)
		}
	}
	for i := range c.leafClasses {
		sort.Ints(c.leafClasses[i])
	}
}

// compile builds the evaluator for the subgoals in sub with the given
// (sorted) head classes, or returns the reason it cannot.
func (c *safeCompiler) compile(sub []int, head []int) (func(s *formula.Space) *varTable, string) {
	if len(sub) == 1 {
		return c.leafEval(sub[0], head), ""
	}
	comps := c.components(sub, head)
	if len(comps) == 1 {
		root, ok := c.rootVar(sub, head)
		if !ok {
			return nil, fmt.Sprintf("not hierarchical: no root variable over %d connected subgoals", len(sub))
		}
		inner, reason := c.compile(sub, sortedUnique(append(append([]int{}, head...), root)))
		if inner == nil {
			return nil, reason
		}
		// π^ip onto head: project the root variable away, grouping with
		// the independent-or rule (safe by the hierarchical property).
		return func(s *formula.Space) *varTable {
			vt := inner(s)
			pos := make([]int, len(head))
			for i, h := range head {
				pos[i] = vt.pos(h)
			}
			return &varTable{t: vt.t.IndepProject(pos), vars: head}
		}, ""
	}
	// Independent components: compile each with its share of the head,
	// then join on shared head variables.
	parts := make([]func(s *formula.Space) *varTable, len(comps))
	for i, comp := range comps {
		compHead := intersect(head, c.varsOf(comp))
		p, reason := c.compile(comp, compHead)
		if p == nil {
			return nil, reason
		}
		parts[i] = p
	}
	return func(s *formula.Space) *varTable {
		acc := parts[0](s)
		for _, p := range parts[1:] {
			acc = joinVarTables(acc, p(s))
		}
		return reorder(acc, head)
	}, ""
}

// leafEval compiles a single subgoal: filter, intra-leaf equality
// selections, then independent-project onto the head classes. Sound for
// event-independent tuples (checked before routing).
func (c *safeCompiler) leafEval(li int, head []int) func(s *formula.Space) *varTable {
	leaf := c.leaves[li]
	// Columns equated within the leaf (one class, several columns) need
	// an equality selection before projecting one representative.
	var eqGroups [][]int
	for _, class := range c.leafClasses[li] {
		if cols := c.colsOf[class][li]; len(cols) > 1 {
			eqGroups = append(eqGroups, cols)
		}
	}
	pos := make([]int, len(head))
	for i, h := range head {
		cols := c.colsOf[h][li]
		pos[i] = cols[0]
	}
	return func(s *formula.Space) *varTable {
		t := leafTable(s, leaf)
		for _, g := range eqGroups {
			g := g
			t = t.Select(func(v []pdb.Value) bool {
				for _, col := range g[1:] {
					if v[col] != v[g[0]] {
						return false
					}
				}
				return true
			})
		}
		return &varTable{t: t.IndepProject(pos), vars: head}
	}
}

// leafTable streams a leaf's qualifying tuples into an extensional
// table, applying the pushed-down filters in place — no intermediate
// relation is materialized.
func leafTable(s *formula.Space, l leafInfo) *sprout.ProbTable {
	t := &sprout.ProbTable{Cols: l.rel.Cols}
tuples:
	for _, tup := range l.rel.Tups {
		for _, f := range l.filters {
			if !f(tup.Vals) {
				continue tuples
			}
		}
		t.Rows = append(t.Rows, sprout.ProbRow{Vals: tup.Vals, P: tup.Lin.Probability(s)})
	}
	return t
}

// components partitions sub into connectivity components w.r.t. shared
// classes not in head.
func (c *safeCompiler) components(sub []int, head []int) [][]int {
	id := make(map[int]int, len(sub)) // leaf → component
	for i, li := range sub {
		id[li] = i
	}
	var find func(x int) int
	comp := make([]int, len(sub))
	for i := range comp {
		comp[i] = i
	}
	find = func(x int) int {
		for comp[x] != x {
			comp[x] = comp[comp[x]]
			x = comp[x]
		}
		return x
	}
	for class, byLeaf := range c.colsOf {
		if contains(head, class) {
			continue
		}
		prev := -1
		for _, li := range sub {
			if _, ok := byLeaf[li]; !ok {
				continue
			}
			if prev >= 0 {
				ra, rb := find(id[prev]), find(id[li])
				if ra != rb {
					comp[ra] = rb
				}
			}
			prev = li
		}
	}
	groups := make(map[int][]int)
	var order []int
	for i, li := range sub {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], li)
	}
	out := make([][]int, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// rootVar finds a class present in every subgoal of sub and not in
// head.
func (c *safeCompiler) rootVar(sub []int, head []int) (int, bool) {
	counts := make(map[int]int)
	for _, li := range sub {
		for _, class := range c.leafClasses[li] {
			counts[class]++
		}
	}
	best, found := 0, false
	for class, n := range counts {
		if n == len(sub) && !contains(head, class) {
			if !found || class < best {
				best, found = class, true
			}
		}
	}
	return best, found
}

// varsOf returns the sorted classes present in the given subgoals.
func (c *safeCompiler) varsOf(sub []int) []int {
	var all []int
	for _, li := range sub {
		all = append(all, c.leafClasses[li]...)
	}
	return sortedUnique(all)
}

// joinVarTables joins two independent extensional tables on their
// shared variables (independent join), or cross-multiplies when they
// share none.
func joinVarTables(l, r *varTable) *varTable {
	shared := intersect(l.vars, r.vars)
	if len(shared) == 0 {
		return crossVarTables(l, r)
	}
	j := sprout.IndepJoin(l.t, r.t, l.pos(shared[0]), r.pos(shared[0]))
	lw := len(l.vars)
	// Residual equalities on further shared variables.
	for _, sv := range shared[1:] {
		lp, rp := l.pos(sv), lw+r.pos(sv)
		j = j.Select(func(v []pdb.Value) bool { return v[lp] == v[rp] })
	}
	// Drop the right-side duplicates of the shared variables (a pure
	// column removal — no grouping, so no independence assumption).
	keep := make([]int, 0, lw+len(r.vars)-len(shared))
	vars := make([]int, 0, cap(keep))
	for i, v := range l.vars {
		keep = append(keep, i)
		vars = append(vars, v)
	}
	for i, v := range r.vars {
		if !contains(shared, v) {
			keep = append(keep, lw+i)
			vars = append(vars, v)
		}
	}
	return &varTable{t: pickCols(j, keep), vars: vars}
}

// crossVarTables is the Cartesian product with probability
// multiplication (independent components).
func crossVarTables(l, r *varTable) *varTable {
	out := &sprout.ProbTable{Cols: append(append([]string{}, l.t.Cols...), r.t.Cols...)}
	for _, lr := range l.t.Rows {
		for _, rr := range r.t.Rows {
			vals := make([]pdb.Value, 0, len(lr.Vals)+len(rr.Vals))
			vals = append(vals, lr.Vals...)
			vals = append(vals, rr.Vals...)
			out.Rows = append(out.Rows, sprout.ProbRow{Vals: vals, P: lr.P * rr.P})
		}
	}
	return &varTable{t: out, vars: append(append([]int{}, l.vars...), r.vars...)}
}

// pickCols returns t narrowed to the given columns, row for row.
func pickCols(t *sprout.ProbTable, cols []int) *sprout.ProbTable {
	out := &sprout.ProbTable{Cols: make([]string, len(cols))}
	for i, c := range cols {
		out.Cols[i] = t.Cols[c]
	}
	for _, r := range t.Rows {
		vals := make([]pdb.Value, len(cols))
		for i, c := range cols {
			vals[i] = r.Vals[c]
		}
		out.Rows = append(out.Rows, sprout.ProbRow{Vals: vals, P: r.P})
	}
	return out
}

// reorder permutes vt's columns into the given variable order.
func reorder(vt *varTable, vars []int) *varTable {
	cols := make([]int, len(vars))
	for i, v := range vars {
		cols[i] = vt.pos(v)
	}
	return &varTable{t: pickCols(vt.t, cols), vars: append([]int{}, vars...)}
}

// answers evaluates the plan and maps the root table into requested
// head-column order, sorted like pdb.GroupProject.
func (sp *safePlan) answers(s *formula.Space) []safeRow {
	vt := sp.eval(s)
	pos := make([]int, len(sp.headClasses))
	for i, class := range sp.headClasses {
		pos[i] = vt.pos(class)
	}
	rows := make([]safeRow, 0, len(vt.t.Rows))
	keys := make([]string, 0, len(vt.t.Rows))
	for _, r := range vt.t.Rows {
		vals := make([]pdb.Value, len(pos))
		for i, p := range pos {
			vals[i] = r.Vals[p]
		}
		rows = append(rows, safeRow{vals: vals, p: r.P})
		// Keys are precomputed once per row (not per comparison) in
		// pdb.GroupProject's encoding, keeping safe-route and lineage
		// answer orders aligned.
		keys = append(keys, pdb.ValsKey(vals))
	}
	sort.Sort(&rowsByKey{rows: rows, keys: keys})
	return rows
}

// rowsByKey sorts rows and their precomputed grouping keys together.
type rowsByKey struct {
	rows []safeRow
	keys []string
}

func (s *rowsByKey) Len() int           { return len(s.rows) }
func (s *rowsByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *rowsByKey) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

func sortedUnique(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	out := append([]int{}, xs...)
	sort.Ints(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

func intersect(a, b []int) []int {
	var out []int
	for _, x := range a {
		if contains(b, x) {
			out = append(out, x)
		}
	}
	return out
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
