package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/pdb"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/tpch"
)

// template is one query shape of a workload; a request fills in one
// of its parameters.
type template struct {
	name   string
	class  string // "hard", "many", "safe", "iq" or "batch"
	params []int64
	build  func(param int64) *serve.Node
}

// request is one query as sent to the daemon.
type request struct {
	tmpl    *template
	param   int64
	session string // "" runs on a one-shot session
	hangUp  bool   // hang up right after the first answer
	eps     *float64
	budget  *serve.Budget
}

func (r *request) key() string { return fmt.Sprintf("%s/%d", r.tmpl.name, r.param) }

// body is the request's POST /v1/query document.
func (r *request) body() []byte {
	b, err := json.Marshal(serve.Request{Session: r.session, Eps: r.eps, Budget: r.budget, Query: r.tmpl.build(r.param)})
	if err != nil {
		panic(err) // the wire types always marshal
	}
	return b
}

// Wire-plan helpers over the TPC-H schema of internal/tpch.
func scanN(rel string) *serve.Node { return &serve.Node{Scan: rel} }

func whereN(in *serve.Node, col int, op string, v int64) *serve.Node {
	return &serve.Node{Where: &serve.Where{Input: in, Col: col, Op: op, Value: v}}
}

func joinN(l, r *serve.Node, lc, rc int) *serve.Node {
	return &serve.Node{Join: &serve.Join{Left: l, Right: r, LeftCol: lc, RightCol: rc}}
}

func groupN(in *serve.Node, cols ...int) *serve.Node {
	if cols == nil {
		cols = []int{}
	}
	return &serve.Node{GroupLineage: &serve.Unary{Input: in, Cols: cols}}
}

func topKN(in *serve.Node, k int) *serve.Node { return &serve.Node{TopK: &serve.TopK{Input: in, K: k}} }

// Column positions in internal/tpch's relations.
const (
	sSuppkey, sNationkey                   = 0, 1
	pPartkey, pSize, pBrand, pContainer    = 0, 1, 2, 3
	oOrderkey, oCustkey                    = 0, 1
	lOrderkey, lPartkey, lSuppkey, lQuant  = 0, 1, 2, 3
	lReturnflag, lLinestatus, supplierCols = 8, 9, 2
	ordersCols, lineitemCols               = 3, 10
)

// hardWindow and safeWindow are the widths of the hard and the safe
// template's l_quantity windows.
const hardWindow, safeWindow = 6, 10

// streamTemplates is the serve-stream mix.
func streamTemplates() []*template {
	return []*template{{
		// supplier ⋈ σ(lineitem) ⋈ part grouped by nation: non-hierarchical
		// lineage, so ranking refines for real. Each parameter selects a
		// disjoint l_quantity window, so the parameters are independent
		// ranking problems and a run averages over several of them.
		name: "hard-top5", class: "hard", params: []int64{25, 13, 37, 1, 31, 7, 43, 19},
		build: func(q int64) *serve.Node {
			lines := whereN(whereN(scanN("lineitem"), lQuant, "ge", q), lQuant, "lt", q+hardWindow)
			sl := joinN(scanN("supplier"), lines, sSuppkey, lSuppkey)
			return topKN(groupN(joinN(sl, scanN("part"), supplierCols+lPartkey, pPartkey), sNationkey), 5)
		},
	}, {
		// orders ⋈ lineitem with a filter above the join, grouped by
		// customer: many read-once answers, lineage-bound.
		name: "many-top10", class: "many", params: []int64{30, 20, 40, 25, 35, 45},
		build: func(q int64) *serve.Node {
			j := joinN(scanN("orders"), scanN("lineitem"), oOrderkey, lOrderkey)
			return topKN(groupN(whereN(j, ordersCols+lQuant, "ge", q), oCustkey), 10)
		},
	}, {
		// σ(lineitem) grouped by the flags: the safe route. Each parameter
		// selects an l_quantity window of the same width, so every
		// request does about the same work and the median, which falls
		// among these requests, reads a dense cluster of latencies.
		name: "safe-flags", class: "safe", params: []int64{21, 1, 41, 11},
		build: func(q int64) *serve.Node {
			lines := whereN(whereN(scanN("lineitem"), lQuant, "ge", q), lQuant, "lt", q+safeWindow)
			return groupN(lines, lReturnflag, lLinestatus)
		},
	}, {
		// part ⋈_{p_size < l_quantity} lineitem, both sides narrowed by
		// leaf filters: the IQ sorted-scan route.
		name: "iq-pair", class: "iq", params: []int64{3, 7, 11, 19},
		build: func(brand int64) *serve.Node {
			parts := whereN(whereN(scanN("part"), pBrand, "eq", brand), pContainer, "lt", 10)
			lines := whereN(scanN("lineitem"), lOrderkey, "lt", 75)
			return groupN(&serve.Node{JoinLess: &serve.Join{Left: parts, Right: lines, LeftCol: pSize, RightCol: lQuant}})
		},
	}}
}

// batchTemplates is the batch-conf mix: many-answer lineage joins
// whose driver (leftmost) relation is large enough to shard.
func batchTemplates() []*template {
	return []*template{{
		name: "lineitem-by-supplier", class: "batch", params: []int64{10, 20, 30, 40},
		build: func(q int64) *serve.Node {
			j := joinN(scanN("lineitem"), scanN("supplier"), lSuppkey, sSuppkey)
			return groupN(whereN(j, lQuant, "ge", q), lineitemCols+sSuppkey)
		},
	}, {
		name: "orders-by-customer", class: "batch", params: []int64{10, 20, 30, 40},
		build: func(q int64) *serve.Node {
			j := joinN(scanN("orders"), scanN("lineitem"), oOrderkey, lOrderkey)
			return groupN(whereN(j, ordersCols+lQuant, "ge", q), oCustkey)
		},
	}}
}

// relations names the TPC-H relations as the daemon registers them.
func relations(db *tpch.DB) map[string]*pdb.Relation {
	m := map[string]*pdb.Relation{}
	for _, r := range []*pdb.Relation{db.Region, db.Nation, db.Supplier, db.Customer, db.Part, db.PartSupp, db.Orders, db.Lineitem} {
		m[r.Name] = r
	}
	return m
}

// toPlan translates a wire plan into the plan IR the daemon compiles it
// to, so the benchmark can replay it in-process.
func toPlan(n *serve.Node, rels map[string]*pdb.Relation) (plan.Node, error) {
	sub := func(in *serve.Node) (plan.Node, error) { return toPlan(in, rels) }
	switch {
	case n == nil:
		return nil, fmt.Errorf("missing node")
	case n.Scan != "":
		r, ok := rels[n.Scan]
		if !ok {
			return nil, fmt.Errorf("unknown relation %q", n.Scan)
		}
		return &plan.Scan{Rel: r}, nil
	case n.Where != nil:
		in, err := sub(n.Where.Input)
		if err != nil {
			return nil, err
		}
		col, v := n.Where.Col, pdb.Value(n.Where.Value)
		var pred func([]pdb.Value) bool
		switch n.Where.Op {
		case "eq":
			pred = func(t []pdb.Value) bool { return t[col] == v }
		case "lt":
			pred = func(t []pdb.Value) bool { return t[col] < v }
		case "ge":
			pred = func(t []pdb.Value) bool { return t[col] >= v }
		default:
			return nil, fmt.Errorf("where op %q not used by the benchmark", n.Where.Op)
		}
		return &plan.Select{Input: in, Pred: pred}, nil
	case n.Join != nil:
		l, err := sub(n.Join.Left)
		if err != nil {
			return nil, err
		}
		r, err := sub(n.Join.Right)
		if err != nil {
			return nil, err
		}
		return &plan.EquiJoin{Left: l, Right: r, LeftCol: n.Join.LeftCol, RightCol: n.Join.RightCol}, nil
	case n.JoinLess != nil:
		l, err := sub(n.JoinLess.Left)
		if err != nil {
			return nil, err
		}
		r, err := sub(n.JoinLess.Right)
		if err != nil {
			return nil, err
		}
		return &plan.ThetaJoin{Left: l, Right: r, Less: &plan.Less{LeftCol: n.JoinLess.LeftCol, RightCol: n.JoinLess.RightCol}}, nil
	case n.GroupLineage != nil:
		in, err := sub(n.GroupLineage.Input)
		if err != nil {
			return nil, err
		}
		return &plan.GroupLineage{Input: in, Cols: n.GroupLineage.Cols}, nil
	case n.TopK != nil:
		in, err := sub(n.TopK.Input)
		if err != nil {
			return nil, err
		}
		return &plan.TopK{Input: in, K: n.TopK.K}, nil
	case n.Threshold != nil:
		in, err := sub(n.Threshold.Input)
		if err != nil {
			return nil, err
		}
		return &plan.Threshold{Input: in, Tau: n.Threshold.Tau}, nil
	}
	return nil, fmt.Errorf("wire node with no operator the benchmark uses")
}

// rankCut is a ranked query's selection rule (zero value: unranked).
type rankCut struct {
	k   int
	tau float64
	on  bool
}

// cutOf strips a ranking root off a wire plan.
func cutOf(n *serve.Node) (rankCut, *serve.Node) {
	switch {
	case n.TopK != nil:
		return rankCut{k: n.TopK.K, on: true}, n.TopK.Input
	case n.Threshold != nil:
		return rankCut{tau: n.Threshold.Tau, on: true}, n.Threshold.Input
	}
	return rankCut{}, n
}

// refEps is the absolute error of the reference confidences, a hundred
// times tighter than anything the workloads request.
const refEps = 1e-4

// reference holds every answer of one unranked query with a proven
// confidence interval, keyed by its values.
type reference map[string][2]float64

func valsKey(vals []int64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return strings.Join(parts, ",")
}

// computeReference evaluates root in-process along the lineage route
// (never the structural routes the daemon may take for it), with every
// answer's confidence to refEps.
func computeReference(ctx context.Context, db *tpch.DB, root *serve.Node) (reference, error) {
	_, inner := cutOf(root)
	pn, err := toPlan(inner, relations(db))
	if err != nil {
		return nil, err
	}
	p := plan.CompileWith(pn, plan.Options{DisableSafe: true, DisableIQ: true, Shards: 1})
	confs, err := p.Answers(ctx, db.Space, engine.Approx{Eps: refEps, Kind: engine.Absolute})
	if err != nil {
		return nil, err
	}
	ref := reference{}
	for _, c := range confs {
		if c.Err != nil {
			return nil, c.Err
		}
		vals := make([]int64, len(c.Vals))
		for i, v := range c.Vals {
			vals[i] = int64(v)
		}
		ref[valsKey(vals)] = [2]float64{c.Res.Lo, c.Res.Hi}
	}
	return ref, nil
}

// checkAnswers verifies served answers against the reference. Every
// answer must name a reference answer and its [lo, hi] must contain the
// reference confidence. A complete unranked reply must hold every
// reference answer; a ranked one must be the reference top-k (or
// threshold) set up to ties within eps. A reply cut short by a
// deliberate hang-up is checked only on the answers it got.
func checkAnswers(ref reference, cut rankCut, got []serve.Answer, complete bool, eps float64) error {
	const slack = 1e-9
	seen := map[string]bool{}
	for _, a := range got {
		k := valsKey(a.Vals)
		r, ok := ref[k]
		if !ok {
			return fmt.Errorf("answer (%s) is not a reference answer", k)
		}
		if seen[k] {
			return fmt.Errorf("answer (%s) served twice", k)
		}
		seen[k] = true
		if a.Lo > r[1]+slack || a.Hi < r[0]-slack || a.Lo > a.Hi+slack {
			return fmt.Errorf("answer (%s): [%g, %g] misses reference [%g, %g]", k, a.Lo, a.Hi, r[0], r[1])
		}
	}
	if !cut.on {
		if complete && len(got) != len(ref) {
			return fmt.Errorf("%d answers served, reference has %d", len(got), len(ref))
		}
		return nil
	}
	// Ties within tol cannot be told apart at the served precision.
	tol := 2*eps + 2*refEps + slack
	if cut.k > 0 {
		mids := make([]float64, 0, len(ref))
		for _, r := range ref {
			mids = append(mids, (r[0]+r[1])/2)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(mids)))
		want := min(cut.k, len(mids))
		if complete && len(got) != want {
			return fmt.Errorf("top-%d served %d answers, want %d", cut.k, len(got), want)
		}
		if want == 0 {
			return nil
		}
		kth := mids[want-1]
		for _, a := range got {
			r := ref[valsKey(a.Vals)]
			if (r[0]+r[1])/2 < kth-tol {
				return fmt.Errorf("top-%d holds (%s) at %g, below the k-th reference %g", cut.k, valsKey(a.Vals), (r[0]+r[1])/2, kth)
			}
		}
		return nil
	}
	for _, a := range got {
		r := ref[valsKey(a.Vals)]
		if r[1] < cut.tau-tol {
			return fmt.Errorf("threshold %g holds (%s) at %g", cut.tau, valsKey(a.Vals), r[1])
		}
	}
	if complete {
		for k, r := range ref {
			if r[0] >= cut.tau+tol && !seen[k] {
				return fmt.Errorf("threshold %g misses (%s) at %g", cut.tau, k, r[0])
			}
		}
	}
	return nil
}
