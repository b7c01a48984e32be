package core

import (
	"context"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/workpool"
)

// ErrorKind selects between the two approximation guarantees of
// Definition 5.7.
type ErrorKind uint8

// Approximation-error kinds.
const (
	// Absolute requires p − ε ≤ p̂ ≤ p + ε.
	Absolute ErrorKind = iota
	// Relative requires (1−ε)·p ≤ p̂ ≤ (1+ε)·p.
	Relative
)

func (k ErrorKind) String() string {
	if k == Absolute {
		return "absolute"
	}
	return "relative"
}

// Options configures the approximation algorithm. The zero value asks for
// an exact answer (Eps 0) with the paper's default heuristics.
type Options struct {
	// Eps is the allowed error (0 ≤ Eps < 1). Eps 0 requests exact
	// computation, which skips per-leaf bound computation entirely (the
	// paper's "d-tree(error 0)" configuration).
	Eps float64
	// Kind selects absolute or relative error.
	Kind ErrorKind
	// Order selects the Shannon-expansion variable order.
	Order VarOrder
	// MaxNodes, when positive, bounds the number of d-tree nodes
	// constructed. When the budget is exhausted the current bounds are
	// returned with Converged false.
	MaxNodes int
	// MaxWork, when positive, bounds the cumulative number of clauses
	// processed across all decomposition steps — a machine-independent
	// stand-in for the paper's wall-clock timeout that also limits runs
	// whose individual leaves are huge.
	MaxWork int

	// Cache, when non-nil, memoizes exact multi-clause subformula
	// probabilities. Sharing one cache across evaluations over the same
	// Space (the answers of a query, repeated Shannon branches) computes
	// each repeated fragment once. The cache must not be reused with a
	// different Space.
	Cache *formula.ProbCache

	// Frags, when non-nil, memoizes prepared leaf fragments — the
	// normalized, subsumption-reduced form together with its heuristic
	// bounds and component partition. It is the prepared-statement
	// analogue of Cache: where Cache only pays off once a fragment's
	// exact probability has been computed, Frags short-circuits the
	// whole preparation pipeline (normalize, reduce, leaf bounds),
	// which profiling shows dominates ranking workloads. Share one
	// Frags across evaluations over the same Space exactly like Cache;
	// it must not be reused with a different Space.
	Frags *formula.FragCache

	// Pool is the worker pool parallel exploration of independent
	// d-tree branches fans out on; nil means the shared
	// workpool.Default. Callers that own a pool (the façade DB) thread
	// it here so sizing one pool never affects evaluations running on
	// another. Parallel exploration produces bitwise-identical results;
	// a pool of parallelism 1 (workpool.New(1)) runs sequentially.
	Pool *workpool.Pool

	// Metrics, when non-nil, receives this evaluation's cache traffic,
	// refinement steps and budget exhaustions. All recording is nil-safe
	// atomic counting; nil (the default, and what the benchmarks run
	// with) costs a single predictable branch per event.
	Metrics *obs.Metrics

	// Inject, when non-nil, fires deterministic faults at the named
	// chaos sites on this evaluation's paths (evaluator step, leaf
	// prepare, cache lookup). Nil — the production default — costs one
	// pointer test per site, mirroring Metrics.
	Inject *fault.Injector

	// Ablation switches (all false in the paper's configuration).
	DisableClosing     bool // never close leaves (Section V-D off)
	DisableSubsumption bool // skip subsumed-clause removal (Fig. 1 step 1 off)
	DisableBucketSort  bool // skip probability-sorting in LeafBounds

	// refScan restores the Refiner's original O(tree)-per-Step
	// bookkeeping — a full bottom-up bounds recompute and a whole-tree
	// widest-leaf rescan after every refinement — instead of the
	// incremental dirty-path propagation and open-leaf heap. The two
	// paths produce bitwise-identical bounds and refinement orders
	// (property-tested); the reference path is retained only for
	// differential tests and benchmarks inside this package.
	refScan bool

	// refPrepare restores the original leaf-preparation pipeline: no
	// prepared-fragment cache, no construction-aware Normalize /
	// RemoveSubsumed skips, per-call allocation of every scratch
	// buffer. Like refScan it produces bitwise-identical bounds and
	// traces (property-tested) and exists only for differential tests
	// and benchmarks inside this package.
	refPrepare bool
}

// Result reports the outcome of Approx or Exact.
type Result struct {
	// Lo and Hi bound the exact probability: Lo ≤ P(Φ) ≤ Hi.
	Lo, Hi float64
	// Estimate is an ε-approximation of P(Φ) when Converged is true.
	Estimate float64
	// Nodes is the number of d-tree nodes constructed.
	Nodes int
	// LeavesClosed counts leaves discarded by the Theorem 5.12 check.
	LeavesClosed int
	// CacheHits and CacheMisses count subformula memo-cache lookups by
	// this evaluation (zero when Options.Cache is nil).
	CacheHits, CacheMisses int64
	// Exact reports Lo == Hi.
	Exact bool
	// EarlyStop reports that the Proposition 5.8 condition fired before
	// the compilation was exhaustive.
	EarlyStop bool
	// Converged reports that the requested guarantee was achieved (always
	// true unless the node budget was exhausted or the context fired
	// first).
	Converged bool
}

// Approx computes an ε-approximation of P(d) by incremental d-tree
// compilation (Section V-D). It decomposes d depth-first following
// Figure 1, checking before each node construction whether (1) the current
// global bounds already satisfy the sufficient ε-approximation condition
// of Proposition 5.8 (then it stops), or (2) the current leaf can be
// closed per Theorem 5.12 while still guaranteeing the error bound.
func Approx(s *formula.Space, d formula.DNF, opt Options) (Result, error) {
	return ApproxCtx(context.Background(), s, d, opt)
}

// ApproxCtx is Approx with cancellation: when ctx is cancelled or its
// deadline passes, evaluation stops promptly and the context's error is
// returned together with the bounds reached so far (Converged false).
func ApproxCtx(ctx context.Context, s *formula.Space, d formula.DNF, opt Options) (Result, error) {
	if opt.Eps == 0 {
		return ExactCtx(ctx, s, d, opt)
	}
	st := newState(ctx, s, opt)
	if err := st.ctx.Err(); err != nil {
		st.cancelErr = err
		return st.finish(0, 1), err
	}
	f := st.prepare(d)
	if f.exact {
		return st.finish(f.lo, f.hi), nil
	}
	id := affine{1, 0}
	lo, hi := st.explore(f, bctx{id, id, id, id})
	if st.done {
		lo, hi = st.doneLo, st.doneHi
	}
	res := st.finish(lo, hi)
	if st.cancelErr != nil {
		return res, st.cancelErr
	}
	if st.budgetHit.Load() {
		return res, ErrBudget
	}
	return res, nil
}

// Exact computes P(d) exactly by exhaustive d-tree compilation without
// materializing the tree and without computing per-leaf bounds. This is
// the "d-tree(error 0)" configuration of the experiments; it runs in
// polynomial time on lineage of tractable queries (Section VI).
// Independent branches are explored in parallel on the shared worker
// pool (see internal/workpool) when it has more than one worker.
func Exact(s *formula.Space, d formula.DNF, opt Options) (Result, error) {
	return ExactCtx(context.Background(), s, d, opt)
}

// ExactCtx is Exact with cancellation semantics matching ApproxCtx.
func ExactCtx(ctx context.Context, s *formula.Space, d formula.DNF, opt Options) (Result, error) {
	st := newState(ctx, s, opt)
	p, err := st.exactRec(d)
	if err != nil {
		res := st.finish(0, 1)
		res.Converged = false
		return res, err
	}
	res := st.finish(p, p)
	res.Estimate, res.Exact, res.Converged = p, true, true
	return res, nil
}

// ExactProbability is a convenience wrapper around Exact returning just
// the probability.
func ExactProbability(s *formula.Space, d formula.DNF) float64 {
	r, _ := Exact(s, d, Options{})
	return r.Estimate
}

// affine is the map x ↦ a·x + b. Bound propagation through every d-tree
// node kind is affine (with non-negative slope) in any single descendant
// leaf's bound once all other leaves are fixed — the observation behind
// Lemma 5.11 — so the global stop and close checks reduce to evaluating
// four precomposed affine maps, O(1) per check.
type affine struct{ a, b float64 }

func (f affine) ap(x float64) float64    { return f.a*x + f.b }
func (f affine) compose(g affine) affine { return affine{f.a * g.a, f.a*g.b + f.b} }

// bctx carries, for the subtree being explored, the affine maps from its
// (lower, upper) bounds to the d-tree root's (lower, upper) bounds under
// two policies for leaves not yet explored:
//
//	stop policy  — open leaves contribute their heuristic [lo, hi]
//	               (Proposition 5.8 check on the current partial d-tree);
//	close policy — open leaves are pinned to their lower bound [lo, lo],
//	               the bound-space point maximizing the error interval
//	               (Lemma 5.11), so satisfying the condition here makes
//	               closing the current leaf safe (Theorem 5.12).
type bctx struct {
	sLo, sHi affine // stop policy: root lower / upper
	cLo, cHi affine // close policy: root lower / upper
}

// state carries one evaluation's configuration and counters. The
// counters are atomics because the exact path fans independent branches
// out across goroutines; the incremental (eps > 0) refinement itself is
// sequential — its stop/close decisions depend on refinement order — so
// the fields below the counters are only touched single-threaded.
type state struct {
	s   *formula.Space
	opt Options
	ctx context.Context
	// pooled snapshots worker-pool availability once per evaluation, so
	// the per-node parallelizable check stays lock-free.
	pooled bool

	nodes     atomic.Int64
	work      atomic.Int64
	budgetHit atomic.Bool
	hits      atomic.Int64
	misses    atomic.Int64
	// poisoned marks the evaluation as doomed: a sibling pool task
	// panicked or some branch saw the context end, so every poll
	// reports the interrupt and exact-path workers drain at their next
	// node instead of running their full course (see Pool.RunAbort).
	poisoned atomic.Bool

	closed         int
	done           bool
	doneLo, doneHi float64
	cancelErr      error

	// variant partitions Options.Frags keys by the switches preparation
	// depends on; see prepVariant.
	variant uint8
}

func newState(ctx context.Context, s *formula.Space, opt Options) *state {
	if ctx == nil {
		ctx = context.Background()
	}
	return &state{
		s: s, opt: opt, ctx: ctx,
		pooled:  opt.Pool.Parallelism() > 1,
		variant: prepVariant(opt),
	}
}

// frag is a prepared DNF fragment: normalized, subsumption-reduced, with
// heuristic bounds already computed. entry, when non-nil, is the
// fragment-cache entry backing it, which additionally memoizes the
// component partition across decompositions.
type frag struct {
	d      formula.DNF
	lo, hi float64
	exact  bool
	entry  *formula.PreparedFrag
}

func (st *state) prepare(d formula.DNF) frag {
	return st.prepareAs(d, false, false)
}

// prepareAs prepares fragment d. The flags declare properties d has by
// construction so that content no-op passes are skipped: normalized
// means d is duplicate-free (Normalize would return identical content),
// reduced means d carries no subsumed clause (RemoveSubsumed would
// too). Decomposition children earn these flags structurally: component
// Selects and independent-and projections of a normalized parent are
// duplicate-free, Shannon restrictions are deduplicated on the way out,
// and component Selects of a reduced parent are reduced (a subsuming
// pair shares the subsumed clause's variables, hence its component).
//
// With Options.Frags configured, the fragment is looked up before any
// of that and stored after; a hit replays the work charge of a warm
// reference rerun (PreparedFrag.Work) so MaxWork budget traces stay
// identical with and without the cache.
func (st *state) prepareAs(d formula.DNF, normalized, reduced bool) frag {
	// Chaos site: prepareAs has no error return, so every injected
	// fault surfaces as a panic and unwinds to the nearest containment
	// point (NewRefiner, the pool wrapper, or pdb's per-answer recover).
	st.opt.Inject.FirePanic(fault.SiteLeafPrepare)
	if st.opt.refPrepare {
		return st.prepareRef(d)
	}
	c := st.opt.Frags
	if c != nil {
		if e, ok := c.Lookup(d, st.variant); ok {
			st.opt.Metrics.RecordFragCache(true)
			st.work.Add(e.Work)
			return frag{d: e.D, lo: e.Lo, hi: e.Hi, exact: e.Exact, entry: e}
		}
		st.opt.Metrics.RecordFragCache(false)
	}
	key := d
	w := int64(len(key))
	st.work.Add(w)
	store := func(f frag, warmWork int64) frag {
		if c == nil {
			return f
		}
		e := &formula.PreparedFrag{D: f.d, Lo: f.lo, Hi: f.hi, Exact: f.exact, Work: warmWork}
		f.entry = c.Store(key, st.variant, e)
		return f
	}
	if !normalized {
		// Normalize over the pooled dedup table, on a copy: the caller
		// owns d.
		sc := prepPool.Get().(*prepScratch)
		d = sc.dedup.dedup(slices.Clone(d))
		prepPool.Put(sc)
	}
	if d.IsTrue() {
		return store(frag{d: d, lo: 1, hi: 1, exact: true}, w)
	}
	if d.IsFalse() {
		return store(frag{d: d, lo: 0, hi: 0, exact: true}, w)
	}
	if !st.opt.DisableSubsumption && !reduced {
		d = d.RemoveSubsumed()
	}
	if len(d) == 1 {
		p := d[0].Probability(st.s)
		return store(frag{d: d, lo: p, hi: p, exact: true}, w)
	}
	if len(d) <= incExcMaxClauses {
		// A warm reference rerun re-pays the 2^k inclusion-exclusion
		// only when no probability cache absorbs it.
		warm := w
		p := st.cachedProb(d, func() float64 {
			st.work.Add(1 << len(d))
			if st.opt.Cache == nil {
				warm += 1 << len(d)
			}
			return inclusionExclusion(st.s, d)
		})
		return store(frag{d: d, lo: p, hi: p, exact: true}, warm)
	}
	lo, hi, ops := leafBounds(st.s, d, !st.opt.DisableBucketSort)
	st.work.Add(int64(ops))
	return store(frag{d: d, lo: lo, hi: hi, exact: lo == hi}, w+int64(ops))
}

// cachedProb memoizes compute() for multi-clause fragments when a cache
// is configured.
func (st *state) cachedProb(d formula.DNF, compute func() float64) float64 {
	p, _ := st.cachedProbErr(d, func() (float64, error) { return compute(), nil })
	return p
}

// cachedProbErr is cachedProb for fallible computations; failed
// computations are not stored.
func (st *state) cachedProbErr(d formula.DNF, compute func() (float64, error)) (float64, error) {
	c := st.opt.Cache
	if c == nil || len(d) <= 1 {
		return compute()
	}
	// Chaos site: cachedProb swallows errors by design (a miss just
	// recomputes), so a returned injected error would silently corrupt
	// the probability — FirePanic turns every fault into a contained
	// panic instead.
	st.opt.Inject.FirePanic(fault.SiteCacheLookup)
	if p, ok := c.Lookup(d); ok {
		st.hits.Add(1)
		st.opt.Metrics.RecordProbCache(true)
		return p, nil
	}
	st.misses.Add(1)
	st.opt.Metrics.RecordProbCache(false)
	p, err := compute()
	if err != nil {
		return 0, err
	}
	c.Store(d, p)
	return p, nil
}

// interrupted reports why evaluation should stop early: the caller's
// context, or a sibling pool task's contained panic (poisoned without a
// context error — reported as context.Canceled so the batch drains
// promptly and the panic, rethrown by the pool, is the error that
// surfaces). The first context error observed also poisons the
// evaluation, so every other branch stops at its next node instead of
// its next stride poll.
func (st *state) interrupted() error {
	if err := st.ctx.Err(); err != nil {
		st.poisoned.Store(true)
		return err
	}
	if st.poisoned.Load() {
		return context.Canceled
	}
	return nil
}

// poison is the RunAbort hook: flips every subsequent interrupted()
// poll on this evaluation to cancelled.
func (st *state) poison() { st.poisoned.Store(true) }

// interruptedOrInjected is the per-step poll: interruption first, then
// the eval.step chaos site (injected errors stop evaluation exactly
// like organic ones; injected panics unwind to the nearest containment
// point).
func (st *state) interruptedOrInjected() error {
	if err := st.interrupted(); err != nil {
		return err
	}
	return st.opt.Inject.Fire(fault.SiteEvalStep)
}

func (st *state) cond(lo, hi float64) bool {
	return ApproxCond(st.opt.Kind, st.opt.Eps, lo, hi)
}

func (st *state) overBudget() bool {
	return (st.opt.MaxNodes > 0 && st.nodes.Load() >= int64(st.opt.MaxNodes)) ||
		(st.opt.MaxWork > 0 && st.work.Load() >= int64(st.opt.MaxWork))
}

// hitBudget marks the evaluation budget-exhausted; the CAS counts each
// evaluation's exhaustion once in the metrics registry no matter how
// many branches observe it.
func (st *state) hitBudget() {
	if st.budgetHit.CompareAndSwap(false, true) {
		st.opt.Metrics.RecordBudgetExhausted()
	}
}

func (st *state) finish(lo, hi float64) Result {
	lo, hi = clamp01(lo), clamp01(hi)
	if hi < lo {
		hi = lo
	}
	converged := st.cond(lo, hi) && !st.budgetHit.Load() && st.cancelErr == nil
	var est float64
	if converged {
		est = EstimateFrom(st.opt.Kind, st.opt.Eps, lo, hi)
	} else {
		est = (lo + hi) / 2
	}
	return Result{
		Lo: lo, Hi: hi, Estimate: est,
		Nodes: int(st.nodes.Load()), LeavesClosed: st.closed,
		CacheHits: st.hits.Load(), CacheMisses: st.misses.Load(),
		Exact: lo == hi, EarlyStop: st.done && !st.budgetHit.Load() && st.cancelErr == nil,
		Converged: converged,
	}
}

// explore refines the fragment f, returning its (possibly still partial)
// probability bounds. It is the incremental compilation scheme of
// Section V-D: before constructing the node for f it performs the global
// stop check and the leaf close check, then decomposes per Figure 1 and
// recurses on the children depth-first left-to-right, updating the bound
// contexts with each refined sibling.
func (st *state) explore(f frag, cx bctx) (lo, hi float64) {
	st.nodes.Add(1)

	// (1) Stop check: are the global bounds, with this and all remaining
	// open leaves at their heuristic bounds, already an ε-approximation?
	gLo, gHi := cx.sLo.ap(f.lo), cx.sHi.ap(f.hi)
	if st.cond(gLo, gHi) {
		st.done = true
		st.doneLo, st.doneHi = gLo, gHi
		return f.lo, f.hi
	}
	if err := st.interruptedOrInjected(); err != nil {
		st.done = true
		st.cancelErr = err
		st.doneLo, st.doneHi = gLo, gHi
		return f.lo, f.hi
	}
	if st.overBudget() {
		st.done = true
		st.hitBudget()
		st.doneLo, st.doneHi = gLo, gHi
		return f.lo, f.hi
	}

	// (2) Close check (Theorem 5.12): with every open leaf pinned at its
	// lower bound, would freezing this leaf at [lo, hi] still allow an
	// ε-approximation after refining the rest? If so, discard the leaf.
	if !st.opt.DisableClosing {
		if st.cond(cx.cLo.ap(f.lo), cx.cHi.ap(f.hi)) {
			st.closed++
			return f.lo, f.hi
		}
	}

	// (3) Decompose per Figure 1.
	kind, children, mult := st.decompose(f)

	// Effective child bounds (scaled by the ⊕ branch weight where
	// applicable); refined in place as children complete.
	loArr := make([]float64, len(children))
	hiArr := make([]float64, len(children))
	processed := make([]bool, len(children))
	for i, c := range children {
		loArr[i], hiArr[i] = mult[i]*c.lo, mult[i]*c.hi
		processed[i] = c.exact
	}

	// Refine children in order of decreasing bound-interval width (the
	// paper refines the leaf with the largest bounds interval first):
	// wide intervals are where refinement buys the most convergence.
	order := make([]int, 0, len(children))
	for i := range children {
		if !children[i].exact {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		wa := hiArr[order[a]] - loArr[order[a]]
		wb := hiArr[order[b]] - loArr[order[b]]
		return wa > wb
	})
	for _, i := range order {
		if st.done {
			break
		}
		childCx := st.childCtx(cx, kind, mult[i], loArr, hiArr, processed, i)
		clo, chi := st.explore(children[i], childCx)
		loArr[i], hiArr[i] = mult[i]*clo, mult[i]*chi
		processed[i] = true
	}

	return combine(kind, loArr, hiArr)
}

// decompose applies the first applicable decomposition of Figure 1 and
// returns the node kind, the prepared children, and the per-child
// multiplier (P(x = a) for Shannon branches, 1 otherwise). Child
// preparation (the quadratic leaf-bounds heuristic) fans out on the
// worker pool when the fragment is large enough. Children inherit the
// construction guarantees documented on prepareAs, so their
// preparation skips the corresponding no-op passes; the component
// partition is memoized on the fragment-cache entry when present.
func (st *state) decompose(f frag) (Kind, []frag, []float64) {
	d := f.d
	if st.opt.refPrepare {
		return st.decomposeRef(d)
	}
	if comps := st.components(f); len(comps) > 1 {
		subs := make([]formula.DNF, len(comps))
		mult := make([]float64, len(comps))
		for i, idx := range comps {
			subs[i] = d.Select(idx)
			mult[i] = 1
		}
		return IndepOr, st.prepareAll(subs, true, true), mult
	}
	if parts := independentAndParts(st.s, d); parts != nil {
		mult := make([]float64, len(parts))
		for i := range mult {
			mult[i] = 1
		}
		return IndepAnd, st.prepareAll(parts, true, false), mult
	}
	x := chooseVar(st.s, d, st.opt.Order)
	var subs []formula.DNF
	var mult []float64
	sc := prepPool.Get().(*prepScratch)
	for a := 0; a < st.s.DomainSize(x); a++ {
		sub := restrictPrepared(d, x, formula.Val(a), sc)
		if sub.IsFalse() {
			continue
		}
		st.nodes.Add(1) // the {{x=a}} ⊙-companion leaf
		subs = append(subs, sub)
		mult = append(mult, st.s.P(formula.Atom{Var: x, Val: formula.Val(a)}))
	}
	prepPool.Put(sc)
	return ExclOr, st.prepareAll(subs, true, false), mult
}

// decomposeRef is decompose on the original preparation pipeline:
// fresh component partition, allocating Restrict, no construction
// flags. Retained behind Options.refPrepare for the differential
// property tests.
func (st *state) decomposeRef(d formula.DNF) (Kind, []frag, []float64) {
	if comps := d.Components(); len(comps) > 1 {
		subs := make([]formula.DNF, len(comps))
		mult := make([]float64, len(comps))
		for i, idx := range comps {
			subs[i] = d.Select(idx)
			mult[i] = 1
		}
		return IndepOr, st.prepareAll(subs, false, false), mult
	}
	if parts := independentAndParts(st.s, d); parts != nil {
		mult := make([]float64, len(parts))
		for i := range mult {
			mult[i] = 1
		}
		return IndepAnd, st.prepareAll(parts, false, false), mult
	}
	x := chooseVar(st.s, d, st.opt.Order)
	var subs []formula.DNF
	var mult []float64
	for a := 0; a < st.s.DomainSize(x); a++ {
		sub := d.Restrict(x, formula.Val(a))
		if sub.IsFalse() {
			continue
		}
		st.nodes.Add(1) // the {{x=a}} ⊙-companion leaf
		subs = append(subs, sub)
		mult = append(mult, st.s.P(formula.Atom{Var: x, Val: formula.Val(a)}))
	}
	return ExclOr, st.prepareAll(subs, false, false), mult
}

// childCtx builds the bound context for child i of a node of the given
// kind, composing the parent context with the node-local affine maps. For
// the stop policy, siblings contribute their current [lo, hi]; for the
// close policy, already-processed siblings contribute their refined
// (frozen) [lo, hi] while still-open siblings are pinned to [lo, lo].
func (st *state) childCtx(cx bctx, kind Kind, q float64, loArr, hiArr []float64, processed []bool, i int) bctx {
	var sL, sU, cL, cU affine
	switch kind {
	case ExclOr:
		var sumLoS, sumHiS, sumLoC, sumHiC float64
		for j := range loArr {
			if j == i {
				continue
			}
			sumLoS += loArr[j]
			sumHiS += hiArr[j]
			sumLoC += loArr[j]
			if processed[j] {
				sumHiC += hiArr[j]
			} else {
				sumHiC += loArr[j]
			}
		}
		sL = affine{q, sumLoS}
		sU = affine{q, sumHiS}
		cL = affine{q, sumLoC}
		cU = affine{q, sumHiC}
	case IndepOr:
		var pLoS, pHiS, pLoC, pHiC float64 = 1, 1, 1, 1
		for j := range loArr {
			if j == i {
				continue
			}
			pLoS *= 1 - loArr[j]
			pHiS *= 1 - hiArr[j]
			pLoC *= 1 - loArr[j]
			if processed[j] {
				pHiC *= 1 - hiArr[j]
			} else {
				pHiC *= 1 - loArr[j]
			}
		}
		// 1 − (1 − q·x)·R  =  q·R·x + (1 − R)
		sL = affine{q * pLoS, 1 - pLoS}
		sU = affine{q * pHiS, 1 - pHiS}
		cL = affine{q * pLoC, 1 - pLoC}
		cU = affine{q * pHiC, 1 - pHiC}
	case IndepAnd:
		var pLoS, pHiS, pLoC, pHiC float64 = 1, 1, 1, 1
		for j := range loArr {
			if j == i {
				continue
			}
			pLoS *= loArr[j]
			pHiS *= hiArr[j]
			pLoC *= loArr[j]
			if processed[j] {
				pHiC *= hiArr[j]
			} else {
				pHiC *= loArr[j]
			}
		}
		sL = affine{q * pLoS, 0}
		sU = affine{q * pHiS, 0}
		cL = affine{q * pLoC, 0}
		cU = affine{q * pHiC, 0}
	default:
		panic("core: childCtx on leaf")
	}
	return bctx{
		sLo: cx.sLo.compose(sL),
		sHi: cx.sHi.compose(sU),
		cLo: cx.cLo.compose(cL),
		cHi: cx.cHi.compose(cU),
	}
}

func combine(kind Kind, loArr, hiArr []float64) (lo, hi float64) {
	switch kind {
	case ExclOr:
		for i := range loArr {
			lo += loArr[i]
			hi += hiArr[i]
		}
	case IndepOr:
		ql, qh := 1.0, 1.0
		for i := range loArr {
			ql *= 1 - loArr[i]
			qh *= 1 - hiArr[i]
		}
		lo, hi = 1-ql, 1-qh
	case IndepAnd:
		lo, hi = 1, 1
		for i := range loArr {
			lo *= loArr[i]
			hi *= hiArr[i]
		}
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// exactRec is the exhaustive, bounds-free compilation used for Eps 0.
// Independent children recurse through exactChildren, which fans large
// fragments out on the worker pool; results are combined in child-index
// order, so parallel and sequential runs produce bitwise-identical
// probabilities.
func (st *state) exactRec(d formula.DNF) (float64, error) {
	// Poll the context on a stride of the shared node counter: checking
	// every node would have all pool workers contending on the timer
	// context's mutex. The first node still polls, so a dead context
	// fails fast, and once any branch has seen an interrupt the poisoned
	// flag stops every other branch at its next node.
	if n := st.nodes.Add(1); st.poisoned.Load() || n%exactCtxStride == 1 {
		if err := st.interruptedOrInjected(); err != nil {
			return 0, err
		}
	}
	st.work.Add(int64(len(d)))
	if st.overBudget() {
		st.hitBudget()
		return 0, ErrBudget
	}
	d = d.Normalize()
	if d.IsTrue() {
		return 1, nil
	}
	if d.IsFalse() {
		return 0, nil
	}
	if !st.opt.DisableSubsumption {
		d = d.RemoveSubsumed()
	}
	if len(d) == 1 {
		return d[0].Probability(st.s), nil
	}
	return st.cachedProbErr(d, func() (float64, error) { return st.exactDecompose(d) })
}

// exactDecompose computes P(d) for a normalized, subsumption-reduced,
// multi-clause DNF by the first applicable rule of Figure 1.
func (st *state) exactDecompose(d formula.DNF) (float64, error) {
	if len(d) <= incExcMaxClauses {
		st.work.Add(1 << len(d))
		return inclusionExclusion(st.s, d), nil
	}
	if comps := d.Components(); len(comps) > 1 {
		subs := make([]formula.DNF, len(comps))
		for i, idx := range comps {
			subs[i] = d.Select(idx)
		}
		ps, err := st.exactChildren(subs)
		if err != nil {
			return 0, err
		}
		q := 1.0
		for _, p := range ps {
			q *= 1 - p
		}
		return 1 - q, nil
	}
	if parts := independentAndParts(st.s, d); parts != nil {
		ps, err := st.exactChildren(parts)
		if err != nil {
			return 0, err
		}
		p := 1.0
		for _, pp := range ps {
			p *= pp
		}
		return p, nil
	}
	x := chooseVar(st.s, d, st.opt.Order)
	var subs []formula.DNF
	var weights []float64
	for a := 0; a < st.s.DomainSize(x); a++ {
		sub := d.Restrict(x, formula.Val(a))
		if sub.IsFalse() {
			continue
		}
		st.nodes.Add(1)
		subs = append(subs, sub)
		weights = append(weights, st.s.P(formula.Atom{Var: x, Val: formula.Val(a)}))
	}
	ps, err := st.exactChildren(subs)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for i, p := range ps {
		total += weights[i] * p
	}
	return total, nil
}
