// Package rank is the anytime multi-answer ranking subsystem: top-k
// by confidence and threshold (P ≥ τ) queries answered by interleaved
// bound refinement instead of full per-answer evaluation.
//
// The d-tree ε-approximation produces monotonically tightening
// [lo, hi] probability bounds (core.Refiner). For "which k answers are
// the most probable?" and "which answers have P ≥ τ?" the final
// probabilities are rarely needed — only enough bound separation to
// prove membership. The schedulers here implement the multisimulation
// idea of MystiQ-style top-k processing: every answer gets a resumable
// refiner, and refinement steps are repeatedly granted to the answer
// whose interval currently straddles the k-th / τ cut line (widest
// interval first), until every answer's membership is decided. Answers
// whose bounds separate early are never refined further, which on
// skewed confidence distributions prunes most of the work a full
// evaluation would spend.
//
// All refiners share the caller's formula.ProbCache (overlapping
// lineage across answers memoizes once) and the process-wide worker
// pool (leaf preparation inside each refinement step fans out); the
// scheduling itself is sequential and deterministic — ties everywhere
// are broken by answer index, so a ranking is reproducible.
//
// Scheduling is event-driven: each grant tightens exactly one answer's
// interval, so the decide pass re-examines only the answers that
// tightening can affect (O(affected · log n) per grant against sorted
// bound arrays, instead of an O(n²) rescan of all answer pairs) and
// the next grantee comes from a width-ordered heap (O(log n) instead
// of a linear scan). The reference full-rescan scheduler is retained
// internally for differential testing; both make identical decisions
// in identical order.
package rank

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/workpool"
)

// Options configures a ranking run. The zero value refines every
// undecided answer toward exactness (Eps 0) with no budget — fine for
// small batches; large workloads should set Eps (the refinement floor)
// and a Budget.
type Options struct {
	// Eps is the per-answer refinement floor: an answer is never
	// refined beyond the Eps guarantee of the underlying approximation
	// (Eps 0 allows refinement all the way to exactness). An answer
	// whose interval still straddles the cut when it reaches the floor
	// is decided by its estimate and reported with Decided false.
	Eps float64
	// Kind selects absolute or relative error for the Eps floor.
	Kind engine.ErrorKind
	// Order selects the Shannon-expansion variable order.
	Order engine.VarOrder
	// StepBudget is the number of leaf refinements granted to the
	// chosen answer per scheduling decision (default 4). Larger grants
	// amortize scheduling; smaller grants separate bounds with less
	// wasted work.
	StepBudget int
	// MaxSteps, when positive, bounds the total refinement steps across
	// all answers — the anytime knob. When exhausted, undecided answers
	// are cut by their current estimates (Decided false).
	MaxSteps int
	// Budget bounds each answer's refiner (MaxNodes/MaxWork per answer)
	// and the whole run's wall clock (Timeout; a cancelled parent
	// context stops the run immediately, see engine.Budget.Context).
	Budget engine.Budget
	// Cache, when non-nil, memoizes exact subformula probabilities
	// across all answers of the run (and across runs over the same
	// Space).
	Cache *formula.ProbCache
	// Frags, when non-nil, memoizes prepared leaf fragments across all
	// answers of the run (and across runs over the same Space) — see
	// core.Options.Frags. When nil, a run-private cache is created:
	// answers of one query overlap heavily (shared lineage clauses and
	// Shannon siblings), so within-run sharing alone removes most
	// preparation work.
	Frags *formula.FragCache
	// Pool is the worker pool refiners' parallel leaf preparation fans
	// out on; nil means the shared workpool.Default, and a pool of one
	// (workpool.New(1)) prepares sequentially.
	Pool *workpool.Pool
	// Resolve refines every selected answer down to the Eps floor after
	// membership is decided, so reported confidences carry the full
	// guarantee ("-resolve" mode). Off, selected answers keep whatever
	// bounds membership required — cheaper, and the point of anytime
	// ranking.
	Resolve bool
	// fullScan restores the reference schedulers: a full O(n²) rescan
	// of all answer pairs before every grant and a linear widest-
	// interval pick, instead of the event-driven decide index and the
	// width-ordered heap. Both paths make bitwise-identical decisions
	// in the same order (property-tested); the reference path is
	// retained only for differential tests and benchmarks inside this
	// package.
	fullScan bool
	// Metrics, when non-nil, receives the run's grants and decide
	// events, and is threaded into every refiner (steps, cache traffic,
	// budget exhaustions). Nil-safe; nil costs one branch per event.
	Metrics *obs.Metrics
	// Inject, when non-nil, fires deterministic faults at the core
	// chaos sites inside every refiner (nil-safe, see fault.Injector).
	Inject *fault.Injector
	// Watchdog, when positive, is the stuck-query deadline: if no grant
	// tightens any answer's bounds for this long, the run stops with
	// fault.ErrStuck (and a watchdog_trips metric) instead of spinning —
	// the budget-cancel of last resort for a wedged refiner.
	Watchdog time.Duration
	// OnDecided, when non-nil, is invoked synchronously from the
	// scheduling loop the moment an answer's membership is *proven*
	// (status decided-in: fewer than k answers can possibly rank above
	// it / its lower bound reached τ) — the streaming emit hook. The
	// Item snapshot carries the bounds, estimate and step counts at
	// proof time, with Selected and Decided already true and
	// DecidedAtStep recording the scheduler's cumulative step count.
	// Because answers decide in provable order, a consumer receives the
	// proven members of the selection before the scheduler finishes
	// refining the rest; borderline answers cut by estimate never fire
	// the hook and must be read from the final Result. Under Resolve the
	// post-proof refinement is not re-emitted (the final Result carries
	// the resolved estimates). The callback must not block: the
	// scheduler is stalled while it runs.
	OnDecided func(Item)
}

func (o Options) stepBudget() int {
	if o.StepBudget < 1 {
		return 4
	}
	return o.StepBudget
}

func (o Options) coreOptions() core.Options {
	return core.Options{
		Eps: o.Eps, Kind: o.Kind, Order: o.Order,
		MaxNodes: o.Budget.MaxNodes, MaxWork: o.Budget.MaxWork,
		Cache: o.Cache, Frags: o.Frags, Pool: o.Pool,
		Metrics: o.Metrics, Inject: o.Inject,
	}
}

// Item is one answer's ranking outcome.
type Item struct {
	// Index is the answer's position in the input slice.
	Index int
	// Lo and Hi bound the answer's probability at the point refinement
	// stopped for it.
	Lo, Hi float64
	// P is the confidence estimate (guarantee-respecting when the
	// refiner converged, the interval midpoint otherwise).
	P float64
	// Steps counts the leaf refinements spent on this answer.
	Steps int
	// Selected reports membership in the result (top-k set / above
	// threshold).
	Selected bool
	// Decided reports that membership was proven by bound separation
	// (or, for unselected answers, refuted). False marks a borderline
	// answer cut by its estimate after refinement bottomed out at the
	// Eps floor, a budget, or MaxSteps.
	Decided bool
	// Converged reports that P carries the Eps guarantee (the answer's
	// refiner converged). It is independent of Decided: membership is
	// often proven while the bounds are still wide, in which case P is
	// only the interval midpoint — run with Resolve to converge every
	// selected answer.
	Converged bool
	// DecidedAtStep is the scheduler's cumulative step count at the
	// moment this answer's membership was proven (zero for answers never
	// decided by bound separation). For streamed answers it is always at
	// most the run's final Result.Steps; a strict inequality proves the
	// answer was delivered before refinement of the rest finished.
	DecidedAtStep int
}

// Result is a ranking run's outcome.
type Result struct {
	// Items holds every answer's outcome, in input order.
	Items []Item
	// Ranking lists the selected answers' indices, most probable first
	// (estimate descending, input index breaking ties).
	Ranking []int
	// Steps is the total number of leaf refinements granted — the
	// scheduler's work measure, comparable against RefineAll's.
	Steps int
}

// membership status of one answer during scheduling.
type status uint8

const (
	undecided  status = iota
	decidedIn         // proven in the top-k set / above τ
	decidedOut        // proven out
)

// sched carries one ranking run: a refiner per answer plus the
// scheduling state. The decide index and pick heap are built lazily on
// first use, so RefineAll (which neither decides nor picks) never pays
// for them.
type sched struct {
	ctx    context.Context
	opt    Options
	refs   []*core.Refiner
	items  []Item
	status []status
	steps  int
	ix     *decideIndex
	ph     *widthHeap

	// Stuck-query watchdog (Options.Watchdog): lastProgress is stamped
	// whenever a grant tightens some bound; the scheduling loops check
	// it before every grant.
	wd           time.Duration
	lastProgress time.Time
}

func newSched(ctx context.Context, s *formula.Space, dnfs []formula.DNF, opt Options) *sched {
	sc := &sched{
		ctx:    ctx,
		opt:    opt,
		refs:   make([]*core.Refiner, len(dnfs)),
		items:  make([]Item, len(dnfs)),
		status: make([]status, len(dnfs)),
	}
	if opt.Watchdog > 0 {
		sc.wd = opt.Watchdog
		sc.lastProgress = time.Now()
	}
	co := opt.coreOptions()
	if co.Frags == nil {
		// Run-private fragment cache: the answers of one query share
		// lineage fragments, so even without a caller-provided cache
		// each repeated fragment prepares once per run.
		co.Frags = formula.NewFragCache(0)
	}
	for i, d := range dnfs {
		sc.refs[i] = core.NewRefiner(ctx, s, d, co)
		lo, hi := sc.refs[i].Bounds()
		sc.items[i] = Item{Index: i, Lo: lo, Hi: hi}
	}
	return sc
}

// beats reports that answer b certainly ranks above answer a under
// every probability assignment consistent with the current bounds,
// with ties broken deterministically by input index: when b.Lo == a.Hi
// the only non-beating case is an exact tie, which the lower index
// wins.
func beats(b, a *Item) bool {
	if b.Lo > a.Hi {
		return true
	}
	return b.Lo == a.Hi && b.Index < a.Index
}

// pick returns the undecided answer with the widest interval that can
// still be refined, or -1. Width ties go to the lower index. The heap
// serves this in O(1) (grants re-sift in O(log n)); pickFull is the
// retained linear reference scan.
func (sc *sched) pick() int {
	if sc.opt.fullScan {
		return sc.pickFull()
	}
	if sc.ph == nil {
		sc.ph = newWidthHeap(sc)
	}
	if len(sc.ph.idx) == 0 {
		return -1
	}
	return sc.ph.idx[0]
}

func (sc *sched) pickFull() int {
	best, bestW := -1, -1.0
	for i := range sc.items {
		if sc.status[i] != undecided || sc.refs[i].Done() {
			continue
		}
		if w := sc.items[i].Hi - sc.items[i].Lo; w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// quantum returns the next grant size — StepBudget clamped to what
// remains under MaxSteps — and whether any steps remain at all.
func (sc *sched) quantum() (int, bool) {
	q := sc.opt.stepBudget()
	if sc.opt.MaxSteps > 0 {
		rem := sc.opt.MaxSteps - sc.steps
		if rem <= 0 {
			return 0, false
		}
		if rem < q {
			q = rem
		}
	}
	return q, true
}

// grant hands the chosen answer a quantum of refinement and records
// the tightened bounds. Only context errors (and contained panics) are
// returned: a refiner exhausting its per-answer budget simply stops
// refining (the answer is later cut by estimate, like the Eps floor).
func (sc *sched) grant(i, quantum int) error {
	sc.opt.Metrics.RecordRankGrant()
	before := sc.refs[i].Steps()
	oldLo, oldHi := sc.items[i].Lo, sc.items[i].Hi
	lo, hi := sc.step(i, quantum)
	sc.steps += sc.refs[i].Steps() - before
	if sc.wd > 0 && (lo != oldLo || hi != oldHi) {
		sc.lastProgress = time.Now()
	}
	sc.items[i].Lo, sc.items[i].Hi = lo, hi
	if sc.ix != nil {
		sc.ix.update(i, oldLo, oldHi, lo, hi)
	}
	sc.ph.refile(i, sc.refs[i].Done() || sc.status[i] != undecided)
	if err := sc.refs[i].Err(); err != nil && !errors.Is(err, core.ErrBudget) {
		return err
	}
	return nil
}

// step runs one refinement quantum under a recover: a panic inside
// Step — an engine bug or an injected fault below a containment-free
// path — fails this answer's refiner and surfaces through its Err like
// a cancellation, never unwinding the scheduler (whose OnDecided hook
// yields into a consumer iterator that must not be re-entered after a
// panic).
func (sc *sched) step(i, quantum int) (lo, hi float64) {
	defer func() {
		if v := recover(); v != nil {
			pe, first := fault.Promote(v, "rank.grant")
			if first {
				sc.opt.Metrics.RecordPanicRecovered()
			}
			sc.refs[i].Abort(pe)
			lo, hi = sc.items[i].Lo, sc.items[i].Hi
		}
	}()
	lo, hi, _ = sc.refs[i].Step(quantum)
	return lo, hi
}

// checkStuck trips the watchdog when no grant has tightened any bound
// within the deadline.
func (sc *sched) checkStuck() error {
	if sc.wd <= 0 || time.Since(sc.lastProgress) <= sc.wd {
		return nil
	}
	sc.opt.Metrics.RecordWatchdogTrip()
	return fault.ErrStuck
}

// initErr surfaces a refiner that failed during preparation (contained
// panic or pre-cancelled context): such an answer can never be decided
// by refinement, so the run fails fast with its partial bounds instead
// of silently cutting the answer by a meaningless estimate.
func (sc *sched) initErr() error {
	for _, r := range sc.refs {
		if err := r.Err(); err != nil && !errors.Is(err, core.ErrBudget) {
			return err
		}
	}
	return nil
}

// estimates snapshots every answer's estimate, step count and
// convergence from its refiner.
func (sc *sched) estimates() {
	for i := range sc.items {
		res := sc.refs[i].Result()
		sc.items[i].P = res.Estimate
		sc.items[i].Converged = res.Converged
		sc.items[i].Steps = sc.refs[i].Steps()
	}
}

// sortByEstimate orders answer indices by estimate descending, index
// ascending — the deterministic output order.
func (sc *sched) sortByEstimate(idx []int) {
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := &sc.items[idx[a]], &sc.items[idx[b]]
		if ia.P != ib.P {
			return ia.P > ib.P
		}
		return ia.Index < ib.Index
	})
}

// result finalizes the ranking: marks the selected items and snapshots
// the run totals.
func (sc *sched) result(ranking []int) Result {
	for _, i := range ranking {
		sc.items[i].Selected = true
	}
	return Result{Items: sc.items, Ranking: ranking, Steps: sc.steps}
}

// resolve refines every answer in sel to its Eps floor (Resolve
// mode), still under MaxSteps.
func (sc *sched) resolve(sel []int) error {
	for _, i := range sel {
		for !sc.refs[i].Done() {
			q, ok := sc.quantum()
			if !ok {
				return nil
			}
			if err := sc.checkStuck(); err != nil {
				return err
			}
			if err := sc.grant(i, q); err != nil {
				return err
			}
		}
	}
	return nil
}

// TopK ranks the answers by confidence and returns the k most probable
// (all of them when k ≥ len(dnfs)), ties broken by input index. Bounds
// are refined only as far as membership demands: an answer proven
// in — fewer than k answers can possibly rank above it — or proven
// out — at least k answers certainly rank above it — is never refined
// again. The ordering within the selection therefore follows the
// current estimates, which for early-proven answers are only interval
// midpoints (Item.Converged false) — set Options.Resolve when the
// reported confidences (and their order) must carry the Eps guarantee.
// On a context/timeout error the partial result so far is returned
// alongside the error.
func TopK(ctx context.Context, s *formula.Space, dnfs []formula.DNF, k int, opt Options) (Result, error) {
	if k <= 0 {
		return Result{}, fmt.Errorf("rank: k must be positive, got %d", k)
	}
	return schedule(ctx, s, dnfs, opt,
		func(sc *sched) { sc.decideTopK(k) },
		func(sc *sched) []int { return sc.selectTopK(k) })
}

// Threshold returns the answers whose confidence is at least tau,
// most probable first. An answer is proven in once its lower bound
// reaches tau and proven out once its upper bound drops below it;
// answers still straddling tau at the refinement floor are cut by
// estimate (Decided false).
func Threshold(ctx context.Context, s *formula.Space, dnfs []formula.DNF, tau float64, opt Options) (Result, error) {
	return schedule(ctx, s, dnfs, opt,
		func(sc *sched) { sc.decideThreshold(tau) },
		func(sc *sched) []int { return sc.selectThreshold(tau) })
}

// schedule is the shared driver of both cut modes: run the scheduling
// loop with the mode's membership rule, decide once more from the
// final bounds, select, and optionally resolve the selection to the
// Eps floor (re-sorting, since resolution moves estimates).
func schedule(ctx context.Context, s *formula.Space, dnfs []formula.DNF, opt Options,
	decide func(*sched), sel func(*sched) []int) (Result, error) {
	ctx, cancel := opt.Budget.Context(ctx)
	defer cancel()
	sc := newSched(ctx, s, dnfs, opt)
	err := sc.initErr()
	if err == nil {
		err = sc.run(func() { decide(sc) })
	}
	decide(sc)
	sc.estimates()
	ranking := sel(sc)
	if err == nil && opt.Resolve {
		// No decide pass runs after selection: drop the index so
		// resolve-phase grants stop paying for its maintenance.
		sc.ix = nil
		err = sc.resolve(ranking)
		sc.estimates()
		sc.sortByEstimate(ranking)
	}
	return sc.result(ranking), err
}

// RefineAll is the non-pruning baseline: every answer refined to its
// Eps floor (or exactness), all answers selected, ranked by estimate.
// Its Steps total is what the schedulers are measured against.
func RefineAll(ctx context.Context, s *formula.Space, dnfs []formula.DNF, opt Options) (Result, error) {
	ctx, cancel := opt.Budget.Context(ctx)
	defer cancel()
	sc := newSched(ctx, s, dnfs, opt)
	err := sc.initErr()
loop:
	for i := range sc.refs {
		if err != nil {
			break
		}
		for !sc.refs[i].Done() {
			q, ok := sc.quantum()
			if !ok {
				break loop
			}
			if err = sc.checkStuck(); err != nil {
				break loop
			}
			if err = sc.grant(i, q); err != nil {
				break loop
			}
		}
	}
	sc.estimates()
	ranking := make([]int, 0, len(sc.items))
	for i := range sc.items {
		sc.items[i].Decided = sc.items[i].Converged
		ranking = append(ranking, i)
	}
	sc.sortByEstimate(ranking)
	return sc.result(ranking), err
}

// run is the shared scheduling loop: decide memberships from the
// current bounds, grant a refinement quantum to the widest undecided
// answer, repeat until nothing undecided can be refined (or MaxSteps /
// the context cuts the run short).
func (sc *sched) run(decide func()) error {
	for {
		if err := sc.ctx.Err(); err != nil {
			return err
		}
		if err := sc.checkStuck(); err != nil {
			return err
		}
		decide()
		q, ok := sc.quantum()
		if !ok {
			return nil
		}
		i := sc.pick()
		if i < 0 {
			return nil
		}
		if err := sc.grant(i, q); err != nil {
			return err
		}
	}
}

// decideTopK promotes undecided answers whose membership in the top-k
// set is already provable from the current intervals: out when at
// least k answers certainly rank above it, in when fewer than k
// answers possibly do. The first pass re-decides everything; after
// that, each grant tightened exactly one interval and only the
// answers that tightening can affect are re-decided, each in
// O(log n) against the sorted bound arrays — O(affected · log n) per
// grant in place of the reference full O(n²) rescan.
func (sc *sched) decideTopK(k int) {
	if sc.opt.fullScan {
		sc.decideTopKFull(k)
		return
	}
	if sc.ix == nil {
		sc.ix = newDecideIndex(sc.items, true)
		for a := range sc.items {
			if sc.status[a] == undecided {
				sc.decideOneTopK(a, k)
			}
		}
		return
	}
	for _, a := range sc.ix.drain(sc) {
		if sc.status[a] == undecided {
			sc.decideOneTopK(a, k)
		}
	}
}

// decideOneTopK re-decides a single answer from the sorted bound
// arrays: certain beaters are the answers whose Lo clears its Hi,
// possible beaters the answers whose Hi clears its Lo (beats
// tie-breaks included; the answer's own Hi > Lo entry is discounted).
func (sc *sched) decideOneTopK(a, k int) {
	it := &sc.items[a]
	if countAbove(sc.ix.los, it.Hi, a) >= k {
		sc.markOut(a)
		return
	}
	possible := countAbove(sc.ix.his, it.Lo, a)
	if it.Hi > it.Lo {
		possible-- // own entry counted among Hi > Lo
	}
	if possible < k {
		sc.markIn(a)
	}
}

// decideTopKFull is the retained reference implementation: a full
// rescan of all answer pairs.
func (sc *sched) decideTopKFull(k int) {
	n := len(sc.items)
	for a := 0; a < n; a++ {
		if sc.status[a] != undecided {
			continue
		}
		certain, possible := 0, 0
		for b := 0; b < n; b++ {
			if b == a {
				continue
			}
			switch {
			case beats(&sc.items[b], &sc.items[a]):
				certain++
				possible++
			case !beats(&sc.items[a], &sc.items[b]):
				possible++
			}
			if certain >= k {
				break // already provably out; possible no longer matters
			}
		}
		switch {
		case certain >= k:
			sc.markOut(a)
		case possible < k:
			sc.markIn(a)
		}
	}
}

// markIn records a proven membership and fires the streaming hook with
// a snapshot of the answer at proof time.
func (sc *sched) markIn(i int) {
	sc.opt.Metrics.RecordRankDecided(true)
	sc.status[i] = decidedIn
	sc.ph.remove(i)
	sc.items[i].DecidedAtStep = sc.steps
	if sc.opt.OnDecided == nil {
		return
	}
	it := sc.items[i]
	res := sc.refs[i].Result()
	it.P = res.Estimate
	it.Converged = res.Converged
	it.Steps = sc.refs[i].Steps()
	it.Selected = true
	it.Decided = true
	sc.opt.OnDecided(it)
}

// markOut records a proven non-membership (never emitted: the stream
// carries the selection only).
func (sc *sched) markOut(i int) {
	sc.opt.Metrics.RecordRankDecided(false)
	sc.status[i] = decidedOut
	sc.ph.remove(i)
	sc.items[i].DecidedAtStep = sc.steps
}

// selectTopK builds the top-k selection: proven members first, then
// borderline answers by estimate until k are chosen.
func (sc *sched) selectTopK(k int) []int {
	var in, cand []int
	for i := range sc.items {
		switch sc.status[i] {
		case decidedIn:
			sc.items[i].Decided = true
			in = append(in, i)
		case decidedOut:
			sc.items[i].Decided = true
		default:
			cand = append(cand, i)
		}
	}
	sc.sortByEstimate(cand)
	for len(in) < k && len(cand) > 0 {
		in = append(in, cand[0])
		cand = cand[1:]
	}
	sc.sortByEstimate(in)
	return in
}

// decideThreshold is event-driven like decideTopK, but a τ-cut
// decision reads only the answer's own bounds, so each grant re-checks
// exactly the granted answer — O(1) per grant after the first pass.
func (sc *sched) decideThreshold(tau float64) {
	if sc.opt.fullScan {
		sc.decideThresholdFull(tau)
		return
	}
	if sc.ix == nil {
		sc.ix = newDecideIndex(sc.items, false)
		for i := range sc.items {
			if sc.status[i] == undecided {
				sc.decideOneThreshold(i, tau)
			}
		}
		return
	}
	for _, i := range sc.ix.drain(sc) {
		if sc.status[i] == undecided {
			sc.decideOneThreshold(i, tau)
		}
	}
}

func (sc *sched) decideOneThreshold(i int, tau float64) {
	switch {
	case sc.items[i].Lo >= tau:
		sc.markIn(i)
	case sc.items[i].Hi < tau:
		sc.markOut(i)
	}
}

// decideThresholdFull is the retained reference implementation: every
// undecided answer re-checked before every grant.
func (sc *sched) decideThresholdFull(tau float64) {
	for i := range sc.items {
		if sc.status[i] != undecided {
			continue
		}
		switch {
		case sc.items[i].Lo >= tau:
			sc.markIn(i)
		case sc.items[i].Hi < tau:
			sc.markOut(i)
		}
	}
}

func (sc *sched) selectThreshold(tau float64) []int {
	var in []int
	for i := range sc.items {
		switch sc.status[i] {
		case decidedIn:
			sc.items[i].Decided = true
			in = append(in, i)
		case decidedOut:
			sc.items[i].Decided = true
		default:
			if sc.items[i].P >= tau {
				in = append(in, i)
			}
		}
	}
	sc.sortByEstimate(in)
	return in
}
