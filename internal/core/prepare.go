package core

import (
	"sync"

	"repro/internal/formula"
)

// This file holds the leaf-preparation hot path and the scratch the
// decomposition helpers share with it. Every d-tree node the compiler
// constructs starts as a prepared fragment — normalization, subsumption
// removal, and the Figure 3 heuristic bounds — and then decomposes:
// variable choice (varorder.go) and independent-and factorization
// (factor.go). On the paper-eps corpus (perfbench; seed 1, one worker,
// 2 vCPUs) a CPU profile of the map- and closure-sort-based versions of
// these helpers put the leaf bounds at 28% of samples (a stable
// closure-comparator sort alone 19%), variable choice at 18%,
// factorization at 11%, GC at 13% and the root Normalize at 7%. On
// dense epoch-stamped per-Var arrays, (probability, index) sort keys
// and tag bitmasks the shares are 24% (the radix sort 6%), 3.5%, 6%
// and 11%, the whole pass runs in about half the time, and inclusion-
// exclusion (19%) and RemoveSubsumed (14%) lead the profile. The
// mechanisms:
//
//   - a prepared-fragment cache (formula.FragCache, Options.Frags):
//     identical subformulas across the answers of a query and across
//     Shannon siblings prepare once, and the component partition a
//     later refinement needs is memoized on the entry;
//   - construction-aware shortcuts: decomposition children are
//     duplicate-free by construction (component Selects and
//     independent-and projections of a normalized parent, Shannon
//     restrictions deduplicated on the way out), and component Selects
//     are subsumption-free too, so prepare skips Normalize /
//     RemoveSubsumed passes that would be content no-ops;
//   - pooled epoch-stamped scratch (prepScratch) for every remaining
//     per-call buffer: leaf-bounds sort keys and bucket stamps, the
//     dedup tables of normalization, restriction and factorization,
//     the per-Var counts and tag ranks of the decomposition helpers,
//     and the union-find of the component partition.
//
// The original allocate-everything pipeline is retained verbatim
// behind the internal Options.refPrepare flag; the differential
// property tests in prepare_test.go prove both pipelines
// bitwise-identical across full refinement and ranking traces. The
// map-based helpers the scratch versions replaced live on as oracles
// in decompose_ref_test.go.

// prepScratch bundles the reusable buffers of leaf preparation and of
// the decomposition helpers (variable choice, independent-and
// factorization). One scratch serves one preparation or decomposition
// at a time; concurrent ones (prepareAll fanning out on the worker
// pool) draw distinct scratches from prepPool. The per-Var arrays are
// sized by the largest variable of the formula at hand, not by the
// Space.
type prepScratch struct {
	keys  []probKey     // leafBounds: (probability, clause) sort keys
	st    []uint32      // per-Var epoch stamps: bucket or seen marks
	epoch uint32        // current stamp epoch for st
	occ   []int32       // per-Var clause counts (varCounts)
	tpos  []uint8       // per-Var tag rank (tagRanks)
	vars  []formula.Var // distinct variables in first-occurrence order
	tags  []int32       // iqVariable: sorted tags of the variables
	cand  []uint64      // iqVariable: packed (occurrence, var) sort keys
	reps  [2][]int32    // trysplit: projection representatives per side

	comp  formula.CompScratch // component partition union-find
	dedup dedupTable          // root normalize, restrict dedup
	proj  [2]dedupTable       // trysplit: distinct projections per side
}

var prepPool = sync.Pool{New: func() any { return new(prepScratch) }}

// grow returns buf resliced to length n, reallocated when its capacity
// is short (contents undefined).
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// stamps returns the stamp buffer grown to cover n entries. Entries
// are validated by comparison against epochs issued by nextEpoch, so
// stale contents never need clearing.
func (sc *prepScratch) stamps(n int) []uint32 {
	sc.st = grow(sc.st, n)
	return sc.st
}

// nextEpoch starts a fresh stamp epoch. On the (once per 2^32 epochs)
// wraparound it clears the buffer's whole capacity: a later stamps(n)
// may reslice past the current length, and stale stamps there must not
// alias the restarted epochs.
func (sc *prepScratch) nextEpoch() uint32 {
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.st[:cap(sc.st)])
		sc.epoch = 1
	}
	return sc.epoch
}

// maxVar returns the largest variable of d, or -1 when d has none.
// Clauses keep their atoms sorted by variable.
func maxVar(d formula.DNF) formula.Var {
	m := formula.Var(-1)
	for _, c := range d {
		if len(c) > 0 && c[len(c)-1].Var > m {
			m = c[len(c)-1].Var
		}
	}
	return m
}

// dedupTable is a reusable open-addressing set of item indices: it
// removes duplicate clauses in first-occurrence order — the exact
// semantics of DNF.Normalize — and counts distinct clause projections
// for the independent-and factorization, without a per-call map.
type dedupTable struct {
	idx   []int32
	stamp []uint32
	epoch uint32
	mask  uint64
}

// reset empties the table and sizes it for n items.
func (t *dedupTable) reset(n int) {
	want := 2 * n
	if len(t.idx) < want || t.idx == nil {
		size := 16
		for size < want {
			size <<= 1
		}
		t.idx = make([]int32, size)
		t.stamp = make([]uint32, size)
		t.epoch = 0
		t.mask = uint64(size - 1)
	}
	t.epoch++
	if t.epoch == 0 {
		clear(t.stamp)
		t.epoch = 1
	}
}

// insert adds item i with hash h unless an item j already present
// satisfies same(j); it reports whether i was added. Equal items must
// hash alike; hash collisions are resolved by same.
func (t *dedupTable) insert(h uint64, i int, same func(j int32) bool) bool {
	slot := h & t.mask
	for t.stamp[slot] == t.epoch {
		if same(t.idx[slot]) {
			return false
		}
		slot = (slot + 1) & t.mask
	}
	t.stamp[slot] = t.epoch
	t.idx[slot] = int32(i)
	return true
}

// dedup compacts d in place (the caller owns d's backing array) and
// returns the duplicate-free prefix, preserving first occurrences in
// order. Collisions are resolved by structural comparison, so the
// result matches Normalize clause for clause.
func (t *dedupTable) dedup(d formula.DNF) formula.DNF {
	t.reset(len(d))
	out := d[:0]
	for _, c := range d {
		if t.insert(c.Hash(), len(out), func(j int32) bool { return out[j].Equal(c) }) {
			out = append(out, c)
		}
	}
	return out
}

// restrictPrepared is Shannon restriction d|v=a for a *prepared*
// (duplicate-free) d. It matches DNF.Restrict output clause for
// clause: when no surviving clause lost an atom the result is a
// subset of d and needs no deduplication at all; otherwise duplicates
// are removed in first-occurrence order over the scratch table.
func restrictPrepared(d formula.DNF, v formula.Var, a formula.Val, sc *prepScratch) formula.DNF {
	out := make(formula.DNF, 0, len(d))
	shrank := false
	for _, c := range d {
		if r, ok := c.Restrict(v, a); ok {
			if len(r) != len(c) {
				shrank = true
			}
			out = append(out, r)
		}
	}
	if !shrank || len(out) <= 1 {
		return out
	}
	return sc.dedup.dedup(out)
}

// prepVariant encodes the Options switches preparation depends on —
// the ablation flags that change the prepared form or its bounds, and
// ProbCache presence, which changes the warm work charge a cache hit
// must replay. The FragCache partitions its key space by it, so
// evaluations with different settings can share one cache.
func prepVariant(opt Options) uint8 {
	v := uint8(0)
	if opt.DisableSubsumption {
		v |= 1
	}
	if opt.DisableBucketSort {
		v |= 2
	}
	if opt.Cache == nil {
		v |= 4
	}
	return v
}

// components returns the component partition of f.d — memoized on the
// fragment-cache entry when f came through one (identical fragments
// across answers and Shannon branches partition once), computed over
// pooled union-find scratch otherwise.
func (st *state) components(f frag) [][]int {
	if f.entry != nil {
		if comps, ok := f.entry.Components(); ok {
			return comps
		}
	}
	sc := prepPool.Get().(*prepScratch)
	comps := f.d.ComponentsScratch(&sc.comp)
	prepPool.Put(sc)
	if f.entry != nil {
		f.entry.SetComponents(comps)
	}
	return comps
}

// prepareRef is the original leaf-preparation pipeline, retained
// verbatim behind Options.refPrepare as the reference for the
// differential property tests: no fragment cache, no
// construction-aware shortcuts — every fragment is re-normalized,
// re-reduced and re-bounded from scratch.
func (st *state) prepareRef(d formula.DNF) frag {
	st.work.Add(int64(len(d)))
	d = d.Normalize()
	if d.IsTrue() {
		return frag{d: d, lo: 1, hi: 1, exact: true}
	}
	if d.IsFalse() {
		return frag{d: d, lo: 0, hi: 0, exact: true}
	}
	if !st.opt.DisableSubsumption {
		d = d.RemoveSubsumed()
	}
	if len(d) == 1 {
		p := d[0].Probability(st.s)
		return frag{d: d, lo: p, hi: p, exact: true}
	}
	if len(d) <= incExcMaxClauses {
		p := st.cachedProb(d, func() float64 {
			st.work.Add(1 << len(d))
			return inclusionExclusion(st.s, d)
		})
		return frag{d: d, lo: p, hi: p, exact: true}
	}
	lo, hi, ops := leafBounds(st.s, d, !st.opt.DisableBucketSort)
	st.work.Add(int64(ops))
	return frag{d: d, lo: lo, hi: hi, exact: lo == hi}
}
