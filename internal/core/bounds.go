package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"repro/internal/formula"
)

// LeafBounds implements the Independent heuristic of Figure 3: it
// partitions the DNF into buckets of pairwise-independent clauses, computes
// the exact probability of each bucket, and returns
//
//	lo = max bucket probability,  hi = min(1, sum of bucket probabilities).
//
// Both are correct bounds on P(d) (Proposition 5.1). When sortClauses is
// true, clauses are first sorted descending on marginal probability, which
// empirically tightens the lower bound (Example 5.2); experiments disable
// it only for ablation.
//
// When the partition produces a single bucket, all clauses are pairwise
// independent and lo == hi == P(d) exactly.
func LeafBounds(s *formula.Space, d formula.DNF, sortClauses bool) (lo, hi float64) {
	lo, hi, _ = leafBounds(s, d, sortClauses)
	return lo, hi
}

// leafBounds additionally reports the number of clause-processing
// operations performed, which the incremental algorithm charges against
// its work budget (the heuristic is the quadratic part of the paper's
// cost analysis). It draws scratch buffers from the preparation pool;
// leafBoundsScratch is the same computation over caller-owned scratch.
func leafBounds(s *formula.Space, d formula.DNF, sortClauses bool) (lo, hi float64, ops int) {
	sc := prepPool.Get().(*prepScratch)
	lo, hi, ops = leafBoundsScratch(s, d, sortClauses, sc)
	prepPool.Put(sc)
	return lo, hi, ops
}

// probKey is a clause's sort key in the Figure 3 heuristic: its
// marginal probability and its index in the DNF.
type probKey struct {
	p float64
	i int32
}

// leafBoundsScratch is the allocation-free heart of the Figure 3
// heuristic: all per-call bookkeeping (the clause sort keys and the
// per-bucket variable stamps) lives in sc and is reused across calls.
//
// Clauses are visited in descending probability, ties by ascending
// index: the unique total order a stable sort on probability alone
// yields, so an unstable sort over (probability, index) keys reproduces
// it exactly. Each bucket pass then keeps only the clauses it did not
// absorb, in order, so later passes never rescan absorbed clauses; ops
// still counts one per unabsorbed clause per pass. The arithmetic and
// its order are those of the original implementation, so the bounds are
// bitwise-identical.
func leafBoundsScratch(s *formula.Space, d formula.DNF, sortClauses bool, sc *prepScratch) (lo, hi float64, ops int) {
	switch {
	case d.IsFalse():
		return 0, 0, 0
	case d.IsTrue():
		return 1, 1, 0
	case len(d) == 1:
		p := d[0].Probability(s)
		return p, p, 1
	}

	sc.keys = grow(sc.keys, 2*len(d))
	rest, tmp := sc.keys[:len(d)], sc.keys[len(d):]
	for i, c := range d {
		rest[i] = probKey{c.Probability(s), int32(i)}
	}
	switch {
	case !sortClauses:
	case len(rest) >= radixSortMin:
		rest = radixSortKeys(rest, tmp)
	default:
		slices.SortFunc(rest, func(a, b probKey) int {
			switch {
			case a.p > b.p:
				return -1
			case a.p < b.p:
				return 1
			}
			return cmp.Compare(a.i, b.i)
		})
	}

	inBucket := sc.stamps(int(maxVar(d)) + 1) // epoch stamps, one bucket per epoch
	sum := 0.0
	buckets := 0
	for len(rest) > 0 {
		// Start a bucket with the most probable remaining clause, then
		// absorb every later remaining clause independent of the bucket
		// so far; the others stay, in order, for the next bucket.
		epoch := sc.nextEpoch()
		q := 1.0 // Π (1 − P(clause)) over the bucket
		kept := rest[:0]
		for j, k := range rest {
			c := d[k.i]
			if j > 0 && !disjointStamp(c, inBucket, epoch) {
				kept = append(kept, k)
				continue
			}
			for _, a := range c {
				inBucket[a.Var] = epoch
			}
			q *= 1 - k.p
		}
		ops += len(rest)
		rest = kept
		bp := 1 - q
		if bp > lo {
			lo = bp
		}
		sum += bp
		buckets++
		// Once the bucket sum reaches 1 the upper bound is already
		// clamped to 1, and the first (greedy, highest-probability)
		// buckets dominate the lower bound: further partitioning cannot
		// improve the upper bound, so stop. Bounds remain correct
		// (Proposition 5.1 holds for any bucket subset with hi = 1).
		if sum >= 1 && buckets >= 2 && len(rest) > 0 {
			return lo, 1, ops
		}
	}
	if buckets == 1 {
		// All clauses pairwise independent: the bucket probability is exact.
		return lo, lo, ops
	}
	hi = sum
	if hi > 1 {
		hi = 1
	}
	if hi < lo {
		hi = lo // numeric guard; mathematically lo ≤ hi always
	}
	return lo, hi, ops
}

// radixSortMin is the clause count from which leafBoundsScratch sorts
// by radix instead of pdqsort. The radix sort pays a fixed ~2.5 µs for
// its histograms (pdqsort sorts 4 keys in 60 ns), breaks even at about
// 256 keys and is 2.5× faster at 1024 (2-vCPU Xeon). Both sides
// matter: on the paper-eps corpus 95% of leaf-bound calls sort fewer
// than 256 clauses, but the other 5% hold 85% of the n·log n work.
const radixSortMin = 256

// radixSortKeys sorts keys, which arrive in index order, into
// descending probability, ties by ascending index: a stable LSD radix
// sort on the complemented float bits (probabilities are non-negative,
// so their bits order like their values), skipping the byte positions
// all keys share. It returns the sorted slice, keys or tmp (of equal
// length).
func radixSortKeys(keys, tmp []probKey) []probKey {
	var hist [8][256]int32
	for _, k := range keys {
		u := ^math.Float64bits(k.p)
		for b := range hist {
			hist[b][byte(u>>(8*b))]++
		}
	}
	src, dst := keys, tmp
	for b := range hist {
		h := &hist[b]
		if int(h[byte(^math.Float64bits(src[0].p)>>(8*b))]) == len(src) {
			continue
		}
		sum := int32(0)
		for j, n := range h {
			h[j], sum = sum, sum+n
		}
		for _, k := range src {
			digit := byte(^math.Float64bits(k.p) >> (8 * b))
			dst[h[digit]] = k
			h[digit]++
		}
		src, dst = dst, src
	}
	return src
}

// incExcMaxClauses bounds the inclusion-exclusion shortcut: DNFs with at
// most this many clauses get an exact probability at leaf-preparation
// time (2^k clause merges), collapsing the deep tail of Shannon
// enumeration into point intervals. This implements the spirit of
// Remark 5.3 (better leaf bounds) with an exact, cheap special case.
const incExcMaxClauses = 6

// inclusionExclusion computes P(d) exactly via
// P(∨ c_i) = Σ_{∅≠S} (−1)^{|S|+1} P(∧_{i∈S} c_i); inconsistent
// conjunctions contribute 0. Cost O(2^k · width), allocation-free: the
// conjunction probability is computed by a k-way merge scan over the
// (sorted) selected clauses.
func inclusionExclusion(s *formula.Space, d formula.DNF) float64 {
	n := len(d)
	var pos [incExcMaxClauses]int
	total := 0.0
	for mask := 1; mask < 1<<n; mask++ {
		for b := 0; b < n; b++ {
			pos[b] = 0
		}
		p := 1.0
		ok := true
		for {
			// Find the smallest next variable across selected clauses.
			best := formula.Var(-1)
			for b := 0; b < n; b++ {
				if mask&(1<<b) == 0 || pos[b] >= len(d[b]) {
					continue
				}
				if v := d[b][pos[b]].Var; best < 0 || v < best {
					best = v
				}
			}
			if best < 0 {
				break
			}
			// All selected clauses mentioning best must agree on its value.
			val := formula.Val(-1)
			for b := 0; b < n; b++ {
				if mask&(1<<b) == 0 || pos[b] >= len(d[b]) || d[b][pos[b]].Var != best {
					continue
				}
				if val < 0 {
					val = d[b][pos[b]].Val
				} else if d[b][pos[b]].Val != val {
					ok = false
				}
				pos[b]++
			}
			if !ok {
				break
			}
			p *= s.P(formula.Atom{Var: best, Val: val})
		}
		if !ok {
			continue
		}
		if bits.OnesCount(uint(mask))%2 == 1 {
			total += p
		} else {
			total -= p
		}
	}
	return clamp01(total)
}

func disjointStamp(c formula.Clause, stamps []uint32, epoch uint32) bool {
	for _, a := range c {
		if stamps[a.Var] == epoch {
			return false
		}
	}
	return true
}

// ApproxCond reports whether bounds [lo, hi] satisfy the sufficient
// condition of Proposition 5.8 for an ε-approximation:
//
//	absolute: hi − lo ≤ 2ε
//	relative: (1−ε)·hi − (1+ε)·lo ≤ 0
//
// A 1e-12 slack absorbs floating-point rounding at exact boundaries
// (e.g. bounds [0.842, 0.848] with ε = 0.003 in Example 5.9).
func ApproxCond(kind ErrorKind, eps, lo, hi float64) bool {
	const tol = 1e-12
	if kind == Absolute {
		return hi-lo-2*eps <= tol
	}
	return (1-eps)*hi-(1+eps)*lo <= tol
}

// EstimateFrom returns a value guaranteed to be an ε-approximation given
// bounds satisfying ApproxCond: the midpoint of the interval of valid
// ε-approximations from Proposition 5.8, clamped to [0, 1].
func EstimateFrom(kind ErrorKind, eps, lo, hi float64) float64 {
	var est float64
	if kind == Absolute {
		est = ((hi - eps) + (lo + eps)) / 2 // == (lo+hi)/2
	} else {
		est = ((1-eps)*hi + (1+eps)*lo) / 2
	}
	return clamp01(est)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
