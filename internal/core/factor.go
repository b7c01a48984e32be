package core

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/formula"
)

// maxFactorTags bounds the subset enumeration in independent-and
// factorization. Lineage of conjunctive queries has one tag per joined
// relation, so real workloads stay far below this.
const maxFactorTags = 16

// independentAndParts attempts the ⊙ decomposition of Figure 1: partition
// d into pairwise-independent DNFs Φ1..Φk with d ≡ Φ1 ∧ ... ∧ Φk.
//
// For relational encodings of DNFs (each variable tagged with the relation
// it annotates) the factorization is unique [22]; we search it by grouping
// variables by relation tag and testing, for tag subsets S, whether the
// projections of the clauses onto S and its complement form an exact
// cross product. It returns nil when no factorization exists (including
// when variables are untagged).
//
// Tags are handled by rank: each variable is mapped once to its tag's
// position among d's sorted distinct tags, and a tag set is a bitmask
// over those positions.
func independentAndParts(s *formula.Space, d formula.DNF) []formula.DNF {
	if len(d) < 2 {
		return nil
	}
	sc := prepPool.Get().(*prepScratch)
	defer prepPool.Put(sc)
	all, ok := sc.tagRanks(s, d)
	if !ok {
		return nil
	}
	parts := factorRec(d, all, sc)
	if len(parts) < 2 {
		return nil
	}
	return parts
}

// tagRanks sets sc.tpos[v], for every variable v of d, to the rank of
// v's tag among d's sorted distinct tags and returns the mask of all
// ranks. ok is false when a variable is untagged or d spans fewer than
// 2 or more than maxFactorTags tags.
func (sc *prepScratch) tagRanks(s *formula.Space, d formula.DNF) (all uint32, ok bool) {
	n := int(maxVar(d)) + 1
	seen := sc.stamps(n)
	sc.tpos = grow(sc.tpos, n)
	epoch := sc.nextEpoch()
	var tags [maxFactorTags]int32 // in first-occurrence order
	nt := 0
	vars := sc.vars[:0]
	for _, c := range d {
		for _, a := range c {
			if seen[a.Var] == epoch {
				continue
			}
			seen[a.Var] = epoch
			tag := s.Tag(a.Var)
			if tag == formula.NoTag {
				return 0, false
			}
			k := slices.Index(tags[:nt], tag)
			if k < 0 {
				if nt == maxFactorTags {
					return 0, false
				}
				k = nt
				tags[nt] = tag
				nt++
			}
			sc.tpos[a.Var] = uint8(k)
			vars = append(vars, a.Var)
		}
	}
	sc.vars = vars
	if nt < 2 {
		return 0, false
	}
	var rank [maxFactorTags]uint8 // first-occurrence index → sorted rank
	for k, tag := range tags[:nt] {
		for _, t := range tags[:nt] {
			if t < tag {
				rank[k]++
			}
		}
	}
	for _, v := range vars {
		sc.tpos[v] = rank[sc.tpos[v]]
	}
	return 1<<nt - 1, true
}

// factorRec factorizes d (whose variables span exactly the tag ranks in
// tags) into maximally many independent conjuncts, returning a
// single-element slice if d is not factorizable.
func factorRec(d formula.DNF, tags uint32, sc *prepScratch) []formula.DNF {
	n := bits.OnesCount32(tags)
	if n < 2 {
		return []formula.DNF{d}
	}
	// Enumerate proper subsets S of tags that contain the lowest tag
	// (fixing it halves the search and avoids mirror splits), smallest
	// subsets first so single relations split off eagerly, and subsets of
	// one size in increasing mask order: the lowest tag plus k of the
	// n-1 others, taken as the increasing k-bit combinations of n-1 bits
	// deposited onto the others' positions (which keeps their order).
	first := tags & -tags
	others := tags &^ first
	for k := 0; k < n-1; k++ {
		for sub := uint32(1)<<k - 1; sub < 1<<(n-1); sub = nextCombination(sub) {
			inS := first | deposit(sub, others)
			a, b, ok := trysplit(d, inS, sc)
			if !ok {
				continue
			}
			out := factorRec(a, inS, sc)
			return append(out, factorRec(b, tags&^inS, sc)...)
		}
	}
	return []formula.DNF{d}
}

// nextCombination returns the next integer above x with as many set
// bits (Gosper's hack); 0 has none, so it ends the enumeration.
func nextCombination(x uint32) uint32 {
	if x == 0 {
		return math.MaxUint32
	}
	c := x & -x
	r := x + c
	return ((r^x)>>2)/c | r
}

// deposit scatters the low bits of sub onto the set bits of mask, in
// order: bit j of sub lands on the j-th set bit of mask.
func deposit(sub, mask uint32) uint32 {
	var out uint32
	for ; mask != 0; mask &= mask - 1 {
		if sub&1 != 0 {
			out |= mask & -mask
		}
		sub >>= 1
	}
	return out
}

// trysplit tests whether d ≡ (∨ A) ∧ (∨ B) where A and B are the distinct
// projections of d's clauses onto the tag ranks in inS and its
// complement (sc.tpos maps variables to ranks). The test is the
// exact-cross-product check: the number of distinct (projection,
// co-projection) pairs must equal |A|·|B|; since the pairs are a subset
// of A×B and clauses are distinct, equality of counts implies the pair
// set is all of A×B.
func trysplit(d formula.DNF, inS uint32, sc *prepScratch) (a, b formula.DNF, ok bool) {
	// Since d is duplicate-free, distinct clauses yield distinct
	// (projection, co-projection) pairs, so |pairs| = |d| and the exact
	// cross-product condition |pairs| = |A|·|B| reduces to
	// |A|·|B| = |d|. Count the distinct projections of both sides in one
	// pass with order-independent hashing (collisions resolved by
	// structural comparison against a representative clause),
	// materializing nothing on the common failure path. Both counts only
	// grow, so the scan aborts as soon as their product exceeds |d|.
	pos := sc.tpos
	// Per side (1: inS, 0: its complement), the first clause of each
	// distinct projection, in order.
	var reps [2][]int32
	for side := range reps {
		sc.proj[side].reset(len(d))
		reps[side] = sc.reps[side][:0]
	}
	for ci, c := range d {
		h := [2]uint64{0x5bd1e995, 0x5bd1e995}
		var w [2]uint64
		for _, at := range c {
			side := inS >> pos[at.Var] & 1
			h[side] ^= formula.AtomHash(at)
			w[side]++
		}
		for side := range reps {
			same := func(ri int32) bool { return projEqual(c, d[ri], pos, inS, uint32(side)) }
			if sc.proj[side].insert(h[side]+w[side]*0x100000001b3, ci, same) {
				reps[side] = append(reps[side], int32(ci))
			}
		}
		if len(reps[0])*len(reps[1]) > len(d) {
			break
		}
	}
	sc.reps = reps
	if len(reps[0])*len(reps[1]) != len(d) {
		return nil, nil, false
	}
	// The representatives' projections are the distinct projections in
	// first-occurrence order.
	return project(d, reps[1], pos, inS, 1), project(d, reps[0], pos, inS, 0), true
}

// project returns the projections of the clauses d[i], i in idx, onto
// the side (1: the tag ranks in inS, 0: the others), over one backing
// array.
func project(d formula.DNF, idx []int32, pos []uint8, inS, side uint32) formula.DNF {
	atoms := 0
	for _, i := range idx {
		for _, at := range d[i] {
			if inS>>pos[at.Var]&1 == side {
				atoms++
			}
		}
	}
	buf := make([]formula.Atom, 0, atoms)
	out := make(formula.DNF, len(idx))
	for k, i := range idx {
		start := len(buf)
		for _, at := range d[i] {
			if inS>>pos[at.Var]&1 == side {
				buf = append(buf, at)
			}
		}
		out[k] = buf[start:len(buf):len(buf)]
	}
	return out
}

// projEqual compares the projections of c1 and c2 onto the side (1: the
// tag ranks in inS, 0: the others) without materializing them.
func projEqual(c1, c2 formula.Clause, pos []uint8, inS, side uint32) bool {
	i, j := 0, 0
	for {
		for i < len(c1) && inS>>pos[c1[i].Var]&1 != side {
			i++
		}
		for j < len(c2) && inS>>pos[c2[j].Var]&1 != side {
			j++
		}
		if i >= len(c1) || j >= len(c2) {
			return i >= len(c1) && j >= len(c2)
		}
		if c1[i] != c2[j] {
			return false
		}
		i++
		j++
	}
}
