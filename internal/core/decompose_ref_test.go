package core

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/formula"
	"repro/internal/randdnf"
)

// This file holds the map-based reference implementations of the
// decomposition helpers (variable choice, independent-and factorization)
// and the stable-sort leaf-bounds order that the scratch-based production
// helpers replaced, together with the differential property test that
// proves them equal: same chosen variable, same factor parts in order,
// bitwise-equal (lo, hi, ops).

// leafBoundsRef is the Figure 3 heuristic over freshly allocated
// buffers, clause order fixed by a stable sort on descending marginal
// probability and the used set rescanned on every bucket.
func leafBoundsRef(s *formula.Space, d formula.DNF, sortClauses bool) (lo, hi float64, ops int) {
	switch {
	case d.IsFalse():
		return 0, 0, 0
	case d.IsTrue():
		return 1, 1, 0
	case len(d) == 1:
		p := d[0].Probability(s)
		return p, p, 1
	}
	probs := make([]float64, len(d))
	for i, c := range d {
		probs[i] = c.Probability(s)
	}
	order := make([]int, len(d))
	for i := range order {
		order[i] = i
	}
	if sortClauses {
		slices.SortStableFunc(order, func(a, b int) int {
			switch {
			case probs[a] > probs[b]:
				return -1
			case probs[a] < probs[b]:
				return 1
			}
			return 0
		})
	}
	maxVar := formula.Var(-1)
	for _, c := range d {
		if len(c) > 0 && c[len(c)-1].Var > maxVar {
			maxVar = c[len(c)-1].Var
		}
	}
	inBucket := make([]uint32, maxVar+1)
	used := make([]bool, len(d))
	remaining := len(d)
	sum := 0.0
	buckets := 0
	for remaining > 0 {
		epoch := uint32(buckets + 1)
		q := 1.0
		started := false
		for _, i := range order {
			if used[i] {
				continue
			}
			ops++
			c := d[i]
			if started && !disjointStamp(c, inBucket, epoch) {
				continue
			}
			for _, a := range c {
				inBucket[a.Var] = epoch
			}
			q *= 1 - probs[i]
			used[i] = true
			remaining--
			started = true
		}
		bp := 1 - q
		if bp > lo {
			lo = bp
		}
		sum += bp
		buckets++
		if sum >= 1 && buckets >= 2 && remaining > 0 {
			return lo, 1, ops
		}
	}
	if buckets == 1 {
		return lo, lo, ops
	}
	hi = sum
	if hi > 1 {
		hi = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi, ops
}

// chooseVarRef is chooseVar over the reference helpers.
func chooseVarRef(s *formula.Space, d formula.DNF, order VarOrder) formula.Var {
	if order == OrderAuto {
		if v, ok := iqVariableRef(s, d); ok {
			return v
		}
	}
	return mostFrequentVarRef(d)
}

// mostFrequentVarRef returns a variable occurring in the most clauses of d.
func mostFrequentVarRef(d formula.DNF) formula.Var {
	counts := make(map[formula.Var]int)
	for _, c := range d {
		for _, a := range c {
			counts[a.Var]++
		}
	}
	best := formula.Var(-1)
	bestN := -1
	for v, n := range counts {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

// iqVariableRef implements the variable choice of Lemma 6.8 for DNFs of IQ
// queries: it looks for a variable v from relation Ri that occurs in
// clauses of Φ together with all variables of every other relation Rj.
// Eliminating such a variable first makes its co-factor subsume Φ|v, which
// is what keeps the d-tree polynomial for IQ queries (Theorem 6.9).
//
// Following the paper, it counts the distinct variables per relation in Φ,
// then redoes the count restricted to clauses containing a candidate x; if
// the restricted counts match the unrestricted ones for every relation
// other than x's own, x is chosen. Candidates are tried in descending
// frequency so the successful variable (which by construction co-occurs
// with many variables) is found early.
func iqVariableRef(s *formula.Space, d formula.DNF) (formula.Var, bool) {
	// Total distinct-variable counts per tag; bail out if any variable is
	// untagged or only one relation is present (the rule needs >= 2).
	total := make(map[int32]int)
	seen := make(map[formula.Var]int32)
	occ := make(map[formula.Var]int)
	for _, c := range d {
		for _, a := range c {
			occ[a.Var]++
			if _, ok := seen[a.Var]; ok {
				continue
			}
			tag := s.Tag(a.Var)
			if tag == formula.NoTag {
				return 0, false
			}
			seen[a.Var] = tag
			total[tag]++
		}
	}
	if len(total) < 2 {
		return 0, false
	}

	candidates := make([]formula.Var, 0, len(seen))
	for v := range seen {
		candidates = append(candidates, v)
	}
	sort.Slice(candidates, func(i, j int) bool {
		a, b := candidates[i], candidates[j]
		if occ[a] != occ[b] {
			return occ[a] > occ[b]
		}
		return a < b
	})

	restricted := make(map[int32]map[formula.Var]struct{}, len(total))
	for _, x := range candidates {
		// A variable co-occurring with all others must appear in at least
		// as many clauses as the largest other relation has variables; a
		// cheap necessary condition that prunes most candidates.
		maxOther := 0
		for tag, n := range total {
			if tag != seen[x] && n > maxOther {
				maxOther = n
			}
		}
		if occ[x] < maxOther {
			continue
		}
		for tag := range total {
			if m := restricted[tag]; m != nil {
				clear(m)
			} else {
				restricted[tag] = make(map[formula.Var]struct{})
			}
		}
		for _, c := range d {
			if _, ok := c.Lookup(x); !ok {
				continue
			}
			for _, a := range c {
				restricted[seen[a.Var]][a.Var] = struct{}{}
			}
		}
		ok := true
		for tag, n := range total {
			if tag == seen[x] {
				continue
			}
			if len(restricted[tag]) != n {
				ok = false
				break
			}
		}
		if ok {
			return x, true
		}
	}
	return 0, false
}

// independentAndPartsRef attempts the ⊙ decomposition of Figure 1: partition
// d into pairwise-independent DNFs Φ1..Φk with d ≡ Φ1 ∧ ... ∧ Φk.
//
// For relational encodings of DNFs (each variable tagged with the relation
// it annotates) the factorization is unique [22]; we search it by grouping
// variables by relation tag and testing, for tag subsets S, whether the
// projections of the clauses onto S and its complement form an exact
// cross product. It returns nil when no factorization exists (including
// when variables are untagged).
func independentAndPartsRef(s *formula.Space, d formula.DNF) []formula.DNF {
	if len(d) < 2 {
		return nil
	}
	tagSet := make(map[int32]struct{})
	for _, c := range d {
		for _, a := range c {
			tag := s.Tag(a.Var)
			if tag == formula.NoTag {
				return nil
			}
			tagSet[tag] = struct{}{}
		}
	}
	if len(tagSet) < 2 || len(tagSet) > maxFactorTags {
		return nil
	}
	tags := make([]int32, 0, len(tagSet))
	for t := range tagSet {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })

	parts := factorRecRef(s, d, tags)
	if len(parts) < 2 {
		return nil
	}
	return parts
}

// factorRecRef factorizes d (whose variables span exactly the given tags)
// into maximally many independent conjuncts, returning a single-element
// slice if d is not factorizable.
func factorRecRef(s *formula.Space, d formula.DNF, tags []int32) []formula.DNF {
	if len(tags) < 2 {
		return []formula.DNF{d}
	}
	// Enumerate proper subsets S of tags that contain tags[0] (fixing the
	// first tag halves the search and avoids mirror splits), smallest
	// subsets first so single relations split off eagerly.
	n := len(tags)
	type split struct {
		mask int
		bits int
	}
	splits := make([]split, 0, 1<<(n-1))
	for mask := 1; mask < 1<<n; mask += 2 { // bit 0 always set
		if mask == (1<<n)-1 {
			continue // improper
		}
		splits = append(splits, split{mask, bits.OnesCount(uint(mask))})
	}
	sort.Slice(splits, func(i, j int) bool {
		if splits[i].bits != splits[j].bits {
			return splits[i].bits < splits[j].bits
		}
		return splits[i].mask < splits[j].mask
	})
	for _, sp := range splits {
		inS := make(map[int32]bool, n)
		for b := 0; b < n; b++ {
			if sp.mask&(1<<b) != 0 {
				inS[tags[b]] = true
			}
		}
		a, b, ok := trysplitRef(s, d, inS)
		if !ok {
			continue
		}
		var sTags, cTags []int32
		for _, t := range tags {
			if inS[t] {
				sTags = append(sTags, t)
			} else {
				cTags = append(cTags, t)
			}
		}
		out := factorRecRef(s, a, sTags)
		out = append(out, factorRecRef(s, b, cTags)...)
		return out
	}
	return []formula.DNF{d}
}

// trysplitRef tests whether d ≡ (∨ A) ∧ (∨ B) where A and B are the distinct
// projections of d's clauses onto the tags in inS and its complement. The
// test is the exact-cross-product check: the number of distinct
// (projection, co-projection) pairs must equal |A|·|B|; since the pairs
// are a subset of A×B and clauses are distinct, equality of counts implies
// the pair set is all of A×B.
func trysplitRef(s *formula.Space, d formula.DNF, inS map[int32]bool) (a, b formula.DNF, ok bool) {
	// Since d is duplicate-free, distinct clauses yield distinct
	// (projection, co-projection) pairs, so |pairs| = |d| and the exact
	// cross-product condition |pairs| = |A|·|B| reduces to
	// |A|·|B| = |d|. Count the distinct projections of both sides in one
	// pass with order-independent hashing (collisions resolved by
	// structural comparison against a representative clause),
	// materializing nothing on the common failure path. Both counts only
	// grow, so the scan aborts as soon as their product exceeds |d|.
	repsA := make(map[uint64][]int, 16)
	repsB := make(map[uint64][]int, 16)
	nA, nB := 0, 0
	for ci, c := range d {
		var hA, hB uint64 = 0x5bd1e995, 0x5bd1e995
		wA, wB := 0, 0
		for _, at := range c {
			if inS[s.Tag(at.Var)] {
				hA ^= formula.AtomHash(at)
				wA++
			} else {
				hB ^= formula.AtomHash(at)
				wB++
			}
		}
		hA += uint64(wA) * 0x100000001b3
		hB += uint64(wB) * 0x100000001b3
		if addProjectionRepRef(s, d, repsA, hA, ci, inS, true) {
			nA++
		}
		if addProjectionRepRef(s, d, repsB, hB, ci, inS, false) {
			nB++
		}
		if nA*nB > len(d) {
			return nil, nil, false
		}
	}
	if nA*nB != len(d) {
		return nil, nil, false
	}

	var aParts, bParts []formula.Clause
	aKeys := make(map[uint64][]int, nA)
	bKeys := make(map[uint64][]int, nB)
	intern := func(c formula.Clause, keys map[uint64][]int, parts *[]formula.Clause) {
		h := c.Hash()
		for _, i := range keys[h] {
			if (*parts)[i].Equal(c) {
				return
			}
		}
		keys[h] = append(keys[h], len(*parts))
		*parts = append(*parts, c)
	}
	for _, c := range d {
		var ca, cb formula.Clause
		for _, at := range c {
			if inS[s.Tag(at.Var)] {
				ca = append(ca, at)
			} else {
				cb = append(cb, at)
			}
		}
		intern(ca, aKeys, &aParts)
		intern(cb, bKeys, &bParts)
	}
	return formula.DNF(aParts), formula.DNF(bParts), true
}

// addProjectionRepRef records clause ci as a representative of its
// projection hash if no existing representative has an equal projection;
// it reports whether a new distinct projection was added.
func addProjectionRepRef(s *formula.Space, d formula.DNF, reps map[uint64][]int, h uint64, ci int, inS map[int32]bool, side bool) bool {
	for _, ri := range reps[h] {
		if projEqualRef(s, d[ci], d[ri], inS, side) {
			return false
		}
	}
	reps[h] = append(reps[h], ci)
	return true
}

// projEqualRef compares the projections of c1 and c2 onto the side's tags
// without materializing them.
func projEqualRef(s *formula.Space, c1, c2 formula.Clause, inS map[int32]bool, side bool) bool {
	i, j := 0, 0
	for {
		for i < len(c1) && inS[s.Tag(c1[i].Var)] != side {
			i++
		}
		for j < len(c2) && inS[s.Tag(c2[j].Var)] != side {
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

// mostFrequentOf and iqVariableOf run the production variable-choice
// helpers on fresh scratch.
func mostFrequentOf(d formula.DNF) formula.Var {
	sc := new(prepScratch)
	return mostFrequentVar(sc.varCounts(d), sc.occ)
}

func iqVariableOf(s *formula.Space, d formula.DNF) (formula.Var, bool) {
	sc := new(prepScratch)
	return iqVariable(s, d, sc.varCounts(d), sc)
}

// uniformSpace returns a copy of s's variables (domains and tags) with
// uniform distributions, so equal-width clauses tie on probability.
func uniformSpace(s *formula.Space) *formula.Space {
	u := formula.NewSpace()
	for v := formula.Var(0); int(v) < s.NumVars(); v++ {
		dist := make([]float64, s.DomainSize(v))
		for a := range dist {
			dist[a] = 1 / float64(len(dist))
		}
		if tag := s.Tag(v); tag != formula.NoTag {
			u.AddVarTagged(tag, dist...)
		} else {
			u.AddVar(dist...)
		}
	}
	return u
}

// productDNF expands a conjunction of per-tag random disjunctions: a
// formula the independent-and factorization must split.
func productDNF(seed int64) (*formula.Space, formula.DNF) {
	rng := rand.New(rand.NewSource(seed))
	s := formula.NewSpace()
	d := formula.DNF{formula.Clause{}}
	for tag := int32(0); tag < int32(2+rng.Intn(3)); tag++ {
		vars := make([]formula.Var, 2+rng.Intn(3))
		for i := range vars {
			vars[i] = s.AddBoolTagged(0.1+0.8*rng.Float64(), 10-3*tag)
		}
		var disj formula.DNF
		for len(disj) < 1+rng.Intn(3) {
			c, ok := formula.NewClause(formula.Pos(vars[rng.Intn(len(vars))]), formula.Pos(vars[rng.Intn(len(vars))]))
			if ok {
				disj = append(disj, c)
			}
		}
		d = d.And(disj.Normalize())
	}
	return s, d.Normalize()
}

type refCase struct {
	s *formula.Space
	d formula.DNF
}

// refCorpus is the differential-test corpus: seeded randdnf formulas
// untagged and tagged (TagEvery 2..5, so the IQ rule and the
// factorization run), small ones and ones long enough for the radix
// sort, each also over uniform distributions (ties in clause
// probability on top of the ties in occurrence counts small formulas
// have anyway); factorizable products; and X<Y IQ lineage.
func refCorpus() []refCase {
	var out []refCase
	add := func(s *formula.Space, d formula.DNF) { out = append(out, refCase{s, d}) }
	for seed := int64(1); seed <= 120; seed++ {
		cfg := randdnf.Config{
			Vars:     4 + int(seed%9)*3,
			Clauses:  3 + int(seed%13)*3,
			MaxWidth: 1 + int(seed%4),
			MinProb:  0.05,
			MaxProb:  0.95,
		}
		if seed%3 == 0 {
			cfg.MaxDomain = 3
		}
		if seed%2 == 0 {
			cfg.TagEvery = 2 + int(seed/2)%4
		}
		s, d := randdnf.Generate(cfg, seed)
		add(s, d)
		add(uniformSpace(s), d)
	}
	for seed := int64(1); seed <= 6; seed++ { // past radixSortMin clauses
		cfg := randdnf.Config{Vars: 60 * int(seed), Clauses: 150 * int(seed), MaxWidth: 3, TagEvery: int(seed % 3)}
		s, d := randdnf.Generate(cfg, seed)
		add(s, d)
		add(uniformSpace(s), d)
	}
	for seed := int64(1); seed <= 40; seed++ {
		add(productDNF(seed))
	}
	for n := 2; n <= 6; n++ {
		s, d, _, _ := iqLineage(n, n+1)
		add(s, d)
	}
	return out
}

// TestDecompositionHelpersMatchReference runs the scratch-based helpers
// and their map-based references over every formula of the corpus and
// over its Shannon restrictions, three levels deep: same chosen
// variable under both orders, same IQ verdict, same factor parts in
// order, bitwise-equal leaf bounds and op counts — with one scratch
// reused throughout, as the pool reuses them. Formulas of at most 12
// variables are also checked against brute force: the leaf bounds
// bracket the probability and the factor parts multiply to it.
func TestDecompositionHelpersMatchReference(t *testing.T) {
	sc := new(prepScratch)
	checked, factored, iq, brute := 0, 0, 0, 0
	var walk func(s *formula.Space, d formula.DNF, depth int)
	walk = func(s *formula.Space, d formula.DNF, depth int) {
		if len(d) == 0 || d.IsTrue() {
			return
		}
		checked++
		for _, sorted := range []bool{true, false} {
			for _, f := range []formula.DNF{d, d.RemoveSubsumed()} {
				lo, hi, ops := leafBoundsScratch(s, f, sorted, sc)
				rlo, rhi, rops := leafBoundsRef(s, f, sorted)
				if math.Float64bits(lo) != math.Float64bits(rlo) || math.Float64bits(hi) != math.Float64bits(rhi) || ops != rops {
					t.Fatalf("leaf bounds (sorted=%v) of %s: got (%v, %v, %d), reference (%v, %v, %d)", sorted, f.String(s), lo, hi, ops, rlo, rhi, rops)
				}
			}
		}
		v, ok := iqVariableOf(s, d)
		rv, rok := iqVariableRef(s, d)
		if v != rv || ok != rok {
			t.Fatalf("iqVariable of %s: got (%d, %v), reference (%d, %v)", d.String(s), v, ok, rv, rok)
		}
		if ok {
			iq++
		}
		if got, want := mostFrequentOf(d), mostFrequentVarRef(d); got != want {
			t.Fatalf("mostFrequentVar of %s: got %d, reference %d", d.String(s), got, want)
		}
		for _, order := range []VarOrder{OrderAuto, OrderMostFrequent} {
			if got, want := chooseVar(s, d, order), chooseVarRef(s, d, order); got != want {
				t.Fatalf("chooseVar(%d) of %s: got %d, reference %d", order, d.String(s), got, want)
			}
		}
		parts, rparts := independentAndParts(s, d), independentAndPartsRef(s, d)
		if !slices.EqualFunc(parts, rparts, func(a, b formula.DNF) bool {
			return slices.EqualFunc(a, b, formula.Clause.Equal)
		}) {
			t.Fatalf("factor parts of %s: got %v, reference %v", d.String(s), parts, rparts)
		}
		if parts != nil {
			factored++
		}
		if len(d.Vars()) <= 12 {
			brute++
			p := formula.BruteForceProbability(s, d)
			if lo, hi := LeafBounds(s, d, true); lo > p+1e-9 || hi < p-1e-9 {
				t.Fatalf("leaf bounds [%v, %v] of %s miss P = %v", lo, hi, d.String(s), p)
			}
			if parts != nil {
				q := 1.0
				for _, part := range parts {
					q *= formula.BruteForceProbability(s, part)
				}
				if math.Abs(q-p) > 1e-9 {
					t.Fatalf("factor parts of %s multiply to %v, P = %v", d.String(s), q, p)
				}
			}
		}
		if depth == 0 {
			return
		}
		for _, part := range parts {
			walk(s, part, depth-1)
		}
		x := chooseVar(s, d, OrderAuto)
		for a := 0; a < s.DomainSize(x); a++ {
			walk(s, d.Restrict(x, formula.Val(a)), depth-1)
		}
	}
	for _, in := range refCorpus() {
		walk(in.s, in.d, 3)
	}
	if factored == 0 || iq == 0 || brute == 0 {
		t.Fatalf("corpus too weak: %d formulas, %d factored, %d IQ choices, %d brute-force checked", checked, factored, iq, brute)
	}
	t.Logf("%d formulas, %d factored, %d IQ choices, %d brute-force checked", checked, factored, iq, brute)
}

// TestPrepScratchEpochWrapAfterRegrow pins the stamp-epoch wraparound:
// a wrap while the stamp buffer is short must also clear the capacity a
// later, larger formula reslices into, or stale stamps from before the
// wrap alias the restarted epochs and move clauses between buckets.
func TestPrepScratchEpochWrapAfterRegrow(t *testing.T) {
	small := formula.NewSpace()
	x := []formula.Var{small.AddBool(0.5), small.AddBool(0.6), small.AddBool(0.7)}
	tri := formula.NewDNF( // three buckets: every pair of clauses shares a variable
		formula.MustClause(formula.Pos(x[0]), formula.Pos(x[1])),
		formula.MustClause(formula.Pos(x[1]), formula.Pos(x[2])),
		formula.MustClause(formula.Pos(x[0]), formula.Pos(x[2])),
	)
	for seed := int64(1); seed <= 10; seed++ {
		// Unlikely width-3 clauses over few variables: many buckets, and
		// no early stop on the bucket sum.
		rng := rand.New(rand.NewSource(seed))
		s := formula.NewSpace()
		for range 30 {
			s.AddBool(0.02 + 0.1*rng.Float64())
		}
		var d formula.DNF
		for range 90 {
			c, _ := formula.NewClause(formula.Pos(formula.Var(rng.Intn(30))), formula.Pos(formula.Var(rng.Intn(30))), formula.Pos(formula.Var(rng.Intn(30))))
			d = append(d, c)
		}
		d = d.Normalize()
		sc := new(prepScratch)
		leafBoundsScratch(s, d, true, sc) // stamps the long buffer with early epochs
		sc.epoch = math.MaxUint32
		leafBoundsScratch(small, tri, true, sc) // shrinks the buffer; the epoch wraps here
		lo, hi, ops := leafBoundsScratch(s, d, true, sc)
		wlo, whi, wops := leafBoundsScratch(s, d, true, new(prepScratch))
		if math.Float64bits(lo) != math.Float64bits(wlo) || math.Float64bits(hi) != math.Float64bits(whi) || ops != wops {
			t.Fatalf("seed %d: after wraparound (%v, %v, %d), fresh scratch (%v, %v, %d)", seed, lo, hi, ops, wlo, whi, wops)
		}
	}
}
