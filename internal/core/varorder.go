package core

import (
	"math"
	"slices"

	"repro/internal/formula"
)

// VarOrder selects the variable-elimination strategy for Shannon expansion.
type VarOrder uint8

// Variable-order strategies.
const (
	// OrderAuto first tries the IQ-query rule of Lemma 6.8 (which yields
	// linear-size complete d-trees for tractable inequality queries) and
	// falls back to the most-frequent variable. This is the paper's
	// strategy (Section IV and VI-B).
	OrderAuto VarOrder = iota
	// OrderMostFrequent always chooses a variable occurring in the most
	// clauses (ties broken by smallest id, for determinism).
	OrderMostFrequent
)

// chooseVar picks the Shannon-expansion variable for d according to the
// configured order. d is non-empty and has at least one variable.
func chooseVar(s *formula.Space, d formula.DNF, order VarOrder) formula.Var {
	sc := prepPool.Get().(*prepScratch)
	defer prepPool.Put(sc)
	vars := sc.varCounts(d)
	if order == OrderAuto {
		if v, ok := iqVariable(s, d, vars, sc); ok {
			return v
		}
	}
	return mostFrequentVar(vars, sc.occ)
}

// varCounts sets sc.occ[v] to the number of clauses of d containing v
// for every variable v of d, and returns those variables in
// first-occurrence order (in sc.vars). sc.st is left stamped with the
// epoch of the scan.
func (sc *prepScratch) varCounts(d formula.DNF) []formula.Var {
	n := int(maxVar(d)) + 1
	seen := sc.stamps(n)
	sc.occ = grow(sc.occ, n)
	epoch := sc.nextEpoch()
	vars := sc.vars[:0]
	for _, c := range d {
		for _, a := range c {
			if seen[a.Var] != epoch {
				seen[a.Var] = epoch
				sc.occ[a.Var] = 0
				vars = append(vars, a.Var)
			}
			sc.occ[a.Var]++
		}
	}
	sc.vars = vars
	return vars
}

// mostFrequentVar returns a variable occurring in the most clauses —
// the smallest such id, for determinism — given d's variables and their
// clause counts.
func mostFrequentVar(vars []formula.Var, occ []int32) formula.Var {
	best := formula.Var(-1)
	bestN := int32(-1)
	for _, v := range vars {
		if n := occ[v]; n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

// iqVariable implements the variable choice of Lemma 6.8 for DNFs of IQ
// queries: it looks for a variable v from relation Ri that occurs in
// clauses of Φ together with all variables of every other relation Rj.
// Eliminating such a variable first makes its co-factor subsume Φ|v, which
// is what keeps the d-tree polynomial for IQ queries (Theorem 6.9).
//
// Following the paper, it counts the distinct variables per relation in Φ,
// then redoes the count restricted to clauses containing a candidate x; if
// the restricted counts match the unrestricted ones for every relation
// other than x's own, x is chosen. Since a restricted count never exceeds
// its total, that is one comparison: x co-occurs with as many
// other-relation variables as Φ has. Candidates are tried in descending
// frequency (ties by ascending id) so the successful variable (which by
// construction co-occurs with many variables) is found early.
//
// vars and sc.occ are d's variables and clause counts (varCounts).
func iqVariable(s *formula.Space, d formula.DNF, vars []formula.Var, sc *prepScratch) (formula.Var, bool) {
	// Distinct variables per tag, from the sorted tags of the variables;
	// bail out if any variable is untagged or only one relation is
	// present (the rule needs >= 2).
	tags := sc.tags[:0]
	for _, v := range vars {
		tag := s.Tag(v)
		if tag == formula.NoTag {
			return 0, false
		}
		tags = append(tags, tag)
	}
	sc.tags = tags
	slices.Sort(tags)
	total := func(tag int32) int { // variables tagged tag
		i, _ := slices.BinarySearch(tags, tag)
		j := i
		for j < len(tags) && tags[j] == tag {
			j++
		}
		return j - i
	}
	// The largest per-tag total and the largest over the other tags:
	// maxOther below is top1 unless x's tag is top1's.
	top1Tag, top1, top2 := formula.NoTag, 0, 0
	for i := 0; i < len(tags); {
		n := total(tags[i])
		if n > top1 {
			top2, top1, top1Tag = top1, n, tags[i]
		} else if n > top2 {
			top2 = n
		}
		i += n
	}
	if top1 == len(tags) {
		return 0, false
	}

	cand := sc.cand[:0]
	for _, v := range vars {
		cand = append(cand, uint64(math.MaxUint32-uint32(sc.occ[v]))<<32|uint64(uint32(v)))
	}
	sc.cand = cand
	slices.Sort(cand)

	co := sc.st // varCounts sized it to d's variables
	for _, key := range cand {
		x := formula.Var(uint32(key))
		xTag := s.Tag(x)
		// A variable co-occurring with all others must appear in at least
		// as many clauses as the largest other relation has variables; a
		// cheap necessary condition that prunes most candidates.
		maxOther := top1
		if xTag == top1Tag {
			maxOther = top2
		}
		if int(sc.occ[x]) < maxOther {
			continue
		}
		epoch := sc.nextEpoch()
		others := 0
		for _, c := range d {
			if _, ok := c.Lookup(x); !ok {
				continue
			}
			for _, a := range c {
				if co[a.Var] != epoch {
					co[a.Var] = epoch
					if s.Tag(a.Var) != xTag {
						others++
					}
				}
			}
		}
		if others == len(tags)-total(xTag) {
			return x, true
		}
	}
	return 0, false
}
