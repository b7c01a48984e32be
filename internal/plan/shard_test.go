package plan

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/formula"
	"repro/internal/pdb"
	"repro/internal/rank"
	"repro/internal/workpool"
)

// Satellite: sharded-lineage equivalence property. For random TI/BID
// queries the partition-parallel pipeline must reproduce the unsharded
// reference bit for bit — answer values, answer order, and each
// answer's normalized DNF clause-for-clause — across shard counts
// {1, 2, 3, 8}, and the downstream rank scheduler must take exactly the
// same number of refinement steps either way. Run under -race in CI,
// which also exercises the partition chains' concurrency.

// shardRelation is randomRelation scaled up (more rows and blocks, a
// wider value domain) so every shard count under test gets populated,
// unevenly sized partitions.
func shardRelation(rng *rand.Rand, s *formula.Space, name string, tag int32) *pdb.Relation {
	ncols := 1 + rng.Intn(3)
	cols := make([]string, ncols)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	rows := 20 + rng.Intn(40)
	mkRow := func() []pdb.Value {
		row := make([]pdb.Value, ncols)
		for i := range row {
			row[i] = pdb.Value(rng.Intn(8))
		}
		return row
	}
	switch rng.Intn(4) {
	case 0: // BID
		nblocks := 6 + rng.Intn(10)
		blocks := make([][]pdb.BIDAlternative, nblocks)
		for b := range blocks {
			nalt := 1 + rng.Intn(3)
			rest := 1.0
			for a := 0; a < nalt; a++ {
				p := rest * (0.2 + 0.5*rng.Float64())
				rest -= p
				blocks[b] = append(blocks[b], pdb.BIDAlternative{Vals: mkRow(), Prob: p})
			}
		}
		return pdb.NewBID(s, name, cols, blocks, tag)
	case 1: // deterministic
		vals := make([][]pdb.Value, rows)
		for i := range vals {
			vals[i] = mkRow()
		}
		return pdb.NewDeterministic(name, cols, vals)
	default: // tuple-independent
		vals := make([][]pdb.Value, rows)
		probs := make([]float64, rows)
		for i := range vals {
			vals[i] = mkRow()
			probs[i] = 0.1 + 0.8*rng.Float64()
		}
		return pdb.NewTupleIndependent(s, name, cols, vals, probs, tag)
	}
}

func valsEqual(a, b []pdb.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dnfIdentical is clause-for-clause equality in order — the bitwise
// identity the merge guarantees, strictly stronger than set equality.
func dnfIdentical(a, b formula.DNF) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestShardedLineageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	const iterations = 320
	shardCounts := []int{1, 2, 3, 8}
	pool := workpool.New(4)
	rankChecks := 0
	for iter := 0; iter < iterations; iter++ {
		s := formula.NewSpace()
		rels := make([]*pdb.Relation, 3)
		for i := range rels {
			rels[i] = shardRelation(rng, s, fmt.Sprintf("R%d", i), int32(i))
		}
		root := randomQuery(rng, rels)

		refPlan := CompileWith(root, Options{DisableSafe: true, DisableIQ: true, Shards: 1, Pool: pool})
		if refPlan.shard != nil || refPlan.Shards != 1 {
			t.Fatalf("iter %d: forced shards=1 still compiled a shard spec", iter)
		}
		ref := refPlan.Lineage()

		var sharded []pdb.Answer
		for _, n := range shardCounts[1:] {
			p := CompileWith(root, Options{DisableSafe: true, DisableIQ: true, Shards: n, Pool: pool})
			if p.Shards != n || p.shard == nil {
				t.Fatalf("iter %d: forced shards=%d, plan has %d (%s)", iter, n, p.Shards, p.Why)
			}
			got, owner := p.lineage(nil, nil, nil)
			if len(got) != len(ref) {
				t.Fatalf("iter %d shards=%d: %d answers, reference %d (%s)",
					iter, n, len(got), len(ref), p.Why)
			}
			if len(owner) != len(got) {
				t.Fatalf("iter %d shards=%d: %d owners for %d answers", iter, n, len(owner), len(got))
			}
			for i := range got {
				if !valsEqual(got[i].Vals, ref[i].Vals) {
					t.Fatalf("iter %d shards=%d: answer %d values %v, reference %v",
						iter, n, i, got[i].Vals, ref[i].Vals)
				}
				if !dnfIdentical(got[i].Lin, ref[i].Lin) {
					t.Fatalf("iter %d shards=%d: answer %d (%v) DNF diverges from reference\nsharded:   %v\nreference: %v",
						iter, n, i, got[i].Vals, got[i].Lin, ref[i].Lin)
				}
				if owner[i] < 0 || owner[i] >= n {
					t.Fatalf("iter %d shards=%d: answer %d owner %d out of range", iter, n, i, owner[i])
				}
			}
			if n == 8 {
				sharded = got
			}
		}

		// Every few corpora, prove the downstream rank scheduler cannot
		// tell the pipelines apart: identical DNFs must cost identical
		// refinement steps and produce the identical ranking.
		if iter%8 == 0 && len(ref) > 0 {
			k := 1 + rng.Intn(3)
			ropt := rank.Options{Pool: workpool.New(1)}
			_, resRef, errRef := pdb.ConfTopK(context.Background(), s, ref, k, ropt)
			_, resGot, errGot := pdb.ConfTopK(context.Background(), s, sharded, k, ropt)
			if errRef != nil || errGot != nil {
				t.Fatalf("iter %d: rank errors %v / %v", iter, errRef, errGot)
			}
			if resRef.Steps != resGot.Steps {
				t.Fatalf("iter %d: rank steps diverge: sharded %d, reference %d",
					iter, resGot.Steps, resRef.Steps)
			}
			if len(resRef.Ranking) != len(resGot.Ranking) {
				t.Fatalf("iter %d: ranking sizes diverge", iter)
			}
			for i := range resRef.Ranking {
				if resRef.Ranking[i] != resGot.Ranking[i] {
					t.Fatalf("iter %d: rankings diverge at %d: %v vs %v",
						iter, i, resGot.Ranking, resRef.Ranking)
				}
			}
			for i := range resRef.Items {
				if resRef.Items[i].Steps != resGot.Items[i].Steps {
					t.Fatalf("iter %d: answer %d refinement steps diverge: sharded %d, reference %d",
						iter, i, resGot.Items[i].Steps, resRef.Items[i].Steps)
				}
			}
			rankChecks++
		}
	}
	if rankChecks == 0 {
		t.Fatal("property corpus never exercised the rank comparison")
	}
	t.Logf("%d corpora × shard counts %v, %d rank comparisons", iterations, shardCounts, rankChecks)
}

// TestShardPlannerChoice pins the planner's automatic fan-out: unsharded
// below the driver-cardinality floor or on a sequential pool, pool-wide
// above it, capped by driver rows per partition, and always recorded in
// Why for EXPLAIN/RoutingTable output.
func TestShardPlannerChoice(t *testing.T) {
	s := formula.NewSpace()
	mkTI := func(name string, rows int, tag int32) *pdb.Relation {
		vals := make([][]pdb.Value, rows)
		probs := make([]float64, rows)
		for i := range vals {
			vals[i] = []pdb.Value{pdb.Value(i % 97), pdb.Value(i % 11)}
			probs[i] = 0.5
		}
		return pdb.NewTupleIndependent(s, name, []string{"k", "v"}, vals, probs, tag)
	}
	big := mkTI("Big", 8192, 0)
	dim := mkTI("Dim", 64, 1)
	join := &GroupLineage{
		Input: &EquiJoin{Left: &Scan{Rel: big}, Right: &Scan{Rel: dim}, LeftCol: 0, RightCol: 0},
		Cols:  []int{1},
	}
	lineageOnly := Options{DisableSafe: true, DisableIQ: true}

	opt := lineageOnly
	opt.Pool = workpool.New(4)
	p := CompileWith(join, opt)
	if p.Shards != 4 {
		t.Fatalf("8192-row driver on a 4-way pool: shards=%d (%s), want 4", p.Shards, p.Why)
	}
	if !strings.Contains(p.Why, "shards=4 (hash Big.k)") {
		t.Fatalf("Why does not record the shard choice: %q", p.Why)
	}

	opt.Pool = workpool.New(16)
	if p = CompileWith(join, opt); p.Shards != 8 {
		t.Fatalf("8192-row driver on a 16-way pool: shards=%d, want %d (floor %d rows/partition)",
			p.Shards, 8192/shardFloor, shardFloor)
	}

	opt.Pool = workpool.New(1)
	if p = CompileWith(join, opt); p.Shards != 1 {
		t.Fatalf("sequential pool: shards=%d, want 1", p.Shards)
	}

	small := &GroupLineage{
		Input: &EquiJoin{Left: &Scan{Rel: dim}, Right: &Scan{Rel: big}, LeftCol: 0, RightCol: 0},
		Cols:  []int{1},
	}
	opt.Pool = workpool.New(4)
	if p = CompileWith(small, opt); p.Shards != 1 {
		t.Fatalf("64-row driver: shards=%d (%s), want 1", p.Shards, p.Why)
	}

	opt.Shards = 6
	if p = CompileWith(small, opt); p.Shards != 6 {
		t.Fatalf("forced shards=6: plan has %d", p.Shards)
	}

	// Structural routes never shard: the same join without the disable
	// flags compiles to a safe plan.
	p = CompileWith(join, Options{Pool: workpool.New(4)})
	if p.Route == RouteLineage {
		t.Skipf("expected a structural route for the safe join, got %s", p.Why)
	}
	if p.Shards != 1 || p.shard != nil {
		t.Fatalf("structural route carries a shard spec: shards=%d", p.Shards)
	}
}

// TestShardKeyFallbacks pins the partition-key ladder — join-equality
// class, then driver group column, then round-robin — and that each
// strategy still reproduces the unsharded stream exactly.
func TestShardKeyFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := formula.NewSpace()
	rel := shardRelation(rng, s, "R", 0)
	for rel.Len() < 8 {
		rel = shardRelation(rng, s, "R", 0)
	}
	opt := Options{DisableSafe: true, DisableIQ: true, Shards: 3, Pool: workpool.New(3)}

	grouped := &GroupLineage{Input: &Scan{Rel: rel}, Cols: []int{0}}
	p := CompileWith(grouped, opt)
	if !strings.Contains(p.Why, "hash group key R.c0") {
		t.Fatalf("grouped single scan: %q, want group-key hashing", p.Why)
	}
	assertLineageIdentical(t, p, grouped)

	boolean := &GroupLineage{Input: &Scan{Rel: rel}}
	p = CompileWith(boolean, opt)
	if !strings.Contains(p.Why, "round-robin driver") {
		t.Fatalf("boolean single scan: %q, want round-robin", p.Why)
	}
	assertLineageIdentical(t, p, boolean)

	// A self-join's equality class spans both occurrences of the
	// relation; both leaves are co-partitioned on it.
	self := &GroupLineage{
		Input: &EquiJoin{Left: &Scan{Rel: rel}, Right: &Scan{Rel: rel}, LeftCol: 0, RightCol: 0},
		Cols:  []int{0},
	}
	p = CompileWith(self, opt)
	if !strings.Contains(p.Why, "hash R.c0") {
		t.Fatalf("self-join: %q, want class hashing", p.Why)
	}
	if len(p.shard.keys) != 2 {
		t.Fatalf("self-join co-partitioning keys %v, want both leaves", p.shard.keys)
	}
	assertLineageIdentical(t, p, self)
}

func assertLineageIdentical(t *testing.T, p *Plan, root Node) {
	t.Helper()
	ref := Lineage(root)
	got, _ := p.lineage(nil, nil, nil)
	if len(got) != len(ref) {
		t.Fatalf("%s: %d answers, reference %d", p.Why, len(got), len(ref))
	}
	for i := range got {
		if !valsEqual(got[i].Vals, ref[i].Vals) || !dnfIdentical(got[i].Lin, ref[i].Lin) {
			t.Fatalf("%s: answer %d diverges from unsharded reference", p.Why, i)
		}
	}
}
