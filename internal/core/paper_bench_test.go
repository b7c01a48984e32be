package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/formula"
	"repro/internal/graphs"
	"repro/internal/tpch"
	"repro/internal/workpool"
)

// BenchmarkApproxPaperShapes times one core.Approx run to ε on a pool
// of one worker over the lineage shapes of the paper's Figs. 7–8: TPC-H
// B21 at SF 0.002, dolphins path-3 and clique10 path-2. It is the
// per-layer view of the decomposition helpers (variable choice,
// independent-and factorization, leaf bounds), which make up most of
// that time. nodes/op is the deterministic d-tree size next to ns/op.
// It lives in package core_test because tpch depends on core.
func BenchmarkApproxPaperShapes(b *testing.B) {
	db := tpch.Generate(tpch.Config{SF: 0.002, ProbHigh: 1, Seed: 1})
	dolphins := graphs.Dolphins(0.5, 0.99, 1)
	clique := graphs.Complete(10, 0.3)
	shapes := []struct {
		name string
		s    *formula.Space
		d    formula.DNF
	}{
		{"tpch-B21", db.Space, db.B21(db.CommonNationKey())},
		{"dolphins-path3", dolphins.Space(), dolphins.PathDNF(3)},
		{"clique10-path2", clique.Space(), clique.PathDNF(2)},
	}
	pool := workpool.New(1)
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			opt := core.Options{Eps: 0.01, Kind: core.Relative, Pool: pool}
			nodes := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Approx(sh.s, sh.d, opt)
				if err != nil || !res.Converged {
					b.Fatalf("not converged: %v", err)
				}
				nodes += res.Nodes
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}
