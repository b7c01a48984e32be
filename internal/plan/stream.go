package plan

import (
	"context"
	"iter"
	rtrace "runtime/trace"
	"time"

	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/pdb"
	"repro/internal/rank"
)

// StreamTraced executes the plan like AnswersTraced, delivering answers
// as an iterator instead of a materialized slice. On a ranked
// lineage-route plan the stream is genuinely anytime: each answer is
// yielded synchronously from inside
// the scheduling loop the moment its top-k/threshold membership is
// proven (rank.Options.OnDecided), so the first answer of a
// top-10-of-240 query arrives before refinement of the other 230
// finishes. Borderline answers the scheduler cut by estimate (Decided
// false in the scheduler's terms) follow after the run completes, in
// rank order. The structural routes and unranked plans compute their
// answers first and then yield them one by one — exact routes have no
// intermediate state worth streaming.
//
// Breaking out of the iteration cancels the in-flight scheduler run
// promptly; no goroutines are involved, so an abandoned stream leaks
// nothing. A failure (context cancellation, timeout) ends the stream
// with a final (zero answer, error) pair after whatever prefix of
// answers was proven — the partial, error-carrying iterator.
//
// The lineage pipeline runs through the caller-owned clause interner
// in (nil allocates a fresh one; see LineageWith), and tr, the
// per-query EXPLAIN ANALYZE trace, records the routing decision, stage
// timings and per-answer outcomes. A nil tr records nothing; the
// yielded answers are bitwise identical either way. The trace's answer
// section reflects the scheduler's final ranking even when the
// consumer breaks out early.
func (p *Plan) StreamTraced(ctx context.Context, s *formula.Space, ev engine.Evaluator, in *formula.Interner, tr *obs.QueryTrace) iter.Seq2[pdb.AnswerConf, error] {
	return func(yield func(pdb.AnswerConf, error) bool) {
		if p.rank == nil || p.Route != RouteLineage {
			confs, err := p.AnswersTraced(ctx, s, ev, in, tr)
			for _, c := range confs {
				if !yield(c, nil) {
					return
				}
			}
			if err != nil {
				yield(pdb.AnswerConf{}, err)
			}
			return
		}
		if err := p.validate(); err != nil {
			yield(pdb.AnswerConf{}, err)
			return
		}
		if ctx == nil {
			ctx = context.Background()
		}
		// Lineage materialization is not interruptible (budgets and
		// cancellation live in the scheduler), so honour an
		// already-expired context before starting the pipeline.
		if err := ctx.Err(); err != nil {
			yield(pdb.AnswerConf{}, err)
			return
		}
		tr.SetPlan(p.Explain(), p.Route.String(), p.Shards)
		p.metrics.RecordRoute(p.Route.String(), p.Shards)
		answers, _, lerr := p.lineageSafe(ctx, in, tr)
		if lerr != nil {
			yield(pdb.AnswerConf{}, lerr)
			return
		}
		opt := p.rankOptions(ev)
		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		// The scheduler calls the hook synchronously mid-loop; when the
		// consumer breaks we must stop yielding and abort the run, and
		// afterwards suppress the cancellation error we induced.
		stopped := false
		emitted := make(map[int]bool, 8)
		opt.OnDecided = func(it rank.Item) {
			if stopped {
				return
			}
			emitted[it.Index] = true
			if !yield(pdb.RankedConf(answers[it.Index], it), nil) {
				stopped = true
				cancel()
			}
		}
		start := time.Now()
		region := rtrace.StartRegion(sctx, "repro.rank")
		var res rank.Result
		var err error
		if p.rank.topk {
			_, res, err = pdb.ConfTopK(sctx, s, answers, p.rank.k, opt)
		} else {
			_, res, err = pdb.ConfThreshold(sctx, s, answers, p.rank.tau, opt)
		}
		region.End()
		p.recordRank(tr, answers, res, time.Since(start))
		if stopped {
			return
		}
		// Whatever of the selection was not proven mid-run — borderline
		// answers cut by estimate, or resolve-mode re-orderings — trails
		// the stream in rank order.
		for _, idx := range res.Ranking {
			if emitted[idx] {
				continue
			}
			if !yield(pdb.RankedConf(answers[idx], res.Items[idx]), nil) {
				return
			}
		}
		if err != nil {
			yield(pdb.AnswerConf{}, err)
		}
	}
}
