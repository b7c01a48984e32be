package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/tpch"
)

// Settings of the two daemon workloads. They are fixed here, not
// derived at run time, so every run of every commit measures the same
// thing.
const (
	streamSF       = 0.01
	streamProbHigh = 0.1 // small tuple probabilities spread the confidences
	batchSF        = 0.02
	batchProbHigh  = 1.0
	serveEps       = 0.01 // the daemons' default ε

	// streamRate is serve-stream's fixed offered rate (requests/s);
	// streamWarm the unmeasured phase at that rate before timing.
	streamRate = 6.0
	streamWarm = 2 * time.Second
	// The qps_at_slo ladder: rung i offers ladderBase·ladderStep^i
	// requests/s. sloRate spends saturationShare of its time finding
	// the saturation throughput, the rest on probes of probeSpan.
	ladderBase = 4.0
	ladderStep = 1.025
	// satMargin is how far below the saturation throughput the ladder
	// starts: right at saturation the backlog's growth is a coin toss.
	satMargin       = 1.05
	saturationShare = 0.6
	probeSpan       = 2 * time.Second
	// sloFirstAnswerMs bounds the tail first-answer latency a rung
	// must meet: about four times the unloaded tail on the reference
	// host (Intel Xeon, 2 CPUs). It is never re-derived.
	sloFirstAnswerMs = 400.0
	// sloTotalMs is the same bound for the batch client's document.
	sloTotalMs = 2000.0
	// backlogSlack is how late the generator may run at the end of a
	// phase before its backlog counts as growing.
	backlogSlack = 100 * time.Millisecond

	// cancelProbes is how many hang-ups of each kind the cancellation
	// probe makes; cancelBudget is their requests' timeout.
	cancelProbes = 3
	cancelBudget = 5 * time.Second

	hangUpShare   = 0.15 // of ranked stream requests
	oneShotShare  = 0.2
	namedSessions = 4
	setupLaunches = 5
)

// daemonBench is a daemon workload's shared state.
type daemonBench struct {
	*run
	d     *daemon
	c     *client
	db    *tpch.DB
	tmpls []*template
	refs  map[string]reference
	rng   *rand.Rand
}

// start launches the daemon setupLaunches times (setup_s is the median
// time to healthy; the last one keeps running), then builds the same
// instance in-process and computes the reference answers.
func (b *daemonBench) start(sf, probHigh float64) error {
	args := []string{
		"-dataset", "tpch", "-sf", strconv.FormatFloat(sf, 'g', -1, 64),
		"-prob-high", strconv.FormatFloat(probHigh, 'g', -1, 64),
		"-seed", strconv.FormatInt(b.seed, 10),
		"-eps", strconv.FormatFloat(serveEps, 'g', -1, 64), "-drain", "2s",
	}
	logPath := filepath.Join(b.out, "logs", fmt.Sprintf("reprod-%s-seed%d.log", b.workload, b.seed))
	var took []float64
	for i := 0; i < setupLaunches; i++ {
		d, t, err := startDaemon(b.reprod, args, daemonProcs(), logPath)
		if err != nil {
			return err
		}
		took = append(took, t.Seconds())
		if i < setupLaunches-1 {
			d.stop()
			continue
		}
		b.d = d
	}
	b.set("setup_s", median(took))
	b.note("setup_s_samples", took)
	b.c = newClient(b.d.base, b.nproc)

	b.db = tpch.Generate(tpch.Config{SF: sf, ProbHigh: probHigh, Seed: b.seed})
	b.refs = map[string]reference{}
	refStart := time.Now()
	for _, t := range b.tmpls {
		for _, p := range t.params {
			req := &request{tmpl: t, param: p}
			ref, err := computeReference(context.Background(), b.db, t.build(p))
			if err != nil {
				return fmt.Errorf("reference for %s: %w", req.key(), err)
			}
			b.refs[req.key()] = ref
		}
	}
	b.note("reference_s", time.Since(refStart).Seconds())
	b.rng = rand.New(rand.NewSource(b.seed))
	if !b.traced {
		// Only the traced run's replay needs the instance again. Dropping
		// it keeps the generator's heap, and so its garbage collection,
		// small while it measures.
		b.db = nil
		runtime.GC()
	}
	return nil
}

// stop shuts the daemon down after recording its peak RSS.
func (b *daemonBench) stop() {
	if b.d == nil {
		return
	}
	if rss, err := b.d.peakRSSMB(); err == nil {
		b.set("rss_peak_mb", rss)
	}
	b.c.close()
	b.d.stop()
	b.d = nil
}

// verify checks one reply: its transport and protocol outcome, then
// its answers against the reference.
func (b *daemonBench) verify(req *request, rep *reply, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", req.key(), err)
	}
	if f := rep.failure(); f != "" {
		return fmt.Errorf("%s: %s", req.key(), f)
	}
	cut, _ := cutOf(req.tmpl.build(req.param))
	eps := rep.metaEv.Eps
	if req.eps != nil {
		eps = *req.eps
	}
	if err := checkAnswers(b.refs[req.key()], cut, rep.answers, !rep.hungUp, eps); err != nil {
		return fmt.Errorf("%s: %w", req.key(), err)
	}
	return nil
}

// metricsNow fetches GET /metrics.
func (b *daemonBench) metricsNow() (metricsDoc, error) {
	var m metricsDoc
	err := b.c.getJSON(context.Background(), "/metrics", &m)
	return m, err
}

// fetchTrace fetches a finished query's trace and records its spans
// under the request span.
func (b *daemonBench) fetchTrace(rep *reply, parent int) (*traceDoc, error) {
	var td traceDoc
	if err := b.c.getJSON(context.Background(), "/v1/query/"+rep.metaEv.ID+"/trace", &td); err != nil {
		return nil, err
	}
	if td.Trace == nil || rep.done.IsZero() {
		return &td, nil
	}
	// The trace holds durations only: the engine span is placed to end
	// when the done event arrived, its stages laid out in order inside.
	end := rep.done
	start := end.Add(-td.Trace.Wall)
	eng := b.tr.add(rep.metaEv.ID, parent, "engine:"+td.Trace.Route, start, end, map[string]any{"shards": td.Trace.Shards})
	at := start
	for _, st := range td.Trace.Stages {
		b.tr.add(rep.metaEv.ID, eng, st.Name, at, at.Add(st.Wall), map[string]any{"items": st.Items})
		at = at.Add(st.Wall)
	}
	return &td, nil
}

// requestSpans records a daemon request's own spans and returns the
// root's ID.
func (b *daemonBench) requestSpans(req *request, rep *reply, dueAt time.Time) int {
	if b.tr == nil || rep == nil {
		return 0
	}
	end := rep.done
	if end.IsZero() {
		end = rep.first
	}
	if end.IsZero() {
		end = rep.sent
	}
	id := rep.metaEv.ID
	root := b.tr.add(id, 0, "request:"+req.tmpl.name, dueAt, end, map[string]any{"param": req.param, "session": req.session, "hang_up": req.hangUp})
	b.tr.add(id, root, "send", rep.sent, rep.sent, nil)
	if !rep.meta.IsZero() {
		b.tr.add(id, root, "meta", rep.sent, rep.meta, nil)
	}
	if !rep.first.IsZero() {
		b.tr.add(id, root, "first_answer", rep.sent, rep.first, nil)
	}
	if !rep.done.IsZero() {
		b.tr.add(id, root, "done", rep.sent, rep.done, nil)
	}
	return root
}

// layerStats accumulates per-layer figures from traced requests; the
// generator's connections add to it concurrently.
type layerStats struct {
	mu                                      sync.Mutex
	meta, self, lineage, rank, conf, sprout []float64
	clauses, lineageMS, confItems, confMS   float64
	usefulSteps, doneSteps                  float64
}

func (l *layerStats) add(rep *reply, td *traceDoc) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !rep.meta.IsZero() {
		l.meta = append(l.meta, ms(rep.meta.Sub(rep.sent)))
	}
	if td == nil || td.Trace == nil {
		return
	}
	t := td.Trace
	if !rep.done.IsZero() {
		l.self = append(l.self, ms(rep.done.Sub(rep.sent)-t.Wall))
	}
	if t.Route == "safe" || t.Route == "iq" {
		l.sprout = append(l.sprout, ms(t.Wall))
	}
	for _, st := range t.Stages {
		switch st.Name {
		case "lineage":
			l.lineage = append(l.lineage, ms(st.Wall))
			l.lineageMS += ms(st.Wall)
		case "rank":
			l.rank = append(l.rank, ms(st.Wall))
		case "conf":
			l.conf = append(l.conf, ms(st.Wall))
			l.confItems += float64(st.Items)
			l.confMS += ms(st.Wall)
		}
	}
	if t.Lineage != nil {
		l.clauses += float64(t.Lineage.Clauses)
	}
	if t.Rank != nil && !rep.done.IsZero() {
		l.doneSteps += float64(t.Rank.Steps)
		for _, a := range t.Answers {
			if a.Member {
				l.usefulSteps += float64(a.Steps)
			}
		}
	}
}

// report sets the trace-derived per-layer metrics.
func (l *layerStats) report(r *run) {
	orZero := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	r.set("serve.meta_ms_p50", orZero(l.meta))
	r.set("serve.self_ms_p50", orZero(l.self))
	r.set("plan.lineage_ms_p50", orZero(l.lineage))
	r.set("plan.lineage_clauses_per_ms", ratio(l.clauses, l.lineageMS))
	r.set("sprout.route_ms_p50", orZero(l.sprout))
	r.set("rank.ms_p50", orZero(l.rank))
	r.set("rank.useful_step_ratio", ratio(l.usefulSteps, l.doneSteps))
	r.set("pdb.conf_ms_p50", orZero(l.conf))
	r.set("pdb.answers_per_ms", ratio(l.confItems, l.confMS))
}

// reportMetricsDelta sets the per-layer metrics read from the
// daemon's GET /metrics over a traced phase.
func reportMetricsDelta(r *run, d metricsDoc) {
	e, s := d.Engine, d.Serve
	r.set("serve.disconnects", float64(s.Disconnects))
	r.set("serve.degraded", float64(s.Degraded))
	r.set("serve.rejected", float64(s.Rejected))
	r.set("plan.shard_fanout_mean", e.ShardFanout.Mean())
	r.set("formula.frag_hit_ratio", ratio(float64(e.FragCacheHits), float64(e.FragCacheHits+e.FragCacheMisses)))
	r.set("formula.prob_hit_ratio", ratio(float64(e.ProbCacheHits), float64(e.ProbCacheHits+e.ProbCacheMisses)))
	r.set("formula.intern_hit_ratio", ratio(float64(e.InternerHits), float64(e.InternerHits+e.InternerStored)))
	r.set("core.refine_steps", float64(e.RefineSteps))
	r.set("core.dirty_path_len_mean", e.DirtyPathLen.Mean())
	r.set("rank.grants", float64(e.RankGrants))
	r.set("rank.decided_out", float64(e.RankDecidedOut))
	r.set("workpool.spawned", float64(e.PoolSpawned))
	r.set("workpool.inline", float64(e.PoolInline))
}

// zeroPaperLayers sets the per-layer metrics only paper-eps measures.
func zeroPaperLayers(r *run) {
	for _, n := range []string{"core.nodes", "core.approx_ms.tpch", "core.approx_ms.graph", "core.approx_ms.social", "mc.aconf_ms", "mc.dtree_speedup"} {
		r.set(n, 0)
	}
}

// latencyMetrics sets the end-to-end latency metrics from per-operation
// first-answer and total times (ms). The tails, at the percentile rule's
// p99, are noted with their sample counts but are not end-to-end
// metrics: on a shared 2-CPU host their run-to-run spread is wider than
// any bound the benchmark may set.
func latencyMetrics(r *run, first, total []float64) {
	if len(first) == 0 || len(total) == 0 {
		return
	}
	r.set("first_answer_p50_ms", median(first))
	r.set("total_p50_ms", median(total))
	v, q := tail(first, 0.99)
	r.note("first_answer_tail_ms", v)
	r.note("first_answer_tail", fmt.Sprintf("p%.1f of %d", 100*q, len(first)))
	v, q = tail(total, 0.99)
	r.note("total_tail_ms", v)
	r.note("total_tail", fmt.Sprintf("p%.1f of %d", 100*q, len(total)))
}

// closedLoopSLO is qps_at_slo for a workload with one closed-loop
// client: its offered rate is its completion rate, so the highest rate
// meeting the limit is the measured qps, scaled down by how far the
// tail overshoots the limit when it does.
func closedLoopSLO(qps, tailMs, limitMs float64) float64 {
	return qps * math.Min(1, limitMs/tailMs)
}
