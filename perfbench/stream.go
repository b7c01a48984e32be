package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/pdb"
	"repro/internal/plan"
	"repro/internal/rank"
	"repro/internal/serve"
	"repro/internal/workpool"
)

// mixWeights are serve-stream's template shares, in streamTemplates
// order: structural requests are the majority, so they set the median
// and the ranked templates set the tail. The median falls a third of
// the way into the safe-route requests' latencies, below the share of
// them that overlap a ranked request or a garbage collection, which
// grows when the host is busy.
var mixWeights = []float64{0.15, 0.05, 0.45, 0.35}

// runServeStream is the serve-stream workload. An operation is one SSE
// request, timed from when it was due: first_answer_* to its first
// answer event, total_* to its done event (requests hung up on purpose
// count for first answers only). qps is the completion rate at the
// fixed offered rate; qps_at_slo the highest rung of a fixed rate
// ladder at which the tail first-answer latency meets sloFirstAnswerMs
// without the generator falling behind (see sloRate).
func runServeStream(r *run) error {
	b := &daemonBench{run: r, tmpls: streamTemplates()}
	if err := b.start(streamSF, streamProbHigh); err != nil {
		b.stop()
		return err
	}
	defer b.stop()
	b.warmUp()

	// Half the run measures at the fixed rate, the other half finds
	// qps_at_slo (untraced) or repeats the fixed rate traced.
	fixedSpan := r.seconds / 2
	fixed := func(span time.Duration) []arrival {
		return evenArrivals(span, b.mix(int(math.Round(streamRate*span.Seconds()))))
	}
	// A short unmeasured phase at the fixed rate first fills the named
	// sessions' caches and brings the daemon to its steady state.
	b.openPhase(fixed(streamWarm), nil)
	phaseA := b.openPhase(fixed(fixedSpan), nil)
	if !r.traced {
		b.streamMetrics(phaseA, fixedSpan)
		b.set("qps_at_slo", b.sloRate(r.seconds-fixedSpan))
		return nil
	}

	before, err := b.metricsNow()
	if err != nil {
		return err
	}
	var ls layerStats
	phaseB := b.openPhase(fixed(r.seconds-fixedSpan), &ls)
	after, err := b.metricsNow()
	if err != nil {
		return err
	}
	reportMetricsDelta(r, after.sub(before))
	ls.report(r)
	var lags []float64
	for _, s := range phaseB {
		lags = append(lags, ms(s.lag))
	}
	lag, _ := tail(lags, 0.99)
	r.set("loadgen.lag_ms_p99", lag)
	r.set("obs.trace_overhead", ratio(median(totals(phaseB)), median(totals(phaseA))))
	if err := b.cancelProbe(); err != nil {
		return err
	}
	if err := b.replay(); err != nil {
		return err
	}
	zeroPaperLayers(r)
	return nil
}

// mix draws n serve-stream requests in fixed proportions: template
// shares, Zipf-skewed parameters and named sessions, the one-shot and
// the hang-up shares are exact up to rounding, and the seed shuffles
// which request comes when. Seeds so vary the order, not the amount,
// of each kind of work.
func (b *daemonBench) mix(n int) []*request {
	var reqs []*request
	for ti, c := range apportion(n, mixWeights) {
		t := b.tmpls[ti]
		for pi, pc := range apportion(c, zipfWeights(len(t.params))) {
			for k := 0; k < pc; k++ {
				reqs = append(reqs, &request{tmpl: t, param: t.params[pi]})
			}
		}
	}
	shuffle := func() { b.rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] }) }
	shuffle()
	// The first oneShotShare of the shuffled requests keep the one-shot
	// session; the rest go to named sessions.
	i := int(math.Round(oneShotShare * float64(len(reqs))))
	for si, c := range apportion(len(reqs)-i, zipfWeights(namedSessions)) {
		for ; c > 0; c-- {
			reqs[i].session = fmt.Sprintf("s%d", si)
			i++
		}
	}
	shuffle()
	var ranked []*request
	for _, r := range reqs {
		if cut, _ := cutOf(r.tmpl.build(r.param)); cut.on {
			ranked = append(ranked, r)
		}
	}
	for _, r := range ranked[:int(math.Round(hangUpShare*float64(len(ranked))))] {
		r.hangUp = true
	}
	return reqs
}

// warmUp sends every distinct request once on its own session, so
// lazy set-up in the daemon is done before timing; the replies are
// checked like any other.
func (b *daemonBench) warmUp() {
	for _, t := range b.tmpls {
		for _, p := range t.params {
			req := &request{tmpl: t, param: p, session: "warm-up"}
			var rep *reply
			var err error
			if t.class == "batch" {
				rep, err = b.c.batch(context.Background(), req.body())
			} else {
				rep, err = b.c.stream(context.Background(), req.body(), false)
			}
			b.check(b.verify(req, rep, err))
		}
	}
}

// openPhase runs one open-loop phase over nproc connections and checks
// every reply. With ls it also fetches each finished request's trace
// into ls and records spans.
func (b *daemonBench) openPhase(arr []arrival, ls *layerStats) []sample {
	start := time.Now().Add(20 * time.Millisecond)
	samples := openLoop(start, arr, b.nproc, func(a arrival) (*reply, error) {
		rep, err := b.c.stream(context.Background(), a.req.body(), a.req.hangUp)
		if ls != nil && err == nil {
			root := b.requestSpans(a.req, rep, start.Add(a.due))
			if rep.failure() == "" && !rep.hungUp {
				td, terr := b.fetchTrace(rep, root)
				if terr != nil {
					return rep, terr
				}
				ls.add(rep, td)
			}
		}
		return rep, err
	})
	for i := range samples {
		s := &samples[i]
		s.err = b.verify(s.req, s.rep, s.err)
		b.check(s.err)
	}
	return samples
}

// totals is the due-to-done latency (ms) of every request that got its
// done event. Wrong answers are counted as failures, not left out of
// the latencies: a run that fails its check still reports its times.
func totals(ss []sample) []float64 {
	var out []float64
	for _, s := range ss {
		if s.rep != nil && !s.rep.done.IsZero() {
			out = append(out, ms(s.rep.done.Sub(s.dueAt)))
		}
	}
	return out
}

// firsts is the due-to-first-answer latency (ms) of every request that
// got an answer.
func firsts(ss []sample) []float64 {
	var out []float64
	for _, s := range ss {
		if s.rep != nil && !s.rep.first.IsZero() {
			out = append(out, ms(s.rep.first.Sub(s.dueAt)))
		}
	}
	return out
}

// streamMetrics sets serve-stream's latency and throughput metrics
// from the fixed-rate phase.
func (b *daemonBench) streamMetrics(ss []sample, span time.Duration) {
	latencyMetrics(b.run, firsts(ss), totals(ss))
	done := 0
	var last time.Time
	byTmpl := map[string][]float64{}
	for _, s := range ss {
		if s.err != nil {
			continue
		}
		done++
		end := s.rep.done
		if end.IsZero() {
			end = s.rep.first
		}
		if end.After(last) {
			last = end
		}
		byTmpl[s.req.tmpl.name] = append(byTmpl[s.req.tmpl.name], ms(s.rep.first.Sub(s.dueAt)))
	}
	if len(ss) > 0 {
		elapsed := math.Max(span.Seconds(), last.Sub(ss[0].dueAt.Add(-ss[0].due)).Seconds())
		b.set("qps", float64(done)/elapsed)
	}
	b.note("offered_rate", streamRate)
	for name, xs := range byTmpl {
		b.note("first_answer_p50_ms."+name, median(xs))
	}
	// Which templates set the tail: the requests beyond it, by template.
	cut, _ := b.notes["first_answer_tail_ms"].(float64) // absent only when no answer arrived
	beyond := map[string]int{}
	for _, s := range ss {
		if s.rep != nil && !s.rep.first.IsZero() && ms(s.rep.first.Sub(s.dueAt)) > cut {
			beyond[s.req.tmpl.name]++
		}
	}
	b.note("first_answer_tail_by_template", beyond)
}

// sloRate finds qps_at_slo within budget. A closed loop of nproc
// clients first measures the daemon's saturation throughput over
// saturationShare of the budget; above it the generator's backlog can
// only grow. From the highest ladder rung satMargin or more below that
// throughput it then probes downwards, rung by rung, with open-loop phases of
// probeSpan, and returns the first rung whose tail first-answer latency
// meets sloFirstAnswerMs while the generator keeps to its schedule (the
// last rung probed, one below, if time runs out first).
func (b *daemonBench) sloRate(budget time.Duration) float64 {
	deadline := time.Now().Add(budget)
	sat := b.saturation(time.Duration(saturationShare * float64(budget)))
	rate := func(i int) float64 { return ladderBase * math.Pow(ladderStep, float64(i)) }
	i := int(math.Floor(math.Log(sat/satMargin/ladderBase) / math.Log(ladderStep)))
	var tried []string
	for ; i > 0 && time.Until(deadline) >= probeSpan; i-- {
		ss := b.openPhase(evenArrivals(probeSpan, b.mix(int(math.Round(rate(i)*probeSpan.Seconds())))), nil)
		ok, why := sloHolds(ss)
		tried = append(tried, fmt.Sprintf("%.1f/s %s", rate(i), why))
		if ok {
			break
		}
	}
	b.note("slo_rate", fmt.Sprintf("saturation %.2f/s; probed %v", sat, tried))
	return rate(i)
}

// sloHolds reports whether an open-loop phase met the latency limit
// with every request answered correctly and the generator on schedule.
func sloHolds(ss []sample) (bool, string) {
	for _, s := range ss {
		if s.err != nil {
			return false, "failed"
		}
	}
	if f, q := tail(firsts(ss), 0.99); f > sloFirstAnswerMs {
		return false, fmt.Sprintf("first answer p%.0f %.0fms", 100*q, f)
	}
	if backlogGrew(ss, backlogSlack) {
		return false, "backlog grew"
	}
	return true, "ok"
}

// saturation runs nproc closed-loop clients on the serve-stream mix
// for span and returns their completion rate.
func (b *daemonBench) saturation(span time.Duration) float64 {
	reqs := b.mix(int(math.Ceil(span.Seconds() * 100))) // more than the clients can finish
	next := make(chan *request)
	done := make(chan int)
	stop := time.Now().Add(span)
	for w := 0; w < b.nproc; w++ {
		go func() {
			n := 0
			for req := range next {
				rep, err := b.c.stream(context.Background(), req.body(), req.hangUp)
				err = b.verify(req, rep, err)
				b.check(err)
				if err == nil {
					n++
				}
			}
			done <- n
		}()
	}
	start := time.Now()
	for _, r := range reqs {
		if time.Now().After(stop) {
			break
		}
		next <- r
	}
	close(next)
	n := 0
	for w := 0; w < b.nproc; w++ {
		n += <-done
	}
	return float64(n) / time.Since(start).Seconds()
}

// cancelProbe measures how long the daemon keeps working after a
// client hangs up. It opens exact (ε = 0) streams of the hard
// template, alternately ranked (the anytime Refiner path) and unranked
// (conf() over exact d-trees), hangs up shortly after the meta event,
// and polls GET /metrics until no stream is in flight. Each request
// carries a cancelBudget timeout, so work that ignores the hang-up
// reads as about that long rather than stalling the run.
func (b *daemonBench) cancelProbe() error {
	ctx := context.Background()
	zero := 0.0
	ranked := b.tmpls[0]
	unranked := &template{name: ranked.name + "-unranked", build: func(q int64) *serve.Node {
		_, in := cutOf(ranked.build(q))
		return in
	}}
	var took []float64
	for i := 0; i < 2*cancelProbes; i++ {
		if _, err := waitIdle(ctx, b.c, time.Millisecond); err != nil {
			return err
		}
		t := ranked
		if i%2 == 1 {
			t = unranked
		}
		req := &request{tmpl: t, param: ranked.params[i/2%len(ranked.params)], eps: &zero, budget: &serve.Budget{TimeoutMS: int(cancelBudget / time.Millisecond)}}
		hung, err := b.hangUpAfterMeta(ctx, req.body(), 50*time.Millisecond)
		if err != nil {
			return fmt.Errorf("cancel probe: %w", err)
		}
		idle, err := waitIdle(ctx, b.c, time.Millisecond)
		if err != nil {
			return err
		}
		took = append(took, ms(idle.Sub(hung)))
		b.tr.add(fmt.Sprintf("cancel-probe-%d", i), 0, "cancel_return:"+t.name, hung, idle, nil)
	}
	b.note("cancel_return_ms", took)
	b.set("serve.cancel_return_ms_p50", median(took))
	mx := 0.0
	for _, t := range took {
		mx = math.Max(mx, t)
	}
	b.set("serve.cancel_return_ms_max", mx)
	return nil
}

// hangUpAfterMeta opens a stream, reads it up to the meta event, waits
// wait more, and hangs up; it returns when it hung up.
func (b *daemonBench) hangUpAfterMeta(ctx context.Context, body []byte, wait time.Duration) (time.Time, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rep := &reply{}
	errc := make(chan error, 1)
	metaSeen := make(chan struct{})
	go func() {
		rd, err := b.c.streamReader(ctx, body)
		if err != nil {
			close(metaSeen)
			errc <- err
			return
		}
		defer rd.Close()
		seen := false
		errc <- readSSE(rd, func(name string, data []byte) bool {
			if name == "meta" && !seen {
				seen = true
				close(metaSeen)
			}
			if name == "done" {
				rep.done = time.Now()
			}
			return true
		})
		if !seen {
			close(metaSeen)
		}
	}()
	<-metaSeen
	time.Sleep(wait)
	hung := time.Now()
	cancel()
	if err := <-errc; err != nil && ctx.Err() == nil {
		return time.Time{}, err
	}
	return hung, nil
}

// replay re-runs the workload's distinct templates in-process on the
// same generated instance and times the public calls into each layer:
// plan compile, sharded against unsharded lineage, the rank scheduler
// or the conf() batch over the lineage, and Refiner steps over the hard
// template's answer lineages.
func (b *daemonBench) replay() error {
	rels := relations(b.db)
	pool := workpool.New(b.nproc)
	var compileUS []float64
	var t1, tAuto time.Duration
	var steps int
	var stepTime time.Duration
	for _, t := range b.tmpls {
		root, err := toPlan(t.build(t.params[0]), rels)
		if err != nil {
			return err
		}
		trace := "replay:" + t.name
		const compiles = 20
		var p *plan.Plan
		d := b.tr.timed(trace, 0, "plan.CompileWith", func() {
			for i := 0; i < compiles; i++ {
				p = plan.CompileWith(root, plan.Options{Pool: pool})
			}
		})
		compileUS = append(compileUS, float64(d.Microseconds())/compiles)
		if p.Route != plan.RouteLineage {
			continue
		}
		if p.Shards > 1 {
			one := plan.CompileWith(root, plan.Options{Pool: pool, Shards: 1})
			t1 += medianDuration(3, func() { b.tr.timed(trace, 0, "plan.Lineage shards=1", func() { one.Lineage() }) })
			tAuto += medianDuration(3, func() {
				b.tr.timed(trace, 0, fmt.Sprintf("plan.Lineage shards=%d", p.Shards), func() { p.Lineage() })
			})
		}
		answers := p.Lineage()
		if cut, _ := cutOf(t.build(t.params[0])); cut.on {
			dnfs := make([]formula.DNF, len(answers))
			for i, a := range answers {
				dnfs[i] = a.Lin
			}
			b.tr.timed(trace, 0, "rank.TopK", func() {
				_, err = rank.TopK(context.Background(), b.db.Space, dnfs, cut.k, rank.Options{Eps: serveEps, Pool: pool})
			})
		} else {
			b.tr.timed(trace, 0, "pdb.ConfWith", func() {
				_, err = pdb.ConfWith(context.Background(), b.db.Space, answers, engine.Approx{Eps: serveEps, Pool: pool}, pool, nil)
			})
		}
		if err != nil {
			return fmt.Errorf("replay %s: %w", t.name, err)
		}
		if t.class != "hard" {
			continue
		}
		for _, a := range answers {
			ref := core.NewRefiner(context.Background(), b.db.Space, a.Lin, core.Options{Eps: serveEps, Pool: pool})
			start := time.Now()
			for n := 0; !ref.Done() && n < 1000; n++ {
				ref.Step(1)
			}
			if err := ref.Err(); err != nil {
				return fmt.Errorf("replay refiner: %w", err)
			}
			end := time.Now()
			b.tr.add(trace, 0, "core.Refiner", start, end, map[string]any{"steps": ref.Steps()})
			steps += ref.Steps()
			stepTime += end.Sub(start)
		}
	}
	b.set("plan.compile_us", median(compileUS))
	b.set("plan.shard_speedup", ratio(float64(t1), float64(tAuto)))
	b.set("core.step_us_mean", ratio(float64(stepTime.Microseconds()), float64(steps)))
	return nil
}

// medianDuration runs f n times and returns the median duration.
func medianDuration(n int, f func()) time.Duration {
	var ds []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		f()
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds))
}
