package main

import (
	"context"
	"time"
)

// runBatchConf is the batch-conf workload. An operation is one
// Accept: application/json request on a one-shot session with a
// parameter drawn afresh, sent by a single closed-loop client; its
// first answer and its total are both the decoded document. qps is
// the completion rate; with one closed-loop client the offered rate is
// that rate, so qps_at_slo is qps while the tail meets sloTotalMs.
func runBatchConf(r *run) error {
	b := &daemonBench{run: r, tmpls: batchTemplates()}
	if err := b.start(batchSF, batchProbHigh); err != nil {
		b.stop()
		return err
	}
	defer b.stop()
	b.warmUp()

	half := r.seconds / 2
	lat, n, took := b.closedLoop(half, false, nil)
	if !r.traced {
		lat2, n2, took2 := b.closedLoop(r.seconds-half, false, nil)
		lat = append(lat, lat2...)
		qps := float64(n+n2) / (took + took2).Seconds()
		latencyMetrics(r, lat, lat)
		b.set("qps", qps)
		tailMs, _ := r.notes["total_tail_ms"].(float64) // absent only when nothing was answered
		b.set("qps_at_slo", closedLoopSLO(qps, tailMs, sloTotalMs))
		return nil
	}

	before, err := b.metricsNow()
	if err != nil {
		return err
	}
	var ls layerStats
	traced, _, _ := b.closedLoop(r.seconds-half, true, &ls)
	after, err := b.metricsNow()
	if err != nil {
		return err
	}
	reportMetricsDelta(r, after.sub(before))
	ls.report(r)
	r.set("obs.trace_overhead", ratio(median(traced), median(lat)))
	// No stream is hung up and nothing is scheduled in this workload.
	for _, n := range []string{"serve.cancel_return_ms_p50", "serve.cancel_return_ms_max", "loadgen.lag_ms_p99"} {
		r.set(n, 0)
	}
	if err := b.replay(); err != nil {
		return err
	}
	zeroPaperLayers(r)
	return nil
}

// closedLoop sends requests back to back for span and returns the
// latency (ms) of each request answered with a document, how many were
// answered correctly, and how long the loop ran. Requests go in
// cycles: each sends every template and parameter once, in an order
// the seed shuffles, so a run's mix is the same whatever its length.
func (b *daemonBench) closedLoop(span time.Duration, traced bool, ls *layerStats) ([]float64, int, time.Duration) {
	var lat []float64
	var cycle []*request
	start := time.Now()
	n := 0
	for time.Since(start) < span {
		if len(cycle) == 0 {
			for _, t := range b.tmpls {
				for _, p := range t.params {
					cycle = append(cycle, &request{tmpl: t, param: p})
				}
			}
			b.rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		}
		req := cycle[0]
		cycle = cycle[1:]
		rep, err := b.c.batch(context.Background(), req.body())
		if traced && err == nil && rep.failure() == "" {
			root := b.requestSpans(req, rep, rep.sent)
			td, terr := b.fetchTrace(rep, root)
			if terr != nil {
				err = terr
			} else {
				ls.add(rep, td)
			}
		}
		if rep != nil && !rep.done.IsZero() {
			lat = append(lat, ms(rep.done.Sub(rep.sent)))
		}
		err = b.verify(req, rep, err)
		b.check(err)
		if err == nil {
			n++
		}
	}
	return lat, n, time.Since(start)
}
