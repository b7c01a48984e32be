// Command perfbench is the repository's benchmark. It builds nothing
// itself (run.sh builds it and cmd/reprod from the checkout) and runs
// one workload per invocation:
//
//	bash perfbench/run.sh --workload serve-stream --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - serve-stream: open-loop anytime ranked and structural queries
//     streamed over SSE from a cmd/reprod daemon (TPC-H SF 0.01, tuple
//     probabilities below 0.1), with named sessions, one-shot sessions
//     and clients that hang up after the first answer.
//   - batch-conf: one closed-loop client pulling every answer's
//     confidence as one JSON document from a daemon at SF 0.02, each
//     request on a cold one-shot session.
//   - paper-eps: the paper's yardstick in-process: passes of
//     engine.Approx over lineage formulas of Figs. 7-9 on a worker pool
//     of one.
//
// Every run checks each answer against reference confidences computed
// in-process at set-up, and prints as its last line one JSON object
// with keys correct, attempted, failed and metrics: the end-to-end
// metrics with --trace 0, the per-layer ones with --trace 1 (which also
// writes the run's spans as JSON lines). Lines before it are a
// readable summary. Every run also writes its full record, stamped with
// the host, toolchain and source, under .bench_build/perfbench/results;
//
//	perfbench compare OLD.json NEW.json
//
// compares two records and refuses records from different hosts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names the untraced run's metrics; every workload reports
// each of them (see the workload files for what an operation is).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"first_answer_p50_ms", "ms"},
	{"total_p50_ms", "ms"},
	{"qps", "1/s"},
	{"qps_at_slo", "1/s"},
	{"rss_peak_mb", "MB"},
}

// perLayer names the traced run's metrics. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"serve.meta_ms_p50", "ms"},
	{"serve.self_ms_p50", "ms"},
	{"serve.cancel_return_ms_p50", "ms"},
	{"serve.cancel_return_ms_max", "ms"},
	{"serve.disconnects", "count"},
	{"serve.degraded", "count"},
	{"serve.rejected", "count"},
	{"loadgen.lag_ms_p99", "ms"},
	{"plan.compile_us", "us"},
	{"plan.lineage_ms_p50", "ms"},
	{"plan.lineage_clauses_per_ms", "1/ms"},
	{"plan.shard_fanout_mean", "count"},
	{"plan.shard_speedup", "ratio"},
	{"sprout.route_ms_p50", "ms"},
	{"formula.frag_hit_ratio", "ratio"},
	{"formula.prob_hit_ratio", "ratio"},
	{"formula.intern_hit_ratio", "ratio"},
	{"core.refine_steps", "count"},
	{"core.step_us_mean", "us"},
	{"core.dirty_path_len_mean", "count"},
	{"core.nodes", "count"},
	{"core.approx_ms.tpch", "ms"},
	{"core.approx_ms.graph", "ms"},
	{"core.approx_ms.social", "ms"},
	{"rank.ms_p50", "ms"},
	{"rank.grants", "count"},
	{"rank.decided_out", "count"},
	{"rank.useful_step_ratio", "ratio"},
	{"pdb.conf_ms_p50", "ms"},
	{"pdb.answers_per_ms", "1/ms"},
	{"workpool.spawned", "count"},
	{"workpool.inline", "count"},
	{"obs.trace_overhead", "ratio"},
	{"mc.aconf_ms", "ms"},
	{"mc.dtree_speedup", "ratio"},
}

// run is one benchmark invocation's state.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	root     string // the checkout
	reprod   string // the daemon binary
	out      string // this benchmark's output directory
	nproc    int

	tr     *tracer
	values map[string]float64
	notes  map[string]any

	mu        sync.Mutex // guards the counts: closed-loop clients check concurrently
	attempted int
	failed    int
	failures  []string
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) note(key string, v any) { r.notes[key] = v }

// check counts one attempted operation, failed when err is non-nil.
func (r *run) check(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "serve-stream, batch-conf or paper-eps")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Int("seconds", 20, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 runs the traced, per-layer variant")
		root     = flag.String("root", ".", "root of the checkout under test")
		reprod   = flag.String("reprod", "", "cmd/reprod binary built from the checkout")
	)
	flag.Parse()
	if args := flag.Args(); len(args) > 0 {
		if args[0] != "compare" || len(args) != 3 {
			fatalf("usage: perfbench compare OLD.json NEW.json")
		}
		if err := compare(args[1], args[2]); err != nil {
			fatalf("%v", err)
		}
		return
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, root: *root, reprod: *reprod,
		out: filepath.Join(*root, ".bench_build", "perfbench"), nproc: runtime.NumCPU(),
		values: map[string]float64{}, notes: map[string]any{},
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if r.traced {
		r.tr = newTracer()
	}
	for _, d := range []string{"results", "spans", "logs"} {
		if err := os.MkdirAll(filepath.Join(r.out, d), 0o755); err != nil {
			fatalf("%v", err)
		}
	}
	var err error
	switch r.workload {
	case "serve-stream":
		err = runServeStream(r)
	case "batch-conf":
		err = runBatchConf(r)
	case "paper-eps":
		err = runPaperEps(r)
	default:
		err = fmt.Errorf("unknown --workload %q (want serve-stream, batch-conf or paper-eps)", r.workload)
	}
	if err != nil {
		fatalf("%s: %v", r.workload, err)
	}
	if err := r.finish(); err != nil {
		fatalf("%s: %v", r.workload, err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// finish checks every expected metric was measured, writes the record
// (and spans), and prints the summary and the result line.
func (r *run) finish() error {
	names := endToEnd
	if r.traced {
		names = perLayer
	}
	res := result{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metric{},
	}
	if res.Attempted == 0 {
		return errors.New("no operation was attempted")
	}
	for _, m := range names {
		v, ok := r.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	r.note("error_rate", float64(r.failed)/float64(r.attempted))
	if len(r.failures) > 0 {
		r.note("failures", r.failures)
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", r.workload, r.seed, map[bool]int{false: 0, true: 1}[r.traced])
	if r.traced {
		path := filepath.Join(r.out, "spans", tag+".jsonl")
		if err := r.tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		r.note("spans", path)
	}
	rec := record{
		Stamp: stampHost(r.root), Workload: r.workload, Seed: r.seed,
		Seconds: int(r.seconds / time.Second), Traced: r.traced,
		Result: res, Notes: r.notes,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	recPath := filepath.Join(r.out, "results", tag+".json")
	if err := os.WriteFile(recPath, b, 0o644); err != nil {
		return err
	}

	fmt.Printf("workload %s, seed %d, %v measured, traced=%v\n", r.workload, r.seed, r.seconds, r.traced)
	fmt.Printf("host: %s\n", rec.Stamp)
	keys := make([]string, 0, len(r.notes))
	for k := range r.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-32s %v\n", k, r.notes[k])
	}
	for _, m := range names {
		fmt.Printf("  %-32s %.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	fmt.Printf("record: %s\n", recPath)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// record is a run's stored result.
type record struct {
	Stamp    stamp          `json:"stamp"`
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Traced   bool           `json:"traced"`
	Result   result         `json:"result"`
	Notes    map[string]any `json:"notes"`
}

// compare prints NEW's metrics relative to OLD's, refusing records
// taken on different hosts or settings.
func compare(oldPath, newPath string) error {
	var recs [2]record
	for i, p := range []string{oldPath, newPath} {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	o, n := recs[0], recs[1]
	if d := o.Stamp.differs(n.Stamp); d != "" {
		return fmt.Errorf("refusing to compare runs from different hosts: %s", d)
	}
	if o.Workload != n.Workload || o.Traced != n.Traced || o.Seconds != n.Seconds {
		return fmt.Errorf("refusing to compare different runs: %s/%v/%ds vs %s/%v/%ds",
			o.Workload, o.Traced, o.Seconds, n.Workload, n.Traced, n.Seconds)
	}
	names := make([]string, 0, len(o.Result.Metrics))
	for k := range o.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s: %s (%s) -> %s (%s)\n", o.Workload, o.Stamp.Commit, o.Stamp.Source[:12], n.Stamp.Commit, n.Stamp.Source[:12])
	for _, k := range names {
		ov, nv := o.Result.Metrics[k].Value, n.Result.Metrics[k].Value
		fmt.Printf("  %-32s %12.4f %12.4f  x%.3f (base: old)\n", k, ov, nv, ratio(nv, ov))
	}
	return nil
}
