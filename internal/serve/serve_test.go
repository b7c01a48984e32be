package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/pdb"
	"repro/internal/serve"
)

// serveDB builds the service test database: the orders/disputes demo
// relations (8 customers × 3 orders — enough ranked answers for real
// anytime streaming) plus a complete-bipartite "grid" triple whose
// Boolean lineage x_i ∧ e_ij ∧ y_j is the canonical non-hierarchical
// query — exact evaluation on it is intractable, which is what the
// overload tests use to hold admission slots deterministically.
func serveDB(tb testing.TB) *repro.DB {
	tb.Helper()
	s := repro.NewSpace()

	var orows, drows [][]pdb.Value
	var oprobs, dprobs []float64
	order := 0
	for c := 1; c <= 8; c++ {
		for j := 0; j < 3; j++ {
			orows = append(orows, []pdb.Value{pdb.Value(100 + order), pdb.Value(c)})
			oprobs = append(oprobs, 0.15+0.1*float64((c+j)%8))
			drows = append(drows, []pdb.Value{pdb.Value(100 + order)})
			dprobs = append(dprobs, 0.1+0.09*float64((c*j+c)%9))
			order++
		}
	}
	orders := pdb.NewTupleIndependent(s, "orders",
		[]string{"order", "customer"}, orows, oprobs, 1)
	disputes := pdb.NewTupleIndependent(s, "disputes",
		[]string{"order"}, drows, dprobs, 2)

	const n = 20
	var xr, yr, er [][]pdb.Value
	var xp, yp, ep []float64
	for i := 0; i < n; i++ {
		xr = append(xr, []pdb.Value{pdb.Value(i)})
		xp = append(xp, 0.5)
		yr = append(yr, []pdb.Value{pdb.Value(i)})
		yp = append(yp, 0.5)
		for j := 0; j < n; j++ {
			er = append(er, []pdb.Value{pdb.Value(i), pdb.Value(j)})
			ep = append(ep, 0.5)
		}
	}
	xs := pdb.NewTupleIndependent(s, "xs", []string{"x"}, xr, xp, 3)
	ys := pdb.NewTupleIndependent(s, "ys", []string{"y"}, yr, yp, 4)
	edges := pdb.NewTupleIndependent(s, "edges", []string{"x", "y"}, er, ep, 5)

	// gx/gy/gedge: grouped grids — gedge carries a group id, so
	// gx ⋈ gedge ⋈ gy grouped by it yields one bipartite formula per
	// group, each sharing the gx/gy variables across clauses. These are
	// NOT read-once, so the refiners start with loose bounds and the
	// ranked tests exercise genuine anytime refinement:
	//   groups 0..5   6×6 grids at staggered edge probabilities — a
	//                 clean confidence ladder for top-k streaming;
	//   group  9      four clauses over gx/gy rows 8..9 — a small
	//                 formula that collapses to (near-)exact ≈0.53 fast;
	//   groups 10..11 identical 16×16 grids at edge probability 0.0075
	//                 — a perfect tie whose union bound (256·0.25·0.0075
	//                 = 0.48) stays below group 9, so 9 is decided in
	//                 early while 10 vs 11 grinds; the grids are big
	//                 enough that exact resolution of the tie is out of
	//                 reach, so an eps-0 request holds its stream open
	//                 until the client hangs up — the deterministic
	//                 disconnect-test workload.
	var gxr, gyr, ger [][]pdb.Value
	var gxp, gyp, gep []float64
	for i := 0; i < 16; i++ {
		gxr = append(gxr, []pdb.Value{pdb.Value(i)})
		gxp = append(gxp, 0.5)
		gyr = append(gyr, []pdb.Value{pdb.Value(i)})
		gyp = append(gyp, 0.5)
	}
	for g := 0; g <= 5; g++ {
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				ger = append(ger, []pdb.Value{pdb.Value(i), pdb.Value(j), pdb.Value(g)})
				gep = append(gep, 0.04+0.05*float64(g))
			}
		}
	}
	for _, rc := range [][2]int{{8, 8}, {9, 9}, {8, 9}, {9, 8}} {
		ger = append(ger, []pdb.Value{pdb.Value(rc[0]), pdb.Value(rc[1]), 9})
		gep = append(gep, 0.9)
	}
	for g := 10; g <= 11; g++ {
		for i := 0; i < 16; i++ {
			for j := 0; j < 16; j++ {
				ger = append(ger, []pdb.Value{pdb.Value(i), pdb.Value(j), pdb.Value(g)})
				gep = append(gep, 0.0075)
			}
		}
	}
	gx := pdb.NewTupleIndependent(s, "gx", []string{"i"}, gxr, gxp, 6)
	gy := pdb.NewTupleIndependent(s, "gy", []string{"j"}, gyr, gyp, 7)
	gedge := pdb.NewTupleIndependent(s, "gedge", []string{"i", "j", "g"}, ger, gep, 8)

	return repro.NewDB(s, orders, disputes, xs, ys, edges, gx, gy, gedge)
}

func scan(rel string) *serve.Node { return &serve.Node{Scan: rel} }

// topkQuery is the streaming workload: orders ⋈ disputes with an opaque
// filter above the join (tainting the plan onto the lineage route, so
// the anytime scheduler runs), grouped per customer, top-k.
func topkQuery(k int) *serve.Node {
	join := &serve.Node{Join: &serve.Join{
		Left: scan("orders"), Right: scan("disputes"), LeftCol: 0, RightCol: 0,
	}}
	where := &serve.Node{Where: &serve.Where{Input: join, Col: 1, Op: "ge", Value: 0}}
	gl := &serve.Node{GroupLineage: &serve.Unary{Input: where, Cols: []int{1}}}
	return &serve.Node{TopK: &serve.TopK{Input: gl, K: k}}
}

// gridQuery is the slot-holder workload: the Boolean xs ⋈ edges ⋈ ys
// query whose exact evaluation cannot finish inside any test-sized
// budget.
func gridQuery() *serve.Node {
	inner := &serve.Node{Join: &serve.Join{
		Left: scan("xs"), Right: scan("edges"), LeftCol: 0, RightCol: 0,
	}}
	outer := &serve.Node{Join: &serve.Join{
		Left: inner, Right: scan("ys"), LeftCol: 2, RightCol: 0,
	}}
	return &serve.Node{GroupLineage: &serve.Unary{Input: outer}}
}

// gridTopK ranks the grouped grids: gx ⋈ gedge ⋈ gy, filtered to the
// group-id range [op, g], grouped by the id, top-k. The join schema is
// [gx.i, gedge.i, gedge.j, gedge.g, gy.j] — the group id at column 3.
func gridTopK(k int, op string, g int64) *serve.Node {
	j1 := &serve.Node{Join: &serve.Join{
		Left: scan("gx"), Right: scan("gedge"), LeftCol: 0, RightCol: 0,
	}}
	j2 := &serve.Node{Join: &serve.Join{
		Left: j1, Right: scan("gy"), LeftCol: 2, RightCol: 0,
	}}
	w := &serve.Node{Where: &serve.Where{Input: j2, Col: 3, Op: op, Value: g}}
	gl := &serve.Node{GroupLineage: &serve.Unary{Input: w, Cols: []int{3}}}
	return &serve.Node{TopK: &serve.TopK{Input: gl, K: k}}
}

func f64(v float64) *float64 { return &v }

type sseEvent struct {
	name string
	data json.RawMessage
}

// readSSE parses a text/event-stream body, invoking each per event
// until the stream ends or each returns false.
func readSSE(r io.Reader, each func(sseEvent) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	name := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if !each(sseEvent{name: name, data: json.RawMessage(strings.TrimPrefix(line, "data: "))}) {
				return nil
			}
		}
	}
	return sc.Err()
}

// postQuery POSTs a wire request and returns the response (caller
// closes the body).
func postQuery(tb testing.TB, base string, req serve.Request, accept string) *http.Response {
	tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if accept != "" {
		hr.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

// collectStream runs one SSE query to completion and splits the events.
func collectStream(tb testing.TB, base string, req serve.Request) (meta serve.Meta, answers []serve.Answer, errMsg string, sum serve.Summary, order []string) {
	tb.Helper()
	resp := postQuery(tb, base, req, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		tb.Fatalf("POST /v1/query: status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		tb.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	err := readSSE(resp.Body, func(e sseEvent) bool {
		order = append(order, e.name)
		switch e.name {
		case "meta":
			if err := json.Unmarshal(e.data, &meta); err != nil {
				tb.Fatalf("meta event: %v", err)
			}
		case "answer":
			var a serve.Answer
			if err := json.Unmarshal(e.data, &a); err != nil {
				tb.Fatalf("answer event: %v", err)
			}
			answers = append(answers, a)
		case "error":
			var ev struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(e.data, &ev); err != nil {
				tb.Fatalf("error event: %v", err)
			}
			errMsg = ev.Error
		case "done":
			if err := json.Unmarshal(e.data, &sum); err != nil {
				tb.Fatalf("done event: %v", err)
			}
		}
		return true
	})
	if err != nil {
		tb.Fatalf("reading stream: %v", err)
	}
	return meta, answers, errMsg, sum, order
}

type metricsPayload struct {
	Engine obs.Snapshot      `json:"engine"`
	Serve  obs.ServeSnapshot `json:"serve"`
}

func getMetrics(tb testing.TB, base string) metricsPayload {
	tb.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsPayload
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		tb.Fatal(err)
	}
	return m
}

// waitInflight polls /metrics until the serving layer reports exactly n
// streams inflight.
func waitInflight(tb testing.TB, base string, n int64) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if got := getMetrics(tb, base).Serve.StreamsInflight; got == n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	tb.Fatalf("streams_inflight never reached %d (now %d)",
		n, getMetrics(tb, base).Serve.StreamsInflight)
}

// newTestServer stands up a server over the test DB plus an httptest
// front; the cleanup shuts both down.
func newTestServer(tb testing.TB, cfg repro.ServeConfig) (*repro.QueryServer, string) {
	tb.Helper()
	srv := repro.NewServer(serveDB(tb), cfg)
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		ts.Close()
	})
	return srv, ts.URL
}

// TestServeHTTPTopKStreamsAnytime is the wire-level acceptance test of
// the anytime contract: a top-k SSE client receives its first answer
// event strictly before the final event — the first answer's
// decided_at_step is strictly below the done event's total steps, so
// the answer was on the wire while refinement of the rest was still
// running.
func TestServeHTTPTopKStreamsAnytime(t *testing.T) {
	_, base := newTestServer(t, repro.ServeConfig{DefaultEps: 1e-3})

	meta, answers, errMsg, sum, order := collectStream(t, base,
		serve.Request{Query: gridTopK(3, "le", 5)})

	if errMsg != "" || sum.Error != "" {
		t.Fatalf("stream reported error: %q / %q", errMsg, sum.Error)
	}
	if len(order) < 3 || order[0] != "meta" || order[len(order)-1] != "done" {
		t.Fatalf("event order %v, want meta ... done", order)
	}
	if meta.ID == "" || meta.Eps != 1e-3 || meta.Degraded {
		t.Fatalf("meta = %+v, want an ID, eps 1e-3, not degraded", meta)
	}
	if !strings.Contains(meta.Explain, "d-tree") {
		t.Fatalf("explain %q: the workload must take the lineage route for anytime streaming", meta.Explain)
	}
	if len(meta.Schema) != 1 || !strings.HasSuffix(meta.Schema[0], "gedge.g") {
		t.Fatalf("schema %v, want the single group column gedge.g", meta.Schema)
	}
	if len(answers) != 3 || sum.Answers != 3 {
		t.Fatalf("%d answer events, summary says %d, want 3", len(answers), sum.Answers)
	}
	if sum.Steps == 0 {
		t.Fatal("done event carries no scheduler steps")
	}
	first := answers[0]
	if first.DecidedAtStep <= 0 || int64(first.DecidedAtStep) >= sum.Steps {
		t.Fatalf("first answer decided_at_step = %d, total steps = %d: want 0 < decided < steps (the anytime proof)",
			first.DecidedAtStep, sum.Steps)
	}
	for i, a := range answers {
		if a.P < a.Lo-1e-12 || a.P > a.Hi+1e-12 || a.Lo < 0 || a.Hi > 1 {
			t.Fatalf("answer %d bounds inconsistent: p=%v in [%v, %v]?", i, a.P, a.Lo, a.Hi)
		}
	}
	if sum.Route != "d-tree" {
		t.Fatalf("summary route %q, want d-tree", sum.Route)
	}
}

// TestServeHTTPBatchMode pins the Accept: application/json path: one
// JSON document with meta, answers and summary.
func TestServeHTTPBatchMode(t *testing.T) {
	_, base := newTestServer(t, repro.ServeConfig{DefaultEps: 1e-3})

	resp := postQuery(t, base, serve.Request{Query: topkQuery(2)}, "application/json")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Meta    serve.Meta     `json:"meta"`
		Answers []serve.Answer `json:"answers"`
		Summary serve.Summary  `json:"summary"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Answers) != 2 || out.Summary.Answers != 2 || out.Summary.Error != "" {
		t.Fatalf("batch response %+v", out)
	}
}

// TestServeHTTPBuildErrors400 pins the wire-validation contract: every
// misuse surfaces as a 400 whose message is the builder's own
// BuildError vocabulary.
func TestServeHTTPBuildErrors400(t *testing.T) {
	_, base := newTestServer(t, repro.ServeConfig{DefaultEps: 0.01})

	cases := []struct {
		name string
		q    *serve.Node
		want string
	}{
		{"unknown relation", &serve.Node{Scan: "nope"}, "not registered"},
		{"no operator", &serve.Node{}, "exactly one operator"},
		{"two operators", &serve.Node{Scan: "orders", TopK: &serve.TopK{Input: scan("orders"), K: 1}}, "exactly one operator"},
		{"bad where op", &serve.Node{Where: &serve.Where{Input: scan("orders"), Col: 0, Op: "like", Value: 1}}, "unknown where op"},
		{"where column range", &serve.Node{Where: &serve.Where{Input: scan("orders"), Col: 9, Op: "eq", Value: 1}}, "out of range"},
		{"join column range", &serve.Node{Join: &serve.Join{Left: scan("orders"), Right: scan("disputes"), LeftCol: 7, RightCol: 0}}, "out of range"},
		{"nested ranking", &serve.Node{Join: &serve.Join{
			Left:  &serve.Node{TopK: &serve.TopK{Input: &serve.Node{GroupLineage: &serve.Unary{Input: scan("orders"), Cols: []int{0}}}, K: 1}},
			Right: scan("disputes"), LeftCol: 0, RightCol: 0}}, "outermost"},
		{"missing query", nil, "missing query"},
	}
	for _, c := range cases {
		for _, accept := range []string{"", "application/json"} {
			resp := postQuery(t, base, serve.Request{Query: c.q}, accept)
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s (accept %q): status %d, want 400 (body %s)", c.name, accept, resp.StatusCode, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, c.want) {
				t.Fatalf("%s: error %q does not mention %q", c.name, e.Error, c.want)
			}
		}
	}

	// Malformed JSON and unknown fields are 400s too.
	resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(`{"quary": {}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

// TestServeHTTPSessionAffinity pins the session manager: requests
// naming a session share its caches (the second identical query hits
// the prepared-fragment cache), the sticky explicit Eps is inherited,
// and /v1/sessions lists the pinned sessions.
func TestServeHTTPSessionAffinity(t *testing.T) {
	_, base := newTestServer(t, repro.ServeConfig{DefaultEps: 1e-3})

	run := func(req serve.Request) (serve.Meta, serve.Summary) {
		m, _, errMsg, sum, _ := collectStream(t, base, req)
		if errMsg != "" {
			t.Fatalf("stream error: %s", errMsg)
		}
		return m, sum
	}

	m1, _ := run(serve.Request{Session: "alice", Query: topkQuery(3)})
	m2, _ := run(serve.Request{Session: "alice", Query: topkQuery(3)})
	if m1.ID == m2.ID {
		t.Fatalf("two queries share ID %s", m1.ID)
	}

	// The second run's trace must show fragment-cache hits: the pinned
	// session cache prepared these exact lineage fragments on run one.
	tr := getTrace(t, base, m2.ID)
	if tr.Trace == nil || tr.Trace.FragCache.Hits == 0 {
		t.Fatalf("second run on session alice hit no prepared fragments: %+v", tr.Trace)
	}

	// Sticky explicit Eps: bob pins 0.005 once; his next request
	// without an Eps inherits it.
	mb1, _ := run(serve.Request{Session: "bob", Eps: f64(0.005), Query: topkQuery(2)})
	if mb1.Eps != 0.005 {
		t.Fatalf("bob's explicit eps = %g, want 0.005", mb1.Eps)
	}
	mb2, _ := run(serve.Request{Session: "bob", Query: topkQuery(2)})
	if mb2.Eps != 0.005 {
		t.Fatalf("bob's inherited eps = %g, want the sticky 0.005", mb2.Eps)
	}

	// /v1/sessions lists both, idle, with bob's pinned precision.
	resp, err := http.Get(base + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sl struct {
		Sessions []serve.SessionInfo `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sl); err != nil {
		t.Fatal(err)
	}
	byName := map[string]serve.SessionInfo{}
	for _, s := range sl.Sessions {
		byName[s.Name] = s
	}
	if len(byName) != 2 {
		t.Fatalf("sessions %v, want alice and bob", sl.Sessions)
	}
	if s := byName["bob"]; !s.Explicit || s.Eps != 0.005 || s.Inflight != 0 {
		t.Fatalf("bob's session row %+v", s)
	}
}

// TestServeHTTPSessionExpiry pins the janitor: an idle named session
// expires after the TTL and the churn shows in the metrics.
func TestServeHTTPSessionExpiry(t *testing.T) {
	_, base := newTestServer(t, repro.ServeConfig{
		DefaultEps: 0.01,
		SessionTTL: 50 * time.Millisecond,
		SweepEvery: time.Second, // floor of the knob; rely on it once
	})
	if _, _, errMsg, _, _ := collectStream(t, base, serve.Request{Session: "ghost", Query: topkQuery(1)}); errMsg != "" {
		t.Fatalf("stream error: %s", errMsg)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := getMetrics(t, base).Serve
		if m.SessionsExpired == 1 && m.SessionsActive == 0 {
			if m.SessionsCreated != 1 {
				t.Fatalf("sessions_created = %d, want 1", m.SessionsCreated)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never expired: %+v", m)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

type traceResponse struct {
	ID      string            `json:"id"`
	Session string            `json:"session"`
	Meta    serve.Meta        `json:"meta"`
	Summary serve.Summary     `json:"summary"`
	Trace   *repro.QueryTrace `json:"trace"`
}

func getTrace(tb testing.TB, base, id string) traceResponse {
	tb.Helper()
	resp, err := http.Get(base + "/v1/query/" + id + "/trace")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("GET trace %s: status %d", id, resp.StatusCode)
	}
	var tr traceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestServeHTTPTraceEndpoint pins GET /v1/query/{id}/trace: the stored
// EXPLAIN ANALYZE record round-trips, the text render works, unknown
// IDs 404.
func TestServeHTTPTraceEndpoint(t *testing.T) {
	_, base := newTestServer(t, repro.ServeConfig{DefaultEps: 1e-3})

	meta, _, _, sum, _ := collectStream(t, base, serve.Request{Session: "tracer", Query: topkQuery(2)})
	tr := getTrace(t, base, meta.ID)
	if tr.ID != meta.ID || tr.Session != "tracer" {
		t.Fatalf("trace identity %q/%q, want %q/tracer", tr.ID, tr.Session, meta.ID)
	}
	if tr.Summary.Answers != sum.Answers || tr.Summary.Steps != sum.Steps {
		t.Fatalf("stored summary %+v diverges from streamed %+v", tr.Summary, sum)
	}
	if tr.Trace == nil || tr.Trace.Route != "d-tree" || tr.Trace.Rank == nil || tr.Trace.Rank.Steps != sum.Steps {
		t.Fatalf("stored trace incomplete: %+v", tr.Trace)
	}

	resp, err := http.Get(base + "/v1/query/" + meta.ID + "/trace?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "EXPLAIN ANALYZE") || !strings.Contains(string(text), "top-k") {
		t.Fatalf("text trace render:\n%s", text)
	}

	resp, err = http.Get(base + "/v1/query/q-99999/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace id: status %d, want 404", resp.StatusCode)
	}
}

// TestServeHTTPOverloadDegradesThenRejects is the admission acceptance
// test: under induced overload the service first serves wider-eps
// answers (degraded meta on a default-precision probe), then sheds with
// 429 + Retry-After — and both transitions are visible in GET /metrics
// counters. The slot holders use an explicit Eps, so the clamp keeps
// them undegraded (satellite: never degrade an explicitly requested
// precision) and their intractable grid query pins the slots until its
// budget expires.
func TestServeHTTPOverloadDegradesThenRejects(t *testing.T) {
	_, base := newTestServer(t, repro.ServeConfig{
		DefaultEps:  0.01,
		DegradedEps: 0.2,
		MaxInflight: 2,
		DegradeAt:   1,
	})

	holder := func(timeoutMS int) (meta serve.Meta, sum serve.Summary) {
		m, _, _, s, _ := collectStream(t, base, serve.Request{
			Eps:    f64(0), // explicit exact: the clamp must never widen it
			Budget: &serve.Budget{TimeoutMS: timeoutMS},
			Query:  gridQuery(),
		})
		return m, s
	}

	var wg sync.WaitGroup
	results := make([]serve.Summary, 2)
	metas := make([]serve.Meta, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		metas[0], results[0] = holder(6000)
	}()
	waitInflight(t, base, 1)

	// Phase 1 — soft pressure: one slot held, the next default-eps
	// query is admitted but degraded to the wider Eps.
	probe := postQuery(t, base, serve.Request{Query: topkQuery(1)}, "application/json")
	var probeOut struct {
		Meta    serve.Meta    `json:"meta"`
		Summary serve.Summary `json:"summary"`
	}
	if err := json.NewDecoder(probe.Body).Decode(&probeOut); err != nil {
		t.Fatal(err)
	}
	probe.Body.Close()
	if probe.StatusCode != http.StatusOK {
		t.Fatalf("degraded probe: status %d, want 200", probe.StatusCode)
	}
	if !probeOut.Meta.Degraded || probeOut.Meta.Eps != 0.2 {
		t.Fatalf("probe under pressure: meta %+v, want degraded at eps 0.2", probeOut.Meta)
	}
	if probeOut.Summary.Error != "" {
		t.Fatalf("degraded probe failed: %s", probeOut.Summary.Error)
	}

	// Phase 2 — hard pressure: fill the second slot, then the service
	// sheds with 429 + Retry-After.
	waitInflight(t, base, 1) // probe slot released, holder A still in
	wg.Add(1)
	go func() {
		defer wg.Done()
		metas[1], results[1] = holder(6000)
	}()
	waitInflight(t, base, 2)

	reject := postQuery(t, base, serve.Request{Query: topkQuery(1)}, "application/json")
	body, _ := io.ReadAll(reject.Body)
	reject.Body.Close()
	if reject.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("probe at ceiling: status %d, want 429 (body %s)", reject.StatusCode, body)
	}
	if reject.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Both transitions visible in the metrics counters.
	m := getMetrics(t, base).Serve
	if m.Degraded != 1 {
		t.Fatalf("degraded counter = %d, want 1 (only the default-eps probe)", m.Degraded)
	}
	if m.Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", m.Rejected)
	}
	if m.Requests != 4 || m.Admitted != 3 {
		t.Fatalf("requests/admitted = %d/%d, want 4/3", m.Requests, m.Admitted)
	}

	// The holders drain: their budget expires, the stream still ends
	// with a well-formed done event carrying the budget error, and the
	// clamp never widened their explicit exact ask.
	wg.Wait()
	for i := range results {
		if metas[i].Degraded || metas[i].Eps != 0 {
			t.Fatalf("holder %d meta %+v: explicit exact ask was altered", i, metas[i])
		}
		if results[i].Error == "" {
			t.Fatalf("holder %d finished without a budget error — the grid query is supposed to be intractable", i)
		}
	}
	waitInflight(t, base, 0)
}

// TestServeHTTPDisconnectCancels pins mid-stream disconnects: a client
// that goes away after the first answer cancels the evaluation through
// its request context, and the server records the disconnect.
func TestServeHTTPDisconnectCancels(t *testing.T) {
	_, base := newTestServer(t, repro.ServeConfig{DefaultEps: 1e-4})

	// Top-2 over group 9 (easy, decided in early — the first answer)
	// and the tied pair 10/11, requested exact (explicit eps 0): the
	// perfect tie can only be broken by fully resolving both grids, so
	// the stream is guaranteed to still be grinding when the client
	// hangs up after the first answer — no race against a fast machine
	// finishing an approximate grind before the cancel propagates.
	body, err := json.Marshal(serve.Request{
		Eps:    f64(0),
		Budget: &serve.Budget{TimeoutMS: 60_000},
		Query:  gridTopK(2, "ge", 9),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sawAnswer := false
	readSSE(resp.Body, func(e sseEvent) bool {
		if e.name == "answer" {
			sawAnswer = true
			cancel() // hang up mid-stream
			return false
		}
		return true
	})
	if !sawAnswer {
		t.Fatal("stream ended before any answer")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		m := getMetrics(t, base).Serve
		if m.Disconnects == 1 && m.StreamsInflight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("disconnect not retired: %+v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeHTTPGracefulShutdown pins the drain: once Shutdown starts,
// health flips to 503 and new queries are shed; a stream still running
// past the drain deadline is hard-stopped through the base context; the
// drain time lands in the metrics.
func TestServeHTTPGracefulShutdown(t *testing.T) {
	srv := repro.NewServer(serveDB(t), repro.ServeConfig{DefaultEps: 0.01})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	base := ts.URL

	// Hold a stream with an effectively unbounded intractable query.
	holderDone := make(chan serve.Summary, 1)
	go func() {
		_, _, _, sum, _ := collectStream(t, base, serve.Request{
			Eps:    f64(0),
			Budget: &serve.Budget{TimeoutMS: 60_000},
			Query:  gridQuery(),
		})
		holderDone <- sum
	}()
	waitInflight(t, base, 1)

	dctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := srv.Shutdown(dctx)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Shutdown took %v despite the 300ms drain deadline", took)
	}
	if err == nil {
		t.Fatal("Shutdown with an in-flight intractable stream should report the drain deadline")
	}

	// The held stream was hard-stopped and reports the cancellation.
	select {
	case sum := <-holderDone:
		if sum.Error == "" {
			t.Fatalf("hard-stopped holder summary %+v, want an error", sum)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("holder stream never ended after hard stop")
	}

	// Draining is terminal: health 503, new queries 503.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown: %d, want 503", resp.StatusCode)
	}
	resp = postQuery(t, base, serve.Request{Query: topkQuery(1)}, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query after shutdown: %d, want 503", resp.StatusCode)
	}

	if m := srv.Metrics().Snapshot(); m.DrainMicros.Count != 1 || m.StreamsInflight != 0 {
		t.Fatalf("drain metrics %+v", m)
	}
}

// TestServeHTTPMetricsEndpoint pins the /metrics shape: the engine
// snapshot and the serving snapshot side by side, both live.
func TestServeHTTPMetricsEndpoint(t *testing.T) {
	_, base := newTestServer(t, repro.ServeConfig{DefaultEps: 1e-3})

	if _, _, errMsg, _, _ := collectStream(t, base, serve.Request{Query: topkQuery(2)}); errMsg != "" {
		t.Fatalf("stream error: %s", errMsg)
	}
	m := getMetrics(t, base)
	if m.Engine.Queries != 1 || m.Engine.RouteLineage != 1 {
		t.Fatalf("engine snapshot: queries=%d lineage=%d, want 1/1", m.Engine.Queries, m.Engine.RouteLineage)
	}
	if m.Serve.Requests != 1 || m.Serve.Admitted != 1 || m.Serve.AnswersStreamed != 2 {
		t.Fatalf("serve snapshot %+v", m.Serve)
	}
	if m.Serve.FirstEventMicros.Count != 1 {
		t.Fatalf("first-event latency not recorded: %+v", m.Serve.FirstEventMicros)
	}
}
