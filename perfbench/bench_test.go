package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {2000, 0.99}, {100, 0.90}, {50, 0.80}, {20, 0.5}, {12, 0.5}} {
		if got := tailQuantile(c.n, 0.99); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d, 0.99) = %v, want %v", c.n, got, c.want)
		}
	}
	for _, n := range []int{20, 37, 100, 250, 1000, 1500} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		v, q := tail(xs, 0.99)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minTail {
			t.Errorf("n=%d: p%.1f = %v leaves %d samples beyond it, want at least %d", n, 100*q, v, beyond, minTail)
		}
		if n >= 1000 && q != 0.99 {
			t.Errorf("n=%d: reported p%.1f, want p99", n, 100*q)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

// TestOpenLoopCountsFromDue drives the generator with a fake server
// slower than the arrival rate over one connection: requests queue,
// each is sent later than due, and its latency counts from due.
func TestOpenLoopCountsFromDue(t *testing.T) {
	const service = 20 * time.Millisecond
	send := func(arrival) (*reply, error) {
		rep := &reply{sent: time.Now()}
		time.Sleep(service)
		rep.done = time.Now()
		return rep, nil
	}
	var arr []arrival
	for i := 0; i < 12; i++ {
		arr = append(arr, arrival{due: time.Duration(i) * 5 * time.Millisecond})
	}
	ss := openLoop(time.Now(), arr, 1, send)
	for i, s := range ss {
		// Request i cannot start before i services have finished.
		minLag := time.Duration(i)*service - s.due - 2*time.Millisecond
		if s.lag < minLag {
			t.Errorf("request %d: lag %v, want at least %v", i, s.lag, minLag)
		}
		if lat := s.rep.done.Sub(s.dueAt); lat < s.lag+service {
			t.Errorf("request %d: latency %v from due misses the %v wait", i, lat, s.lag)
		}
	}
	if !backlogGrew(ss, 50*time.Millisecond) {
		t.Error("an overloaded generator did not report a growing backlog")
	}

	// The same server, offered less than it can serve, keeps up.
	arr = arr[:0]
	for i := 0; i < 8; i++ {
		arr = append(arr, arrival{due: time.Duration(i) * 40 * time.Millisecond})
	}
	ss = openLoop(time.Now(), arr, 1, send)
	for i, s := range ss {
		if s.lag > 15*time.Millisecond {
			t.Errorf("underloaded request %d sent %v late", i, s.lag)
		}
	}
	if backlogGrew(ss, 50*time.Millisecond) {
		t.Error("an underloaded generator reported a growing backlog")
	}
}

func TestApportionIsExact(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 333} {
		got := apportion(n, []float64{0.25, 0.15, 0.35, 0.25})
		sum := 0
		for _, c := range got {
			sum += c
		}
		if sum != n {
			t.Errorf("apportion(%d) = %v sums to %d", n, got, sum)
		}
	}
	if got := apportion(100, []float64{0.25, 0.15, 0.35, 0.25}); fmt.Sprint(got) != "[25 15 35 25]" {
		t.Errorf("apportion(100) = %v", got)
	}
}

func TestReadSSEFields(t *testing.T) {
	in := "retry: 1000\n\n: comment\nid: q-1/1\nevent: answer\ndata: {\"a\":\ndata: 1}\n\nevent: done\ndata: {}\n\n"
	var got []string
	if err := readSSE(strings.NewReader(in), func(name string, data []byte) bool {
		got = append(got, name+"="+string(data))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"answer={\"a\":\n1}", "done={}"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("events %q, want %q", got, want)
	}
}

// TestFirstAnswerIsAnswerEvent streams a meta event, then an answer
// event later: the first answer is stamped at the answer event, not at
// the stream's first bytes.
func TestFirstAnswerIsAnswerEvent(t *testing.T) {
	const gap = 40 * time.Millisecond
	pr, pw := io.Pipe()
	go func() {
		fmt.Fprint(pw, "retry: 1000\n\nevent: meta\ndata: {\"id\":\"q-1\",\"eps\":0.01}\n\n")
		time.Sleep(gap)
		fmt.Fprint(pw, "id: q-1/1\nevent: answer\ndata: {\"vals\":[1],\"p\":0.5,\"lo\":0.49,\"hi\":0.51}\n\n")
		fmt.Fprint(pw, "event: done\ndata: {\"answers\":1,\"wall_us\":5}\n\n")
		pw.Close()
	}()
	rep := &reply{status: 200}
	start := time.Now()
	if err := consumeStream(pr, time.Now, false, rep); err != nil {
		t.Fatal(err)
	}
	if rep.meta.Sub(start) > gap/2 {
		t.Errorf("meta stamped %v after start, want before the gap", rep.meta.Sub(start))
	}
	if d := rep.first.Sub(rep.meta); d < gap*3/4 {
		t.Errorf("first answer stamped %v after meta, want the %v gap", d, gap)
	}
	if rep.metaEv.ID != "q-1" || len(rep.answers) != 1 || rep.done.IsZero() || rep.failure() != "" {
		t.Errorf("reply %+v", rep)
	}
}

func TestHangUpStopsAfterFirstAnswer(t *testing.T) {
	in := "event: meta\ndata: {\"id\":\"q-2\"}\n\nevent: answer\ndata: {\"vals\":[1]}\n\nevent: answer\ndata: {\"vals\":[2]}\n\nevent: done\ndata: {}\n\n"
	rep := &reply{status: 200}
	if err := consumeStream(strings.NewReader(in), time.Now, true, rep); err != nil {
		t.Fatal(err)
	}
	if !rep.hungUp || len(rep.answers) != 1 || !rep.done.IsZero() {
		t.Errorf("hung-up reply %+v", rep)
	}
	if f := rep.failure(); f != "" {
		t.Errorf("a deliberate hang-up counted as failure %q", f)
	}
	errRep := &reply{status: 200}
	in = "event: meta\ndata: {}\n\nevent: error\ndata: {\"error\":\"boom\"}\n\nevent: done\ndata: {\"error\":\"boom\"}\n\n"
	if err := consumeStream(strings.NewReader(in), time.Now, false, errRep); err != nil {
		t.Fatal(err)
	}
	if errRep.failure() == "" {
		t.Error("an error event did not count as a failure")
	}
}

func TestCheckAnswersCatchesWrongAnswers(t *testing.T) {
	ref := reference{"1": {0.80, 0.8001}, "2": {0.50, 0.5001}, "3": {0.20, 0.2001}}
	ans := func(v int64, lo, hi float64) serve.Answer {
		return serve.Answer{Vals: []int64{v}, Lo: lo, Hi: hi, P: (lo + hi) / 2}
	}
	good := []serve.Answer{ans(1, 0.79, 0.81), ans(2, 0.49, 0.51), ans(3, 0.19, 0.21)}
	top2 := rankCut{k: 2, on: true}
	thr := rankCut{tau: 0.4, on: true}
	for _, c := range []struct {
		name     string
		cut      rankCut
		got      []serve.Answer
		complete bool
		ok       bool
	}{
		{"all answers", rankCut{}, good, true, true},
		{"interval misses the reference", rankCut{}, []serve.Answer{ans(1, 0.79, 0.81), ans(2, 0.52, 0.54), ans(3, 0.19, 0.21)}, true, false},
		{"answer missing", rankCut{}, good[:2], true, false},
		{"unknown answer", rankCut{}, append(good, ans(4, 0, 1)), true, false},
		{"top-2", top2, good[:2], true, true},
		{"top-2 holds a non-top answer", top2, []serve.Answer{good[0], good[2]}, true, false},
		{"top-2 short", top2, good[:1], true, false},
		{"top-2 hung up after one", top2, good[:1], false, true},
		{"threshold", thr, good[:2], true, true},
		{"threshold misses an answer", thr, good[:1], true, false},
		{"threshold holds a low answer", thr, good, true, false},
	} {
		err := checkAnswers(ref, c.cut, c.got, c.complete, 0.01)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestCheckEpsCatchesMissedEpsilon(t *testing.T) {
	in := &instance{name: "x", eps: 0.01, kind: engine.Relative, ref: [2]float64{0.5, 0.5}}
	ok := engine.Result{Lo: 0.498, Hi: 0.503, Estimate: 0.5005, Converged: true}
	if err := checkEps(in, ok, nil); err != nil {
		t.Errorf("a correct ε-approximation failed: %v", err)
	}
	for name, res := range map[string]engine.Result{
		"not converged":         {Lo: 0.4, Hi: 0.6, Estimate: 0.5},
		"interval misses":       {Lo: 0.51, Hi: 0.52, Estimate: 0.515, Converged: true},
		"estimate outside of ε": {Lo: 0.4, Hi: 0.6, Estimate: 0.45, Converged: true},
	} {
		if err := checkEps(in, res, nil); err == nil {
			t.Errorf("%s: accepted %+v", name, res)
		}
	}
}

func TestStampDiffersOnHost(t *testing.T) {
	a := stamp{CPU: "x", NProc: 2, GOMAXPROCSDaemon: 2, GOMAXPROCSGenerator: 2, GoVersion: "go1.24.0"}
	b := a
	b.Commit, b.Source = "other", "other"
	if d := a.differs(b); d != "" {
		t.Errorf("same host reported different: %s", d)
	}
	b.NProc = 4
	if a.differs(b) == "" {
		t.Error("different nproc not reported")
	}
}
