package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Request is the JSON body of POST /v1/query: which affinity session to
// run under, an optional per-request precision and budget, and the
// query itself in the wire plan IR.
type Request struct {
	// Session names the affinity session the query runs under. Named
	// sessions pin their probability and prepared-fragment caches across
	// requests (and expire when idle, Config.SessionTTL); an empty name
	// runs the query on a fresh one-shot session.
	Session string `json:"session,omitempty"`
	// Eps, when present, is an explicit request for the ε-approximation
	// floor (absolute error). An explicit Eps is a contract: admission
	// control never degrades such a query to a wider Eps — under
	// pressure it either runs as requested or is shed with 429. Requests
	// without Eps run at the server default and are eligible for
	// degradation. On a named session the explicit Eps is sticky: later
	// requests on the session inherit it unless they carry their own.
	Eps *float64 `json:"eps,omitempty"`
	// Budget bounds the evaluation (see Budget); nil or all-zero runs
	// under the server's default budget.
	Budget *Budget `json:"budget,omitempty"`
	// Query is the plan in wire IR form.
	Query *Node `json:"query"`
}

// MaxWireNodes caps the operator count of one wire query. The request
// body is already size-capped, but a pathological body can still pack
// thousands of operators into it; refusing them at validation keeps
// the compile step's work proportional to queries a human could have
// meant, and turns a resource-exhaustion vector into a 400.
const MaxWireNodes = 4096

// Validate rejects request shapes that must never reach the engine:
// a non-finite or out-of-range Eps (NaN would poison every bounds
// comparison downstream), negative budget fields (the engine treats
// them as "no budget", silently unbounding the query), and plans over
// MaxWireNodes operators. Violations come back as 400 RequestErrors;
// a valid request passes through untouched.
func (r *Request) Validate() error {
	if r.Eps != nil {
		e := *r.Eps
		if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 || e >= 1 {
			return &RequestError{Status: 400, Err: fmt.Errorf("eps %v must be a finite value in [0, 1)", e)}
		}
	}
	if b := r.Budget; b != nil {
		if b.MaxNodes < 0 || b.MaxWork < 0 || b.MaxSamples < 0 || b.TimeoutMS < 0 {
			return &RequestError{Status: 400, Err: errors.New("budget fields must be non-negative")}
		}
	}
	if n := countNodes(r.Query); n > MaxWireNodes {
		return &RequestError{Status: 400, Err: fmt.Errorf("query plan has over %d operators", MaxWireNodes)}
	}
	return nil
}

// countNodes sizes a wire plan with an explicit stack (no recursion —
// the tree shape is client-controlled), stopping as soon as the cap is
// exceeded.
func countNodes(root *Node) int {
	if root == nil {
		return 0
	}
	n := 0
	stack := []*Node{root}
	for len(stack) > 0 && n <= MaxWireNodes {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if nd == nil {
			continue
		}
		n++
		switch {
		case nd.Where != nil:
			stack = append(stack, nd.Where.Input)
		case nd.Join != nil:
			stack = append(stack, nd.Join.Left, nd.Join.Right)
		case nd.JoinLess != nil:
			stack = append(stack, nd.JoinLess.Left, nd.JoinLess.Right)
		case nd.Project != nil:
			stack = append(stack, nd.Project.Input)
		case nd.GroupLineage != nil:
			stack = append(stack, nd.GroupLineage.Input)
		case nd.TopK != nil:
			stack = append(stack, nd.TopK.Input)
		case nd.Threshold != nil:
			stack = append(stack, nd.Threshold.Input)
		}
	}
	return n
}

// Budget is the wire form of engine.Budget. Zero fields are unlimited;
// a request whose budget is all zero runs under the server's default.
// The budget bounds evaluation on the lineage route only: the safe and
// IQ routes compute exact answers without an evaluator and do not
// apply it.
type Budget struct {
	// MaxNodes bounds the d-tree nodes each answer's evaluation (or,
	// on a ranked query, each answer's refiner) may construct.
	MaxNodes int `json:"max_nodes,omitempty"`
	// MaxWork bounds each answer's cumulative clause-processing work,
	// counted like MaxNodes.
	MaxWork int `json:"max_work,omitempty"`
	// MaxSamples bounds the Monte Carlo estimator's samples per answer.
	MaxSamples int `json:"max_samples,omitempty"`
	// TimeoutMS is a wall-clock deadline in milliseconds. On a ranked
	// (top_k or threshold) query it bounds the whole scheduling run.
	// On an unranked lineage-route query it bounds each answer's
	// evaluation separately, so n slow answers can take up to
	// ⌈n / parallelism⌉ × timeout in total.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Engine converts to the engine's budget shape (nil means unlimited).
func (b *Budget) Engine() engine.Budget {
	if b == nil {
		return engine.Budget{}
	}
	return engine.Budget{
		MaxNodes:   b.MaxNodes,
		MaxWork:    b.MaxWork,
		MaxSamples: b.MaxSamples,
		Timeout:    time.Duration(b.TimeoutMS) * time.Millisecond,
	}
}

// Node is one wire-format plan operator; exactly one field must be set.
// The tree mirrors the fluent builder one-to-one, and the backend
// compiles it through the builder, so every misuse (unregistered
// relation, out-of-range column, nested ranking, ...) surfaces with the
// builder's own validation message as a 400.
type Node struct {
	// Scan reads a registered relation by name.
	Scan string `json:"scan,omitempty"`
	// Where keeps input tuples with Col op Value (a leaf filter when
	// directly over a scan; forces the lineage route elsewhere).
	Where *Where `json:"where,omitempty"`
	// Join equi-joins two subtrees on left[LeftCol] = right[RightCol].
	Join *Join `json:"join,omitempty"`
	// JoinLess joins on left[LeftCol] < right[RightCol] — the structured
	// inequality the IQ sorted-scan route recognizes.
	JoinLess *Join `json:"join_less,omitempty"`
	// Project narrows the schema to Cols.
	Project *Unary `json:"project,omitempty"`
	// GroupLineage terminates the relational chain: group by Cols, each
	// group's lineage becomes the answer's DNF (empty Cols = the Boolean
	// query).
	GroupLineage *Unary `json:"group_lineage,omitempty"`
	// TopK keeps the K most probable answers (outermost only).
	TopK *TopK `json:"top_k,omitempty"`
	// Threshold keeps the answers with P ≥ Tau (outermost only).
	Threshold *Threshold `json:"threshold,omitempty"`
}

// Where is a column-literal comparison filter.
type Where struct {
	Input *Node `json:"input"`
	Col   int   `json:"col"`
	// Op is one of "eq", "ne", "lt", "le", "gt", "ge".
	Op    string `json:"op"`
	Value int64  `json:"value"`
}

// Join joins two wire subtrees on a column pair.
type Join struct {
	Left     *Node `json:"left"`
	Right    *Node `json:"right"`
	LeftCol  int   `json:"left_col"`
	RightCol int   `json:"right_col"`
}

// Unary is a single-input operator with a column list.
type Unary struct {
	Input *Node `json:"input"`
	Cols  []int `json:"cols"`
}

// TopK is the wire top-k root.
type TopK struct {
	Input *Node `json:"input"`
	K     int   `json:"k"`
}

// Threshold is the wire threshold root.
type Threshold struct {
	Input *Node   `json:"input"`
	Tau   float64 `json:"tau"`
}

// Meta is the stream's first event: the query's identity and routing,
// and the precision it actually runs at (Degraded marks an Eps widened
// by admission control).
type Meta struct {
	ID       string   `json:"id"`
	Session  string   `json:"session,omitempty"`
	Explain  string   `json:"explain"`
	Schema   []string `json:"schema,omitempty"`
	Eps      float64  `json:"eps"`
	Degraded bool     `json:"degraded,omitempty"`
}

// Answer is one streamed answer event. DecidedAtStep, on ranked
// queries, is the scheduler's cumulative step count at the moment this
// answer's membership was proven; an answer event whose DecidedAtStep
// is strictly below the done event's steps was on the wire before the
// query finished refining.
type Answer struct {
	Vals          []int64 `json:"vals"`
	P             float64 `json:"p"`
	Lo            float64 `json:"lo"`
	Hi            float64 `json:"hi"`
	Exact         bool    `json:"exact,omitempty"`
	Converged     bool    `json:"converged,omitempty"`
	DecidedAtStep int     `json:"decided_at_step,omitempty"`
}

// Summary is the stream's final (done) event.
type Summary struct {
	Answers    int    `json:"answers"`
	Steps      int64  `json:"steps,omitempty"`
	Route      string `json:"route,omitempty"`
	WallMicros int64  `json:"wall_us"`
	Error      string `json:"error,omitempty"`
}

// RunParams is what admission control decided for one query: its
// assigned ID, the effective Eps (after any degradation), and the
// evaluation budget.
type RunParams struct {
	ID       string
	Eps      float64
	Degraded bool
	Budget   engine.Budget
}

// Sink receives a run's wire events in order: Meta once, then Answer
// per streamed answer. A false return means the client is gone and the
// run should stop (breaking the answer stream cancels the underlying
// evaluation).
type Sink interface {
	Meta(Meta) bool
	Answer(Answer) bool
}

// RunOutcome is a completed (or failed) run's bookkeeping: the done
// event's summary and the execution's EXPLAIN ANALYZE trace for the
// per-query debug endpoint.
type RunOutcome struct {
	Summary Summary
	Trace   *obs.QueryTrace
}

// SessionClient is one affinity session's query executor: the backend
// pins per-session state (probability and prepared-fragment caches)
// inside it, and Run builds and executes one wire request against it.
// Implementations must be safe for concurrent Runs — the soak profile
// is N goroutines per named session.
type SessionClient interface {
	Run(ctx context.Context, req *Request, p RunParams, sink Sink) (RunOutcome, error)
}

// Backend is the query engine the server fronts. The root repro package
// implements it over the DB → Session → Query façade (repro.NewServer);
// the indirection keeps this package importable from the façade, so
// serve options can be re-exported there.
type Backend interface {
	// OpenSession creates one affinity unit with fresh pinned state.
	OpenSession() SessionClient
	// Snapshot exports the engine metrics for GET /metrics.
	Snapshot() obs.Snapshot
}

// RequestError is a request-level failure with an HTTP status — the
// backend wraps query-build failures (the façade's BuildErrors) with
// status 400, and the handler maps them onto the response before any
// stream output has been written.
type RequestError struct {
	Status int
	Err    error
}

func (e *RequestError) Error() string { return e.Err.Error() }

// Unwrap exposes the wrapped error to errors.As/Is.
func (e *RequestError) Unwrap() error { return e.Err }
