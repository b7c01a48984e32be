// Package repro is a from-scratch Go implementation of
//
//	Dan Olteanu, Jiewen Huang, Christoph Koch:
//	"Approximate Confidence Computation in Probabilistic Databases",
//	ICDE 2010
//
// — the d-tree algorithm for deterministic approximate probability
// computation with error guarantees, together with every substrate its
// evaluation depends on: a propositional-formula layer over discrete
// random variables, a lineage-carrying probabilistic-database engine,
// the Karp-Luby / Dagum-Karp-Luby-Ross Monte Carlo baseline, the SPROUT
// exact baselines for tractable queries, and the TPC-H / random-graph /
// social-network workloads of the paper's experiments.
//
// This root package re-exports the main entry points; the
// implementation lives in the internal packages:
//
//	internal/formula  — variables, clauses, DNFs, probability spaces,
//	                    and the hash-consed subformula probability cache
//	internal/core     — d-tree compilation, bounds, ε-approximation
//	internal/engine   — the unified, cancellable Evaluator API over the
//	                    whole algorithm menu (d-tree exact/approx, Monte
//	                    Carlo, SPROUT plans) with structured budgets
//	internal/workpool — bounded worker pools (one per DB, plus a
//	                    process-wide default for the flat API) driving
//	                    parallel d-tree exploration, batch conf()
//	                    fan-out, and sharded lineage chains
//	internal/mc       — Karp-Luby estimator, DKLR stopping rule (aconf)
//	internal/pdb      — probabilistic relations, positive RA, and the
//	                    parallel batch conf() operator
//	internal/plan     — the query subsystem: logical plan IR (incl. the
//	                    TopK/Threshold ranking roots), the safe/IQ/d-tree
//	                    planner, and the pipelined streaming operator
//	                    runtime
//	internal/rank     — anytime multi-answer ranking: top-k and
//	                    threshold schedulers over resumable d-tree
//	                    refiners (bound separation instead of full
//	                    evaluation)
//	internal/obs      — the observability layer: the per-DB metrics
//	                    registry (counters, gauges, bounded histograms)
//	                    every stage records into, and the per-query
//	                    EXPLAIN ANALYZE trace (Prepared.Analyze,
//	                    WithTrace)
//	internal/sprout   — safe plans and IQ inequality scans
//	internal/tpch     — probabilistic TPC-H generator and query suite
//	internal/graphs   — random graphs and social networks
//	internal/exp      — the figure-regeneration harness
//
// # The DB / Session / Query façade
//
// The public API is organized around three nouns, the way SPROUT
// exposes confidence computation inside MayBMS rather than as loose
// algorithm entry points:
//
//   - DB — the long-lived root: the probability space, the registered
//     relations, the pool of hash-consing clause interners, and a
//     private worker pool (db.Pool().Resize sizes it per DB).
//     NewDB(space, relations...).
//
//   - Session — per-client scope: a subformula probability cache, a
//     default Budget, a default Evaluator, an optional forced lineage
//     shard count. db.Session(WithEps(1e-3), WithBudget(...),
//     WithSharedCache(...), WithShards(4), ...).
//
//   - Query — the fluent builder compiled to the plan IR with
//     build-time validation: sess.Query("R").Select(...).Join(...).
//     GroupLineage(...).TopK(10). Run(ctx) streams the answers as an
//     iter.Seq2[Answer, error]; on a ranked lineage-route query each
//     answer is yielded the moment its membership is proven, before
//     refinement of the rest finishes.
//
// For example:
//
//	db := repro.NewDB(space, relations...)
//	sess := db.Session(repro.WithEps(1e-3))
//	q := sess.Query("R").Join(sess.Query("S"), 1, 0).GroupLineage(3).TopK(10)
//	for a, err := range q.Run(ctx) {
//		if err != nil { ... }
//		fmt.Println(a.Vals, a.P)
//	}
//
// Build-time failures (unregistered relations, empty projections,
// nested ranking operators, ...) surface as BuildErrors from Build or
// the first Run, never as planner panics.
//
// Queries run through the façade; pre-built IR (such as the TPC-H
// catalog) runs through it via sess.Query(node). The flat re-exports
// below serve paper-faithful, single-formula use: the d-tree and Monte
// Carlo entry points, the Evaluator types, and the raw-lineage ranking
// baseline.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for measured reproductions of every figure.
package repro

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/formula"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rank"
	"repro/internal/serve"
)

// Core formula types.
type (
	// Space is a finite probability distribution defined by independent
	// discrete random variables.
	Space = formula.Space
	// Var identifies a random variable.
	Var = formula.Var
	// Atom is an atomic event "Var = Val".
	Atom = formula.Atom
	// Clause is a consistent conjunction of atomic events.
	Clause = formula.Clause
	// DNF is a disjunction of clauses.
	DNF = formula.DNF
)

// Monte Carlo baseline types.
type (
	// AConfOptions configures the Karp-Luby/DKLR baseline.
	AConfOptions = mc.AConfOptions
	// MCResult is a Monte Carlo estimator outcome.
	MCResult = mc.Result
)

// D-tree algorithm types.
type (
	// Options configures Exact.
	Options = core.Options
	// Result reports bounds, estimate and statistics.
	Result = core.Result
	// ErrorKind selects absolute or relative approximation.
	ErrorKind = core.ErrorKind
)

// Unified confidence-engine types: one cancellable API over the whole
// algorithm menu, with parallel branch exploration and subformula
// memoization.
type (
	// Evaluator is the single confidence-computation entry point.
	Evaluator = engine.Evaluator
	// Budget bounds an evaluation (nodes, work, samples, wall clock).
	Budget = engine.Budget
	// EvalResult is the unified evaluation outcome.
	EvalResult = engine.Result
	// ExactEval evaluates exactly via parallel d-tree compilation.
	ExactEval = engine.Exact
	// ApproxEval evaluates an ε-approximation with error guarantees.
	ApproxEval = engine.Approx
	// MonteCarloEval is the Karp-Luby/DKLR (ε, δ) baseline.
	MonteCarloEval = engine.MonteCarlo
	// ProbCache is the hash-consed subformula probability memo table
	// shared across evaluations of one probability space.
	ProbCache = formula.ProbCache
	// FragCache is the prepared-fragment memo table — normalized form,
	// heuristic bounds and component partition of leaf fragments —
	// shared across evaluations of one probability space like
	// ProbCache, but short-circuiting leaf preparation itself.
	FragCache = formula.FragCache
)

// Query-planner types: one logical plan IR, routed to safe plans, IQ
// sorted scans, or the lineage pipeline plus a d-tree evaluator.
type (
	// PlanNode is a logical plan operator (Scan, Select, EquiJoin,
	// ThetaJoin, Project, GroupLineage).
	PlanNode = plan.Node
	// Plan is a routed query: routing decision plus executor.
	Plan = plan.Plan
	// PlanRoute identifies the chosen execution path.
	PlanRoute = plan.Route
	// PlanOptions tunes routing (e.g. forcing the lineage path).
	PlanOptions = plan.Options
	// TopKNode is the plan root keeping only the K most probable
	// answers (exact sort on structural routes, anytime scheduler on
	// the lineage route).
	TopKNode = plan.TopK
	// ThresholdNode is the plan root keeping the answers with P ≥ Tau.
	ThresholdNode = plan.Threshold
)

// Observability types: the per-DB metrics registry and the per-query
// EXPLAIN ANALYZE trace (see DB.Metrics, Session.Metrics, WithTrace,
// Prepared.Analyze).
type (
	// Metrics is the engine-wide registry of atomic counters, gauges and
	// bounded histograms, one per DB, recorded into by every execution
	// stage. All recording methods are nil-safe no-ops.
	Metrics = obs.Metrics
	// MetricsSnapshot is a frozen registry: the flat, JSON-marshalable
	// export shape (DB.Snapshot, Session.Metrics, DB.PublishExpvar).
	MetricsSnapshot = obs.Snapshot
	// MetricsView is a delta window over a registry (Metrics.View).
	MetricsView = obs.View
	// QueryTrace is one query execution's EXPLAIN ANALYZE trace
	// (Prepared.Analyze, WithTrace): routing, per-stage timings,
	// per-partition chain stats, per-answer refinement outcomes, cache
	// traffic. Text renders it deterministically; String with timings.
	QueryTrace = obs.QueryTrace
	// CacheStats is the unified cache-statistics shape every cache
	// (ProbCache, FragCache, Interner) reports from its CacheStats
	// method: Hits, Misses, Entries.
	CacheStats = obs.CacheStats
	// HistogramSnapshot is a frozen power-of-two histogram.
	HistogramSnapshot = obs.HistogramSnapshot
)

// Anytime ranking types: step-wise refinement of probability bounds and
// the multi-answer top-k / threshold schedulers built on it.
type (
	// Refiner is the resumable d-tree ε-approximation: Step(budget)
	// refines the frontier and returns monotonically tightening bounds.
	Refiner = core.Refiner
	// RankOptions configures the ranking schedulers (refinement floor,
	// step quantum, budgets, shared cache, resolve mode).
	RankOptions = rank.Options
	// RankItem is one answer's ranking outcome (bounds, estimate,
	// steps, membership proof).
	RankItem = rank.Item
	// RankResult is a ranking run's outcome (items, ranking, steps).
	RankResult = rank.Result
)

// Serving-layer types: the long-lived query service in front of the
// façade (see NewServer) — SSE answer streaming at membership-proof
// time, session affinity with pinned caches, admission control with
// documented Eps degradation, /metrics and per-query trace endpoints.
type (
	// ServeConfig tunes a query server (precision defaults, degradation
	// knob, admission thresholds, session TTL, warm fragment cache).
	ServeConfig = serve.Config
	// QueryServer is the service itself: Handler to mount, or
	// ListenAndServe/Shutdown for a managed daemon.
	QueryServer = serve.Server
	// ServeRequest is the POST /v1/query body: session name, optional
	// explicit Eps and budget, and the wire query IR.
	ServeRequest = serve.Request
	// ServeNode is one wire query operator (exactly one field set),
	// mirroring the fluent builder one-to-one.
	ServeNode = serve.Node
	// ServeBudget is the wire form of Budget.
	ServeBudget = serve.Budget
	// ServeMeta / ServeAnswer / ServeSummary are the stream's event
	// payloads (meta, answer, done).
	ServeMeta    = serve.Meta
	ServeAnswer  = serve.Answer
	ServeSummary = serve.Summary
	// ServeMetrics is the serving-layer registry (admission outcomes,
	// degradations, session churn, stream latencies), exported on
	// GET /metrics next to the engine's MetricsSnapshot.
	ServeMetrics = obs.ServeMetrics
	// ServeSnapshot is a frozen ServeMetrics registry.
	ServeSnapshot = obs.ServeSnapshot
	// ServeSessionInfo is one row of GET /v1/sessions.
	ServeSessionInfo = serve.SessionInfo
)

// Serving-layer entry points.
var (
	// FragCache.Save / LoadFragCache persist a prepared-fragment cache
	// across process restarts (gob, version-stamped and
	// CRC32-checksummed; a stale, truncated or corrupt stream loads as
	// an empty cache — a cold start, not an error). Wire a loaded cache
	// into ServeConfig.SharedFrags (or any session via
	// WithSharedFragCache) to warm-start leaf preparation.
	LoadFragCache = formula.LoadFragCache
	// LoadFragCacheFile is LoadFragCache over a file path (a missing
	// file is a silent cold start); FragCache.SaveFile is its crash-safe
	// writing counterpart (temp file + rename, so a kill mid-save leaves
	// the previous snapshot intact).
	LoadFragCacheFile = formula.LoadFragCacheFile
)

// Fault isolation and chaos types: panic containment, the stuck-query
// watchdog, and deterministic fault injection (see the README's
// Robustness section). Production code never touches these — a nil
// injector costs a single nil check per probe site.
type (
	// FaultInjector is the seeded, deterministic fault injector: arm it
	// with WithInjector (per session) or ServeConfig.Inject (whole
	// daemon) and it fires configured faults — panics, errors, spurious
	// cancellations, latency — at the named chaos sites. The outcome of
	// the k-th firing at a site is a pure function of (seed, site, k).
	FaultInjector = fault.Injector
	// FaultSiteConfig is one site's fault probabilities.
	FaultSiteConfig = fault.SiteConfig
	// PanicError is a recovered panic promoted into the error plumbing:
	// the panic value, the goroutine stack at capture, the containment
	// site, and the query it failed. Every contained panic — a workpool
	// task, a refinement step, a serving-layer stream — surfaces as one
	// of these through ordinary error returns.
	PanicError = fault.PanicError
)

// Fault-layer entry points.
var (
	// NewFaultInjector returns a disarmed injector; Configure sites to
	// arm it.
	NewFaultInjector = fault.NewInjector
	// ErrFaultInjected marks errors synthesized by a FaultInjector
	// (errors.Is-able through every wrapping layer).
	ErrFaultInjected = fault.ErrInjected
	// ErrQueryStuck is the stuck-query watchdog's verdict: a ranked run
	// made no bound progress within the WithWatchdog deadline.
	ErrQueryStuck = fault.ErrStuck
)

// Planner routes.
const (
	RouteSafe    = plan.RouteSafe
	RouteIQ      = plan.RouteIQ
	RouteLineage = plan.RouteLineage
)

// Error kinds (Definition 5.7).
const (
	Absolute = core.Absolute
	Relative = core.Relative
)

// Re-exported entry points.
var (
	// NewSpace returns an empty probability space.
	NewSpace = formula.NewSpace
	// NewClause builds a normalized clause from atoms.
	NewClause = formula.NewClause
	// NewDNF builds a normalized DNF.
	NewDNF = formula.NewDNF
	// Exact computes P(d) exactly via exhaustive d-tree compilation.
	Exact = core.Exact
	// ExactProbability is Exact returning only the probability.
	ExactProbability = core.ExactProbability
	// Bounds computes the Figure-3 bucket bounds on P(d).
	Bounds = core.LeafBounds
	// AConf is the Karp-Luby/DKLR (ε, δ) baseline.
	AConf = mc.AConf
	// NewProbCache returns an empty subformula probability cache.
	NewProbCache = formula.NewProbCache
	// NewFragCache returns an empty prepared-fragment cache.
	NewFragCache = formula.NewFragCache
	// SproutPlan adapts an exact query-structural computation to the
	// Evaluator API.
	SproutPlan = engine.SproutPlan
	// PlanLineage evaluates a plan with the pipelined runtime,
	// returning answers with lineage DNFs.
	PlanLineage = plan.Lineage
	// NewInterner returns an empty hash-consing clause interner (the
	// pipelined runtime's join-merge deduplication).
	NewInterner = formula.NewInterner
	// NewRefiner prepares a lineage DNF for step-wise bound refinement.
	NewRefiner = core.NewRefiner
	// RankRefineAll is the non-pruning baseline: every answer refined
	// to its guarantee.
	RankRefineAll = rank.RefineAll
)
