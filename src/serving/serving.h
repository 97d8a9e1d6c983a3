/**
 * @file
 * Request-level traffic simulator: serves a seeded arrival trace
 * through the continuous-batching scheduler, pricing every prefill and
 * decode step with the operator cost model (through the batched SoA
 * evaluator the DSE already uses), and reports
 * p50/p95/p99 request latency and sustained tokens/s against an SLO.
 *
 * The event loop is strictly serial — the DSE inside each step-cost
 * lookup may fan out across threads, but its result is bit-identical
 * at any thread count, so the serving report is too. Step costs are
 * memoized per (style, kind, batch, context-bucket) and optionally
 * journaled, so a resumed run replays recorded costs instead of
 * re-searching. Both memos below the event loop live for one serving
 * call: the step memo, and a GemmSearchMemo that searches each
 * projection/FC GEMM shape once however many steps repeat it.
 */
#ifndef FLAT_SERVING_SERVING_H
#define FLAT_SERVING_SERVING_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "serving/arrival.h"
#include "serving/scheduler.h"

namespace flat {

/** Knobs of one serving simulation. */
struct ServeOptions {
    SchedOptions sched;

    /** Dataflow policy the per-step DSE implements ("flat-opt", ...). */
    std::string policy = "flat-opt";

    /**
     * Context lengths are rounded up to a multiple of this before the
     * cost lookup (a paged-KV-style allocation granule): it bounds the
     * number of distinct DSE problems a trace generates.
     */
    std::uint64_t ctx_bucket = 64;

    /** Inner cost-model/DSE options (threads, styles, quick menus,
     *  cancel token). `sim.cancel` also drains the serving loop. The
     *  serving call sets `sim.gemm_memo` to a memo of its own. */
    SimOptions sim;

    /** Search mode of the auto-DSE (search_serving): the per-step
     *  L-A searches default to the analytic tile mapper, which prices
     *  a step in a handful of evaluations instead of the full sweep.
     *  Set kExhaustive to fall back to the old behaviour
     *  (`flatsim --serve --search-mode exhaustive`). The mode is part
     *  of the serve journal's space hash, so a journal written under
     *  one mode never resumes under another. Plain run_serving()
     *  prices steps under `sim.search_mode` as usual. */
    SearchMode dse_mode = SearchMode::kAnalytic;

    /** Optional step-cost journal (scope "serve"); not owned. Resumed
     *  records short-circuit the per-step DSE entirely. */
    RunJournal* journal = nullptr;
};

/** SLO report of one serving run. */
struct ServeReport {
    std::string model;
    std::string policy;        ///< dataflow policy
    std::string sched_policy;  ///< prefill-vs-decode interleaving
    std::uint64_t max_batch = 0;

    std::uint64_t offered = 0;   ///< requests in the trace
    std::uint64_t completed = 0; ///< requests fully decoded

    /** Request latency (arrival -> last token) percentiles, seconds;
     *  nearest-rank over the completed requests. */
    double p50_s = 0.0;
    double p95_s = 0.0;
    double p99_s = 0.0;
    double mean_s = 0.0;

    double makespan_s = 0.0;     ///< simulated clock at drain
    double tokens_per_s = 0.0;   ///< generated tokens / makespan

    std::uint64_t prefilled_tokens = 0;
    std::uint64_t generated_tokens = 0;

    std::uint64_t prefill_steps = 0;
    std::uint64_t decode_steps = 0;

    /** Step-cost lookups vs. memo/journal hits (the SoA evaluator
     *  sits below the misses); lookups - memo hits - journal hits is
     *  the number of steps this run priced. In a search_serving
     *  report the step memo is the whole call's, shared by both
     *  batching policies of a style: cost_memo_hits also counts steps
     *  an earlier combination priced or restored, and
     *  cost_journal_hits counts only steps restored from the journal
     *  at their first lookup in the call. */
    std::uint64_t cost_lookups = 0;
    std::uint64_t cost_memo_hits = 0;
    std::uint64_t cost_journal_hits = 0;

    /** Completion order (request ids): pinned by determinism tests. */
    std::vector<std::uint64_t> completion_order;

    /** True when the run drained early on cancellation (SIGINT):
     *  percentiles cover the completed prefix only. */
    bool cancelled = false;
};

/**
 * Canonical description of a serving run: AccelConfig::canonical(),
 * SimOptions::canonical() of `options.sim`, then the serving run's own
 * fields (model, scheduler policy and cap, ctx bucket, dataflow policy,
 * the auto-DSE search mode and the full arrival trace at round-trip
 * precision), and none of the execution knobs (threads, prune).
 * fnv1a64 of this is the journal space hash.
 */
std::string serving_space_canonical(const AccelConfig& accel,
                                    const ModelConfig& model,
                                    const std::vector<Request>& requests,
                                    const ServeOptions& options);

/**
 * Serves @p requests on @p accel. Deterministic for fixed inputs at
 * any `sim.threads`. A cancelled run returns a partial report with
 * `cancelled = true` instead of throwing, so callers can surface the
 * drained prefix before exiting with the cancellation code.
 */
ServeReport run_serving(const AccelConfig& accel, const ModelConfig& model,
                        const std::vector<Request>& requests,
                        const ServeOptions& options);

/** One candidate of the serving DSE. */
struct ServingChoice {
    std::string style;      ///< execution style (registry id)
    SchedPolicy sched = SchedPolicy::kPrefillFirst;
};

/** Serving DSE result: best (style x batching policy) for the trace. */
struct ServingSearchResult {
    bool found = false;
    ServingChoice best;
    ServeReport report; ///< the winning combination's report

    /** Every evaluated combination, enumeration order. */
    std::vector<ServeReport> evaluated;
};

/**
 * Serving objective for the DSE: enumerates execution styles (the
 * registry's stable order, or `options.sim.styles` when set) crossed
 * with every batching policy, serves the trace under each, and picks
 * the highest tokens/s (ties: lower p99, then enumeration order).
 * Infeasible combinations (a style that admits no dataflow for some
 * step) are skipped. Cancellation drains the current combination and
 * returns the best seen so far with `report.cancelled` set.
 */
ServingSearchResult search_serving(const AccelConfig& accel,
                                   const ModelConfig& model,
                                   const std::vector<Request>& requests,
                                   const ServeOptions& options);

} // namespace flat

#endif // FLAT_SERVING_SERVING_H
