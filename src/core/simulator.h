/**
 * @file
 * Top-level API: evaluate a workload at a scope (L-A / Block / Model) on
 * an accelerator under a named dataflow policy or accelerator spec.
 * This is the entry point the benches and examples use.
 */
#ifndef FLAT_CORE_SIMULATOR_H
#define FLAT_CORE_SIMULATOR_H

#include <string>
#include <vector>

#include "arch/accel_config.h"
#include "core/catalog.h"
#include "costmodel/cost_types.h"
#include "dse/block_search.h"
#include "dse/search.h"
#include "workload/attention.h"

namespace flat {

/** Global evaluation options. */
struct SimOptions {
    Objective objective = Objective::kRuntime;

    /** How the L-A DSE walks its space (exhaustive sweep, analytic
     *  tile mapper, or analytic cross-checked against exhaustive).
     *  See AttentionSearchOptions::mode. */
    SearchMode search_mode = SearchMode::kExhaustive;

    /** Smaller DSE menus (used by the broad Figure 8/9 sweeps). */
    bool quick = false;

    /** Execution styles the L-A DSE may pick from (registry ids, or
     *  "all"). Empty = the single style the policy's fused flag
     *  selects, which keeps historical searches bit-identical. */
    std::vector<std::string> styles;

    /** Overlap assumption for sequential-baseline dataflows. */
    BaselineOverlap baseline_overlap = BaselineOverlap::kFull;

    /** DSE worker threads; 0 = auto (FLAT_THREADS env, else all
     *  hardware threads). Results are identical for any count. */
    unsigned threads = 0;

    /** Incumbent lower-bound pruning in the L-A DSE (identical result,
     *  fewer cost-model evaluations). */
    bool prune = true;

    /** Optional checkpoint journal threaded into the L-A DSE (see
     *  AttentionSearchOptions::journal). Not owned. */
    RunJournal* journal = nullptr;

    /** Optional cooperative cancellation threaded into every search
     *  loop (see AttentionSearchOptions::cancel). Not owned. */
    const CancellationToken* cancel = nullptr;

    /** Optional GEMM-search memo lent to block and model scope (see
     *  BlockSearchOptions::gemm_memo); null = one memo per run. The
     *  serving layer lends one per serving call. Not owned. */
    GemmSearchMemo* gemm_memo = nullptr;

    /** The options that shape results (objective, search mode, quick,
     *  styles, baseline overlap) as one '\n'-terminated line: the
     *  options part of every journal hash. The execution knobs
     *  (threads, prune, journal, cancel, gemm_memo) never change a
     *  result and stay out, so a journal resumes under any of them. */
    std::string canonical() const;
};

/** Per-category cycle/energy decomposition (Figure 11). */
struct CategoryBreakdown {
    double la_cycles = 0.0;   ///< fused or sequential L-softmax-A
    double proj_cycles = 0.0; ///< Q, K, V, O
    double fc_cycles = 0.0;   ///< FC1, FC2
    double la_ideal = 0.0;
    double proj_ideal = 0.0;
    double fc_ideal = 0.0;
    double la_energy_j = 0.0;
    double proj_energy_j = 0.0;
    double fc_energy_j = 0.0;
};

/**
 * Per-stage split of the L-A bar, sourced from the picked dataflow's
 * evaluated phase timeline (the same ledger the cost model and the
 * trace consume). Each stage's cycles are the latency that stage alone
 * would need — overlapped stages sum to more than `la_cycles`, which
 * is the point: the gap is what double buffering hides.
 */
struct LaStageBreakdown {
    double prefetch_cycles = 0.0;  ///< DRAM->SG transfers (overlapped)
    double logit_cycles = 0.0;     ///< L GEMM occupancy window
    double softmax_cycles = 0.0;   ///< SFU window
    double attend_cycles = 0.0;    ///< A GEMM occupancy window
    double writeback_cycles = 0.0; ///< SG->DRAM transfers (overlapped)
    double cold_start_cycles = 0.0; ///< exposed warm-up / pipeline fill

    /** Pacing resource of the dominant timeline window. */
    std::string bound_by;
};

/** Evaluation result at one scope. */
struct ScopeReport {
    Scope scope = Scope::kLogitAttend;
    std::string policy_name;

    double cycles = 0.0;
    double ideal_cycles = 0.0; ///< the non-stall latency of Figure 11
    double energy_j = 0.0;
    double runtime_s = 0.0;

    CategoryBreakdown breakdown;
    LaStageBreakdown la_stages;
    TrafficBytes traffic;

    /** The L-A winner: style (never null), dataflow and unscaled
     *  cost. */
    DsePoint la_winner;

    /** The per-layer decomposition this report folds: search_block's
     *  layers and layer-order totals at block and model scope; the L-A
     *  layer alone, without totals, at L-A scope. */
    BlockSearchResult block;

    /** L-A dataflow details. */
    std::uint64_t la_footprint_bytes = 0;
    double la_resident_fraction = 1.0;
    std::string la_dataflow_tag;

    /** L-A DSE audit: design points run through the full cost model
     *  and points skipped by the pruning bound. */
    std::size_t la_points_evaluated = 0;
    std::size_t la_points_pruned = 0;

    /** analytic-verified mode only: the analytic pick's objective as a
     *  ratio of the exhaustive optimum (1.0 = exact parity). */
    bool la_verified = false;
    double la_verified_ratio = 1.0;

    double util() const
    {
        return (cycles > 0.0) ? ideal_cycles / cycles : 0.0;
    }
};

/** Single-point candidate menus for the fixed (non-opt) policies. */
CandidateOptions fixed_policy_candidates();

/**
 * Builds the DSE options implementing a named policy: non-opt policies
 * become deterministic single-point "searches" (fixed granularity,
 * default tiles, all FLAT-tiles enabled), -opt policies sweep the space.
 */
AttentionSearchOptions attention_options(const DataflowPolicy& policy,
                                         const SimOptions& options);

/** DSE options implementing an accelerator spec's L-A dataflow. */
AttentionSearchOptions attention_options(const AcceleratorSpec& spec,
                                         const SimOptions& options);

/** Projection/FC search options under a dataflow policy: the policy
 *  only shapes L-A, so every GEMM gets the full flexible sweep with L3
 *  staging. */
OperatorSearchOptions operator_options(const DataflowPolicy& policy,
                                       const SimOptions& options);

/** Projection/FC search options under an accelerator spec: an
 *  inflexible spec pins the menus to the fixed-policy point, and L3
 *  staging exists only where the spec has it. */
OperatorSearchOptions operator_options(const AcceleratorSpec& spec,
                                       const SimOptions& options);

/** Evaluates workloads on one accelerator configuration. */
class Simulator
{
  public:
    explicit Simulator(AccelConfig accel);

    const AccelConfig& accel() const { return accel_; }

    /** Full scope evaluation under a dataflow policy. Non-fused
     *  operators are tuned by DSE (they are unaffected by the policy).
     *  Block and model scope fold search_block's layers. */
    ScopeReport run(const Workload& workload, Scope scope,
                    const DataflowPolicy& policy,
                    const SimOptions& options = {}) const;

    /** Full scope evaluation of an accelerator spec (Figure 7(c)):
     *  the spec decides the L-A policy, operator flexibility and
     *  whether L3 staging exists. */
    ScopeReport run(const Workload& workload, Scope scope,
                    const AcceleratorSpec& spec,
                    const SimOptions& options = {}) const;

  private:
    ScopeReport run_impl(const Workload& workload, Scope scope,
                         const BlockSearchOptions& search_options,
                         const std::string& policy_name) const;

    AccelConfig accel_;
};

} // namespace flat

#endif // FLAT_CORE_SIMULATOR_H
