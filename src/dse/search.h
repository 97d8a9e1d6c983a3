/**
 * @file
 * Exhaustive design-space exploration (§5.3.3): every combination of
 * cross-loop granularity, staging flags, tile sizes, loop orders and
 * stationarities is one design point; the optimum under the chosen
 * objective is returned (Base-opt / FLAT-opt of Figure 7(b)).
 */
#ifndef FLAT_DSE_SEARCH_H
#define FLAT_DSE_SEARCH_H

#include <cstddef>
#include <optional>
#include <vector>

#include "arch/accel_config.h"
#include "costmodel/attention_cost.h"
#include "costmodel/operator_cost.h"
#include "dse/candidates.h"
#include "energy/energy_model.h"

namespace flat {

class CancellationToken;
class RunJournal;

/** Optimization objective of the DSE (Figure 6(b) outputs). */
enum class Objective {
    kRuntime, ///< minimize cycles (maximize Util)
    kEnergy,  ///< minimize energy
    kEdp,     ///< minimize energy-delay product
};

/** Objective value (lower is better) of a (cycles, energy) outcome.
 *  Single source of truth for every search loop. */
double objective_value(Objective objective, double cycles,
                       double energy_j);

/** Parses "runtime" / "energy" / "edp"; throws flat::Error. */
Objective parse_objective(const std::string& name);

/**
 * How the candidate space is searched.
 *
 * kExhaustive enumerates every design point — the historical behavior
 * and the default. kAnalytic keeps the same space (and the same
 * evaluated + pruned audit total) but visits only a derived subset:
 * for each (style x cross x stationarity) slice the tile sizes are
 * solved in closed form from the SL/SG footprint and bandwidth
 * constraints — bisecting against the monotone bound_cycles lower
 * bound where the closed form is ambiguous — and a bounded local
 * refinement (axis scans plus +-1 steps in the tile lattice) through
 * the exact timeline cost picks the winner (see dse/analytic_mapper.h).
 * kAnalyticVerified runs the analytic search and then the exhaustive
 * sweep, reporting the objective ratio between the two picks in the
 * result's verification fields (1.0 = exact parity).
 */
enum class SearchMode {
    kExhaustive,
    kAnalytic,
    kAnalyticVerified,
};

/** Parses "exhaustive" / "analytic" / "analytic-verified" (underscore
 *  accepted); throws flat::Error. */
SearchMode parse_search_mode(const std::string& name);

/** Stable lowercase name ("analytic-verified" style). */
const char* to_string(SearchMode mode);

/** One evaluated design point. */
struct DsePoint {
    FusedDataflow dataflow;
    OperatorCost cost;
    double energy_j = 0.0;

    /** Execution style the point was evaluated under. Search and
     *  explore results always set it; hand-built points default to
     *  null (treated as the historical fused/baseline pick). */
    const ExecutionStyle* style = nullptr;

    /** Objective value (lower is better). */
    double objective_value(Objective objective) const;
};

/** Search-space restrictions and effort. */
struct AttentionSearchOptions {
    Objective objective = Objective::kRuntime;

    /** Search strategy over the (unchanged) candidate space; see
     *  SearchMode. Folded into the journal scope key (non-exhaustive
     *  modes only), so a resume under a different mode starts fresh
     *  instead of mixing incompatible slice records. */
    SearchMode mode = SearchMode::kExhaustive;

    /** true => FLAT fused space; false => sequential baseline space
     *  (R-granularity excluded automatically). Read only when `styles`
     *  is empty. */
    bool fused = true;

    /**
     * Execution styles to enumerate, by registry id ("baseline",
     * "flat", "pipelined", "flash"); the literal "all" expands to the
     * whole registry. Each style contributes the slices its admits()
     * accepts — flash brings the C-Gran column menu, the baseline
     * rejects R/C-Gran — and the search optimizes across the union.
     * Empty => the single style the historical `fused` flag selects,
     * keeping established search spaces (and their incumbent
     * trajectories and journal scopes) unchanged.
     */
    std::vector<std::string> styles;

    /** Pin the cross loop (e.g. FLAT-M, ATTACC-R64); empty => sweep. */
    std::optional<CrossLoop> fixed_cross;

    /** Pin the staging flags; empty => sweep all 32. */
    std::optional<FusedStageFlags> fixed_flags;

    /** Smaller menus for broad sweeps (Figure 8/9 grids). */
    bool quick = false;

    /** Overlap assumption for the sequential baseline (ablation). */
    BaselineOverlap baseline_overlap = BaselineOverlap::kFull;

    /**
     * Worker threads sweeping the space; 0 = auto (the FLAT_THREADS
     * environment variable, else all hardware threads). The result is
     * bit-identical for any thread count: each (cross-loop x
     * stationarity) slice keeps a local incumbent and a final
     * deterministic reduction breaks ties by (objective value, tag).
     * The exhaustive sweep's evaluated/pruned counters are identical
     * at any thread count too: a slice prunes against the best of a
     * fixed prefix of the schedule (the first slice and those at least
     * eight places before it), never a value another thread may or may
     * not have published yet.
     */
    unsigned threads = 0;

    /**
     * Incumbent lower-bound pruning: skip the full cost model whenever
     * a cheap monotone bound — max(compute cycles of the two staged
     * GEMMs plus the softmax and cold-start terms, the point's own
     * DRAM bytes over the off-chip bandwidth) — already exceeds the
     * best objective seen so far. Never changes the returned optimum —
     * only strictly-worse points are skipped.
     */
    bool prune = true;

    /**
     * Optional checkpoint journal: each completed (cross-loop x
     * stationarity) slice is appended under a scope key derived from
     * the accelerator, dims and space-shaping options, and slices
     * already in the journal are restored (the winning dataflow is
     * re-evaluated through the cost model — cheap and deterministic)
     * instead of searched. A restored-then-finished search returns a
     * result bit-identical to an uninterrupted one, at any thread
     * count and with pruning on or off.
     */
    RunJournal* journal = nullptr;

    /**
     * Optional cooperative cancellation: polled between slices and at
     * every (tiles, staging flags) block inside a slice. On
     * cancellation the search journals nothing partial, flushes the
     * journal and throws CancelledError.
     */
    const CancellationToken* cancel = nullptr;

    CandidateOptions candidates;
};

/** DSE outcome for the fused/baseline L-A operator. */
struct AttentionSearchResult {
    DsePoint best;

    /** Points run through the full cost model. */
    std::size_t evaluated = 0;

    /** Points skipped by the lower-bound test. evaluated + pruned is
     *  the full space size. The exhaustive sweep's split is the same
     *  at any thread count; the analytic mode's may shift with
     *  scheduling when threads > 1 (it counts every point it never
     *  visited as pruned, keeping the same audit identity). */
    std::size_t pruned = 0;

    bool found = false;

    /** SearchMode::kAnalyticVerified only: the exhaustive optimum's
     *  objective value and the analytic/exhaustive ratio. The analytic
     *  pick evaluates a subset of the same space through the same
     *  evaluator, so the ratio is never below 1.0; exactly 1.0 means
     *  the analytic mapper found the true optimum. */
    bool verified = false;
    double verified_exhaustive_value = 0.0;
    double verified_ratio = 1.0;
};

/**
 * Finds the best L-A dataflow on @p accel for @p dims. The sweep runs
 * on opt.threads workers with incumbent pruning (see the options); the
 * returned point is bit-identical to a serial unpruned search.
 */
AttentionSearchResult search_attention(const AccelConfig& accel,
                                       const AttentionDims& dims,
                                       const AttentionSearchOptions& opt);

/**
 * Evaluates and returns every design point (Figure 10's scatter) in the
 * serial enumeration order regardless of opt.threads.
 */
std::vector<DsePoint> explore_attention(const AccelConfig& accel,
                                        const AttentionDims& dims,
                                        const AttentionSearchOptions& opt);

/** DSE outcome for one non-fused operator. */
struct OperatorSearchResult {
    OperatorDataflow dataflow;
    OperatorCost cost;
    double energy_j = 0.0;
    std::size_t evaluated = 0;
    bool found = false;
};

/** Options for single-operator DSE (projections, FCs). */
struct OperatorSearchOptions {
    Objective objective = Objective::kRuntime;

    /** Allow the L3 staging level at all (BaseAccel forbids it). */
    bool allow_l3 = true;

    bool quick = false;

    /** Optional cooperative cancellation, polled per tile menu entry;
     *  throws CancelledError when tripped. */
    const CancellationToken* cancel = nullptr;

    CandidateOptions candidates;
};

/** Finds the best dataflow for one GEMM operator. */
OperatorSearchResult search_operator(const AccelConfig& accel,
                                     const Operator& op,
                                     const OperatorSearchOptions& opt);

} // namespace flat

#endif // FLAT_DSE_SEARCH_H
