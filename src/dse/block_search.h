/**
 * @file
 * Per-layer DSE over a whole Transformer block: the QKV projections,
 * the fused L-A pipeline and the position-wise FCs of one block. Layer
 * costs are additive, so this is one independent search per layer —
 * search_attention for the fused L-A layer, search_operator for each
 * GEMM — with a memo that runs identical GEMM shapes once (Q/K/V/O
 * share one search under MHA; a serving run shares one memo across all
 * of its steps). Every SearchMode works; the analytic
 * mapper (SearchMode::kAnalytic) makes the attention layer cheap.
 *
 * This is the one block/model-scope decomposition: Simulator::run
 * folds its layers into a ScopeReport, and `flatsim --block` renders
 * them.
 */
#ifndef FLAT_DSE_BLOCK_SEARCH_H
#define FLAT_DSE_BLOCK_SEARCH_H

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "dse/search.h"
#include "workload/attention.h"

namespace flat {

/**
 * search_operator results keyed by GEMM shape (m, k, n, instances and
 * operand kinds), operator-search options and accelerator: a hit is the
 * result its own search would return. search_block keeps one per call
 * by default; a caller that prices many blocks (a serving run) owns one
 * for its whole run and lends it through BlockSearchOptions::gemm_memo.
 * Not thread-safe: one owner, serial lookups.
 */
class GemmSearchMemo
{
  public:
    /** The search of @p op under @p options on @p accel, run on a miss;
     *  @p reused reports a hit. */
    const OperatorSearchResult& search(const AccelConfig& accel,
                                       const Operator& op,
                                       const OperatorSearchOptions& options,
                                       bool& reused);

  private:
    std::map<std::string, OperatorSearchResult> results_;
};

/** Options of the two per-layer searches. The attention options carry
 *  the SearchMode; quick/objective/cancel should usually agree between
 *  the two (simulator wiring keeps them in sync). */
struct BlockSearchOptions {
    AttentionSearchOptions attention;
    OperatorSearchOptions op;

    /** Optional memo of GEMM searches that outlives this call (see
     *  GemmSearchMemo); null = a fresh memo per call. Not owned. */
    GemmSearchMemo* gemm_memo = nullptr;
};

/** The chosen mapping of one layer in the chain. Exactly one of the
 *  attention / GEMM views is meaningful, per the `attention` flag;
 *  softmax is folded into the fused L-A layer. */
struct BlockLayerPlan {
    std::string name; ///< operator name ("Q", "FC1", ...; "L-A" fused)
    bool attention = false;
    OpCategory category = OpCategory::kLogitAttend;

    /** Attention layer: the fused winner (style + dataflow). */
    DsePoint la;

    /** GEMM layer: the single-operator winner. */
    OperatorDataflow dataflow;

    /** The picked mapping's full cost (the L-A layer: la.cost). */
    OperatorCost cost;

    double cycles = 0.0;
    double energy_j = 0.0;
    std::size_t evaluated = 0;
    std::size_t pruned = 0;

    /** L-A layer under SearchMode::kAnalyticVerified: the analytic
     *  pick's objective as a ratio of the exhaustive optimum. */
    bool verified = false;
    double verified_ratio = 1.0;

    /** The mapping was memoized from an earlier identical GEMM shape
     *  (Q/K/V share one search for MHA; under a lent memo, also a
     *  shape an earlier block searched) — audit counters stay with the
     *  layer that ran the search. */
    bool reused = false;
};

/** Outcome over the chain. */
struct BlockSearchResult {
    std::vector<BlockLayerPlan> layers; ///< execution order

    double block_cycles = 0.0;   ///< serial sum over one block
    double block_energy_j = 0.0;
    std::uint64_t blocks = 1;    ///< model-scope multiplier
    double model_cycles = 0.0;   ///< block totals x blocks
    double model_energy_j = 0.0;

    std::size_t evaluated = 0; ///< all layers, attention + GEMM
    std::size_t pruned = 0;    ///< attention search only
};

/**
 * The fused L-A layer of @p workload: search_attention over its
 * attention dims under @p options.
 */
BlockLayerPlan search_attention_layer(const AccelConfig& accel,
                                      const Workload& workload,
                                      const AttentionSearchOptions& options);

/**
 * Searches every layer of @p workload's block (attention via
 * search_attention_layer under options.attention — including its
 * SearchMode — projections/FCs via search_operator, memoized across
 * identical GEMM shapes in options.gemm_memo, or in a per-call memo
 * when that is null) and returns the per-layer winners plus chain
 * totals in layer order.
 */
BlockSearchResult search_block(const AccelConfig& accel,
                               const Workload& workload,
                               const BlockSearchOptions& options);

} // namespace flat

#endif // FLAT_DSE_BLOCK_SEARCH_H
