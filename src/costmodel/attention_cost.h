/**
 * @file
 * Cost models for the L -> softmax -> A pipeline. Every execution
 * style — FLAT interleaved (§4, §5.1), the sequential baseline
 * (Base / Base-X of Figure 7(b)), the spatially pipelined foil and the
 * column-blocked flash style — is a registered ExecutionStyle
 * (execution_style.h); the entry points here evaluate one style's
 * phase emission through the shared timeline engine.
 */
#ifndef FLAT_COSTMODEL_ATTENTION_COST_H
#define FLAT_COSTMODEL_ATTENTION_COST_H

#include <memory>
#include <vector>

#include "arch/accel_config.h"
#include "costmodel/attention_plan.h"
#include "costmodel/cost_types.h"
#include "costmodel/execution_style.h"
#include "costmodel/gemm_engine.h"
#include "costmodel/timeline.h"
#include "dataflow/fused_dataflow.h"

namespace flat {

/**
 * Models the fused L-A operator under @p style. @p overlap is read
 * only by the baseline style (see BaselineOverlap).
 */
OperatorCost model_attention(const ExecutionStyle& style,
                             const AccelConfig& accel,
                             const AttentionDims& dims,
                             const FusedDataflow& dataflow,
                             BaselineOverlap overlap =
                                 BaselineOverlap::kFull);

/**
 * Evaluated phase timeline of one execution style. The model above is
 * a pure phase emitter over one shared `AttentionPlan`; this entry
 * point exposes the evaluated timeline itself (per-phase cycles,
 * per-group `bound_by`, the activity ledger). By construction
 *
 *   attention_timeline(style, ...).cycles ==
 *       model_attention(style, ...).cycles
 *
 * exactly — cold start and pipeline fill included — and the ledger's
 * `activity` equals the model's `OperatorCost::activity`.
 */
TimelineResult attention_timeline(const ExecutionStyle& style,
                                  const AccelConfig& accel,
                                  const AttentionDims& dims,
                                  const FusedDataflow& dataflow,
                                  BaselineOverlap overlap =
                                      BaselineOverlap::kFull);

/**
 * Un-evaluated phase list of one execution style plus the overlap
 * policy it must be evaluated under. This is the seam the scale-out
 * model builds on: it appends collective phases to `phases` and feeds
 * the result to the same evaluate_timeline() call the single-device
 * entry points use — one arbitration engine, no second timing path.
 */
struct AttentionPhases {
    std::vector<Phase> phases;
    OverlapKind overlap = OverlapKind::kOverlapped;

    /** Largest group id used so far (epilogue phases go after it). */
    int max_group() const;
};

AttentionPhases attention_phases(const ExecutionStyle& style,
                                 const AccelConfig& accel,
                                 const AttentionDims& dims,
                                 const FusedDataflow& dataflow,
                                 BaselineOverlap overlap =
                                     BaselineOverlap::kFull);

/**
 * Reusable evaluation buffers for the DSE hot path (one instance per
 * worker). The scratch model overload below emits phases into
 * `timeline.phases` in place (Phase label strings keep their capacity)
 * and evaluates with evaluate_timeline_into(), so after the first call
 * the per-point evaluation performs zero heap allocations.
 *
 * The scratch also memoizes the loop-order-independent part of the
 * attention plan (extent, stage shapes, byte totals, footprint,
 * residency): consecutive evaluations that differ only in the SG loop
 * orders — the innermost DSE axes — reuse the base and patch the four
 * order-dependent compute/reuse fields. Same arithmetic on the same
 * inputs, so results stay bit-identical; the memo is invalidated by
 * any change to the fields the base depends on.
 */
struct AttentionEvalScratch {
    AttentionEvalScratch();
    ~AttentionEvalScratch();
    AttentionEvalScratch(const AttentionEvalScratch&) = delete;
    AttentionEvalScratch& operator=(const AttentionEvalScratch&) = delete;

    TimelineScratch timeline;

    /** Plan-base memo (defined in attention_cost.cc). */
    struct PlanMemo;
    std::unique_ptr<PlanMemo> memo;
};

/**
 * Hot-path variant of model_attention(): bit-identical results to the
 * plain overload, but reusing @p scratch across calls and honoring
 * injected @p planned compute costs (see PlannedGemmCosts in
 * attention_plan.h).
 */
OperatorCost model_attention(const ExecutionStyle& style,
                             const AccelConfig& accel,
                             const AttentionDims& dims,
                             const FusedDataflow& dataflow,
                             BaselineOverlap overlap,
                             AttentionEvalScratch& scratch,
                             const PlannedGemmCosts& planned = {});

/**
 * Batched DSE point evaluator: N candidates that share one plan base
 * (cross loop, L2 tiles, staging flags — everything but the SG loop
 * orders and stationarities, the innermost search axes) are laid out
 * as lanes of a TimelineBatch and evaluated in one SoA pass.
 *
 * Bit-identity: add() runs the exact scalar phase emitter (the bound
 * style's emit_phases()) over the same memoized plan the scalar hot
 * path uses, and TimelineBatch::evaluate() replicates
 * evaluate_timeline_into()'s per-lane arithmetic — so cycles(),
 * activity() and cost() equal model_attention() bit for bit for every
 * lane, at any batch width.
 *
 * Usage per block: begin() -> add() x N (at most `lane_capacity`) ->
 * evaluate() -> cycles()/activity() per lane, cost() for the winner ->
 * clear_lanes() (and more add() rounds) or the next begin().
 */
class AttentionBatchEvaluator
{
  public:
    /**
     * Rebinds the evaluator to a plan-base block under @p style.
     * @p base's loop orders/stationarities are irrelevant — each add()
     * injects a lane's own GEMM cost records. @p baseline_overlap is
     * read only by the baseline style. The plan memo and phase buffers
     * live in @p scratch (shared with the scalar hot path, same reuse
     * rules).
     */
    void begin(const AccelConfig& accel, const AttentionDims& dims,
               const FusedDataflow& base, const ExecutionStyle& style,
               BaselineOverlap baseline_overlap,
               std::size_t lane_capacity,
               AttentionEvalScratch& scratch);

    std::size_t lanes() const { return batch_.lanes(); }
    bool full() const { return batch_.lanes() >= lane_capacity_; }

    /**
     * Appends one candidate. @p logit / @p attend must be the
     * GemmSliceCost records of the lane's (tile, order, stationarity)
     * choices — the same contract as PlannedGemmCosts.
     */
    void add(const GemmSliceCost& logit, const GemmSliceCost& attend);

    /**
     * DRAM bytes (read + write) the candidate @p logit / @p attend of
     * the current block moves: plan_dram_traffic() of the same plan
     * add() would emit from, without emitting or evaluating anything.
     * Every style ledgers exactly these bytes in phases that are not
     * pace-only, so they equal the evaluated activity's total_dram().
     * Same argument contract as add(); adds no lane.
     */
    double dram_bytes(const GemmSliceCost& logit,
                      const GemmSliceCost& attend);

    /** Evaluates every lane added since begin()/clear_lanes(). */
    void evaluate();

    void clear_lanes() { batch_.clear_lanes(); }

    double cycles(std::size_t lane) const
    {
        return batch_.summary(lane).cycles;
    }
    const ActivityCounts& activity(std::size_t lane) const
    {
        return batch_.summary(lane).activity;
    }

    /**
     * Full cost report of lane @p lane — call only while the begin()
     * block is still current (the plan memo supplies the shared
     * footprint/residency fields).
     */
    OperatorCost cost(std::size_t lane) const;

  private:
    /** The block's memoized plan, patched with one candidate's GEMM
     *  records (the first call per block binds the plan base). */
    const AttentionPlan& bind_plan(const GemmSliceCost& logit,
                                   const GemmSliceCost& attend);

    TimelineBatch batch_;
    const AccelConfig* accel_ = nullptr;
    const AttentionDims* dims_ = nullptr;
    AttentionEvalScratch* scratch_ = nullptr;
    FusedDataflow base_;
    const ExecutionStyle* style_ = nullptr;
    bool plan_bound_ = false;  ///< the block's plan base is memoized
    bool configured_ = false;  ///< the batch holds the phase structure
    std::size_t lane_capacity_ = 0;
    OverlapKind overlap_ = OverlapKind::kOverlapped;
    double ideal_cycles_ = 0.0;
};

} // namespace flat

#endif // FLAT_COSTMODEL_ATTENTION_COST_H
