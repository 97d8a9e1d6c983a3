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

#include <utility>
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
 * only by the baseline style (see BaselineOverlap). This is the
 * reference path — make_plan(), the style's emit_phases(), then
 * evaluate_timeline() — that reports, restored journal slices and
 * explore_attention() price through, and the one the search's
 * AttentionBatchEvaluator is tested against.
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
 * Batched DSE point evaluator, the only pricer of searched L-A points:
 * N candidates that share one plan base (cross loop, L2 tiles, staging
 * flags — everything but the SG loop orders, the innermost search
 * axes) are laid out as lanes of a TimelineBatch and evaluated in one
 * SoA pass.
 *
 * Bit-identity: add() runs the bound style's emit_phases() over the
 * block's plan and the lane's own dataflow (the pipelined style reads
 * its loop orders), and TimelineBatch::evaluate() replicates
 * evaluate_timeline()'s per-lane arithmetic — so cycles(), activity()
 * and cost() equal model_attention() bit for bit for every lane
 * (tests/costmodel/test_timeline_batch.cc).
 *
 * Usage per block: begin() -> add() x N (at most `lane_capacity`) ->
 * evaluate() -> cycles()/activity() per lane, dataflow()/cost() for
 * the winner -> the next begin().
 */
class AttentionBatchEvaluator
{
  public:
    /**
     * Rebinds the evaluator to a plan-base block under @p style.
     * @p base's loop orders are irrelevant — each add() supplies a
     * lane's own orders and GEMM cost records. @p baseline_overlap is
     * read only by the baseline style.
     */
    void begin(const AccelConfig& accel, const AttentionDims& dims,
               const FusedDataflow& base, const ExecutionStyle& style,
               BaselineOverlap baseline_overlap,
               std::size_t lane_capacity);

    std::size_t lanes() const { return batch_.lanes(); }
    const ExecutionStyle& style() const { return *style_; }

    /**
     * Appends one candidate: the block's base with loop orders
     * @p order_logit / @p order_attend. @p logit / @p attend must be
     * the GemmSliceCost records of the lane's (tile, order,
     * stationarity) choices — the same contract as PlannedGemmCosts.
     */
    void add(LoopOrder order_logit, LoopOrder order_attend,
             const GemmSliceCost& logit, const GemmSliceCost& attend);

    /** Dataflow of lane @p lane: the block's base, the lane's orders. */
    FusedDataflow dataflow(std::size_t lane) const;

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

    /** Evaluates every lane added since begin(). */
    void evaluate();

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
     * block is still current (the block's plan supplies the shared
     * footprint/residency fields).
     */
    OperatorCost cost(std::size_t lane) const;

  private:
    /** The block's plan, patched with one candidate's GEMM records.
     *  The first call per block builds it with make_plan(); later
     *  calls overwrite only the four order-dependent compute/reuse
     *  fields, which are all that differ within a block. */
    const AttentionPlan& bind_plan(const GemmSliceCost& logit,
                                   const GemmSliceCost& attend);

    TimelineBatch batch_;
    std::vector<Phase> phases_; ///< emission buffer, reused per lane
    AttentionPlan plan_;
    /** (logit, attend) loop orders of each lane. */
    std::vector<std::pair<LoopOrder, LoopOrder>> lane_orders_;
    const AccelConfig* accel_ = nullptr;
    const AttentionDims* dims_ = nullptr;
    FusedDataflow base_; ///< carries the last added lane's orders
    const ExecutionStyle* style_ = nullptr;
    bool plan_bound_ = false;  ///< plan_ holds this block's base
    bool configured_ = false;  ///< the batch holds the phase structure
    std::size_t lane_capacity_ = 0;
    OverlapKind overlap_ = OverlapKind::kOverlapped;
    double ideal_cycles_ = 0.0;
};

} // namespace flat

#endif // FLAT_COSTMODEL_ATTENTION_COST_H
