#include "costmodel/attention_cost.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace flat {

int
AttentionPhases::max_group() const
{
    int max_group = 0;
    for (const Phase& phase : phases) {
        max_group = std::max(max_group, phase.group);
    }
    return max_group;
}

AttentionPhases
attention_phases(const ExecutionStyle& style, const AccelConfig& accel,
                 const AttentionDims& dims, const FusedDataflow& dataflow,
                 BaselineOverlap overlap)
{
    accel.validate();
    const AttentionPlan plan = make_plan(accel, dims, dataflow);
    AttentionPhases out;
    style.emit_phases(out.phases, accel, dims, plan, dataflow);
    out.overlap = style.overlap(overlap);
    return out;
}

TimelineResult
attention_timeline(const ExecutionStyle& style, const AccelConfig& accel,
                   const AttentionDims& dims, const FusedDataflow& dataflow,
                   BaselineOverlap overlap)
{
    AttentionPhases emitted =
        attention_phases(style, accel, dims, dataflow, overlap);
    return evaluate_timeline(std::move(emitted.phases), accel,
                             emitted.overlap);
}

OperatorCost
model_attention(const ExecutionStyle& style, const AccelConfig& accel,
                const AttentionDims& dims, const FusedDataflow& dataflow,
                BaselineOverlap overlap)
{
    accel.validate();
    const AttentionPlan plan = make_plan(accel, dims, dataflow);
    std::vector<Phase> phases;
    style.emit_phases(phases, accel, dims, plan, dataflow);
    const TimelineResult timeline = evaluate_timeline(
        std::move(phases), accel, style.overlap(overlap));
    return finalize_cost(plan, attention_ideal_cycles(accel, dims),
                         timeline.cycles, timeline.activity,
                         style.cost_name());
}

void
AttentionBatchEvaluator::begin(const AccelConfig& accel,
                               const AttentionDims& dims,
                               const FusedDataflow& base,
                               const ExecutionStyle& style,
                               BaselineOverlap baseline_overlap,
                               std::size_t lane_capacity)
{
    accel.validate();
    accel_ = &accel;
    dims_ = &dims;
    base_ = base;
    style_ = &style;
    lane_capacity_ = lane_capacity;
    overlap_ = style.overlap(baseline_overlap);
    ideal_cycles_ = attention_ideal_cycles(accel, dims);
    // Plan binding and batch configuration are deferred to the first
    // candidate: its GEMM cost records seed the plan, so a block never
    // computes a gemm cost it was going to overwrite anyway.
    plan_bound_ = false;
    configured_ = false;
    batch_.clear_lanes();
    lane_orders_.clear();
}

const AttentionPlan&
AttentionBatchEvaluator::bind_plan(const GemmSliceCost& logit,
                                   const GemmSliceCost& attend)
{
    if (!plan_bound_) {
        plan_ = make_plan(*accel_, *dims_, base_, {&logit, &attend});
        plan_bound_ = true;
    } else {
        // Everything else in the plan is a pure function of the
        // block's cross loop, tiles and flags.
        plan_.logit_compute = logit.compute;
        plan_.logit_reuse = logit.reuse;
        plan_.attend_compute = attend.compute;
        plan_.attend_reuse = attend.reuse;
    }
    return plan_;
}

double
AttentionBatchEvaluator::dram_bytes(const GemmSliceCost& logit,
                                    const GemmSliceCost& attend)
{
    return plan_dram_traffic(bind_plan(logit, attend), base_.stage)
        .total_dram();
}

void
AttentionBatchEvaluator::add(LoopOrder order_logit, LoopOrder order_attend,
                             const GemmSliceCost& logit,
                             const GemmSliceCost& attend)
{
    // The scalar emitter IS the batch fill path: identical phase
    // arithmetic by construction, only the evaluation is batched.
    base_.order_logit = order_logit;
    base_.order_attend = order_attend;
    lane_orders_.emplace_back(order_logit, order_attend);
    style_->emit_phases(phases_, *accel_, *dims_,
                        bind_plan(logit, attend), base_);

    if (!configured_) {
        batch_.configure(phases_, overlap_, lane_capacity_);
        configured_ = true;
    }
    const std::size_t lane = batch_.add_lane();
    for (std::size_t p = 0; p < phases_.size(); ++p) {
        const Phase& phase = phases_[p];
        batch_.set_phase(lane, p, phase.compute_cycles,
                         phase.sfu_cycles, phase.link_latency_cycles,
                         phase.activity);
    }
}

void
AttentionBatchEvaluator::evaluate()
{
    if (batch_.lanes() > 0) {
        batch_.evaluate(*accel_);
    }
}

FusedDataflow
AttentionBatchEvaluator::dataflow(std::size_t lane) const
{
    FusedDataflow df = base_;
    df.order_logit = lane_orders_[lane].first;
    df.order_attend = lane_orders_[lane].second;
    return df;
}

OperatorCost
AttentionBatchEvaluator::cost(std::size_t lane) const
{
    const TimelineBatch::LaneSummary& summary = batch_.summary(lane);
    return finalize_cost(plan_, ideal_cycles_, summary.cycles,
                         summary.activity, style_->cost_name());
}

} // namespace flat
