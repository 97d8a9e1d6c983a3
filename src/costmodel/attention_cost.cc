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
    return finalize_cost(plan, timeline.cycles, timeline.activity,
                         style.cost_name());
}

void
AttentionBatchEvaluator::bind_slice(const AccelConfig& accel,
                                    const AttentionDims& dims,
                                    const CrossLoop& cross,
                                    const ExecutionStyle& style,
                                    BaselineOverlap baseline_overlap)
{
    accel_ = &accel;
    dims_ = &dims;
    style_ = &style;
    overlap_ = style.overlap(baseline_overlap);
    static_cast<AttentionSlicePlan&>(plan_) =
        make_slice_plan(accel, dims, cross);
    style.emit_skeleton(skeleton_, accel, dims, cross);
    batch_.configure(skeleton_, overlap_);
    block_bound_ = false;
    traffic_valid_ = false;
    split_valid_ = false;
    lane_orders_.clear();
}

void
AttentionBatchEvaluator::begin(const FusedDataflow& block)
{
    // The block part is bound on first use: a block whose candidates
    // all fall to the compute bound never needs it.
    base_ = block;
    block_bound_ = false;
    traffic_valid_ = false;
    split_valid_ = false;
    batch_.clear_lanes();
    lane_orders_.clear();
}

void
AttentionBatchEvaluator::bind_block()
{
    if (!block_bound_) {
        bind_block_plan(plan_, *accel_, *dims_, base_);
        block_bound_ = true;
    }
}

const DramSplit&
AttentionBatchEvaluator::dram_split()
{
    if (!split_valid_) {
        bind_block();
        split_ = split_dram_traffic(plan_, base_.stage);
        split_valid_ = true;
    }
    return split_;
}

const TrafficBytes&
AttentionBatchEvaluator::traffic(const GemmSliceCost& logit,
                                 const GemmSliceCost& attend)
{
    bind_block();
    // Within a block the traffic is a function of the two reuse
    // records alone, so equal records give the same bytes.
    if (!traffic_valid_ || !(plan_.logit_reuse == logit.reuse) ||
        !(plan_.attend_reuse == attend.reuse)) {
        plan_.logit_reuse = logit.reuse;
        plan_.attend_reuse = attend.reuse;
        traffic_ = plan_dram_traffic(plan_, base_.stage);
        traffic_valid_ = true;
    }
    return traffic_;
}

void
AttentionBatchEvaluator::add(LoopOrder order_logit, LoopOrder order_attend,
                             const GemmSliceCost& logit,
                             const GemmSliceCost& attend)
{
    const TrafficBytes& dram = traffic(logit, attend);
    plan_.logit_compute = logit.compute;
    plan_.attend_compute = attend.compute;
    base_.order_logit = order_logit;
    base_.order_attend = order_attend;
    lane_orders_.emplace_back(order_logit, order_attend);
    style_->emit_values(batch_.add_lane(), *accel_, *dims_, plan_, base_,
                        dram);
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
    return finalize_cost(plan_, summary.cycles, summary.activity,
                         style_->cost_name());
}

} // namespace flat
