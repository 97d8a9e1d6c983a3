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
    // By value, not by address: a caller may edit its accel or dims in
    // place between searches.
    if (accel != table_accel_ || dims != table_dims_) {
        drop_table();
        table_accel_ = accel;
        table_dims_ = dims;
    }
    part_ = nullptr;
    plan_bound_ = false;
    traffic_valid_ = false;
    lane_orders_.clear();
}

void
AttentionBatchEvaluator::drop_table()
{
    pairs_.clear();
    parts_.clear();
    std::fill(pair_slots_.begin(), pair_slots_.end(), 0u);
    pair_ = kNoPair;
}

namespace {

/** Hash of a tile pair's key. */
std::uint64_t
pair_hash(const CrossLoop& cross, const L2Tile& logit, const L2Tile& attend)
{
    const std::uint64_t fields[] = {
        static_cast<std::uint64_t>(cross.granularity),
        cross.rows, cross.cols, logit.m, logit.k, logit.n,
        attend.m, attend.k, attend.n};
    std::uint64_t h = 0;
    for (const std::uint64_t field : fields) {
        h = (h ^ field) * 0x9E3779B97F4A7C15ull;
        h ^= h >> 32;
    }
    return h;
}

} // namespace

std::size_t
AttentionBatchEvaluator::find_pair(const FusedDataflow& block)
{
    constexpr std::size_t mask = kPairSlots - 1;
    const std::size_t home =
        pair_hash(block.cross, block.l2_logit, block.l2_attend) & mask;
    std::size_t slot = home;
    for (; pair_slots_[slot] != 0; slot = (slot + 1) & mask) {
        if (pairs_[pair_slots_[slot] - 1].keys(block)) {
            return pair_slots_[slot] - 1;
        }
    }
    // A new pair. The table starts afresh when full, so the index is
    // never more than half full and a probe always ends.
    if (pairs_.size() == kMaxTilePairs) {
        drop_table();
        slot = home;
    }
    pairs_.push_back({block.cross, block.l2_logit, block.l2_attend});
    pair_slots_[slot] = static_cast<std::uint32_t>(pairs_.size());
    return pairs_.size() - 1;
}

void
AttentionBatchEvaluator::begin(const FusedDataflow& block)
{
    // The pair changes once per 32 flag sets in the exhaustive walk and
    // once per tile move in the mapper's climb.
    if (pair_ == kNoPair || !pairs_[pair_].keys(block)) {
        pair_ = find_pair(block);
    }
    flags_ = FusedStageFlags::encode(block.stage);
    base_ = block;
    // The block part is bound on first use: a block whose candidates
    // all fall to the compute bound never needs it, and one whose
    // candidates all fall to its floor reads only its split.
    part_ = nullptr;
    plan_bound_ = false;
    traffic_valid_ = false;
    batch_.clear_lanes();
    lane_orders_.clear();
}

const AttentionBatchEvaluator::BlockPart&
AttentionBatchEvaluator::block_part()
{
    if (part_ == nullptr) {
        std::uint32_t& index = pairs_[pair_].part[flags_];
        if (index == 0) {
            bind_block_plan(plan_, *accel_, *dims_, base_);
            parts_.push_back({plan_.footprint, plan_.res,
                              split_dram_traffic(plan_, base_.stage)});
            index = static_cast<std::uint32_t>(parts_.size());
            plan_bound_ = true;
            ++counts_.computed;
        }
        part_ = &parts_[index - 1];
        ++counts_.binds;
    }
    return *part_;
}

void
AttentionBatchEvaluator::bind_block()
{
    if (!plan_bound_) {
        const BlockPart& part = block_part();
        plan_.footprint = part.footprint;
        plan_.res = part.res;
        plan_bound_ = true;
    }
}

const DramSplit&
AttentionBatchEvaluator::dram_split()
{
    return block_part().split;
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
