#include "costmodel/attention_cost.h"

#include <algorithm>
#include <vector>

#include "common/status.h"
#include "dataflow/reuse.h"

namespace flat {

/**
 * Memoized attention plan plus the exact inputs its order-independent
 * base was computed from. Everything in AttentionPlan except the four
 * compute/reuse fields is a pure function of these key fields — the SG
 * loop orders and stationarities never enter the extent, the stage
 * shapes, the byte totals, the footprint or the residency split.
 */
struct AttentionEvalScratch::PlanMemo {
    bool valid = false;

    AttentionDims dims;
    std::uint32_t bytes_per_element = 0;
    std::uint64_t sg_bytes = 0;
    std::uint64_t sg2_bytes = 0;
    CrossLoop cross;
    L2Tile l2_logit;
    L2Tile l2_attend;
    FusedStageFlags stage;

    AttentionPlan plan;
};

AttentionEvalScratch::AttentionEvalScratch() = default;
AttentionEvalScratch::~AttentionEvalScratch() = default;

namespace {

/** True when every input the plan base reads is unchanged. */
bool
plan_base_matches(const AttentionEvalScratch::PlanMemo& memo,
                  const AccelConfig& accel, const AttentionDims& dims,
                  const FusedDataflow& df)
{
    return memo.valid &&
           memo.bytes_per_element == accel.bytes_per_element &&
           memo.sg_bytes == accel.sg_bytes &&
           memo.sg2_bytes == accel.sg2_bytes &&
           memo.dims.batch == dims.batch &&
           memo.dims.heads == dims.heads &&
           memo.dims.q_len == dims.q_len &&
           memo.dims.kv_len == dims.kv_len &&
           memo.dims.head_dim == dims.head_dim &&
           memo.dims.kv_heads == dims.kv_heads &&
           memo.dims.decode == dims.decode &&
           memo.cross.granularity == df.cross.granularity &&
           memo.cross.rows == df.cross.rows &&
           memo.cross.cols == df.cross.cols &&
           memo.l2_logit.m == df.l2_logit.m &&
           memo.l2_logit.k == df.l2_logit.k &&
           memo.l2_logit.n == df.l2_logit.n &&
           memo.l2_attend.m == df.l2_attend.m &&
           memo.l2_attend.k == df.l2_attend.k &&
           memo.l2_attend.n == df.l2_attend.n &&
           memo.stage.query == df.stage.query &&
           memo.stage.key == df.stage.key &&
           memo.stage.value == df.stage.value &&
           memo.stage.output == df.stage.output &&
           memo.stage.intermediate == df.stage.intermediate;
}

/**
 * make_plan() through the scratch memo. When only the SG loop orders
 * or stationarities changed since the previous call — the innermost
 * DSE axes — the memoized base is reused and just the four
 * order-dependent compute/reuse fields are refreshed with the identical
 * values make_plan() would have produced. Any other change recomputes
 * the whole plan.
 */
const AttentionPlan&
make_plan_memo(const AccelConfig& accel, const AttentionDims& dims,
               const FusedDataflow& dataflow,
               const PlannedGemmCosts& planned,
               AttentionEvalScratch& scratch)
{
    if (!scratch.memo) {
        scratch.memo = std::make_unique<AttentionEvalScratch::PlanMemo>();
    }
    AttentionEvalScratch::PlanMemo& memo = *scratch.memo;
    if (!plan_base_matches(memo, accel, dims, dataflow)) {
        memo.plan = make_plan(accel, dims, dataflow, planned);
        memo.dims = dims;
        memo.bytes_per_element = accel.bytes_per_element;
        memo.sg_bytes = accel.sg_bytes;
        memo.sg2_bytes = accel.sg2_bytes;
        memo.cross = dataflow.cross;
        memo.l2_logit = dataflow.l2_logit;
        memo.l2_attend = dataflow.l2_attend;
        memo.stage = dataflow.stage;
        memo.valid = true;
        return memo.plan;
    }

    AttentionPlan& plan = memo.plan;
    if (planned.logit != nullptr) {
        plan.logit_compute = planned.logit->compute;
        plan.logit_reuse = planned.logit->reuse;
    } else {
        plan.logit_compute =
            model_gemm_compute(accel, plan.logit_shape, dataflow.l2_logit,
                               dataflow.order_logit, dataflow.stat_logit);
        plan.logit_reuse = stage_reuse(plan.logit_shape, dataflow.l2_logit,
                                       dataflow.order_logit);
    }
    if (planned.attend != nullptr) {
        plan.attend_compute = planned.attend->compute;
        plan.attend_reuse = planned.attend->reuse;
    } else {
        plan.attend_compute = model_gemm_compute(
            accel, plan.attend_shape, dataflow.l2_attend,
            dataflow.order_attend, dataflow.stat_attend);
        plan.attend_reuse = stage_reuse(
            plan.attend_shape, dataflow.l2_attend, dataflow.order_attend);
    }
    return plan;
}

} // namespace

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
    AttentionEvalScratch scratch;
    return model_attention(style, accel, dims, dataflow, overlap, scratch);
}

OperatorCost
model_attention(const ExecutionStyle& style, const AccelConfig& accel,
                const AttentionDims& dims, const FusedDataflow& dataflow,
                BaselineOverlap overlap, AttentionEvalScratch& scratch,
                const PlannedGemmCosts& planned)
{
    accel.validate();
    const AttentionPlan& plan =
        make_plan_memo(accel, dims, dataflow, planned, scratch);
    style.emit_phases(scratch.timeline.phases, accel, dims, plan,
                      dataflow);
    evaluate_timeline_into(scratch.timeline, accel, style.overlap(overlap));
    return finalize_cost(accel, dims, plan, scratch.timeline.result,
                         style.cost_name());
}

void
AttentionBatchEvaluator::begin(const AccelConfig& accel,
                               const AttentionDims& dims,
                               const FusedDataflow& base,
                               const ExecutionStyle& style,
                               BaselineOverlap baseline_overlap,
                               std::size_t lane_capacity,
                               AttentionEvalScratch& scratch)
{
    accel.validate();
    accel_ = &accel;
    dims_ = &dims;
    scratch_ = &scratch;
    base_ = base;
    style_ = &style;
    lane_capacity_ = lane_capacity;
    overlap_ = style.overlap(baseline_overlap);
    ideal_cycles_ = attention_ideal_cycles(accel, dims);
    // Plan binding and batch configuration are deferred to the first
    // candidate: its GEMM cost records seed the plan memo, so a block
    // never computes a gemm cost it was going to overwrite anyway.
    plan_bound_ = false;
    configured_ = false;
    batch_.clear_lanes();
}

const AttentionPlan&
AttentionBatchEvaluator::bind_plan(const GemmSliceCost& logit,
                                   const GemmSliceCost& attend)
{
    AttentionEvalScratch& scratch = *scratch_;
    if (!plan_bound_) {
        PlannedGemmCosts planned;
        planned.logit = &logit;
        planned.attend = &attend;
        make_plan_memo(*accel_, *dims_, base_, planned, scratch);
        plan_bound_ = true;
    } else {
        // Same patch make_plan_memo() applies on a base match.
        AttentionPlan& plan = scratch.memo->plan;
        plan.logit_compute = logit.compute;
        plan.logit_reuse = logit.reuse;
        plan.attend_compute = attend.compute;
        plan.attend_reuse = attend.reuse;
    }
    return scratch.memo->plan;
}

double
AttentionBatchEvaluator::dram_bytes(const GemmSliceCost& logit,
                                    const GemmSliceCost& attend)
{
    return plan_dram_traffic(bind_plan(logit, attend), base_.stage)
        .total_dram();
}

void
AttentionBatchEvaluator::add(const GemmSliceCost& logit,
                             const GemmSliceCost& attend)
{
    // The scalar emitter IS the batch fill path: identical phase
    // arithmetic by construction, only the evaluation is batched.
    const AttentionPlan& plan = bind_plan(logit, attend);
    std::vector<Phase>& phases = scratch_->timeline.phases;
    style_->emit_phases(phases, *accel_, *dims_, plan, base_);

    if (!configured_) {
        batch_.configure(phases, overlap_, lane_capacity_);
        configured_ = true;
    }
    const std::size_t lane = batch_.add_lane();
    for (std::size_t p = 0; p < phases.size(); ++p) {
        const Phase& phase = phases[p];
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

OperatorCost
AttentionBatchEvaluator::cost(std::size_t lane) const
{
    const TimelineBatch::LaneSummary& summary = batch_.summary(lane);
    const AttentionPlan& plan = scratch_->memo->plan;
    OperatorCost cost;
    cost.name = style_->cost_name();
    cost.ideal_cycles = ideal_cycles_;
    cost.cycles = summary.cycles;
    cost.live_footprint_bytes = plan.footprint;
    cost.resident_fraction = plan.res.overall;
    cost.activity = summary.activity;
    return cost;
}

} // namespace flat
