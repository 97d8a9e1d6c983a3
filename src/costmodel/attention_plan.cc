#include "costmodel/attention_plan.h"

#include <algorithm>

#include "common/math_util.h"
#include "common/status.h"
#include "dataflow/reuse.h"

namespace flat {

FetchSplit
split_fetches(bool staged, double rho_sg, double rho_sg2,
              double unstaged_events)
{
    FetchSplit out;
    if (!staged) {
        out.dram = unstaged_events;
        return out;
    }
    const double spill = std::max(0.0, 1.0 - rho_sg - rho_sg2);
    out.dram = rho_sg + rho_sg2 + spill * (unstaged_events + 1.0);
    out.sg2 = rho_sg2 * unstaged_events;
    return out;
}

namespace {

/** Greedy SG allocation producing per-tensor resident fractions. The
 *  stage shapes must be the plan's (column-clamped at C-Gran). */
Residency
allocate_residency(const AccelConfig& accel, const FusedDataflow& dataflow,
                   const AttentionDims& dims, const CrossLoopExtent& extent,
                   const GemmShape& logit_shape,
                   const GemmShape& attend_shape, bool inter_in_rf)
{
    const double bpe = accel.bytes_per_element;
    const double inst = static_cast<double>(extent.instances_per_pass);
    const double rows = static_cast<double>(extent.rows_per_pass);
    const double kv = static_cast<double>(dims.kv_len);
    const double dk = static_cast<double>(dims.head_dim);
    // GQA: each staged K/V slice is shared by heads/kv_heads query
    // heads, so the bytes to hold resident shrink by kv_frac (exactly
    // 1.0 for MHA — the arithmetic below is then bit-identical).
    const double kv_frac = dims.kv_frac();

    // Mandatory streaming-tile reservation for the unstaged tensors.
    const L2Tile lt = dataflow.l2_logit.clamped(logit_shape);
    const L2Tile at = dataflow.l2_attend.clamped(attend_shape);
    const std::uint32_t b = accel.bytes_per_element;
    double reserve = 0.0;
    if (!dataflow.stage.query) {
        reserve += 2.0 * lt.a_bytes(b);
    }
    if (!dataflow.stage.key) {
        reserve += 2.0 * lt.b_bytes(b);
    }
    if (!dataflow.stage.value) {
        reserve += 2.0 * at.b_bytes(b);
    }
    if (!dataflow.stage.output) {
        reserve += 2.0 * at.c_bytes(b);
    }
    if (!dataflow.stage.intermediate && !inter_in_rf) {
        reserve += 2.0 * (lt.c_bytes(b) + at.a_bytes(b));
    }

    double capacity =
        std::max(0.0, static_cast<double>(accel.sg_bytes) - reserve);
    double capacity2 = static_cast<double>(accel.sg2_bytes);

    struct Demand {
        double* rho;
        double* rho2;
        double bytes;
    };
    Residency res;
    // Fixed-capacity demand lists (at most 1 + 4 tensors): this runs
    // once per DSE point, so it must not touch the heap.
    Demand demands[5];
    std::size_t n_demands = 0;
    if (dataflow.stage.intermediate && !inter_in_rf) {
        // Highest priority: the FLAT-tile itself (single-buffered).
        demands[n_demands++] = {&res.inter, &res.inter2,
                                rows * kv * inst * bpe};
    }
    Demand staged[4];
    std::size_t n_staged = 0;
    if (dataflow.stage.query) {
        staged[n_staged++] = {&res.q, &res.q2,
                              2.0 * rows * dk * inst * bpe};
    }
    if (dataflow.stage.output) {
        staged[n_staged++] = {&res.out, &res.out2,
                              2.0 * rows * dk * inst * bpe};
    }
    if (dataflow.stage.key) {
        staged[n_staged++] = {&res.k, &res.k2,
                              2.0 * kv * dk * inst * bpe * kv_frac};
    }
    if (dataflow.stage.value) {
        staged[n_staged++] = {&res.v, &res.v2,
                              2.0 * kv * dk * inst * bpe * kv_frac};
    }
    // Insertion sort by bytes ascending (stable; <= 4 elements). Equal
    // demands keep the q/out/k/v emission order above, matching what
    // std::sort's small-range insertion path produced historically.
    for (std::size_t i = 1; i < n_staged; ++i) {
        const Demand d = staged[i];
        std::size_t j = i;
        while (j > 0 && d.bytes < staged[j - 1].bytes) {
            staged[j] = staged[j - 1];
            --j;
        }
        staged[j] = d;
    }
    for (std::size_t i = 0; i < n_staged; ++i) {
        demands[n_demands++] = staged[i];
    }

    double wanted = 0.0;
    double granted = 0.0;
    for (std::size_t di = 0; di < n_demands; ++di) {
        const Demand& d = demands[di];
        const double fit =
            (d.bytes <= 0.0) ? 1.0 : std::min(1.0, capacity / d.bytes);
        *d.rho = fit;
        capacity -= fit * d.bytes;
        // Overflow into the second-level buffer when present.
        const double left = (1.0 - fit) * d.bytes;
        const double fit2 =
            (left <= 0.0 || capacity2 <= 0.0)
                ? 0.0
                : std::min(1.0, capacity2 / left) * (1.0 - fit);
        *d.rho2 = fit2;
        capacity2 -= fit2 * d.bytes;
        wanted += d.bytes;
        granted += (fit + fit2) * d.bytes;
    }
    res.overall = (wanted > 0.0) ? granted / wanted : 1.0;
    return res;
}

} // namespace

AttentionSlicePlan
make_slice_plan(const AccelConfig& accel, const AttentionDims& dims,
                const CrossLoop& cross)
{
    AttentionSlicePlan plan;
    plan.extent =
        cross_loop_extent(cross, dims.batch, dims.heads, dims.q_len);
    const std::uint64_t rows = plan.extent.rows_per_pass;
    const bool column = cross.granularity == Granularity::kColumn;
    const std::uint64_t cols_eff = cross_col_tile(cross, dims.kv_len);
    plan.inter_in_rf = column;

    plan.logit_shape.m = rows;
    plan.logit_shape.k = dims.head_dim;
    plan.logit_shape.n = cols_eff;
    plan.logit_shape.instances = 1;
    plan.logit_shape.a_kind = OperandKind::kActivation;
    plan.logit_shape.b_kind = OperandKind::kActivation;

    plan.attend_shape.m = rows;
    plan.attend_shape.k = cols_eff;
    plan.attend_shape.n = dims.head_dim;
    plan.attend_shape.instances = 1;
    plan.attend_shape.a_kind = OperandKind::kActivation;
    plan.attend_shape.b_kind = OperandKind::kActivation;

    plan.slices = static_cast<double>(plan.extent.passes) *
                  plan.extent.instances_per_pass;
    if (column) {
        plan.col_blocks =
            static_cast<double>(cross_col_blocks(cross, dims.kv_len));
        plan.slices *= plan.col_blocks;
    }

    const double bpe = accel.bytes_per_element;
    const double bh =
        static_cast<double>(dims.batch) * dims.heads;
    plan.q_bytes = bh * dims.q_len * dims.head_dim * bpe;
    // GQA shares one K/V head across heads/kv_heads query heads, so
    // the distinct K/V bytes scale by kv_frac (== 1.0 for MHA).
    plan.k_bytes =
        bh * dims.kv_len * dims.head_dim * bpe * dims.kv_frac();
    plan.v_bytes = plan.k_bytes;
    plan.out_bytes = plan.q_bytes;
    plan.inter_bytes = bh * dims.q_len * dims.kv_len * bpe;

    plan.kv_chunks = static_cast<double>(
        ceil_div(dims.q_len, plan.extent.rows_per_pass));
    plan.ideal_cycles = attention_ideal_cycles(accel, dims);
    return plan;
}

void
bind_block_plan(AttentionPlan& plan, const AccelConfig& accel,
                const AttentionDims& dims, const FusedDataflow& dataflow)
{
    plan.footprint = fused_live_footprint(dataflow, dims, plan.extent,
                                          accel.bytes_per_element);
    plan.res = allocate_residency(accel, dataflow, dims, plan.extent,
                                  plan.logit_shape, plan.attend_shape,
                                  plan.inter_in_rf);
}

AttentionPlan
make_plan(const AccelConfig& accel, const AttentionDims& dims,
          const FusedDataflow& dataflow)
{
    dims.validate();
    dataflow.validate();

    AttentionPlan plan;
    static_cast<AttentionSlicePlan&>(plan) =
        make_slice_plan(accel, dims, dataflow.cross);
    plan.logit_compute =
        model_gemm_compute(accel, plan.logit_shape, dataflow.l2_logit,
                           dataflow.order_logit, dataflow.stat_logit);
    plan.logit_reuse = stage_reuse(plan.logit_shape, dataflow.l2_logit,
                                   dataflow.order_logit);
    plan.attend_compute =
        model_gemm_compute(accel, plan.attend_shape, dataflow.l2_attend,
                           dataflow.order_attend, dataflow.stat_attend);
    plan.attend_reuse = stage_reuse(plan.attend_shape, dataflow.l2_attend,
                                    dataflow.order_attend);
    bind_block_plan(plan, accel, dims, dataflow);
    return plan;
}

TrafficBytes
plan_dram_traffic(const AttentionPlan& plan, const FusedStageFlags& stage)
{
    const Residency& res = plan.res;
    TrafficBytes t;

    // Inputs of L: Q rows stream per slice; K/V per row chunk.
    const FetchSplit q_split = split_fetches(
        stage.query, res.q, res.q2, plan.logit_reuse.a_repeats);
    t.dram_read += q_split.dram * plan.q_bytes;
    t.sg2_read += q_split.sg2 * plan.q_bytes;

    const FetchSplit k_split = split_fetches(
        stage.key, res.k, res.k2,
        plan.kv_chunks * plan.logit_reuse.b_repeats);
    t.dram_read += k_split.dram * plan.k_bytes;
    t.sg2_read += k_split.sg2 * plan.k_bytes;

    const FetchSplit v_split = split_fetches(
        stage.value, res.v, res.v2,
        plan.kv_chunks * plan.attend_reuse.b_repeats);
    t.dram_read += v_split.dram * plan.v_bytes;
    t.sg2_read += v_split.sg2 * plan.v_bytes;

    // SG2-resident input fractions are filled from DRAM through SG2.
    t.sg2_write += (res.q2 * plan.q_bytes + res.k2 * plan.k_bytes +
                    res.v2 * plan.v_bytes);

    // Output of A (events mirrored: writes dominate).
    if (stage.output) {
        const double spill_out =
            std::max(0.0, 1.0 - res.out - res.out2);
        t.dram_write += (res.out + res.out2 +
                         spill_out * plan.attend_reuse.c_write_repeats) *
                        plan.out_bytes;
        t.dram_read += spill_out * plan.attend_reuse.c_read_repeats *
                       plan.out_bytes;
        t.sg2_write += res.out2 * plan.attend_reuse.c_write_repeats *
                       plan.out_bytes;
        t.sg2_read += res.out2 *
                      (plan.attend_reuse.c_read_repeats + 1.0) *
                      plan.out_bytes;
    } else {
        t.dram_write +=
            plan.attend_reuse.c_write_repeats * plan.out_bytes;
        t.dram_read +=
            plan.attend_reuse.c_read_repeats * plan.out_bytes;
    }

    // Intermediate tensor: on-chip when SG-resident; SG2-resident
    // fractions round-trip through SG2; the rest round-trips through
    // DRAM (L writes it, softmax reads+writes it, A reads it) plus the
    // failed-staging penalty (§6.2.1's "one extra pass"). A register-
    // tier-resident intermediate (C-Gran) never leaves the PE array.
    if (!plan.inter_in_rf) {
        const double inter_write_events =
            plan.logit_reuse.c_write_repeats + 1.0; // + softmax write
        const double inter_read_events =
            plan.logit_reuse.c_read_repeats +
            plan.attend_reuse.a_repeats + 1.0; // + softmax read
        const double spill =
            stage.intermediate
                ? std::max(0.0, 1.0 - res.inter - res.inter2)
                : 1.0;
        const double staging_penalty = stage.intermediate ? spill : 0.0;
        t.dram_write += (spill * inter_write_events + staging_penalty) *
                        plan.inter_bytes;
        t.dram_read += (spill * inter_read_events + staging_penalty) *
                       plan.inter_bytes;
        t.sg2_write += res.inter2 * inter_write_events * plan.inter_bytes;
        t.sg2_read += res.inter2 * inter_read_events * plan.inter_bytes;
    }
    return t;
}

namespace {

/** split_fetches(staged, rho_sg, rho_sg2, events * m).dram * bytes as
 *  base + slope * m, accumulated into @p base and @p slope. */
void
add_fetch_bytes(double& base, double& slope, bool staged, double rho_sg,
                double rho_sg2, double events, double bytes)
{
    if (!staged) {
        slope += events * bytes;
        return;
    }
    const double spill = std::max(0.0, 1.0 - rho_sg - rho_sg2);
    base += (rho_sg + rho_sg2 + spill) * bytes;
    slope += spill * events * bytes;
}

} // namespace

DramSplit
split_dram_traffic(const AttentionPlan& plan, const FusedStageFlags& stage)
{
    // Term by term the ledger of plan_dram_traffic(), regrouped by the
    // reuse multiplier each term scales with.
    const Residency& res = plan.res;
    DramSplit split;
    add_fetch_bytes(split.logit.base, split.logit.a, stage.query, res.q,
                    res.q2, 1.0, plan.q_bytes);
    add_fetch_bytes(split.logit.base, split.logit.b, stage.key, res.k,
                    res.k2, plan.kv_chunks, plan.k_bytes);
    add_fetch_bytes(split.attend.base, split.attend.b, stage.value, res.v,
                    res.v2, plan.kv_chunks, plan.v_bytes);
    if (stage.output) {
        const double spill_out = std::max(0.0, 1.0 - res.out - res.out2);
        split.attend.base += (res.out + res.out2) * plan.out_bytes;
        split.attend.c_write += spill_out * plan.out_bytes;
        split.attend.c_read += spill_out * plan.out_bytes;
    } else {
        split.attend.c_write += plan.out_bytes;
        split.attend.c_read += plan.out_bytes;
    }
    if (!plan.inter_in_rf) {
        const double spill =
            stage.intermediate
                ? std::max(0.0, 1.0 - res.inter - res.inter2)
                : 1.0;
        const double staging_penalty = stage.intermediate ? spill : 0.0;
        const double spilled = spill * plan.inter_bytes;
        split.logit.c_write += spilled;
        split.logit.c_read += spilled;
        split.logit.base += staging_penalty * plan.inter_bytes;
        split.softmax = 2.0 * spilled;
        split.attend.a += spilled;
        split.attend.base += staging_penalty * plan.inter_bytes;
    }
    return split;
}

double
softmax_sfu_cycles(const AccelConfig& accel, const AttentionPlan& plan)
{
    return (plan.inter_bytes / accel.bytes_per_element) / accel.sfu_lanes;
}

double
flash_rescale_elems(const AccelConfig& accel, const AttentionPlan& plan)
{
    const double out_elems = plan.out_bytes / accel.bytes_per_element;
    return (plan.col_blocks - 1.0) * out_elems;
}

double
half_macs(const AttentionDims& dims)
{
    return static_cast<double>(attention_macs(dims)) / 2.0;
}

Phase&
next_phase(std::vector<Phase>& out, std::size_t& idx, const char* label,
           StageTag stage, int group)
{
    if (idx == out.size()) {
        out.emplace_back();
    }
    Phase& phase = out[idx++];
    phase.label = label;
    phase.stage = stage;
    phase.group = group;
    phase.track = -1;
    phase.compute_cycles = 0.0;
    phase.sfu_cycles = 0.0;
    phase.link_latency_cycles = 0.0;
    phase.activity = ActivityCounts{};
    phase.pace_only = false;
    return phase;
}

const char*
cold_start_label(const AttentionDims& dims)
{
    return dims.decode ? "cold start (first KV-cache fetch)"
                       : "cold start (first Q/K slice fetch)";
}

void
cold_start_values(PhaseValues& phase, const AttentionPlan& plan)
{
    phase.activity.traffic.dram_read =
        (plan.q_bytes + plan.k_bytes) /
        (plan.slices > 0.0 ? plan.slices : 1.0);
}

std::uint64_t
kv_cache_bytes(const AttentionDims& dims, std::uint32_t bytes_per_element)
{
    return dims.batch * dims.kv_heads_eff() * dims.kv_len *
           dims.head_dim * 2ull * bytes_per_element;
}

bool
kv_cache_admitted(const AccelConfig& accel, const AttentionDims& dims)
{
    if (!dims.decode || accel.dram_bytes == 0) {
        return true;
    }
    return kv_cache_bytes(dims, accel.bytes_per_element) <=
           accel.dram_bytes;
}

void
gemm_values(PhaseValues& phase, const GemmComputeCost& compute,
            double occupancy_cycles, const AttentionDims& dims,
            double slices)
{
    phase.compute_cycles = occupancy_cycles;
    phase.activity.macs = half_macs(dims);
    phase.activity.sl_accesses = 3.0 * phase.activity.macs;
    phase.activity.traffic.sg_read =
        (compute.sg_read_bytes + compute.sg_psum_read_bytes) * slices;
    phase.activity.traffic.sg_write = compute.sg_write_bytes * slices;
}

OperatorCost
finalize_cost(const AttentionPlan& plan, double cycles,
              const ActivityCounts& activity, const char* name)
{
    OperatorCost cost;
    cost.name = name;
    cost.ideal_cycles = plan.ideal_cycles;
    cost.cycles = cycles;
    cost.live_footprint_bytes = plan.footprint;
    cost.resident_fraction = plan.res.overall;
    cost.activity = activity;
    return cost;
}

std::uint64_t
attention_macs(const AttentionDims& dims)
{
    const std::uint64_t bh = dims.batch * dims.heads;
    // L: N x dk x kv, A: N x kv x dk per (batch, head).
    return 2 * bh * dims.q_len * dims.kv_len * dims.head_dim;
}

double
attention_ideal_cycles(const AccelConfig& accel, const AttentionDims& dims)
{
    return static_cast<double>(attention_macs(dims)) /
           accel.macs_per_cycle();
}

} // namespace flat
