#include "costmodel/execution_style.h"

#include <algorithm>

#include "common/status.h"
#include "costmodel/gemm_engine.h"

namespace flat {

OverlapKind
ExecutionStyle::overlap(BaselineOverlap) const
{
    return OverlapKind::kOverlapped;
}

AccelConfig
ExecutionStyle::stage_array(const AccelConfig& accel) const
{
    return accel;
}

double
ExecutionStyle::bound_cycles(double gemm_sum_cycles,
                             double /*gemm_max_cycles*/,
                             double softmax_cycles, double cold_cycles,
                             double /*rescale_cycles*/) const
{
    // One shared (or windowed) schedule cannot beat its summed GEMM
    // occupancy plus the serial softmax and the exposed cold start.
    return gemm_sum_cycles + (softmax_cycles + cold_cycles);
}

double
ExecutionStyle::inter_sg_round_trip_bytes(double inter_bytes) const
{
    return 2.0 * inter_bytes;
}

void
ExecutionStyle::emit_phases(std::vector<Phase>& phases,
                            const AccelConfig& accel,
                            const AttentionDims& dims,
                            const AttentionPlan& plan,
                            const FusedDataflow& dataflow) const
{
    emit_skeleton(phases, accel, dims, dataflow.cross);
    FLAT_ASSERT(phases.size() <= kMaxPhases,
                id() << " emits " << phases.size() << " phases");
    PhaseValues values[kMaxPhases];
    emit_values(values, accel, dims, plan, dataflow,
                plan_dram_traffic(plan, dataflow.stage));
    for (std::size_t p = 0; p < phases.size(); ++p) {
        static_cast<PhaseValues&>(phases[p]) = values[p];
    }
}

namespace {

const char*
prefetch_label(const AttentionDims& dims)
{
    return dims.decode ? "KV-cache read (DRAM->SG, overlapped)"
                       : "prefetch (DRAM->SG, overlapped)";
}

constexpr const char* kOverlappedWriteback =
    "writeback (SG->DRAM, overlapped)";

/** The overlapped prefetch window: every DRAM read lands in the SG. */
void
prefetch_values(PhaseValues& phase, const TrafficBytes& dram)
{
    phase.activity.traffic.dram_read = dram.dram_read;
    phase.activity.traffic.sg_write = dram.dram_read; // pass-through
    phase.activity.traffic.sg2_read = dram.sg2_read;
}

/** The overlapped writeback window: every DRAM write leaves the SG. */
void
writeback_values(PhaseValues& phase, const TrafficBytes& dram)
{
    phase.activity.traffic.dram_write = dram.dram_write;
    phase.activity.traffic.sg_read = dram.dram_write; // pass-through
    phase.activity.traffic.sg2_write = dram.sg2_write;
}

/** Softmax on the SFU, one SG round trip of the intermediate. */
void
staged_softmax_values(PhaseValues& phase, const AccelConfig& accel,
                      const AttentionPlan& plan)
{
    phase.sfu_cycles = softmax_sfu_cycles(accel, plan);
    phase.activity.sfu_elems = plan.inter_bytes / accel.bytes_per_element;
    phase.activity.traffic.sg_read = plan.inter_bytes;
    phase.activity.traffic.sg_write = plan.inter_bytes;
}

/** A GEMM stage on the whole array: its full-array cycles per slice. */
void
whole_array_gemm_values(PhaseValues& phase, const GemmComputeCost& compute,
                        const AttentionDims& dims, const AttentionPlan& plan)
{
    gemm_values(phase, compute, compute.total_cycles() * plan.slices, dims,
                plan.slices);
}

/**
 * FLAT (interleaved) execution: one shared overlap window — all
 * transfers hide under the combined duration of L + softmax + A —
 * preceded by the exposed cold-start fetch.
 */
class FlatStyle : public ExecutionStyle
{
  public:
    const char* id() const override { return "flat"; }
    const char* summary() const override
    {
        return "FLAT interleaved L-A, one shared overlap window "
               "(M/B/H/R granularity)";
    }
    const char* cost_name() const override { return "L-A(FLAT)"; }
    bool fused() const override { return true; }

    bool admits(const AccelConfig& accel, const AttentionDims& dims,
                const CrossLoop& cross) const override
    {
        return cross.granularity != Granularity::kColumn &&
               kv_cache_admitted(accel, dims);
    }

    void emit_skeleton(std::vector<Phase>& phases, const AccelConfig&,
                       const AttentionDims& dims,
                       const CrossLoop&) const override
    {
        std::size_t idx = 0;
        next_phase(phases, idx, cold_start_label(dims),
                   StageTag::kColdStart, 0)
            .pace_only = true;
        next_phase(phases, idx, prefetch_label(dims), StageTag::kPrefetch,
                   1);
        next_phase(phases, idx, "L: logits slice GEMM", StageTag::kLogit,
                   1);
        next_phase(phases, idx, "softmax on SFU", StageTag::kSoftmax, 1);
        next_phase(phases, idx, "A: attend slice GEMM", StageTag::kAttend,
                   1);
        next_phase(phases, idx, kOverlappedWriteback,
                   StageTag::kWriteback, 1);
        phases.resize(idx);
    }

    void emit_values(PhaseValues* out, const AccelConfig& accel,
                     const AttentionDims& dims, const AttentionPlan& plan,
                     const FusedDataflow&,
                     const TrafficBytes& dram) const override
    {
        std::size_t idx = 0;
        cold_start_values(next_values(out, idx), plan);
        prefetch_values(next_values(out, idx), dram);
        whole_array_gemm_values(next_values(out, idx), plan.logit_compute,
                                dims, plan);
        staged_softmax_values(next_values(out, idx), accel, plan);
        whole_array_gemm_values(next_values(out, idx),
                                plan.attend_compute, dims, plan);
        writeback_values(next_values(out, idx), dram);
    }
};

/**
 * Sequential baseline: three windows (L, softmax, A), each overlapping
 * only its own transfers, after the cold-start fetch. The spilled
 * intermediate fraction round-trips through DRAM between windows.
 */
class BaselineStyle : public ExecutionStyle
{
  public:
    const char* id() const override { return "baseline"; }
    const char* summary() const override
    {
        return "sequential L / softmax / A windows (Base / Base-X; "
               "M/B/H granularity)";
    }
    const char* cost_name() const override { return "L-A(Base)"; }
    bool fused() const override { return false; }

    bool admits(const AccelConfig& accel, const AttentionDims& dims,
                const CrossLoop& cross) const override
    {
        return cross.granularity != Granularity::kRow &&
               cross.granularity != Granularity::kColumn &&
               kv_cache_admitted(accel, dims);
    }

    OverlapKind overlap(BaselineOverlap baseline_overlap) const override
    {
        return baseline_overlap == BaselineOverlap::kFull
                   ? OverlapKind::kOverlapped
                   : OverlapKind::kSerialTransfers;
    }

    void emit_skeleton(std::vector<Phase>& phases, const AccelConfig&,
                       const AttentionDims& dims,
                       const CrossLoop& cross) const override
    {
        FLAT_CHECK(
            cross.granularity != Granularity::kRow &&
                cross.granularity != Granularity::kColumn,
            "the sequential baseline cannot execute at R-granularity; "
            "row-chunked L-A is exactly the fusion FLAT adds (§4.2)");
        std::size_t idx = 0;
        next_phase(phases, idx, cold_start_label(dims),
                   StageTag::kColdStart, 0)
            .pace_only = true;
        // Window 1: L reads Q and K and round-trips the spilled
        // intermediate fraction (psum re-reads out, result writes in).
        next_phase(phases, idx,
                   dims.decode ? "L transfers (q/K-cache in, spill out)"
                               : "L transfers (Q/K in, spill out)",
                   StageTag::kPrefetch, 1);
        next_phase(phases, idx, "L: logits GEMM", StageTag::kLogit, 1);
        // Window 2: softmax round-trips the spilled fraction.
        next_phase(phases, idx, "softmax on SFU (spill round-trip)",
                   StageTag::kSoftmax, 2);
        // Window 3: A reads V and the intermediate, writes the output.
        next_phase(phases, idx,
                   dims.decode ? "A transfers (V-cache/inter in)"
                               : "A transfers (V/inter in)",
                   StageTag::kPrefetch, 3);
        next_phase(phases, idx, "A: attend GEMM", StageTag::kAttend, 3);
        next_phase(phases, idx, "writeback (out, SG->DRAM)",
                   StageTag::kWriteback, 3);
        phases.resize(idx);
    }

    void emit_values(PhaseValues* out, const AccelConfig& accel,
                     const AttentionDims& dims, const AttentionPlan& plan,
                     const FusedDataflow& dataflow,
                     const TrafficBytes& dram) const override
    {
        const FusedStageFlags& stage = dataflow.stage;
        const Residency& res = plan.res;
        const double spill =
            stage.intermediate
                ? std::max(0.0, 1.0 - res.inter - res.inter2)
                : 1.0;
        const double staging_penalty = stage.intermediate ? spill : 0.0;
        // The SG2 traffic is dominated by the intermediate, produced in
        // the L window and consumed in the A window: half to each.
        const double sg2_read_half = dram.sg2_read / 2.0;
        const double sg2_write_half = dram.sg2_write / 2.0;

        // Window 3 volumes, computed up front (the output-staging branch
        // couples the A-transfer reads and the writeback writes).
        double a_xfer_dram_read =
            split_fetches(stage.value, res.v, res.v2,
                          plan.kv_chunks * plan.attend_reuse.b_repeats)
                    .dram *
                plan.v_bytes +
            (spill * plan.attend_reuse.a_repeats + staging_penalty) *
                plan.inter_bytes;
        double writeback_dram_write = 0.0;
        if (stage.output) {
            const double spill_out =
                std::max(0.0, 1.0 - res.out - res.out2);
            a_xfer_dram_read += spill_out *
                                plan.attend_reuse.c_read_repeats *
                                plan.out_bytes;
            writeback_dram_write =
                (res.out + res.out2 +
                 spill_out * plan.attend_reuse.c_write_repeats) *
                plan.out_bytes;
        } else {
            a_xfer_dram_read +=
                plan.attend_reuse.c_read_repeats * plan.out_bytes;
            writeback_dram_write =
                plan.attend_reuse.c_write_repeats * plan.out_bytes;
        }

        std::size_t idx = 0;
        cold_start_values(next_values(out, idx), plan);
        {
            TrafficBytes& l_xfer = next_values(out, idx).activity.traffic;
            l_xfer.dram_read =
                split_fetches(stage.query, res.q, res.q2,
                              plan.logit_reuse.a_repeats)
                        .dram *
                    plan.q_bytes +
                split_fetches(stage.key, res.k, res.k2,
                              plan.kv_chunks * plan.logit_reuse.b_repeats)
                        .dram *
                    plan.k_bytes +
                spill * plan.logit_reuse.c_read_repeats *
                    plan.inter_bytes;
            l_xfer.dram_write = (spill * plan.logit_reuse.c_write_repeats +
                                 staging_penalty) *
                                plan.inter_bytes;
            l_xfer.sg_write = l_xfer.dram_read; // pass-through
            l_xfer.sg_read = l_xfer.dram_write;
            l_xfer.sg2_read = sg2_read_half;
            l_xfer.sg2_write = sg2_write_half;
        }
        whole_array_gemm_values(next_values(out, idx), plan.logit_compute,
                                dims, plan);
        {
            PhaseValues& softmax = next_values(out, idx);
            softmax.sfu_cycles = softmax_sfu_cycles(accel, plan);
            softmax.activity.sfu_elems =
                plan.inter_bytes / accel.bytes_per_element;
            TrafficBytes& bytes = softmax.activity.traffic;
            bytes.dram_read = spill * plan.inter_bytes;
            bytes.dram_write = spill * plan.inter_bytes;
            bytes.sg_read = plan.inter_bytes + bytes.dram_write;
            bytes.sg_write = plan.inter_bytes + bytes.dram_read;
        }
        {
            TrafficBytes& a_xfer = next_values(out, idx).activity.traffic;
            a_xfer.dram_read = a_xfer_dram_read;
            a_xfer.sg_write = a_xfer_dram_read;
            a_xfer.sg2_read = sg2_read_half;
        }
        whole_array_gemm_values(next_values(out, idx),
                                plan.attend_compute, dims, plan);
        {
            TrafficBytes& writeback =
                next_values(out, idx).activity.traffic;
            writeback.dram_write = writeback_dram_write;
            writeback.sg_read = writeback_dram_write;
            writeback.sg2_write = sg2_write_half;
        }
    }
};

/**
 * Spatially pipelined execution: L and A on concurrent half-array
 * tracks inside one overlap window, softmax serial between them, plus
 * a pace-only pipeline-fill window (one L slice + its softmax share).
 */
class PipelinedStyle : public ExecutionStyle
{
  public:
    const char* id() const override { return "pipelined"; }
    const char* summary() const override
    {
        return "spatially pipelined L-A on half-array tracks (the §5.1 "
               "alternative FLAT argues against)";
    }
    const char* cost_name() const override { return "L-A(pipelined)"; }
    bool fused() const override { return true; }

    bool admits(const AccelConfig& accel, const AttentionDims& dims,
                const CrossLoop& cross) const override
    {
        return accel.pe_rows >= 2 &&
               cross.granularity != Granularity::kColumn &&
               kv_cache_admitted(accel, dims);
    }

    AccelConfig stage_array(const AccelConfig& accel) const override
    {
        // Each stage runs on half the array (split along rows).
        AccelConfig half = accel;
        half.pe_rows = accel.pe_rows / 2;
        return half;
    }

    double bound_cycles(double /*gemm_sum_cycles*/, double gemm_max_cycles,
                        double softmax_cycles, double /*cold_cycles*/,
                        double /*rescale_cycles*/) const override
    {
        // The half-array tracks run concurrently, so the window's
        // compute lane is the slower track plus the softmax serialized
        // between them (the fill window only adds). The sum bound of
        // the serial styles can EXCEED the pipelined runtime, and so
        // can a full-array stage bound: a half array fills and drains
        // faster, which wins on tiny GEMMs. There is no cold-start
        // window to add.
        return gemm_max_cycles + softmax_cycles;
    }

    void emit_skeleton(std::vector<Phase>& phases, const AccelConfig& accel,
                       const AttentionDims& dims,
                       const CrossLoop&) const override
    {
        FLAT_CHECK(accel.pe_rows >= 2,
                   "pipelined execution needs an array splittable in two");
        std::size_t idx = 0;
        // Pipeline fill: one slice of L (and its softmax) before A
        // starts.
        next_phase(phases, idx, "pipeline fill (first L slice + softmax)",
                   StageTag::kColdStart, 0)
            .pace_only = true;
        next_phase(phases, idx, prefetch_label(dims), StageTag::kPrefetch,
                   1);
        next_phase(phases, idx, "L: logits GEMM (half array)",
                   StageTag::kLogit, 1)
            .track = 0;
        next_phase(phases, idx, "softmax on SFU (between halves)",
                   StageTag::kSoftmax, 1);
        next_phase(phases, idx, "A: attend GEMM (half array)",
                   StageTag::kAttend, 1)
            .track = 1;
        next_phase(phases, idx, kOverlappedWriteback,
                   StageTag::kWriteback, 1);
        phases.resize(idx);
    }

    void emit_values(PhaseValues* out, const AccelConfig& accel,
                     const AttentionDims& dims, const AttentionPlan& plan,
                     const FusedDataflow& dataflow,
                     const TrafficBytes& dram) const override
    {
        // The halves share the SG and the memory interfaces, so the
        // byte ledger keeps the full-array plan's streaming volume;
        // only the occupancies come from the lane's own loop orders on
        // the half array.
        const AccelConfig half = stage_array(accel);
        const GemmComputeCost logit_half =
            model_gemm_compute(half, plan.logit_shape, dataflow.l2_logit,
                               dataflow.order_logit, dataflow.stat_logit);
        const GemmComputeCost attend_half = model_gemm_compute(
            half, plan.attend_shape, dataflow.l2_attend,
            dataflow.order_attend, dataflow.stat_attend);

        std::size_t idx = 0;
        {
            PhaseValues& fill = next_values(out, idx);
            if (plan.slices > 0.0) {
                fill.compute_cycles = logit_half.total_cycles();
                fill.sfu_cycles =
                    softmax_sfu_cycles(accel, plan) / plan.slices;
            }
        }
        prefetch_values(next_values(out, idx), dram);
        gemm_values(next_values(out, idx), plan.logit_compute,
                    logit_half.total_cycles() * plan.slices, dims,
                    plan.slices);
        staged_softmax_values(next_values(out, idx), accel, plan);
        gemm_values(next_values(out, idx), plan.attend_compute,
                    attend_half.total_cycles() * plan.slices, dims,
                    plan.slices);
        writeback_values(next_values(out, idx), dram);
    }
};

/**
 * Column-blocked streaming execution with online softmax: each R-row
 * chunk streams C key-columns at a time, keeping the running logits
 * block, the output accumulator and the per-row max/sum statistics in
 * the register tier below SL. The intermediate never touches the SG or
 * DRAM; the price is rescale work on the SFU critical path — every
 * column block after the first rescales the output accumulator.
 */
class FlashStyle : public ExecutionStyle
{
  public:
    const char* id() const override { return "flash"; }
    const char* summary() const override
    {
        return "column-blocked streaming L-A with online softmax "
               "(register-tier intermediate, C granularity)";
    }
    const char* cost_name() const override { return "L-A(flash)"; }
    bool fused() const override { return true; }

    bool admits(const AccelConfig& accel, const AttentionDims& dims,
                const CrossLoop& cross) const override
    {
        if (cross.granularity != Granularity::kColumn) {
            return false;
        }
        const std::uint64_t rows = std::min(cross.rows, dims.q_len);
        const std::uint64_t cols = std::min(cross.cols, dims.kv_len);
        return register_tier_bytes(rows, cols, dims.head_dim,
                                   accel.bytes_per_element) <=
                   accel.rf_capacity_bytes() &&
               kv_cache_admitted(accel, dims);
    }

    double bound_cycles(double gemm_sum_cycles, double /*gemm_max*/,
                        double softmax_cycles, double cold_cycles,
                        double rescale_cycles) const override
    {
        return gemm_sum_cycles + (softmax_cycles + cold_cycles) +
               rescale_cycles;
    }

    double inter_sg_round_trip_bytes(double) const override
    {
        return 0.0; // register-tier resident
    }

    void emit_skeleton(std::vector<Phase>& phases, const AccelConfig&,
                       const AttentionDims& dims,
                       const CrossLoop& cross) const override
    {
        FLAT_CHECK(cross.granularity == Granularity::kColumn,
                   "the flash style streams column blocks; use C-Gran "
                   "(online softmax is what makes it legal)");
        std::size_t idx = 0;
        next_phase(phases, idx, cold_start_label(dims),
                   StageTag::kColdStart, 0)
            .pace_only = true;
        next_phase(phases, idx, prefetch_label(dims), StageTag::kPrefetch,
                   1);
        next_phase(phases, idx, "L: logits block GEMM (streamed)",
                   StageTag::kLogit, 1);
        next_phase(phases, idx, "online softmax + rescale (SFU)",
                   StageTag::kSoftmax, 1);
        next_phase(phases, idx, "A: attend block GEMM (streamed)",
                   StageTag::kAttend, 1);
        next_phase(phases, idx, kOverlappedWriteback,
                   StageTag::kWriteback, 1);
        phases.resize(idx);
    }

    void emit_values(PhaseValues* out, const AccelConfig& accel,
                     const AttentionDims& dims, const AttentionPlan& plan,
                     const FusedDataflow&,
                     const TrafficBytes& dram) const override
    {
        const double inter_elems =
            plan.inter_bytes / accel.bytes_per_element;
        const double rescale_elems = flash_rescale_elems(accel, plan);

        std::size_t idx = 0;
        cold_start_values(next_values(out, idx), plan);
        prefetch_values(next_values(out, idx), dram);
        whole_array_gemm_values(next_values(out, idx), plan.logit_compute,
                                dims, plan);
        {
            // Online softmax: exp/max/sum over every logit element plus
            // the rescale of the output accumulator per subsequent
            // column block — all SFU work, all on the critical path.
            // The running block lives in the register tier, so unlike
            // the staged styles there is NO SG round trip here.
            PhaseValues& softmax = next_values(out, idx);
            softmax.sfu_cycles =
                (inter_elems + rescale_elems) / accel.sfu_lanes;
            softmax.activity.sfu_elems = inter_elems + rescale_elems;
        }
        whole_array_gemm_values(next_values(out, idx),
                                plan.attend_compute, dims, plan);
        writeback_values(next_values(out, idx), dram);
    }
};

const FlatStyle g_flat;
const BaselineStyle g_baseline;
const PipelinedStyle g_pipelined;
const FlashStyle g_flash;

} // namespace

const std::vector<const ExecutionStyle*>&
execution_styles()
{
    static const std::vector<const ExecutionStyle*> styles = {
        &g_baseline, &g_flat, &g_pipelined, &g_flash};
    return styles;
}

const ExecutionStyle*
find_execution_style(const std::string& id)
{
    for (const ExecutionStyle* style : execution_styles()) {
        if (id == style->id()) {
            return style;
        }
    }
    return nullptr;
}

const ExecutionStyle&
default_execution_style(bool fused)
{
    return fused ? static_cast<const ExecutionStyle&>(g_flat)
                 : static_cast<const ExecutionStyle&>(g_baseline);
}

const ExecutionStyle&
baseline_execution_style()
{
    return g_baseline;
}

const ExecutionStyle&
flat_execution_style()
{
    return g_flat;
}

const ExecutionStyle&
pipelined_execution_style()
{
    return g_pipelined;
}

const ExecutionStyle&
flash_execution_style()
{
    return g_flash;
}

} // namespace flat
