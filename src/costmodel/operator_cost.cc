#include "costmodel/operator_cost.h"

#include <cstddef>
#include <utility>

#include "common/status.h"
#include "costmodel/attention_plan.h"

namespace flat {

void
gemm_operator_skeleton(std::vector<Phase>& phases, const Operator& op)
{
    // An exposed first-tile fetch, then one double-buffered window where
    // the GEMM's compute arbitrates against the prefetch/writeback
    // streams. The phases are overwritten in place (next_phase), so a
    // reused vector keeps its label buffers.
    std::size_t idx = 0;
    next_phase(phases, idx, "cold start (first A/B tile fetch)",
               StageTag::kColdStart, 0)
        .pace_only = true;
    next_phase(phases, idx, "prefetch (DRAM->SG, overlapped)",
               StageTag::kPrefetch, 1);
    next_phase(phases, idx, op.name.c_str(), StageTag::kCompute, 1)
        .label += " GEMM";
    next_phase(phases, idx, "writeback (SG->DRAM, overlapped)",
               StageTag::kWriteback, 1);
    phases.resize(idx);
}

void
gemm_operator_values(PhaseValues* out, const AccelConfig& accel,
                     const Operator& op, const OperatorDataflow& dataflow,
                     const GemmSliceCost& record, double resident_fraction)
{
    const GemmShape& shape = op.gemm;
    const std::uint32_t bpe = accel.bytes_per_element;
    const GemmComputeCost& compute = record.compute;
    const StageReuse& reuse = record.reuse;
    const double rho = resident_fraction;
    const double instances = static_cast<double>(shape.instances);

    // DRAM traffic. The reuse record holds fetch events per instance;
    // staging (L3) collapses them to one, subject to spill.
    const double a_bytes_total =
        static_cast<double>(shape.a_elems_total()) * bpe;
    const double b_bytes_total =
        static_cast<double>(shape.b_elems_total()) * bpe;
    const double c_bytes_total =
        static_cast<double>(shape.c_elems_total()) * bpe;
    double dram_read =
        split_fetches(dataflow.l3.a, rho, 0.0, reuse.a_repeats).dram *
            a_bytes_total +
        split_fetches(dataflow.l3.b, rho, 0.0, reuse.b_repeats).dram *
            b_bytes_total;
    // Output: writes always happen at least once; partial-sum re-reads
    // stay on-chip when the output is staged and resident.
    double dram_write = 0.0;
    if (dataflow.l3.c) {
        dram_write = (rho + (1.0 - rho) * reuse.c_write_repeats) *
                     c_bytes_total;
        dram_read += (1.0 - rho) * reuse.c_read_repeats * c_bytes_total;
    } else {
        dram_write = reuse.c_write_repeats * c_bytes_total;
        dram_read += reuse.c_read_repeats * c_bytes_total;
    }

    // The on-chip ledger covers operand streaming into the array plus
    // the DRAM transfers landing in / leaving SG.
    std::size_t idx = 0;
    const L2Tile tile = dataflow.l2.clamped(shape);
    next_values(out, idx).activity.traffic.dram_read =
        static_cast<double>(tile.a_bytes(bpe) + tile.b_bytes(bpe));

    TrafficBytes& prefetch = next_values(out, idx).activity.traffic;
    prefetch.dram_read = dram_read;
    prefetch.sg_write = dram_read; // SG write on the way in from DRAM

    PhaseValues& gemm = next_values(out, idx);
    gemm.compute_cycles =
        (compute.compute_cycles + compute.fill_drain_cycles) * instances;
    gemm.activity.macs = static_cast<double>(shape.macs());
    // Each MAC reads two operands from and accumulates into the SL.
    gemm.activity.sl_accesses = 3.0 * gemm.activity.macs;
    gemm.activity.traffic.sg_read =
        (compute.sg_read_bytes + compute.sg_psum_read_bytes) * instances;
    gemm.activity.traffic.sg_write = compute.sg_write_bytes * instances;

    TrafficBytes& writeback = next_values(out, idx).activity.traffic;
    writeback.dram_write = dram_write;
    writeback.sg_read = dram_write; // SG read on the way out to DRAM
}

OperatorCost
model_gemm_operator(const AccelConfig& accel, const Operator& op,
                    const OperatorDataflow& dataflow)
{
    accel.validate();
    FLAT_CHECK(op.kind == OpKind::kGemm,
               op.name << ": model_gemm_operator needs a GEMM");
    dataflow.validate();
    const GemmShape& shape = op.gemm;

    OperatorCost cost;
    cost.name = op.name;
    cost.ideal_cycles = ideal_gemm_cycles(accel, shape.macs());
    cost.live_footprint_bytes =
        operator_live_footprint(dataflow, shape, accel.bytes_per_element);
    cost.resident_fraction =
        gemm_resident_fraction(accel, cost.live_footprint_bytes);

    std::vector<Phase> phases;
    gemm_operator_skeleton(phases, op);
    const GemmSliceCost record{
        model_gemm_compute(accel, shape, dataflow.l2, dataflow.order,
                           dataflow.stationarity),
        stage_reuse(shape, dataflow.l2, dataflow.order)};
    PhaseValues values[4];
    gemm_operator_values(values, accel, op, dataflow, record,
                         cost.resident_fraction);
    for (std::size_t p = 0; p < phases.size(); ++p) {
        static_cast<PhaseValues&>(phases[p]) = values[p];
    }
    const TimelineResult timeline =
        evaluate_timeline(std::move(phases), accel);
    cost.cycles = timeline.cycles;
    cost.activity = timeline.activity;
    return cost;
}

} // namespace flat
