#include "costmodel/operator_cost.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/status.h"
#include "costmodel/attention_plan.h"
#include "costmodel/gemm_engine.h"
#include "dataflow/reuse.h"

namespace flat {

double
effective_fetches(bool staged, double resident_fraction,
                  double unstaged_fetches)
{
    if (!staged) {
        return unstaged_fetches;
    }
    const double rho = std::clamp(resident_fraction, 0.0, 1.0);
    // Resident part: fetched once. Spilled part: behaves like streaming
    // plus the wasted staging attempt (the "one extra pass" of §6.2.1).
    return rho * 1.0 + (1.0 - rho) * (unstaged_fetches + 1.0);
}

OperatorCost
gemm_operator_phases(const AccelConfig& accel, const Operator& op,
                     const OperatorDataflow& dataflow,
                     std::vector<Phase>& phases)
{
    FLAT_CHECK(op.kind == OpKind::kGemm,
               op.name << ": model_gemm_operator needs a GEMM");
    dataflow.validate();
    const GemmShape& shape = op.gemm;
    const std::uint32_t bpe = accel.bytes_per_element;

    OperatorCost cost;
    cost.name = op.name;
    cost.ideal_cycles = ideal_gemm_cycles(accel, shape.macs());
    cost.live_footprint_bytes =
        operator_live_footprint(dataflow, shape, bpe);
    cost.resident_fraction =
        std::min(1.0, static_cast<double>(accel.sg_bytes) /
                          static_cast<double>(cost.live_footprint_bytes));

    // Per-instance compute on the PE array.
    const L2Tile tile = dataflow.l2.clamped(shape);
    const GemmComputeCost compute = model_gemm_compute(
        accel, shape, tile, dataflow.order, dataflow.stationarity);

    const double instances = static_cast<double>(shape.instances);
    const double compute_cycles =
        (compute.compute_cycles + compute.fill_drain_cycles) * instances;

    // DRAM traffic. Reuse analysis yields fetch events per instance;
    // staging (L3/FLAT-tile) collapses them to one, subject to spill.
    const ReuseCounts reuse =
        analyze_reuse(dataflow.order, tile.trips_m(shape),
                      tile.trips_k(shape), tile.trips_n(shape));
    const double rho = cost.resident_fraction;

    const double a_repeats = static_cast<double>(reuse.a_fetches) /
                             (tile.trips_m(shape) * tile.trips_k(shape));
    const double b_repeats = static_cast<double>(reuse.b_fetches) /
                             (tile.trips_k(shape) * tile.trips_n(shape));
    const double c_write_repeats =
        static_cast<double>(reuse.c_writes) / reuse.c_tiles;
    const double c_read_repeats =
        static_cast<double>(reuse.c_reads) / reuse.c_tiles;

    const double a_bytes_total =
        static_cast<double>(shape.a_elems_total()) * bpe;
    const double b_bytes_total =
        static_cast<double>(shape.b_elems_total()) * bpe;
    const double c_bytes_total =
        static_cast<double>(shape.c_elems_total()) * bpe;

    TrafficBytes dram;
    dram.dram_read =
        effective_fetches(dataflow.l3.a, rho, a_repeats) * a_bytes_total +
        effective_fetches(dataflow.l3.b, rho, b_repeats) * b_bytes_total;
    // Output: writes always happen at least once; partial-sum re-reads
    // stay on-chip when the output is staged and resident.
    if (dataflow.l3.c) {
        dram.dram_write =
            (rho * 1.0 + (1.0 - rho) * c_write_repeats) * c_bytes_total;
        dram.dram_read += (1.0 - rho) * c_read_repeats * c_bytes_total;
    } else {
        dram.dram_write = c_write_repeats * c_bytes_total;
        dram.dram_read += c_read_repeats * c_bytes_total;
    }

    // Express the operator as a phase timeline: an exposed first-tile
    // fetch, then one double-buffered window where the GEMM's compute
    // arbitrates against the prefetch/writeback streams. The on-chip
    // ledger covers operand streaming into the array plus the DRAM
    // transfers landing in / leaving SG. The phases are overwritten in
    // place (next_phase), so a reused vector keeps its label buffers.
    std::size_t idx = 0;
    Phase& cold = next_phase(phases, idx,
                             "cold start (first A/B tile fetch)",
                             StageTag::kColdStart, 0);
    cold.pace_only = true;
    cold.activity.traffic.dram_read =
        static_cast<double>(tile.a_bytes(bpe) + tile.b_bytes(bpe));

    Phase& prefetch = next_phase(phases, idx,
                                 "prefetch (DRAM->SG, overlapped)",
                                 StageTag::kPrefetch, 1);
    prefetch.activity.traffic.dram_read = dram.dram_read;
    prefetch.activity.traffic.sg_write =
        dram.dram_read; // SG write on the way in from DRAM

    Phase& gemm = next_phase(phases, idx, op.name.c_str(),
                             StageTag::kCompute, 1);
    gemm.label += " GEMM";
    gemm.compute_cycles = compute_cycles;
    gemm.activity.macs = static_cast<double>(shape.macs());
    // Each MAC reads two operands from and accumulates into the SL.
    gemm.activity.sl_accesses = 3.0 * gemm.activity.macs;
    gemm.activity.traffic.sg_read =
        (compute.sg_read_bytes + compute.sg_psum_read_bytes) * instances;
    gemm.activity.traffic.sg_write = compute.sg_write_bytes * instances;

    Phase& writeback = next_phase(phases, idx,
                                  "writeback (SG->DRAM, overlapped)",
                                  StageTag::kWriteback, 1);
    writeback.activity.traffic.dram_write = dram.dram_write;
    writeback.activity.traffic.sg_read =
        dram.dram_write; // SG read on the way out to DRAM
    phases.resize(idx);
    return cost;
}

OperatorCost
model_gemm_operator(const AccelConfig& accel, const Operator& op,
                    const OperatorDataflow& dataflow)
{
    accel.validate();
    std::vector<Phase> phases;
    OperatorCost cost = gemm_operator_phases(accel, op, dataflow, phases);
    const TimelineResult timeline =
        evaluate_timeline(std::move(phases), accel);
    cost.cycles = timeline.cycles;
    cost.activity = timeline.activity;
    return cost;
}

OperatorCost
model_baseline_softmax(const AccelConfig& accel, const Operator& op,
                       double resident_fraction)
{
    FLAT_CHECK(op.kind == OpKind::kSoftmax,
               op.name << ": model_baseline_softmax needs a softmax");
    const double rho = std::clamp(resident_fraction, 0.0, 1.0);
    const double elems = static_cast<double>(op.output_elems());
    const double bytes = elems * accel.bytes_per_element;

    OperatorCost cost;
    cost.name = op.name;
    // Ideal time for the SFU work itself.
    cost.ideal_cycles = elems / accel.sfu_lanes;

    // One overlapped window: SFU work against the spill round-trip.
    Phase softmax;
    softmax.label = op.name + " on SFU";
    softmax.stage = StageTag::kSoftmax;
    softmax.group = 0;
    softmax.sfu_cycles = elems / accel.sfu_lanes;
    softmax.activity.sfu_elems = elems;
    softmax.activity.traffic.dram_read = (1.0 - rho) * bytes;
    softmax.activity.traffic.dram_write = (1.0 - rho) * bytes;
    softmax.activity.traffic.sg_read = bytes;
    softmax.activity.traffic.sg_write = bytes;

    const TimelineResult timeline =
        evaluate_timeline({softmax}, accel);
    cost.cycles = timeline.cycles;
    cost.activity = timeline.activity;
    return cost;
}

} // namespace flat
