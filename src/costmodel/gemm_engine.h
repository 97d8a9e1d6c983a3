/**
 * @file
 * PE-array mapping model for one GEMM: compute cycles (with array edge
 * effects), tile-switch fill/drain overhead, and SG<->array streaming
 * volume, for each stationarity choice (§5.3.1 "Compute Model").
 */
#ifndef FLAT_COSTMODEL_GEMM_ENGINE_H
#define FLAT_COSTMODEL_GEMM_ENGINE_H

#include <cstdint>

#include "arch/accel_config.h"
#include "dataflow/tiling.h"
#include "workload/gemm_shape.h"

namespace flat {

/** Compute-side cost of streaming one GEMM instance through the array. */
struct GemmComputeCost {
    /** Pure MAC cycles, including array under-utilization at tile and
     *  array edges. */
    double compute_cycles = 0.0;

    /** Additional cycles spent filling/draining the array on tile
     *  switches (cold start + tail, per the NoC model). */
    double fill_drain_cycles = 0.0;

    /** Number of L2-tile activations (array reconfigurations). */
    std::uint64_t tile_switches = 0;

    /** SG->array operand streaming volume in bytes. */
    double sg_read_bytes = 0.0;

    /** array->SG result volume in bytes (includes partial-sum spills
     *  when the reduction loop is not innermost). */
    double sg_write_bytes = 0.0;

    /** array<-SG partial-sum re-reads in bytes. */
    double sg_psum_read_bytes = 0.0;

    double total_cycles() const
    {
        return compute_cycles + fill_drain_cycles;
    }

    /** Total SG<->array streaming volume (operands + results + partial
     *  sums) per instance — the on-chip bytes a timeline phase ledgers
     *  for this GEMM. */
    double sg_stream_bytes() const
    {
        return sg_read_bytes + sg_psum_read_bytes + sg_write_bytes;
    }
};

/**
 * Models one GEMM instance executed with L2 tiles of @p tile shape, SG
 * tile loop order @p order and @p stationarity on @p accel's PE array.
 *
 * The returned cost covers ONE instance; callers scale by the instance
 * count of the operator.
 */
GemmComputeCost model_gemm_compute(const AccelConfig& accel,
                                   const GemmShape& shape,
                                   const L2Tile& tile, LoopOrder order,
                                   Stationarity stationarity);

/**
 * Per-tensor DRAM fetch-event multipliers of one tiled GEMM: how many
 * full passes over each operand/result the (tile, loop order) reuse
 * pattern implies. A pure function of (shape, tile, order) — the
 * attention planner consumes it per stage and the evaluation cache
 * memoizes it alongside GemmComputeCost.
 */
struct StageReuse {
    double a_repeats = 1.0;       ///< streaming repeats of the A operand
    double b_repeats = 1.0;       ///< streaming repeats of the B operand
    double c_write_repeats = 1.0; ///< output write passes
    double c_read_repeats = 0.0;  ///< partial-sum re-read passes

    bool operator==(const StageReuse&) const = default;
};

StageReuse stage_reuse(const GemmShape& shape, const L2Tile& tile,
                       LoopOrder order);

/**
 * One cached record of the per-(tile, order) slice tables: the compute
 * cost plus the reuse multipliers, both pure functions of the same key.
 */
struct GemmSliceCost {
    GemmComputeCost compute;
    StageReuse reuse;
};

/**
 * Ideal cycles for @p macs MACs on @p accel (all PEs busy every cycle).
 */
double ideal_gemm_cycles(const AccelConfig& accel, std::uint64_t macs);

/**
 * Picks an L2 tile matched to the PE array shape and an SG budget: tile
 * dims are multiples of the array dims where possible, sized so that two
 * copies of each operand tile (double buffering) fit in @p sg_budget.
 * Used as the default intra-operator dataflow.
 */
L2Tile default_l2_tile(const AccelConfig& accel, const GemmShape& shape,
                       std::uint64_t sg_budget_bytes,
                       Stationarity stationarity);

} // namespace flat

#endif // FLAT_COSTMODEL_GEMM_ENGINE_H
