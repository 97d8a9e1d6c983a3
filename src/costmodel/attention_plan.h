/**
 * @file
 * Shared attention "plan" plumbing of the execution styles: the
 * cross-loop extent, per-slice stage shapes, byte totals, SG residency
 * split and DRAM traffic ledger every style's phase emitter reads.
 *
 * This is internal machinery factored out of attention_cost.cc so the
 * pluggable ExecutionStyle emitters (execution_style.h) and the scalar /
 * batched evaluators can share one plan computation, split by how often
 * a search changes each part. It is not a stable
 * public surface — include attention_cost.h for the model entry points.
 */
#ifndef FLAT_COSTMODEL_ATTENTION_PLAN_H
#define FLAT_COSTMODEL_ATTENTION_PLAN_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/accel_config.h"
#include "costmodel/cost_types.h"
#include "costmodel/gemm_engine.h"
#include "costmodel/timeline.h"
#include "dataflow/fused_dataflow.h"

namespace flat {

/**
 * Per-tensor resident fractions of the staged working set. The SG is
 * allocated greedily: streaming tiles are mandatory, the intermediate
 * FLAT-tile has priority (it is the single-buffered tensor whose
 * off-chip round trip fusion exists to avoid), then the remaining
 * staged tensors smallest-first.
 */
struct Residency {
    /** Fraction of the staged working set resident in the SG. */
    double q = 1.0;
    double k = 1.0;
    double v = 1.0;
    double out = 1.0;
    double inter = 1.0;

    /** Fraction overflowed into the optional SG2 level (0 without
     *  SG2); the remainder spills to DRAM. */
    double q2 = 0.0;
    double k2 = 0.0;
    double v2 = 0.0;
    double out2 = 0.0;
    double inter2 = 0.0;

    double overall = 1.0;
};

/** DRAM / SG2 fetch-event split for one staged-or-streamed tensor. */
struct FetchSplit {
    double dram = 0.0; ///< full-tensor passes through the DRAM bus
    double sg2 = 0.0;  ///< full-tensor passes through the SG2 bus
};

/**
 * Splits the fetch events of a tensor across the hierarchy: the
 * SG-resident fraction is fetched from DRAM once; the SG2-resident
 * fraction is fetched from DRAM once and re-read from SG2 on every
 * reuse pass; the rest streams from DRAM with the failed-staging
 * penalty.
 */
FetchSplit split_fetches(bool staged, double rho_sg, double rho_sg2,
                         double unstaged_events);

/**
 * The slice part of a plan: a pure function of (accel, dims, cross
 * loop), so a search builds it once per slice
 * (AttentionBatchEvaluator::bind_slice) and make_plan() once per call.
 */
struct AttentionSlicePlan {
    CrossLoopExtent extent;
    GemmShape logit_shape;  ///< per staged slice
    GemmShape attend_shape; ///< per staged slice
    double slices = 0.0;    ///< passes * instances (* column blocks)

    double q_bytes = 0.0;     ///< total Q rows bytes (B*H*N*dk)
    double k_bytes = 0.0;     ///< total K bytes
    double v_bytes = 0.0;     ///< total V bytes
    double out_bytes = 0.0;   ///< total output bytes
    double inter_bytes = 0.0; ///< total intermediate bytes (B*H*N*kv)

    /** Row chunks per (batch, head) group: K/V are re-touched once per
     *  chunk when they are not resident (1 for M/B/H granularity). */
    double kv_chunks = 1.0;

    /** Column blocks each row chunk streams through (1 unless the
     *  cross loop is C-Gran). */
    double col_blocks = 1.0;

    /** True when the intermediate lives in the register tier below SL
     *  (C-Gran / online softmax): it then demands no SG capacity and
     *  moves zero DRAM/SG2 bytes. */
    bool inter_in_rf = false;

    /** attention_ideal_cycles() of the (accel, dims). */
    double ideal_cycles = 0.0;
};

/**
 * Everything the phase emitters read, in three parts by how often they
 * change in a search: the slice part (base class); the block part —
 * footprint and residency, per (tiles, flags); and the two GEMMs'
 * compute and reuse records, per loop-order pair.
 */
struct AttentionPlan : AttentionSlicePlan {
    GemmComputeCost logit_compute;  ///< per slice
    GemmComputeCost attend_compute; ///< per slice
    StageReuse logit_reuse;
    StageReuse attend_reuse;

    std::uint64_t footprint = 0;
    Residency res;
};

/** The slice part of make_plan(). Unchecked: make_plan() checks dims
 *  and the cross loop first; a search checks its dims at its entry and
 *  its cross loops where it builds their menu. */
AttentionSlicePlan make_slice_plan(const AccelConfig& accel,
                                   const AttentionDims& dims,
                                   const CrossLoop& cross);

/**
 * Fills the block part of @p plan — live footprint and greedy SG
 * residency of @p dataflow's tiles and staging flags — over the slice
 * part @p plan already holds for the same (accel, dims,
 * dataflow.cross). Unchecked, like make_slice_plan(); the search's tile
 * menus are validated where their cost tables are built.
 */
void bind_block_plan(AttentionPlan& plan, const AccelConfig& accel,
                     const AttentionDims& dims,
                     const FusedDataflow& dataflow);

/** The reference composition: checks @p dims and @p dataflow, then the
 *  slice part, both GEMMs' records and the block part. */
AttentionPlan make_plan(const AccelConfig& accel, const AttentionDims& dims,
                        const FusedDataflow& dataflow);

/**
 * Memory traffic of the whole L-A pipeline given the staging flags:
 * DRAM events plus SG2 events for the fractions that overflow into the
 * optional second-level buffer. A register-tier-resident intermediate
 * contributes nothing.
 */
TrafficBytes plan_dram_traffic(const AttentionPlan& plan,
                               const FusedStageFlags& stage);

/** DRAM bytes affine in one GEMM's reuse multipliers: base plus a
 *  coefficient per multiplier. */
struct ReuseBytes {
    double base = 0.0;
    double a = 0.0;       ///< bytes per a_repeats
    double b = 0.0;       ///< bytes per b_repeats
    double c_write = 0.0; ///< bytes per c_write_repeats
    double c_read = 0.0;  ///< bytes per c_read_repeats

    double bytes(const StageReuse& reuse) const
    {
        return base + a * reuse.a_repeats + b * reuse.b_repeats +
               c_write * reuse.c_write_repeats +
               c_read * reuse.c_read_repeats;
    }
};

/**
 * plan_dram_traffic(plan, stage).total_dram() split by what sets each
 * part once the block part of @p plan (footprint, residency) is bound:
 * the residency and flags fix every coefficient, and each tensor's
 * fetch events are linear in one GEMM's reuse multipliers
 * (split_fetches()). The parts are the sequential baseline's windows:
 *
 *   logit   Q, K, the intermediate's L-side round trip and penalty
 *           write: the L window, a function of the logit reuse record;
 *   softmax the spilled intermediate's softmax round trip: constant;
 *   attend  V, the output, the intermediate's A-side reads and
 *           penalty read: the A window, a function of the attend
 *           record.
 *
 * total() equals the reference's total_dram() up to rounding (the sum
 * is associated differently); a bound built on it needs slack.
 */
struct DramSplit {
    ReuseBytes logit;
    double softmax = 0.0;
    ReuseBytes attend;

    double total(const StageReuse& logit_reuse,
                 const StageReuse& attend_reuse) const
    {
        return logit.bytes(logit_reuse) + softmax +
               attend.bytes(attend_reuse);
    }
};

DramSplit split_dram_traffic(const AttentionPlan& plan,
                             const FusedStageFlags& stage);

/** SFU time of the whole softmax (every intermediate element once). */
double softmax_sfu_cycles(const AccelConfig& accel,
                          const AttentionPlan& plan);

/** Online-softmax rescale elements: every streamed column block after
 *  the first rescales the (rows x head_dim) output accumulator. */
double flash_rescale_elems(const AccelConfig& accel,
                           const AttentionPlan& plan);

/** Half the L-A MACs: each GEMM contributes exactly one half. */
double half_macs(const AttentionDims& dims);

/**
 * Appends-or-reuses the phase at @p idx of @p out, resetting every
 * field. Label assignment reuses the existing string's capacity, so a
 * steady-state emit loop (same style, hence same label lengths) never
 * allocates. The emitters fill phases strictly one at a time — the
 * returned reference is invalidated by the next next_phase() call.
 */
Phase& next_phase(std::vector<Phase>& out, std::size_t& idx,
                  const char* label, StageTag stage, int group);

/** Zeroes the values at @p idx of @p out and advances @p idx: the
 *  values-pass twin of next_phase(). */
inline PhaseValues&
next_values(PhaseValues* out, std::size_t& idx)
{
    return out[idx++] = PhaseValues{};
}

/** Label of the exposed first-fetch window every style but the
 *  pipelined one opens with (pace-only, group 0). */
const char* cold_start_label(const AttentionDims& dims);

/**
 * Values of the exposed first-fetch window: the first Q/K slice cannot
 * hide under any compute. Pace-only — its bytes are already in the
 * steady-state prefetch ledger.
 */
void cold_start_values(PhaseValues& phase, const AttentionPlan& plan);

/**
 * KV-cache footprint of a decode step in DRAM: K and V rows for every
 * cached token of every (batch, K/V head) pair.
 */
std::uint64_t kv_cache_bytes(const AttentionDims& dims,
                             std::uint32_t bytes_per_element);

/**
 * Admission check styles apply to decode points: the KV-cache must fit
 * in off-chip memory (accel.dram_bytes; 0 = unlimited). Always true
 * for prefill shapes.
 */
bool kv_cache_admitted(const AccelConfig& accel,
                       const AttentionDims& dims);

/** GEMM phase values: array occupancy, MACs/SL, SG streaming. */
void gemm_values(PhaseValues& phase, const GemmComputeCost& compute,
                 double occupancy_cycles, const AttentionDims& dims,
                 double slices);

/** Cost report from a plan and its evaluated timeline's @p cycles and
 *  @p activity — no re-aggregation. Both L-A pricers fill their
 *  OperatorCost here (model_attention from evaluate_timeline(), the
 *  batch evaluator from a lane summary), so they cannot diverge. */
OperatorCost finalize_cost(const AttentionPlan& plan, double cycles,
                           const ActivityCounts& activity,
                           const char* name);

/** Ideal PE cycles of the whole L-A pair (both GEMMs, no stalls). */
double attention_ideal_cycles(const AccelConfig& accel,
                              const AttentionDims& dims);

/** Total MACs of the L-A pair. */
std::uint64_t attention_macs(const AttentionDims& dims);

} // namespace flat

#endif // FLAT_COSTMODEL_ATTENTION_PLAN_H
