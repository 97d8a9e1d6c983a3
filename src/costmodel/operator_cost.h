/**
 * @file
 * Cost model for a single (non-fused) GEMM operator with its
 * OperatorDataflow: a fixed four-phase skeleton plus a values pass,
 * the same contract the L-A execution styles follow.
 */
#ifndef FLAT_COSTMODEL_OPERATOR_COST_H
#define FLAT_COSTMODEL_OPERATOR_COST_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "arch/accel_config.h"
#include "costmodel/cost_types.h"
#include "costmodel/gemm_engine.h"
#include "costmodel/timeline.h"
#include "dataflow/operator_dataflow.h"
#include "workload/operator.h"

namespace flat {

/**
 * Models one GEMM operator (all its instances) on @p accel with
 * @p dataflow: gemm_operator_skeleton(), then the dataflow's
 * GemmSliceCost record and gemm_operator_values(), evaluated by
 * evaluate_timeline(). This is the reference search_operator's lanes
 * are tested against, and the pricer of its winner.
 *
 * Runtime = max(compute + array fill/drain, off-chip transfer time,
 * on-chip transfer time) + cold-start, i.e. compute and double-buffered
 * transfers overlap in steady state and the slowest resource wins.
 * If the dataflow's live footprint exceeds the SG, the spill model
 * refetches the non-resident fraction on every reuse pass plus one extra
 * staging pass (§6.2.1's Base-M-below-Base effect).
 */
OperatorCost model_gemm_operator(const AccelConfig& accel,
                                 const Operator& op,
                                 const OperatorDataflow& dataflow);

/**
 * The operator timeline's skeleton, written into @p phases in place
 * (reusing capacity, see next_phase()): an exposed cold-start fetch
 * (group 0, pace-only), then prefetch, @p op's GEMM and writeback
 * overlapped in group 1, every value zero. A search takes it once.
 */
void gemm_operator_skeleton(std::vector<Phase>& phases, const Operator& op);

/**
 * The values pass: writes the numbers of the skeleton's phases, in
 * skeleton order, into @p out (four of them).
 * @p record must be {model_gemm_compute(), stage_reuse()} of
 * @p dataflow's (tile, order, stationarity) on @p op's shape, and
 * @p resident_fraction the dataflow's gemm_resident_fraction(). Reads
 * only the tile and the L3 flags of @p dataflow; unchecked —
 * model_gemm_operator() validates, a search at its entry.
 */
void gemm_operator_values(PhaseValues* out, const AccelConfig& accel,
                          const Operator& op,
                          const OperatorDataflow& dataflow,
                          const GemmSliceCost& record,
                          double resident_fraction);

/** Fraction of a @p footprint_bytes working set the SG holds, in
 *  [0, 1]. */
inline double
gemm_resident_fraction(const AccelConfig& accel,
                       std::uint64_t footprint_bytes)
{
    return std::min(1.0, static_cast<double>(accel.sg_bytes) /
                             static_cast<double>(footprint_bytes));
}

} // namespace flat

#endif // FLAT_COSTMODEL_OPERATOR_COST_H
