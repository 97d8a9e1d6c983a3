/**
 * @file
 * Cost model for a single (non-fused) operator: a GEMM with its
 * OperatorDataflow, or the standalone softmax of the baseline dataflow
 * (which round-trips the logits tensor through DRAM).
 */
#ifndef FLAT_COSTMODEL_OPERATOR_COST_H
#define FLAT_COSTMODEL_OPERATOR_COST_H

#include <vector>

#include "arch/accel_config.h"
#include "costmodel/cost_types.h"
#include "costmodel/timeline.h"
#include "dataflow/operator_dataflow.h"
#include "workload/operator.h"

namespace flat {

/**
 * Models one GEMM operator (all its instances) on @p accel with
 * @p dataflow: gemm_operator_phases() evaluated by evaluate_timeline().
 * This is the reference search_operator's batched lanes are tested
 * against, and the pricer of its winner.
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
 * The phase emitter of model_gemm_operator: overwrites @p phases with
 * the operator's timeline — an exposed cold-start fetch (group 0), then
 * prefetch, GEMM and writeback overlapped in group 1; the same four-
 * phase skeleton for every dataflow — and returns the cost fields the
 * timeline does not decide (name, ideal cycles, live footprint,
 * resident fraction). @p accel must already be validated.
 */
OperatorCost gemm_operator_phases(const AccelConfig& accel,
                                  const Operator& op,
                                  const OperatorDataflow& dataflow,
                                  std::vector<Phase>& phases);

/**
 * Models the baseline softmax: reads the logits tensor from DRAM,
 * processes it on the SFU, writes it back. @p resident_fraction of the
 * tensor may be served from SG instead (used when a Base-X dataflow
 * managed to stage part of the intermediate on-chip).
 */
OperatorCost model_baseline_softmax(const AccelConfig& accel,
                                    const Operator& op,
                                    double resident_fraction = 0.0);

/**
 * Spill-adjusted number of DRAM fetch events for a tensor.
 *
 * @param staged true if the dataflow stages this tensor on-chip.
 * @param resident_fraction fraction of the staged working set that fits.
 * @param unstaged_fetches fetch events if the tensor streams at L2
 *        granularity (reuse-analysis repeats).
 * @return expected fetch events per full tensor pass.
 */
double effective_fetches(bool staged, double resident_fraction,
                         double unstaged_fetches);

} // namespace flat

#endif // FLAT_COSTMODEL_OPERATOR_COST_H
