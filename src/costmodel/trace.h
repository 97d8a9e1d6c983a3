/**
 * @file
 * Execution trace: a *renderer* over the evaluated phase timeline
 * (costmodel/timeline.h). The cost models emit phases and
 * evaluate_timeline() arbitrates them; the trace re-shapes that one
 * result for humans (ASCII bars), machines (JSON/CSV) and tests — so
 * trace totals equal model totals exactly, cold start included.
 * Diagnostic view of §4.3's walk-through example, for every registered
 * execution style (FLAT interleaved, sequential baseline, pipelined,
 * flash).
 */
#ifndef FLAT_COSTMODEL_TRACE_H
#define FLAT_COSTMODEL_TRACE_H

#include <string>
#include <vector>

#include "arch/accel_config.h"
#include "costmodel/attention_cost.h"
#include "costmodel/timeline.h"
#include "dataflow/fused_dataflow.h"

namespace flat {

/** One steady-state phase of the executed timeline. */
struct TracePhase {
    std::string label;

    /** Stage tag name: "prefetch", "logit", "softmax", "attend",
     *  "writeback" or "compute". */
    std::string stage;

    /** Latency this phase alone would need, amortized per pass. */
    double cycles = 0.0;

    /** The phase's own pacing resource ("compute", "off-chip BW",
     *  "on-chip BW" or "SG2 BW"). */
    std::string bound_by;

    /** True if the phase occupies the PE array / SFU serially; false
     *  if it overlaps with compute (double-buffered transfers). */
    bool on_critical_path = true;
};

/** Rendered timeline of one L-A execution. */
struct ExecutionTrace {
    /** Execution style: "flat", "baseline-full", "baseline-serialized"
     *  or "pipelined". */
    std::string style;

    std::string dataflow_tag;
    double passes = 0.0;

    /** Steady-state phases in execution order (pace-only warm-up
     *  windows are folded into cold_start_cycles instead). */
    std::vector<TracePhase> phases;

    /** Critical-path cycles of one pass. */
    double pass_cycles = 0.0;

    /** Which resource paces the dominant window: "compute",
     *  "off-chip BW", "on-chip BW" or "SG2 BW". */
    std::string bound_by;

    /** Exposed warm-up latency (cold start / pipeline fill). */
    double cold_start_cycles = 0.0;

    /** Total cycles, equal to the cost model's cycles EXACTLY (the
     *  trace and the model consume the same evaluated timeline). */
    double total_cycles = 0.0;

    /** ASCII rendering: one bar per phase, widths proportional. */
    std::string render(std::size_t width = 56) const;

    /** Machine-readable forms of the same timeline. */
    std::string to_json() const;
    std::string to_csv() const;
};

/** Re-shapes an evaluated timeline into a trace (any style). */
ExecutionTrace trace_from_timeline(const TimelineResult& timeline,
                                   std::string style,
                                   std::string dataflow_tag,
                                   double passes);

/**
 * Builds the trace of @p dataflow executed under @p style. The trace
 * style string is the registry id, except the baseline which keeps its
 * historical overlap-qualified names ("baseline-full" /
 * "baseline-serialized"); @p overlap is read only by the baseline.
 */
ExecutionTrace trace_attention(const ExecutionStyle& style,
                               const AccelConfig& accel,
                               const AttentionDims& dims,
                               const FusedDataflow& dataflow,
                               BaselineOverlap overlap =
                                   BaselineOverlap::kFull);

} // namespace flat

#endif // FLAT_COSTMODEL_TRACE_H
