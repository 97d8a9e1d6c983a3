/**
 * @file
 * Pluggable execution styles of the fused L -> softmax -> A operator.
 *
 * A style is a pure phase emitter over the shared AttentionPlan: it
 * owns the phase structure (overlap windows, tracks, SFU work), the
 * overlap policy the timeline evaluator applies, the granularity
 * constraints it can legally execute, and the style-specific monotone
 * lower bound the DSE prunes with. Everything downstream — the scalar
 * and batched evaluators, the scale-out model, the trace layer, the
 * DSE and the CLI — consumes styles through this interface, so adding
 * a style is one registration here instead of a special case per layer.
 *
 * Registered styles:
 *   baseline  — sequential L / softmax / A windows (Base / Base-X)
 *   flat      — FLAT interleaved execution, one shared overlap window
 *   pipelined — L and A on concurrent half-array tracks (§5.1 foil)
 *   flash     — column-blocked streaming L-A with online softmax:
 *               running max/sum rescale FLOPs ride the SFU critical
 *               path and the intermediate lives in the register tier
 *               below SL, so C-Gran tiles below the R-Gran floor
 *               become legal and the SG is freed for K/V residency.
 */
#ifndef FLAT_COSTMODEL_EXECUTION_STYLE_H
#define FLAT_COSTMODEL_EXECUTION_STYLE_H

#include <cstddef>
#include <string>
#include <vector>

#include "arch/accel_config.h"
#include "costmodel/attention_plan.h"
#include "costmodel/timeline.h"
#include "dataflow/fused_dataflow.h"

namespace flat {

/**
 * How generously the sequential baseline is modeled. The paper's
 * reported baseline numbers are consistent with little or no
 * compute/transfer overlap inside a stage; a double-buffered baseline
 * overlaps fully within its own stage window (§5.1(4) grants it one
 * stage of prefetch window vs FLAT's two). Both are legitimate
 * baselines — the ablation bench quantifies the difference.
 */
enum class BaselineOverlap {
    kFull,       ///< stage time = max(compute, transfers)
    kSerialized, ///< stage time = compute + transfers (no hiding)
};

class ExecutionStyle
{
  public:
    virtual ~ExecutionStyle() = default;

    /** Registry id and CLI `--style` value ("flat", "flash", ...). */
    virtual const char* id() const = 0;

    /** One-line description for `--list-styles`. */
    virtual const char* summary() const = 0;

    /** OperatorCost::name of this style's reports ("L-A(FLAT)", ...). */
    virtual const char* cost_name() const = 0;

    /** True when the style interleaves L and A inside one shared
     *  overlap window (the historical fused/sequential search split).
     *  False means L, softmax and A run in windows one after another,
     *  each overlapping only its own transfers: the DSE then bounds the
     *  style by the cold start plus a per-window floor (SliceBound). */
    virtual bool fused() const = 0;

    /** Legal-granularity constraint: can this style execute @p cross on
     *  @p accel? Styles that stream column blocks admit C-Gran tiles
     *  below the R-Gran floor (capacity-checked against the register
     *  tier); the two-pass-softmax styles reject them. */
    virtual bool admits(const AccelConfig& accel, const AttentionDims& dims,
                        const CrossLoop& cross) const = 0;

    /** Overlap policy the emitted phases are evaluated under. Only the
     *  baseline style reads @p baseline_overlap. */
    virtual OverlapKind overlap(BaselineOverlap baseline_overlap) const;

    /**
     * Emits this style's fixed skeleton into @p phases in place
     * (reusing capacity, see next_phase()): labels, stage tags, groups,
     * tracks and pace-only flags, every value zero. A pure function of
     * the style, the accel's array and @p dims.decode; it checks that
     * the style can execute @p cross on @p accel. A search takes it
     * once per slice.
     */
    virtual void emit_skeleton(std::vector<Phase>& phases,
                               const AccelConfig& accel,
                               const AttentionDims& dims,
                               const CrossLoop& cross) const = 0;

    /**
     * The values pass: writes the numbers of every phase of the
     * skeleton, in skeleton order, into @p out (one PhaseValues per
     * phase, at most kMaxPhases). @p dram must be
     * plan_dram_traffic(plan, dataflow.stage); the plan must come from
     * the same (accel, dims, dataflow).
     */
    virtual void emit_values(PhaseValues* out, const AccelConfig& accel,
                             const AttentionDims& dims,
                             const AttentionPlan& plan,
                             const FusedDataflow& dataflow,
                             const TrafficBytes& dram) const = 0;

    /** Upper bound on any style's phase count. */
    static constexpr std::size_t kMaxPhases = 8;

    /**
     * The reference emission: the skeleton, then the values pass into
     * the Phase records — so a search lane, whose values pass writes
     * straight into its batch, performs the same arithmetic. The plan
     * must come from make_plan() on the same (accel, dims, dataflow).
     */
    void emit_phases(std::vector<Phase>& phases, const AccelConfig& accel,
                     const AttentionDims& dims, const AttentionPlan& plan,
                     const FusedDataflow& dataflow) const;

    /**
     * The PE array each GEMM stage runs on: the whole array unless the
     * style splits it between concurrent tracks. The DSE bounds stage
     * cycles on this array — a smaller array's shorter fill and drain
     * can make a tiny GEMM (a decode step's) faster there.
     */
    virtual AccelConfig stage_array(const AccelConfig& accel) const;

    /**
     * Monotone lower bound on total cycles for the DSE pruner, from
     * per-slice aggregates: @p gemm_sum_cycles is (logit + attend)
     * full-array cycles summed over slices, @p gemm_max_cycles the max
     * of the two per-stage totals on stage_array(), @p softmax_cycles
     * the whole-softmax SFU time, @p cold_cycles the exposed cold-start
     * window and @p rescale_cycles the online-softmax rescale SFU time
     * (0 for non-streaming styles). Must never exceed the style's
     * modeled cycles for any candidate sharing these aggregates.
     */
    virtual double bound_cycles(double gemm_sum_cycles,
                                double gemm_max_cycles,
                                double softmax_cycles, double cold_cycles,
                                double rescale_cycles) const;

    /** SG bytes the intermediate tensor round-trips (energy lower
     *  bound): 2x its size for SG-staged styles, 0 when it lives in
     *  the register tier. */
    virtual double inter_sg_round_trip_bytes(double inter_bytes) const;
};

/** All registered styles, enumeration order baseline / flat /
 *  pipelined / flash (stable: tests and --list-styles rely on it). */
const std::vector<const ExecutionStyle*>& execution_styles();

/** Looks a style up by id; nullptr when unknown. */
const ExecutionStyle* find_execution_style(const std::string& id);

/** The style the historical fused/sequential flag selected. */
const ExecutionStyle& default_execution_style(bool fused);

const ExecutionStyle& baseline_execution_style();
const ExecutionStyle& flat_execution_style();
const ExecutionStyle& pipelined_execution_style();
const ExecutionStyle& flash_execution_style();

} // namespace flat

#endif // FLAT_COSTMODEL_EXECUTION_STYLE_H
