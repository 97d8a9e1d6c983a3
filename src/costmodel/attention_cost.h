/**
 * @file
 * Cost models for the L -> softmax -> A pipeline. Every execution
 * style — FLAT interleaved (§4, §5.1), the sequential baseline
 * (Base / Base-X of Figure 7(b)), the spatially pipelined foil and the
 * column-blocked flash style — is a registered ExecutionStyle
 * (execution_style.h); the entry points here evaluate one style's
 * phase emission through the shared timeline engine.
 */
#ifndef FLAT_COSTMODEL_ATTENTION_COST_H
#define FLAT_COSTMODEL_ATTENTION_COST_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "arch/accel_config.h"
#include "costmodel/attention_plan.h"
#include "costmodel/cost_types.h"
#include "costmodel/execution_style.h"
#include "costmodel/gemm_engine.h"
#include "costmodel/timeline.h"
#include "dataflow/fused_dataflow.h"

namespace flat {

/**
 * Models the fused L-A operator under @p style. @p overlap is read
 * only by the baseline style (see BaselineOverlap). This is the
 * reference path — make_plan(), the style's emit_phases(), then
 * evaluate_timeline() — that reports, restored journal slices and
 * explore_attention() price through, and the one the search's
 * AttentionBatchEvaluator is tested against.
 */
OperatorCost model_attention(const ExecutionStyle& style,
                             const AccelConfig& accel,
                             const AttentionDims& dims,
                             const FusedDataflow& dataflow,
                             BaselineOverlap overlap =
                                 BaselineOverlap::kFull);

/**
 * Evaluated phase timeline of one execution style. The model above is
 * a pure phase emitter over one shared `AttentionPlan`; this entry
 * point exposes the evaluated timeline itself (per-phase cycles,
 * per-group `bound_by`, the activity ledger). By construction
 *
 *   attention_timeline(style, ...).cycles ==
 *       model_attention(style, ...).cycles
 *
 * exactly — cold start and pipeline fill included — and the ledger's
 * `activity` equals the model's `OperatorCost::activity`.
 */
TimelineResult attention_timeline(const ExecutionStyle& style,
                                  const AccelConfig& accel,
                                  const AttentionDims& dims,
                                  const FusedDataflow& dataflow,
                                  BaselineOverlap overlap =
                                      BaselineOverlap::kFull);

/**
 * Un-evaluated phase list of one execution style plus the overlap
 * policy it must be evaluated under. This is the seam the scale-out
 * model builds on: it appends collective phases to `phases` and feeds
 * the result to the same evaluate_timeline() call the single-device
 * entry points use — one arbitration engine, no second timing path.
 */
struct AttentionPhases {
    std::vector<Phase> phases;
    OverlapKind overlap = OverlapKind::kOverlapped;

    /** Largest group id used so far (epilogue phases go after it). */
    int max_group() const;
};

AttentionPhases attention_phases(const ExecutionStyle& style,
                                 const AccelConfig& accel,
                                 const AttentionDims& dims,
                                 const FusedDataflow& dataflow,
                                 BaselineOverlap overlap =
                                     BaselineOverlap::kFull);

/**
 * Batched DSE point evaluator, the only pricer of searched L-A points.
 * A searched point pays only for the values that differ between
 * points, at four levels:
 *
 *   table         per (accel, dims), by value: the block parts the
 *                 searches on this evaluator have bound, kept across
 *                 slices and searches until bind_slice() sees another
 *                 accel or dims;
 *   bind_slice()  per (accel, dims, cross loop, style, overlap): the
 *                 plan's slice part, the style's skeleton, the batch
 *                 layout;
 *   begin()       per (tiles, flags) block: the block part — live
 *                 footprint, residency and DramSplit — computed the
 *                 first time any slice binds the block and read from
 *                 the table by every later slice, of any style or
 *                 stationarity pair;
 *   add()         per lane, i.e. per loop-order pair: the two GEMMs'
 *                 records, the DRAM traffic (plan_dram_traffic(),
 *                 shared by consecutive lanes with equal reuse records)
 *                 and the style's values pass, written straight into
 *                 the lane.
 *
 * Bit-identity: a block part is what bind_block_plan() and
 * split_dram_traffic() compute, and neither reads the style, the
 * stationarities or the loop orders — only the accel, the dims, the
 * cross loop (through the slice part), the tiles and the flags, which
 * key the table. The values pass is the one the reference
 * emit_phases() runs, over a plan with the same parts, and
 * TimelineBatch::evaluate() replicates evaluate_timeline()'s per-lane
 * arithmetic — so cycles(), activity() and cost() equal
 * model_attention() bit for bit for every lane
 * (tests/costmodel/test_timeline_batch.cc).
 *
 * The table belongs to this evaluator alone: a search's workers each
 * own one (detail::worker_evaluator()), so nothing is shared across
 * threads. Its storage is kept when it is dropped, so a worker reaches
 * an allocation-free steady state; it is bounded, since it starts
 * afresh when kMaxTilePairs tile pairs would not fit.
 *
 * Inputs are not checked here: a search validates its accel and dims
 * at its entry, its cross loops and tiles where their menus are built.
 *
 * Usage: bind_slice() -> per block: begin() -> dram_split() for the
 * block's floor, add() per candidate -> evaluate() -> cycles()/
 * activity() per lane, dataflow()/cost() for the winner.
 */
class AttentionBatchEvaluator
{
  public:
    /** Tile pairs the block-part table holds before it starts afresh:
     *  at most 32 parts each (one per flag set). The largest table over
     *  flatbench's seed-1 request lists holds 211 pairs. */
    static constexpr std::size_t kMaxTilePairs = 1024;

    /** Blocks bound since construction: `binds` blocks needed their
     *  block part, `computed` of them computed it; the rest read it
     *  from the table. */
    struct BlockPartCounts {
        std::uint64_t binds = 0;
        std::uint64_t computed = 0;
    };

    /**
     * Rebinds the evaluator to a slice: rebuilds the plan's slice part
     * from the current values of @p accel, @p dims and @p cross, takes
     * @p style's skeleton and configures the batch. The evaluator keeps
     * the @p accel and @p dims references until the next bind_slice().
     * The block-part table is dropped when @p accel or @p dims differ
     * by value from those it was filled for. @p baseline_overlap is
     * read only by the baseline style.
     */
    void bind_slice(const AccelConfig& accel, const AttentionDims& dims,
                    const CrossLoop& cross, const ExecutionStyle& style,
                    BaselineOverlap baseline_overlap);

    /**
     * Begins a (tiles, flags) block of the bound slice and drops the
     * lanes. @p block's cross loop must be the slice's; its stationarities
     * and loop orders are irrelevant — each add() supplies a lane's own
     * records. The block's tile pair is looked up in the table only when
     * the cross loop or a tile differs from the previous begin()'s.
     */
    void begin(const FusedDataflow& block);

    std::size_t lanes() const { return batch_.lanes(); }
    const ExecutionStyle& style() const { return *style_; }

    /**
     * Appends one candidate: the block with loop orders @p order_logit
     * / @p order_attend. @p logit / @p attend must be the records
     * {model_gemm_compute(), stage_reuse()} of the lane's (stage shape,
     * tile, order, stationarity) on the whole array.
     */
    void add(LoopOrder order_logit, LoopOrder order_attend,
             const GemmSliceCost& logit, const GemmSliceCost& attend);

    /** Dataflow of lane @p lane: the block's base, the lane's orders. */
    FusedDataflow dataflow(std::size_t lane) const;

    /**
     * split_dram_traffic() of the current block: the DRAM bytes any of
     * its candidates moves, as a block constant plus a logit and an
     * attend term (DramSplit::total() of the candidate's two reuse
     * records), without emitting or evaluating anything. Every style
     * ledgers exactly plan_dram_traffic()'s bytes in phases that are
     * not pace-only, so the total equals the evaluated activity's
     * total_dram() up to rounding. Part of the block part; the
     * reference is valid until the next begin().
     */
    const DramSplit& dram_split();

    const BlockPartCounts& block_part_counts() const { return counts_; }

    /** Evaluates every lane added since begin(). */
    void evaluate();

    double cycles(std::size_t lane) const
    {
        return batch_.summary(lane).cycles;
    }
    const ActivityCounts& activity(std::size_t lane) const
    {
        return batch_.summary(lane).activity;
    }

    /**
     * Full cost report of lane @p lane — call only while the begin()
     * block is still current (the block's plan supplies the shared
     * footprint/residency fields).
     */
    OperatorCost cost(std::size_t lane) const;

  private:
    /** One (cross loop, tiles, flags) block's part: bind_block_plan()'s
     *  footprint and residency and split_dram_traffic()'s split. */
    struct BlockPart {
        std::uint64_t footprint = 0;
        Residency res;
        DramSplit split;
    };

    /** A (cross loop, logit tile, attend tile) key and, per flag set
     *  (FusedStageFlags::encode()), 1 + its part's index in parts_, or
     *  0 while no slice has bound that block. */
    struct TilePair {
        CrossLoop cross;
        L2Tile logit;
        L2Tile attend;
        std::uint32_t part[32] = {};

        bool keys(const FusedDataflow& block) const
        {
            return cross == block.cross && logit == block.l2_logit &&
                   attend == block.l2_attend;
        }
    };

    static constexpr std::size_t kNoPair = std::size_t(-1);
    /** Slots of the pair index: twice the pairs it can hold. */
    static constexpr std::size_t kPairSlots = 2 * kMaxTilePairs;
    static_assert((kPairSlots & (kPairSlots - 1)) == 0,
                  "the pair index masks its hash");

    /** The current block's part: from the table, or computed — into
     *  plan_ too — and stored there by the block's first bind. */
    const BlockPart& block_part();

    /** Makes plan_ hold the current block's part. */
    void bind_block();

    /** Index in pairs_ of @p block's tile pair, inserted when new. */
    std::size_t find_pair(const FusedDataflow& block);

    /** Empties the table, keeping its storage. */
    void drop_table();

    /** plan_dram_traffic() of the block with these GEMM records; the
     *  plan's reuse records are set to theirs. Recomputed only when the
     *  reuse records differ from the last call's in this block. */
    const TrafficBytes& traffic(const GemmSliceCost& logit,
                                const GemmSliceCost& attend);

    TimelineBatch batch_;
    std::vector<Phase> skeleton_; ///< the bound style's skeleton
    AttentionPlan plan_;
    /** (logit, attend) loop orders of each lane. */
    std::vector<std::pair<LoopOrder, LoopOrder>> lane_orders_;
    const AccelConfig* accel_ = nullptr;
    const AttentionDims* dims_ = nullptr;
    FusedDataflow base_; ///< carries the last added lane's orders
    const ExecutionStyle* style_ = nullptr;
    OverlapKind overlap_ = OverlapKind::kOverlapped;
    bool traffic_valid_ = false; ///< traffic_ is this block's
    TrafficBytes traffic_;

    // The block-part table, valid for (table_accel_, table_dims_).
    AccelConfig table_accel_;
    AttentionDims table_dims_;
    std::vector<TilePair> pairs_;
    /** Open-addressed index of pairs_ (linear probing from the key's
     *  hash): 1 + a pair's index, 0 = empty. */
    std::vector<std::uint32_t> pair_slots_ =
        std::vector<std::uint32_t>(kPairSlots);
    std::vector<BlockPart> parts_;
    std::size_t pair_ = kNoPair;       ///< the current block's pair
    std::uint32_t flags_ = 0;          ///< its flag set's code
    const BlockPart* part_ = nullptr;  ///< its part, once bound
    bool plan_bound_ = false;          ///< plan_ holds the block part
    BlockPartCounts counts_;
};

} // namespace flat

#endif // FLAT_COSTMODEL_ATTENTION_COST_H
