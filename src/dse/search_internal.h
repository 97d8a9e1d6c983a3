/**
 * @file
 * Internals shared by the exhaustive sweep (dse/search.cc) and the
 * analytic mapper (dse/analytic_mapper.cc): the sliced decomposition of
 * the candidate space, the per-slice pruning bound, the slice-outcome
 * journal codec and the deterministic total order on candidates. Both
 * search modes walk the SAME slices in the SAME order and reduce under
 * the SAME order, which is what lets them share journal scaffolding and
 * audit identities (evaluated + pruned == space size). Not installed;
 * include only from dse/ sources and white-box tests.
 */
#ifndef FLAT_DSE_SEARCH_INTERNAL_H
#define FLAT_DSE_SEARCH_INTERNAL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/json.h"
#include "dse/search.h"
#include "energy/energy_model.h"

namespace flat {
namespace detail {

/** Effective candidate menus after the quick-mode shrink. */
CandidateOptions effective_candidates(const CandidateOptions& base,
                                      bool quick);

/**
 * The styles a search enumerates, in a deterministic order. An empty
 * options.styles resolves to the single style the historical `fused`
 * flag selects, so legacy searches keep their exact space (and journal
 * scope); explicit ids are honored in the given order with duplicates
 * dropped, and "all" expands to the registry.
 */
std::vector<const ExecutionStyle*>
resolve_styles(const AttentionSearchOptions& options);

/**
 * One independent unit of parallel work: a (style, cross-loop, logit
 * stationarity, attend stationarity) slice of the space. Everything a
 * slice iterates over (tiles x orders x staging flags) is enumerated
 * serially inside the owning thread, in a deterministic order.
 */
struct SearchSlice {
    const ExecutionStyle* style = nullptr;
    CrossLoop cross;
    /** make_slice_plan() of the cross loop: extent, stage shapes (the
     *  GEMM shapes the cost tables price), byte totals. */
    AttentionSlicePlan part;
    Stationarity stat_logit = Stationarity::kOutputStationary;
    Stationarity stat_attend = Stationarity::kOutputStationary;
    const std::vector<L2Tile>* tiles_logit = nullptr;
    const std::vector<L2Tile>* tiles_attend = nullptr;

    /** Cost record per (tile, order), entry [t * n_orders + o]:
     *  { model_gemm_compute, stage_reuse } of the stage's shape and
     *  stationarity — on the whole array, and on the style's
     *  stage_array() (the same table unless the style splits the
     *  array). Owned by the SlicedSpace, like the tile menus. */
    const std::vector<GemmSliceCost>* logit_costs = nullptr;
    const std::vector<GemmSliceCost>* attend_costs = nullptr;
    const std::vector<GemmSliceCost>* logit_stage_costs = nullptr;
    const std::vector<GemmSliceCost>* attend_stage_costs = nullptr;

    /** Loop-order classes of each stage, entry [t * n_orders + o]: the
     *  first order of tile t whose whole-array and stage-array records
     *  equal order o's bit for bit (SlicedSpace::order_classes; null
     *  until bind_order_classes()). */
    const std::vector<std::uint8_t>* logit_order_class = nullptr;
    const std::vector<std::uint8_t>* attend_order_class = nullptr;
};

/**
 * The sliced search space plus every per-slice invariant hoisted out of
 * the inner loops: tile menus are computed once per (GEMM shape,
 * stationarity), and GEMM cost tables once per (GEMM shape,
 * stationarity, PE array), each shared by all slices with that key.
 */
struct SlicedSpace {
    std::vector<LoopOrder> orders;
    std::vector<FusedStageFlags> flag_sets;
    std::vector<SearchSlice> slices;

    /** The tile menus, keyed by (m, k, n, stationarity). Map nodes
     *  never move, so SearchSlice pointers into them stay valid for
     *  the space's lifetime (moves included). */
    std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, int>,
             std::vector<L2Tile>>
        tile_menus;

    /** The cost tables, keyed by (m, k, n, stationarity, PE rows, PE
     *  columns) — node-stable like tile_menus. */
    std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, int,
                        std::uint32_t, std::uint32_t>,
             std::vector<GemmSliceCost>>
        cost_tables;

    /**
     * Loop-order classes, keyed by a slice's (whole-array, stage-array)
     * cost tables: entry [t * n_orders + o] is the first order o' <= o
     * of tile t whose records in both tables equal order o's bit for
     * bit. The emitters read a lane's orders only through those
     * records, and a candidate tag names no loop order, so the members
     * of a class price and tie-break alike within a block: only the
     * first can pass improves(). Node-stable like the tables. Built by
     * bind_order_classes(): only the exhaustive walk reads them.
     */
    std::map<std::pair<const std::vector<GemmSliceCost>*,
                       const std::vector<GemmSliceCost>*>,
             std::vector<std::uint8_t>>
        order_classes;

    /** Design points of one slice: tiles x flags x orders^2. The
     *  audit identity both search modes report against. */
    std::size_t slice_points(const SearchSlice& slice) const
    {
        return slice.tiles_logit->size() * slice.tiles_attend->size() *
               flag_sets.size() * orders.size() * orders.size();
    }
};

/**
 * Decomposes the (restricted) space into slices. Slice order is the
 * serial enumeration order (style outer, then cross, stat_logit,
 * stat_attend), so concatenating per-slice results reproduces the
 * serial walk.
 */
SlicedSpace build_sliced_space(const AccelConfig& accel,
                               const AttentionDims& dims,
                               const AttentionSearchOptions& options);

/** Fills SlicedSpace::order_classes, once per pair of cost tables, and
 *  every slice's class pointers. */
void bind_order_classes(SlicedSpace& space);

/** Most loop orders a space may enumerate (there are six): the
 *  per-block floors keep one term per order in fixed arrays.
 *  build_sliced_space() checks it. */
constexpr std::size_t kMaxLoopOrders = 6;

/**
 * The cycle floor of one (tiles, flags) block's candidates, split like
 * the block's DramSplit: candidate (ol, oa) — the block's tiles with
 * logit order ol and attend order oa — is bounded below by
 * cycles(ol, oa) = constant + logit[ol] + attend[oa]. The block's
 * residency fixes every term; SliceBound::block_floor() fills them.
 */
struct BlockFloor {
    double constant = 0.0;
    double logit[kMaxLoopOrders] = {};
    double attend[kMaxLoopOrders] = {};

    double cycles(std::size_t ol, std::size_t oa) const
    {
        return constant + logit[ol] + attend[oa];
    }
};

/**
 * Per-slice ingredients of the pruning lower bound, hoisted out of the
 * point loop. The cycle bound is max(style compute bound, block floor).
 *
 * The compute bound combines the per-slice GEMM aggregates (scaled by
 * the slice count, column blocks included) through the slice's style —
 * ExecutionStyle::bound_cycles() — so each style keeps its own monotone
 * bound: the serial/fused styles add summed GEMM occupancy, softmax and
 * cold start (the timeline's group latency is at least its compute
 * lane under either overlap policy); the pipelined style, whose
 * concurrent tracks can beat that sum, bounds by its slower track on
 * the half array it runs on plus the softmax serialized between the
 * tracks; flash adds its online-softmax rescale SFU time. All use the
 * exact model_gemm_compute values the phase emitters consume. It needs
 * no plan, so a search tests it first.
 *
 * The block floor needs the block's residency (BlockFloor). For a
 * style with one shared window it is the DRAM floor: the candidate's
 * own DRAM bytes (DramSplit::total()) over the off-chip bandwidth.
 * Every style ledgers exactly those bytes in phases that are not
 * pace-only, and every overlap group's latency is at least its
 * off-chip lane. For an unfused style (the baseline, whose L,
 * softmax and A windows run one after another) it is the window floor:
 * the cold start plus, per window, max(window compute, window DRAM
 * bytes / bandwidth) — each group's latency is at least both lanes
 * under either overlap policy, and the groups run one after another.
 * That floor is at least the compute bound and the DRAM floor at
 * once. Neither term exceeds the modeled cycles.
 *
 * The energy bound keeps only the traffic-independent activity (MACs,
 * SL, SFU, rescale ops) plus the guaranteed SG streaming volume — the
 * style hook drops the intermediate round trip when it lives in the
 * register tier; DRAM/SG2 energy is dropped (>= 0).
 */
struct SliceBound {
    const ExecutionStyle* style = nullptr;
    double slices_count = 1.0;
    double softmax_cycles = 0.0; ///< whole-softmax SFU time
    double cold_cycles = 0.0;    ///< exposed first Q/K fetch
    double rescale_cycles = 0.0; ///< online-softmax rescale (flash)
    double fixed_energy_j = 0.0; ///< traffic-independent energy
    double inter_sg_bytes = 0.0; ///< intermediate SG round trip
    double sg_pj_per_byte = 0.0;
    double offchip_bytes_per_cycle = 1.0; ///< the floors' divisor

    /** The slice's cost tables (SearchSlice::logit_costs ...). The
     *  batch evaluator prices lanes from these same records, so each
     *  point's two model_gemm_compute and two stage_reuse calls happen
     *  once per table. */
    std::span<const GemmSliceCost> logit_costs;
    std::span<const GemmSliceCost> attend_costs;

    /** The same records on the style's stage_array(), same indexing:
     *  the array each stage runs on (the whole array for every style
     *  but the pipelined one). */
    std::span<const GemmSliceCost> logit_stage_costs;
    std::span<const GemmSliceCost> attend_stage_costs;

    /** Relative slack keeping the bound strictly below the modeled
     *  value even though the timeline evaluator may associate the same
     *  sums differently (a few ULP is all that is at stake; 1e-9 of a
     *  billion-cycle run is one cycle and costs no pruning power). */
    static constexpr double kAssocSlack = 1.0 - 1e-9;

    /** The style's compute bound on the cycles of candidate (@p li,
     *  @p ai), before slack. */
    double compute_cycles(std::size_t li, std::size_t ai) const
    {
        const double gemm_sum = (logit_costs[li].compute.total_cycles() +
                                 attend_costs[ai].compute.total_cycles()) *
                                slices_count;
        const double gemm_max =
            std::max(logit_stage_costs[li].compute.total_cycles(),
                     attend_stage_costs[ai].compute.total_cycles()) *
            slices_count;
        return style->bound_cycles(gemm_sum, gemm_max, softmax_cycles,
                                   cold_cycles, rescale_cycles);
    }

    /** Traffic-independent energy bound of (@p li, @p ai), slack
     *  applied. */
    double energy_bound(std::size_t li, std::size_t ai) const
    {
        const double stream_bytes =
            (logit_costs[li].compute.sg_stream_bytes() +
             attend_costs[ai].compute.sg_stream_bytes()) *
                slices_count +
            inter_sg_bytes;
        return (fixed_energy_j + stream_bytes * sg_pj_per_byte * 1e-12) *
               kAssocSlack;
    }

    /** The bound on @p objective from a cycle bound (slack applied
     *  here) and an energy bound (read unless @p objective is
     *  runtime). */
    static double objective_bound(Objective objective, double cycles,
                                  double energy_lb)
    {
        const double cycles_lb = cycles * kAssocSlack;
        if (objective == Objective::kRuntime) {
            return cycles_lb;
        }
        if (objective == Objective::kEnergy) {
            return energy_lb;
        }
        return cycles_lb * energy_lb; // kEdp
    }

    /**
     * Lower bound on the objective of candidate (@p li, @p ai) given
     * its block floor @p floor_cycles (BlockFloor::cycles()); the
     * default 0 leaves the compute bound alone, which is what the
     * slice priorities use.
     */
    double lower_bound(Objective objective, std::size_t li,
                       std::size_t ai, double floor_cycles = 0.0) const
    {
        return objective_bound(
            objective, std::max(compute_cycles(li, ai), floor_cycles),
            objective == Objective::kRuntime ? 0.0
                                             : energy_bound(li, ai));
    }

    /** The block floor's parts (BlockFloor) for a block whose DRAM
     *  bytes split as @p split (AttentionBatchEvaluator::dram_split()):
     *  the constant, the logit term of record @p li and the attend
     *  term of record @p ai. */
    double floor_constant(const DramSplit& split) const
    {
        const double dram = split.softmax / offchip_bytes_per_cycle;
        return style->fused()
                   ? dram
                   : cold_cycles + std::max(softmax_cycles, dram);
    }
    double floor_logit(const DramSplit& split, std::size_t li) const
    {
        return window_floor(logit_costs[li],
                            split.logit.bytes(logit_costs[li].reuse));
    }
    double floor_attend(const DramSplit& split, std::size_t ai) const
    {
        return window_floor(attend_costs[ai],
                            split.attend.bytes(attend_costs[ai].reuse));
    }

    /** The block floor of candidate (@p li, @p ai), summed as
     *  BlockFloor::cycles() sums it. */
    double floor_cycles(const DramSplit& split, std::size_t li,
                        std::size_t ai) const
    {
        return floor_constant(split) + floor_logit(split, li) +
               floor_attend(split, ai);
    }

    /** Fills @p floor for the block of tile pair (@p tl, @p ta), for
     *  the first @p n_orders loop orders. */
    void block_floor(BlockFloor& floor, const DramSplit& split,
                     std::size_t tl, std::size_t ta,
                     std::size_t n_orders) const
    {
        floor.constant = floor_constant(split);
        for (std::size_t o = 0; o < n_orders; ++o) {
            floor.logit[o] = floor_logit(split, tl * n_orders + o);
            floor.attend[o] = floor_attend(split, ta * n_orders + o);
        }
    }

  private:
    /** One GEMM's window: its DRAM bytes over the bandwidth, and for
     *  an unfused style's own window at least the GEMM's compute. */
    double window_floor(const GemmSliceCost& gemm, double dram_bytes) const
    {
        const double dram = dram_bytes / offchip_bytes_per_cycle;
        return style->fused()
                   ? dram
                   : std::max(gemm.compute.total_cycles() * slices_count,
                              dram);
    }
};

/** A loop-order pair of a tile pair that a pruned walk prices, with
 *  its compute bound. */
struct OrderCandidate {
    std::size_t ol = 0;
    std::size_t oa = 0;
    double cycles = 0.0; ///< SliceBound::compute_cycles()
    double energy = 0.0; ///< SliceBound::energy_bound(); 0 for runtime
    double bound = 0.0;  ///< SliceBound::objective_bound() of the two
};

/**
 * The loop-order pairs of tile pair (@p tl, @p ta) a pruned walk
 * prices — the first order of each order class on both sides, in
 * enumeration order — with their compute bounds, written to @p out
 * (room for kMaxLoopOrders^2). Returns their count. @p pair_bound
 * receives the least bound, a bound on every point of the pair: the
 * compute bound ignores the staging flags, and a later member of an
 * order class bounds like its first.
 */
std::size_t pair_candidates(const SearchSlice& slice,
                            const SliceBound& bound, Objective objective,
                            std::size_t tl, std::size_t ta,
                            std::size_t n_orders, OrderCandidate* out,
                            double& pair_bound);

SliceBound make_slice_bound(const AccelConfig& accel,
                            const AttentionDims& dims,
                            const EnergyTable& energy_table,
                            const SearchSlice& slice);

/** Best point of one slice plus its audit counters. */
struct SliceOutcome {
    DsePoint best;
    double value = std::numeric_limits<double>::infinity();
    std::string tag; ///< tie-break key of the incumbent
    bool found = false;
    std::size_t evaluated = 0;
    std::size_t pruned = 0;
};

/**
 * The slice set-up and tear-down both search modes share: the sliced
 * space, every slice's bound and priority (its best compute lower
 * bound), the journal restore and the schedule of pending slices.
 */
struct SliceSearch {
    SlicedSpace space;
    std::vector<SliceBound> bounds;
    std::vector<double> priority;
    /** One per slice; restored slices arrive filled in. */
    std::vector<SliceOutcome> outcomes;
    /** Slices still to search, by ascending priority (stable). */
    std::vector<std::size_t> schedule;
    /** Best objective value among the restored slices (inf if none). */
    double restored_best = std::numeric_limits<double>::infinity();
    std::string journal_scope;

    /** Appends the completed slice @p si to options.journal, if any.
     *  Only complete slices may be journaled. */
    void journal_slice(const AttentionSearchOptions& options,
                       std::size_t si) const;
};

/**
 * Builds the space and its bounds, restores journaled slices (their
 * incumbents seed restored_best, so pending slices prune as if the
 * restored ones had just run) and sorts the rest into the schedule:
 * promising slices run first and the worse-bounded tail prunes harder.
 */
SliceSearch prepare_slice_search(const AccelConfig& accel,
                                 const AttentionDims& dims,
                                 const AttentionSearchOptions& options,
                                 const EnergyTable& energy_table);

/**
 * Flushes the journal, turns a tripped cancellation into
 * CancelledError, and reduces the outcomes in ORIGINAL slice order
 * under improves(), so neither the schedule nor the thread count can
 * change the result.
 */
AttentionSearchResult finish_slice_search(
    const SliceSearch& search, const AttentionSearchOptions& options);

/**
 * Canonical text of everything that shapes the search space and its
 * outcome — accelerator resources, attention dims, space restrictions
 * and candidate menus. Execution knobs (threads, prune) are
 * deliberately EXCLUDED: they never change the returned optimum,
 * so a journal written at one thread count resumes at another. The
 * search MODE is included (non-exhaustive modes only, so historical
 * exhaustive scope hashes are preserved): the analytic mapper journals
 * refined rather than swept slices, and a resume must not mix the two.
 */
std::string search_space_canonical(const AccelConfig& accel,
                                   const AttentionDims& dims,
                                   const AttentionSearchOptions& options);

/** Journal scope of one search: "search:" + space hash. One journal
 *  holds records of every distinct search that ran under it (a sweep
 *  runs one search per point), each in its own scope. */
std::string search_scope_key(const AccelConfig& accel,
                             const AttentionDims& dims,
                             const AttentionSearchOptions& options);

/** Journal key of one slice within a search scope. */
std::string slice_journal_key(const SearchSlice& slice);

/** Tie-break key of a candidate: style id + dataflow tag. Within a
 *  slice the style prefix is constant (so intra-slice comparisons
 *  reduce to the dataflow tag, as before styles existed), but the
 *  prefix makes the final cross-slice reduction a total order even
 *  when two styles share a winning dataflow. */
std::string candidate_tag(const ExecutionStyle& style,
                          const FusedDataflow& df);

/** Room for any candidate tag: a style id (at most 31 characters),
 *  '/', and a dataflow tag. */
constexpr std::size_t kCandidateTagChars =
    32 + FusedDataflow::kMaxTagChars;

/** candidate_tag() formed in @p buffer instead of a heap string; the
 *  view is valid while @p buffer is. candidate_tag() defines the
 *  order, and this text equals it character for character. */
std::string_view format_candidate_tag(char (&buffer)[kCandidateTagChars],
                                      const ExecutionStyle& style,
                                      const FusedDataflow& df);

/** Serializes a completed slice outcome. Only the winning dataflow's
 *  identity is stored — restore re-runs the cost model on it, which is
 *  cheap, deterministic, and immune to float-formatting drift. */
std::string encode_slice_outcome(const SliceOutcome& out);

/**
 * Rebuilds a slice outcome from its journal record by re-evaluating
 * the winning dataflow through the cost model. A record that cannot
 * have come from @p slice of @p space — counters that do not add up
 * to the slice's points, or a winner whose cross loop, tiles, loop
 * orders or staging flags the slice never enumerates — is a
 * configuration error (flat::Error), not a result.
 */
SliceOutcome restore_slice_outcome(const JsonValue& data,
                                   const AccelConfig& accel,
                                   const AttentionDims& dims,
                                   const AttentionSearchOptions& options,
                                   const SlicedSpace& space,
                                   const SearchSlice& slice,
                                   const EnergyTable& energy_table);

/**
 * Total order on candidates: lower objective value wins; exact ties go
 * to the lexicographically smallest dataflow tag. This makes the result
 * independent of enumeration and thread interleaving.
 */
inline bool
improves(double value, std::string_view tag, double best_value,
         std::string_view best_tag)
{
    return value < best_value ||
           (value == best_value && tag < best_tag);
}

/**
 * Folds lane @p lane of an evaluated @p batch into the slice outcome
 * @p out: energy, objective value and — only for a lane that reaches
 * the incumbent's value — the tie-break tag, formed on the stack and
 * stored in @p out only on an improvement; then improves() decides.
 * The one place the search's total order meets a priced point; both
 * search modes fold through it. Returns true when the lane became the
 * incumbent.
 */
inline bool
fold_lane(const AttentionBatchEvaluator& batch, std::size_t lane,
          Objective objective, const EnergyTable& energy_table,
          SliceOutcome& out)
{
    ++out.evaluated;
    const double energy =
        estimate_energy(energy_table, batch.activity(lane)).total();
    const double value =
        objective_value(objective, batch.cycles(lane), energy);
    if (value > out.value) {
        return false; // strictly worse: never pays for its tag
    }
    const FusedDataflow df = batch.dataflow(lane);
    char buffer[kCandidateTagChars];
    const std::string_view tag =
        format_candidate_tag(buffer, batch.style(), df);
    if (!improves(value, tag, out.value, out.tag)) {
        return false;
    }
    out.value = value;
    out.tag.assign(tag);
    out.best.dataflow = df;
    out.best.style = &batch.style();
    out.best.cost = batch.cost(lane);
    out.best.energy_j = energy;
    out.found = true;
    return true;
}

/**
 * The calling thread's batch evaluator. Both L-A pricers — the
 * exhaustive walk and the mapper's climb — bind their slices on it, so
 * each worker keeps one block-part table, valid while its searches run
 * on one (accel, dims), and no table is shared across threads. A walk
 * or climb never starts a search, so the evaluator serves one slice at
 * a time.
 */
AttentionBatchEvaluator& worker_evaluator();

/** Monotonically lowers @p shared_best to @p value (relaxed is enough:
 *  the bound is only a hint; correctness never depends on freshness). */
inline void
update_shared_best(std::atomic<double>& shared_best, double value)
{
    double current = shared_best.load(std::memory_order_relaxed);
    while (value < current &&
           !shared_best.compare_exchange_weak(
               current, value, std::memory_order_relaxed)) {
    }
}

/**
 * search_operator()'s pricing pass: clears @p candidates, configures
 * @p batch from gemm_operator_skeleton(), then appends every candidate
 * of @p op in enumeration order — stationarity, tile, loop order, L3
 * subset (none, then the seven flagged ones when options.allow_l3) —
 * to @p candidates and its values (gemm_operator_values()) as one lane,
 * and evaluates the batch. One GemmSliceCost record per (stationarity,
 * tile, order) serves its L3 subsets, and one live footprint per
 * (tile, L3 subset) its orders. @p accel must be valid and @p op a
 * GEMM; search_operator() checks both at its entry.
 */
void price_operator_lanes(const AccelConfig& accel, const Operator& op,
                          const OperatorSearchOptions& options,
                          std::vector<OperatorDataflow>& candidates,
                          TimelineBatch& batch);

} // namespace detail
} // namespace flat

#endif // FLAT_DSE_SEARCH_INTERNAL_H
