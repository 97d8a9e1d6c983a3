#include "dse/analytic_mapper.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "dse/search_internal.h"

namespace flat {
namespace {

using namespace detail;

/** Cheapest bound cycles any loop order gives tile index @p t. */
double
tile_cycle_bound(std::span<const GemmSliceCost> table, std::size_t t,
                 std::size_t n_orders)
{
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t o = 0; o < n_orders; ++o) {
        best = std::min(best,
                        table[t * n_orders + o].compute.total_cycles());
    }
    return best;
}

/**
 * Argmin of @p value over [0, n) by bisection, ties to the smaller
 * index. The tile menus are ordered by ascending SG budget, and the
 * bound cycles are unimodal in that ordering (bigger tiles amortize
 * more until they stop helping), so the ternary split converges on the
 * minimum; menus are small enough that the tail scan below costs
 * nothing and also absorbs any non-unimodal corner exactly.
 */
template <typename F>
std::size_t
bisect_min_index(std::size_t n, F&& value)
{
    std::size_t lo = 0;
    std::size_t hi = n - 1;
    while (hi - lo > 2) {
        const std::size_t m1 = lo + (hi - lo) / 3;
        const std::size_t m2 = hi - (hi - lo) / 3;
        if (value(m1) <= value(m2)) {
            hi = m2 - 1; // minimum cannot be right of m2
        } else {
            lo = m1 + 1;
        }
    }
    std::size_t best = lo;
    for (std::size_t i = lo + 1; i <= hi; ++i) {
        if (value(i) < value(best)) {
            best = i;
        }
    }
    return best;
}

/** Fused live SG footprint of a tile pair with every flag staged. */
std::uint64_t
staged_footprint(const SearchSlice& slice, const AttentionDims& dims,
                 std::uint32_t bpe, const L2Tile& logit,
                 const L2Tile& attend)
{
    FusedDataflow df;
    df.cross = slice.cross;
    df.l2_logit = logit;
    df.stat_logit = slice.stat_logit;
    df.l2_attend = attend;
    df.stat_attend = slice.stat_attend;
    df.stage = FusedStageFlags{}; // all staged (loop orders irrelevant)
    return fused_live_footprint(df, dims, slice.part.extent, bpe);
}

/** Double-buffered SG bytes of one stage's tile (the term the repair
 *  loop trades between the two stages). */
std::uint64_t
tile_buffer_bytes(const L2Tile& tile, std::uint32_t bpe)
{
    return 2 * (tile.a_bytes(bpe) + tile.b_bytes(bpe) +
                tile.c_bytes(bpe));
}

AnalyticTileChoice
derive_slice_tiles(const AccelConfig& accel, const AttentionDims& dims,
                   const SearchSlice& slice, const SliceBound& bound,
                   std::size_t n_orders)
{
    const std::vector<L2Tile>& tiles_l = *slice.tiles_logit;
    const std::vector<L2Tile>& tiles_a = *slice.tiles_attend;
    const std::uint32_t bpe = accel.bytes_per_element;

    AnalyticTileChoice choice;
    // Per-stage closed form: every menu entry already satisfies the
    // stage's own double-buffering inequality 2(a+b+c) <= f*SG (that
    // is how default_l2_tile constructs it), so the stage-local
    // optimum is the largest entry — unless the bound says otherwise
    // (small GEMMs where a bigger staging tile buys no reuse), which
    // the bisection against bound_cycles resolves.
    choice.logit_index = bisect_min_index(tiles_l.size(), [&](std::size_t t) {
        return tile_cycle_bound(bound.logit_costs, t, n_orders);
    });
    choice.attend_index =
        bisect_min_index(tiles_a.size(), [&](std::size_t t) {
            return tile_cycle_bound(bound.attend_costs, t, n_orders);
        });
    choice.bisected = choice.logit_index + 1 != tiles_l.size() ||
                      choice.attend_index + 1 != tiles_a.size();

    // Joint SG constraint: the two stages share the buffer, so the
    // pairing can overflow even though each stage fits alone. Shrink
    // the stage holding more double-buffered bytes until the fused
    // footprint fits (mirrors default_l2_tile's own halving loop, one
    // level up). Footprint grows with either index, so the loop either
    // reaches a fitting pair or bottoms out at the smallest one.
    const auto fp = [&](std::size_t il, std::size_t ia) {
        return staged_footprint(slice, dims, bpe, tiles_l[il],
                                tiles_a[ia]);
    };
    while (fp(choice.logit_index, choice.attend_index) > accel.sg_bytes &&
           (choice.logit_index > 0 || choice.attend_index > 0)) {
        const std::uint64_t lb = tile_buffer_bytes(
            tiles_l[choice.logit_index], bpe);
        const std::uint64_t ab = tile_buffer_bytes(
            tiles_a[choice.attend_index], bpe);
        if (choice.attend_index > 0 &&
            (ab > lb || choice.logit_index == 0)) {
            --choice.attend_index;
        } else {
            --choice.logit_index;
        }
    }
    choice.logit = tiles_l[choice.logit_index];
    choice.attend = tiles_a[choice.attend_index];
    choice.staged_footprint_bytes =
        fp(choice.logit_index, choice.attend_index);
    choice.fits = choice.staged_footprint_bytes <= accel.sg_bytes;
    return choice;
}

/** Order index minimizing (bound cycles, streamed SG bytes, index) for
 *  tile index @p t — the analytic stand-in for sweeping the order axis
 *  (the exact scan in the refinement still has the last word). */
std::size_t
derive_order_index(std::span<const GemmSliceCost> table, std::size_t t,
                   std::size_t n_orders)
{
    std::size_t best = 0;
    for (std::size_t o = 1; o < n_orders; ++o) {
        const GemmComputeCost& cand = table[t * n_orders + o].compute;
        const GemmComputeCost& inc = table[t * n_orders + best].compute;
        if (cand.total_cycles() < inc.total_cycles() ||
            (cand.total_cycles() == inc.total_cycles() &&
             cand.sg_stream_bytes() < inc.sg_stream_bytes())) {
            best = o;
        }
    }
    return best;
}

/** Seed staging flags: stage everything when the fused footprint fits
 *  SG; otherwise keep the I/O tensors staged and spill the (dominant)
 *  intermediate — Table 2's M-Gran long-sequence regime. */
FusedStageFlags
derive_stage_flags(bool fits)
{
    FusedStageFlags flags; // all true
    flags.intermediate = fits;
    return flags;
}

/** Index of @p flags in the enumerated flag sets (0 when pinned). */
std::size_t
flag_index_of(const std::vector<FusedStageFlags>& flag_sets,
              const FusedStageFlags& flags)
{
    const std::uint32_t code = FusedStageFlags::encode(flags);
    for (std::size_t i = 0; i < flag_sets.size(); ++i) {
        if (FusedStageFlags::encode(flag_sets[i]) == code) {
            return i;
        }
    }
    return 0;
}

AnalyticSliceSeed
derive_slice_seed(const AccelConfig& accel, const AttentionDims& dims,
                  const SearchSlice& slice, const SliceBound& bound,
                  const std::vector<LoopOrder>& orders)
{
    AnalyticSliceSeed seed;
    seed.tiles = derive_slice_tiles(accel, dims, slice, bound,
                                    orders.size());
    seed.order_logit = orders[derive_order_index(
        bound.logit_costs, seed.tiles.logit_index, orders.size())];
    seed.order_attend = orders[derive_order_index(
        bound.attend_costs, seed.tiles.attend_index, orders.size())];
    seed.stage = derive_stage_flags(seed.tiles.fits);
    return seed;
}

/** Coordinates of one design point inside a slice. */
struct PointCoords {
    std::size_t tl = 0; ///< logit tile index
    std::size_t ta = 0; ///< attend tile index
    std::size_t fi = 0; ///< staging-flag index
    std::size_t ol = 0; ///< logit order index
    std::size_t oa = 0; ///< attend order index

    bool operator==(const PointCoords& other) const
    {
        return tl == other.tl && ta == other.ta && fi == other.fi &&
               ol == other.ol && oa == other.oa;
    }
};

/** Refinement rounds before giving up on a fixed point. Each round
 *  re-scans all three axes from the incumbent, so the radius in the
 *  tile lattice grows by one per round; menus have at most a handful
 *  of entries and convergence is observed within 2-3 rounds. */
constexpr int kMaxRefineRounds = 8;

/**
 * Exact local refinement of one slice: hill-climb from the derived
 * seed under the search's total order (improves()), scanning the flag
 * axis, the order axes (batched: they share a plan base) and the +-1
 * tile neighborhood until a round improves nothing. All state is
 * slice-local, so the outcome is identical for any thread count; the
 * visited set guarantees every point is evaluated at most once and the
 * audit identity evaluated + pruned == slice points holds exactly.
 *
 * With pruning on, a candidate whose lower bound strictly exceeds the
 * slice's OWN incumbent is marked visited and never priced: it could
 * not pass improves() against that incumbent or any later one, so the
 * climb takes the same path to the same winner and only the
 * evaluated/pruned split moves. The shared cross-slice incumbent is
 * never used here — a point that loses to another slice's best can
 * still move this slice's climb, and with it the slice's winner.
 */
void
refine_slice(const AccelConfig& accel, const AttentionDims& dims,
             const AttentionSearchOptions& options,
             const EnergyTable& energy_table, const SlicedSpace& space,
             const SearchSlice& slice, const SliceBound& bound,
             const AnalyticSliceSeed& seed, SliceOutcome& out,
             std::atomic<double>& shared_best)
{
    const std::vector<L2Tile>& tiles_l = *slice.tiles_logit;
    const std::vector<L2Tile>& tiles_a = *slice.tiles_attend;
    const std::vector<LoopOrder>& orders = space.orders;
    const std::size_t n_orders = orders.size();
    const std::size_t n_flags = space.flag_sets.size();
    const std::span<const GemmSliceCost> logit_costs = bound.logit_costs;
    const std::span<const GemmSliceCost> attend_costs = bound.attend_costs;

    // Worker-lifetime state, shared with the exhaustive sweep's
    // contract: persistent pool threads reach allocation-free steady
    // state. The evaluator is the sweep's own, so the climb reads the
    // block parts any slice of this search bound before. The visited
    // set is a bitmap over the slice's point index.
    AttentionBatchEvaluator& batch = worker_evaluator();
    thread_local std::vector<std::uint64_t> visited;
    thread_local std::vector<PointCoords> lane_coords;
    thread_local std::vector<PointCoords> order_points;
    visited.assign((space.slice_points(slice) + 63) / 64, 0);
    batch.bind_slice(accel, dims, slice.cross, *slice.style,
                     options.baseline_overlap);

    PointCoords inc; // coordinates of the local incumbent
    const auto encode = [&](const PointCoords& p) {
        return (((static_cast<std::uint64_t>(p.tl) * tiles_a.size() +
                  p.ta) *
                     n_flags +
                 p.fi) *
                    n_orders +
                p.ol) *
                   n_orders +
               p.oa;
    };

    // One begin() block: every point shares (tiles, flags) and varies
    // only the order axes — the same batching shape as the sweep. The
    // block is begun lazily: its floor (the sweep's BlockFloor, one
    // point at a time) reads its plan, but a block whose points are all
    // visited or compute-pruned needs none. No lane is folded before
    // the block is evaluated, so every prune test still sees the
    // incumbent as of the previous block.
    const auto eval_block = [&](std::span<const PointCoords> points) {
        const PointCoords& first = points.front();
        const DramSplit* split = nullptr;
        bool begun = false;
        const auto open_block = [&] {
            FusedDataflow df;
            df.cross = slice.cross;
            df.l2_logit = tiles_l[first.tl];
            df.stat_logit = slice.stat_logit;
            df.l2_attend = tiles_a[first.ta];
            df.stat_attend = slice.stat_attend;
            df.stage = space.flag_sets[first.fi];
            batch.begin(df);
            if (options.prune && options.objective != Objective::kEnergy) {
                split = &batch.dram_split();
            }
            begun = true;
        };
        lane_coords.clear();
        for (const PointCoords& p : points) {
            const std::uint64_t code = encode(p);
            std::uint64_t& word = visited[code / 64];
            const std::uint64_t bit = std::uint64_t{1} << (code % 64);
            if ((word & bit) != 0) {
                continue;
            }
            word |= bit;
            const std::size_t li = p.tl * n_orders + p.ol;
            const std::size_t ai = p.ta * n_orders + p.oa;
            // The exhaustive walk's point test, against out.value alone.
            if (options.prune &&
                bound.lower_bound(options.objective, li, ai) > out.value) {
                continue;
            }
            if (!begun) {
                open_block();
            }
            if (options.prune && options.objective != Objective::kEnergy &&
                bound.lower_bound(options.objective, li, ai,
                                  bound.floor_cycles(*split, li, ai)) >
                    out.value) {
                continue;
            }
            batch.add(orders[p.ol], orders[p.oa], logit_costs[li],
                      attend_costs[ai]);
            lane_coords.push_back(p);
        }
        if (lane_coords.empty()) {
            return;
        }
        batch.evaluate();
        for (std::size_t i = 0; i < batch.lanes(); ++i) {
            if (fold_lane(batch, i, options.objective, energy_table,
                          out)) {
                inc = lane_coords[i];
                update_shared_best(shared_best, out.value);
            }
        }
    };
    const auto eval_one = [&](const PointCoords& p) {
        eval_block({&p, 1});
    };

    PointCoords cur;
    cur.tl = seed.tiles.logit_index;
    cur.ta = seed.tiles.attend_index;
    cur.fi = flag_index_of(space.flag_sets, seed.stage);
    cur.ol = static_cast<std::size_t>(
        std::find(orders.begin(), orders.end(), seed.order_logit) -
        orders.begin());
    cur.oa = static_cast<std::size_t>(
        std::find(orders.begin(), orders.end(), seed.order_attend) -
        orders.begin());
    inc = cur;
    eval_one(cur);

    for (int round = 0; round < kMaxRefineRounds; ++round) {
        const PointCoords before = inc;

        // Staging-flag axis: exact scan. The flags couple footprint,
        // residency and traffic in every direction at once; 32 points
        // is cheap next to the tile x order product they replace.
        for (std::size_t fi = 0; fi < n_flags; ++fi) {
            PointCoords p = cur;
            p.fi = fi;
            eval_one(p);
        }
        cur = inc;

        // Order axes: one batched block (shared plan base).
        order_points.clear();
        for (std::size_t ol = 0; ol < n_orders; ++ol) {
            for (std::size_t oa = 0; oa < n_orders; ++oa) {
                PointCoords p = cur;
                p.ol = ol;
                p.oa = oa;
                order_points.push_back(p);
            }
        }
        eval_block(order_points);
        cur = inc;

        // Tile lattice: the +-1 neighborhood (diagonals included).
        for (int dl = -1; dl <= 1; ++dl) {
            for (int da = -1; da <= 1; ++da) {
                if (dl == 0 && da == 0) {
                    continue;
                }
                if ((dl < 0 && cur.tl == 0) ||
                    (da < 0 && cur.ta == 0) ||
                    (dl > 0 && cur.tl + 1 >= tiles_l.size()) ||
                    (da > 0 && cur.ta + 1 >= tiles_a.size())) {
                    continue;
                }
                PointCoords p = cur;
                p.tl = static_cast<std::size_t>(
                    static_cast<std::ptrdiff_t>(cur.tl) + dl);
                p.ta = static_cast<std::size_t>(
                    static_cast<std::ptrdiff_t>(cur.ta) + da);
                eval_one(p);
            }
        }
        cur = inc;

        if (inc == before) {
            break; // fixed point: no axis improved
        }
    }

    // Every point never visited is "pruned": the audit identity
    // evaluated + pruned == space size carries over to this mode.
    out.pruned = space.slice_points(slice) - out.evaluated;
}

/** The kAnalytic core; the verified wrapper lives in the public entry. */
AttentionSearchResult
analytic_core(const AccelConfig& accel, const AttentionDims& dims,
              const AttentionSearchOptions& options)
{
    FLAT_FAULT_POINT("dse.analytic_search");
    accel.validate();
    dims.validate();
    const EnergyTable energy_table = EnergyTable::for_accel(accel);
    SliceSearch search =
        prepare_slice_search(accel, dims, options, energy_table);
    const SlicedSpace& space = search.space;

    // Slice priorities double as whole-slice prune bounds: a slice
    // whose best lower bound exceeds the shared incumbent cannot
    // contain the winner (the incumbent only decreases, so the final
    // optimum is below it too) and is skipped wholesale. The shared
    // atomic incumbent serves only this skip; points inside a climb
    // prune against their own slice's incumbent (refine_slice), since
    // pruning them against another slice's best could change the path.
    std::atomic<double> shared_best{search.restored_best};

    parallel_for(
        search.schedule.size(), options.threads, [&](std::size_t k) {
            const std::size_t si = search.schedule[k];
            const SearchSlice& slice = space.slices[si];
            SliceOutcome& out = search.outcomes[si];
            if (options.cancel != nullptr &&
                options.cancel->cancelled()) {
                return; // never journaled; finish_slice_search throws
            }
            if (options.prune &&
                search.priority[si] >
                    shared_best.load(std::memory_order_relaxed)) {
                // The whole slice is strictly worse than the final
                // optimum; skipping it can shift the evaluated/pruned
                // split across thread counts but never the result.
                out.pruned = space.slice_points(slice);
            } else {
                const AnalyticSliceSeed seed = derive_slice_seed(
                    accel, dims, slice, search.bounds[si], space.orders);
                refine_slice(accel, dims, options, energy_table, space,
                             slice, search.bounds[si], seed, out,
                             shared_best);
            }
            search.journal_slice(options, si);
        },
        /*grain=*/1, options.cancel);

    return finish_slice_search(search, options);
}

} // namespace

std::vector<AnalyticSliceSeed>
analytic_tile_seeds(const AccelConfig& accel, const AttentionDims& dims,
                    const AttentionSearchOptions& options)
{
    accel.validate();
    dims.validate();
    const EnergyTable energy_table = EnergyTable::for_accel(accel);
    const SlicedSpace space = build_sliced_space(accel, dims, options);
    std::vector<AnalyticSliceSeed> seeds;
    seeds.reserve(space.slices.size());
    for (const SearchSlice& slice : space.slices) {
        const SliceBound bound =
            make_slice_bound(accel, dims, energy_table, slice);
        seeds.push_back(derive_slice_seed(accel, dims, slice, bound,
                                          space.orders));
        seeds.back().slice_key = slice_journal_key(slice);
    }
    return seeds;
}

AttentionSearchResult
analytic_search_attention(const AccelConfig& accel,
                          const AttentionDims& dims,
                          const AttentionSearchOptions& options)
{
    FLAT_CHECK(options.mode != SearchMode::kExhaustive,
               "analytic_search_attention called with the exhaustive "
               "mode; use search_attention");
    if (options.mode == SearchMode::kAnalytic) {
        return analytic_core(accel, dims, options);
    }
    // kAnalyticVerified: the analytic result is authoritative (it is
    // what callers deploy); the exhaustive run only scores it. The
    // verification leg never journals — its slices would double the
    // journal for a pure cross-check.
    AttentionSearchOptions analytic = options;
    analytic.mode = SearchMode::kAnalytic;
    AttentionSearchResult result = analytic_core(accel, dims, analytic);

    AttentionSearchOptions exhaustive = options;
    exhaustive.mode = SearchMode::kExhaustive;
    exhaustive.journal = nullptr;
    const AttentionSearchResult exact =
        search_attention(accel, dims, exhaustive);

    result.verified = true;
    result.verified_exhaustive_value =
        exact.best.objective_value(options.objective);
    const double mine = result.best.objective_value(options.objective);
    result.verified_ratio =
        result.verified_exhaustive_value > 0.0
            ? mine / result.verified_exhaustive_value
            : 1.0;
    return result;
}

} // namespace flat
