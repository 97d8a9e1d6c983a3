/**
 * @file
 * Soundness of the exhaustive search's pruning bound over a seeded
 * sample of candidates from every execution style, three attention
 * shapes, three platforms and both baseline overlap policies:
 *
 *  - the DRAM floor's bytes (AttentionBatchEvaluator::dram_bytes),
 *    read off a block plan patched from another candidate as in the
 *    search, are the evaluated timeline's DRAM ledger, so a style
 *    emitter that ledgers other bytes than plan_dram_traffic(), or a
 *    patch that misses a field, fails here;
 *  - the full bound — max(style compute bound, DRAM floor) for the
 *    cycle term, times the energy bound under EDP — never exceeds the
 *    candidate's objective under runtime, energy or EDP. A bound above
 *    the cost would let the search prune its own optimum;
 *  - the analytic mapper's whole-slice skip, which compares the same
 *    compute bound against its incumbent, never drops a slice whose
 *    exhaustive best beats the mapper's pick.
 */
#include "dse/search_internal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/units.h"
#include "workload/model_config.h"

namespace flat {
namespace {

using detail::SearchSlice;
using detail::SliceBound;
using detail::SlicedSpace;

struct Platform {
    const char* name;
    AccelConfig accel;
};

std::vector<Platform>
platforms()
{
    AccelConfig sg2 = edge_accel();
    sg2.name = "edge-sg2";
    sg2.sg2_bytes = 4 * kMiB;
    sg2.sg2_bw = 200e9;
    return {{"edge", edge_accel()}, {"cloud", cloud_accel()},
            {"edge-sg2", sg2}};
}

struct Shape {
    const char* name;
    AttentionDims dims;
};

std::vector<Shape>
shapes()
{
    AttentionDims prefill; // MHA self-attention prefill
    prefill.batch = 4;
    prefill.heads = 8;
    prefill.q_len = 2048;
    prefill.kv_len = 2048;
    prefill.head_dim = 64;

    AttentionDims cross; // encoder-decoder cross-attention
    cross.batch = 2;
    cross.heads = 12;
    cross.q_len = 512;
    cross.kv_len = 4096;
    cross.head_dim = 64;

    AttentionDims decode; // grouped-query decode step
    decode.batch = 16;
    decode.heads = 32;
    decode.kv_heads = 8;
    decode.q_len = 1;
    decode.kv_len = 4096;
    decode.head_dim = 128;
    decode.decode = true;
    return {{"mha-prefill", prefill}, {"cross", cross},
            {"gqa-decode", decode}};
}

/** One sampled candidate with everything the assertions compare. */
struct Sample {
    std::string what;
    const ExecutionStyle* style = nullptr;
    double floor_bytes = 0.0;    ///< AttentionBatchEvaluator::dram_bytes
    double timeline_bytes = 0.0; ///< evaluated activity's total_dram()
    double cycles = 0.0;
    double energy_j = 0.0;
    double bound[3] = {0.0, 0.0, 0.0}; ///< runtime, energy, EDP
    bool floor_binds = false; ///< floor above the compute bound
};

constexpr Objective kObjectives[] = {Objective::kRuntime,
                                     Objective::kEnergy, Objective::kEdp};

/** Candidates per (platform, shape, overlap) combination: 18 x 120. */
constexpr std::size_t kPerCombo = 120;

std::vector<Sample>
draw_samples()
{
    std::mt19937_64 rng(0x5eedb0u);
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    std::vector<Sample> samples;
    for (const Platform& platform : platforms()) {
        const EnergyTable table = EnergyTable::for_accel(platform.accel);
        for (const Shape& shape : shapes()) {
            AttentionSearchOptions opt;
            opt.styles = {"all"};
            const SlicedSpace space = detail::build_sliced_space(
                platform.accel, shape.dims, opt);
            // Slices grouped by style, so every style is drawn alike
            // whatever its share of the space.
            std::vector<std::vector<std::size_t>> by_style;
            std::vector<const ExecutionStyle*> style_of;
            for (std::size_t si = 0; si < space.slices.size(); ++si) {
                const ExecutionStyle* style = space.slices[si].style;
                const auto it =
                    std::find(style_of.begin(), style_of.end(), style);
                if (it == style_of.end()) {
                    style_of.push_back(style);
                    by_style.push_back({si});
                } else {
                    by_style[it - style_of.begin()].push_back(si);
                }
            }
            const std::size_t n_orders = space.orders.size();
            for (const BaselineOverlap overlap :
                 {BaselineOverlap::kFull, BaselineOverlap::kSerialized}) {
                for (std::size_t i = 0; i < kPerCombo; ++i) {
                    const std::vector<std::size_t>& group =
                        by_style[pick(by_style.size())];
                    const SearchSlice& slice =
                        space.slices[group[pick(group.size())]];
                    const SliceBound bound = detail::make_slice_bound(
                        platform.accel, shape.dims, table, slice);
                    const std::size_t tl =
                        pick(slice.tiles_logit->size());
                    const std::size_t ta =
                        pick(slice.tiles_attend->size());
                    const std::size_t ol = pick(n_orders);
                    const std::size_t oa = pick(n_orders);
                    const std::size_t li = tl * n_orders + ol;
                    const std::size_t ai = ta * n_orders + oa;

                    FusedDataflow df;
                    df.cross = slice.cross;
                    df.l2_logit = (*slice.tiles_logit)[tl];
                    df.order_logit = space.orders[ol];
                    df.stat_logit = slice.stat_logit;
                    df.l2_attend = (*slice.tiles_attend)[ta];
                    df.order_attend = space.orders[oa];
                    df.stat_attend = slice.stat_attend;
                    df.stage =
                        space.flag_sets[pick(space.flag_sets.size())];

                    Sample s;
                    s.what = std::string(platform.name) + '/' +
                             shape.name + '/' +
                             detail::candidate_tag(*slice.style, df) +
                             (overlap == BaselineOverlap::kFull
                                  ? " full"
                                  : " serialized");
                    s.style = slice.style;

                    // The search binds a block's plan on its first
                    // candidate and patches the reuse records for every
                    // later one, so price another order pair of the
                    // same block first and read the sampled floor off
                    // the patched plan.
                    AttentionBatchEvaluator batch;
                    batch.bind_slice(platform.accel, shape.dims, df.cross,
                                     *slice.style, overlap);
                    batch.begin(df);
                    batch.dram_bytes(
                        bound.logit_costs[tl * n_orders +
                                          (ol + 1) % n_orders],
                        bound.attend_costs[ta * n_orders +
                                           (oa + 1) % n_orders]);
                    s.floor_bytes = batch.dram_bytes(bound.logit_costs[li],
                                                     bound.attend_costs[ai]);

                    // The reference is the plain, unmemoized timeline.
                    const TimelineResult timeline = attention_timeline(
                        *slice.style, platform.accel, shape.dims, df,
                        overlap);
                    s.timeline_bytes = timeline.activity.traffic.total_dram();
                    s.cycles = timeline.cycles;
                    s.energy_j =
                        estimate_energy(table, timeline.activity).total();
                    for (int o = 0; o < 3; ++o) {
                        s.bound[o] = bound.lower_bound(kObjectives[o], li,
                                                       ai, s.floor_bytes);
                    }
                    s.floor_binds =
                        bound.lower_bound(Objective::kRuntime, li, ai,
                                          s.floor_bytes) >
                        bound.lower_bound(Objective::kRuntime, li, ai);
                    samples.push_back(std::move(s));
                }
            }
        }
    }
    return samples;
}

const std::vector<Sample>&
samples()
{
    static const std::vector<Sample> drawn = draw_samples();
    return drawn;
}

TEST(PruneBound, SampleCoversEveryStyleAndBindsOften)
{
    ASSERT_GE(samples().size(), 2000u);
    for (const ExecutionStyle* style : execution_styles()) {
        const auto n = std::count_if(
            samples().begin(), samples().end(),
            [&](const Sample& s) { return s.style == style; });
        EXPECT_GE(n, 200) << style->id();
    }
    // The floor must actually be the binding term on a good share of
    // the sample, or the bound-vs-cost check below would not test it.
    const auto binds =
        std::count_if(samples().begin(), samples().end(),
                      [](const Sample& s) { return s.floor_binds; });
    EXPECT_GE(binds, static_cast<long>(samples().size() / 4));
}

TEST(PruneBound, FloorBytesAreTheTimelineDramLedger)
{
    for (const Sample& s : samples()) {
        EXPECT_LE(std::abs(s.floor_bytes - s.timeline_bytes),
                  1e-12 * std::max(1.0, s.timeline_bytes))
            << s.what << ": floor " << s.floor_bytes << " B, timeline "
            << s.timeline_bytes << " B";
    }
}

TEST(PruneBound, NeverExceedsTheObjectiveForEveryStyle)
{
    for (const Sample& s : samples()) {
        for (int o = 0; o < 3; ++o) {
            const double cost = objective_value(kObjectives[o], s.cycles,
                                                s.energy_j);
            EXPECT_LE(s.bound[o], cost)
                << s.what << " objective " << o << ": bound "
                << s.bound[o] << " > cost " << cost
                << (s.floor_binds ? " (DRAM floor binds)" : "");
        }
    }
}

TEST(PruneBound, MapperSliceSkipKeepsEveryBetterSlice)
{
    // One-row decode GEMMs run faster on the pipelined style's half
    // arrays than on the whole array, so a pipelined bound priced on
    // the whole array sat above some slices' best cost, and the mapper
    // skipped slices that held better points than its pick (serve's
    // auto-scheduled decode steps). The skip drops a slice when its
    // priority exceeds the incumbent, which never falls below the
    // pick, so no slice better than the pick can be dropped as long as
    // every slice's priority is at most its exhaustive best.
    const AccelConfig accel = cloud_accel();
    const AttentionDims dims = shapes()[2].dims;
    ASSERT_TRUE(dims.decode);
    const EnergyTable table = EnergyTable::for_accel(accel);
    for (const char* style : {"pipelined", "all"}) {
        SCOPED_TRACE(style);
        AttentionSearchOptions opt;
        opt.styles = {style};
        opt.threads = 1;
        opt.mode = SearchMode::kAnalytic;
        const AttentionSearchResult mapped =
            search_attention(accel, dims, opt);
        ASSERT_TRUE(mapped.found);
        const double pick = mapped.best.cost.cycles;

        opt.mode = SearchMode::kExhaustive;
        const detail::SliceSearch search =
            detail::prepare_slice_search(accel, dims, opt, table);
        // Every point, slice by slice in slice order.
        const std::vector<DsePoint> points =
            explore_attention(accel, dims, opt, 0);
        std::size_t next = 0;
        for (std::size_t si = 0; si < search.space.slices.size(); ++si) {
            const std::size_t n =
                search.space.slice_points(search.space.slices[si]);
            ASSERT_LE(next + n, points.size());
            double best = std::numeric_limits<double>::infinity();
            for (std::size_t i = next; i < next + n; ++i) {
                best = std::min(best, points[i].cost.cycles);
            }
            next += n;
            EXPECT_LE(search.priority[si], best)
                << detail::slice_journal_key(search.space.slices[si])
                << ": priority " << search.priority[si]
                << " cycles is above the slice's best point"
                << (best < pick ? ", which beats the mapper's pick of "
                                : ", the mapper's pick is ")
                << pick;
        }
        EXPECT_EQ(next, points.size());
    }
}
} // namespace
} // namespace flat
