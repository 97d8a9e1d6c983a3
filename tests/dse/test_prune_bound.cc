/**
 * @file
 * Soundness of the exhaustive search's pruning bounds, level by level,
 * over a seeded sample of candidates from every execution style, three
 * attention shapes, three platforms and both baseline overlap policies:
 *
 *  - the separable DRAM split (split_dram_traffic(), read through
 *    AttentionBatchEvaluator::dram_split() after another lane of the
 *    block was priced, as in the search) totals the reference
 *    plan_dram_traffic() ledger, which is the evaluated timeline's, so
 *    a style emitter that ledgers other bytes, or a split term that
 *    misses or misplaces a tensor, fails here;
 *  - the candidate's own bound — max(style compute bound, block
 *    floor) for the cycle term, times the energy bound under EDP —
 *    never exceeds its objective under runtime, energy or EDP, and the
 *    tile-pair bound (pair_candidates()) and the least bound of the
 *    block's priced candidates never exceed the objective, nor the own
 *    bound, of any loop-order pair of its block. A bound above the
 *    cost would let the search prune its own optimum;
 *  - the block floor, the baseline's per-window floor included, never
 *    exceeds the modeled cycles under either overlap policy;
 *  - every loop-order pair of the sampled block prices bit for bit
 *    like the first orders of its classes under model_attention();
 *  - the analytic mapper's whole-slice skip, which compares the same
 *    compute bound against its incumbent, never drops a slice whose
 *    exhaustive best beats the mapper's pick.
 */
#include "dse/search_internal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
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
    double split_bytes = 0.0;    ///< DramSplit::total()
    double ledger_bytes = 0.0;   ///< plan_dram_traffic().total_dram()
    double timeline_bytes = 0.0; ///< evaluated activity's total_dram()
    double floor_cycles = 0.0;   ///< BlockFloor::cycles()
    double point_floor = 0.0;    ///< SliceBound::floor_cycles()
    double cycles = 0.0;
    double energy_j = 0.0;
    double bound[3] = {0.0, 0.0, 0.0}; ///< runtime, energy, EDP
    double pair_bound[3] = {0.0, 0.0, 0.0};  ///< pair_candidates()
    double block_bound[3] = {0.0, 0.0, 0.0}; ///< least priced bound
    /** Least objective over every loop-order pair of the block, and
     *  least of their own bounds: compute bound alone, then with the
     *  block floor. */
    double block_cost[3] = {0.0, 0.0, 0.0};
    double member_compute_bound[3] = {0.0, 0.0, 0.0};
    double member_bound[3] = {0.0, 0.0, 0.0};
    bool floor_binds = false; ///< floor above the compute bound
    /** Loop-order pairs of the block that are not the first of their
     *  classes, and those of them whose cost under model_attention()
     *  differs from the first's bit for bit. */
    int class_members = 0;
    std::string class_mismatch;
};

constexpr Objective kObjectives[] = {Objective::kRuntime,
                                     Objective::kEnergy, Objective::kEdp};

/** Candidates per (platform, shape, overlap) combination: 18 x 120. */
constexpr std::size_t kPerCombo = 120;

/** Bit-for-bit equality of two costs' cycles and activity. */
bool
same_bits(const OperatorCost& a, const OperatorCost& b)
{
    const auto same = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof x) == 0;
    };
    const TrafficBytes& ta = a.activity.traffic;
    const TrafficBytes& tb = b.activity.traffic;
    return same(a.cycles, b.cycles) &&
           same(a.activity.macs, b.activity.macs) &&
           same(a.activity.sl_accesses, b.activity.sl_accesses) &&
           same(a.activity.sfu_elems, b.activity.sfu_elems) &&
           same(ta.dram_read, tb.dram_read) &&
           same(ta.dram_write, tb.dram_write) &&
           same(ta.sg_read, tb.sg_read) && same(ta.sg_write, tb.sg_write) &&
           same(ta.sg2_read, tb.sg2_read) &&
           same(ta.sg2_write, tb.sg2_write) &&
           a.live_footprint_bytes == b.live_footprint_bytes &&
           same(a.resident_fraction, b.resident_fraction);
}

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
            SlicedSpace space = detail::build_sliced_space(
                platform.accel, shape.dims, opt);
            detail::bind_order_classes(space);
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
                             '/' + to_string(df.order_logit) + '/' +
                             to_string(df.order_attend) +
                             (overlap == BaselineOverlap::kFull
                                  ? " full"
                                  : " serialized");
                    s.style = slice.style;

                    // The search prices a block's lanes after binding
                    // its plan, so price another order pair of the same
                    // block first and read the split off that plan.
                    AttentionBatchEvaluator batch;
                    batch.bind_slice(platform.accel, shape.dims, df.cross,
                                     *slice.style, overlap);
                    batch.begin(df);
                    const std::size_t other_l =
                        tl * n_orders + (ol + 1) % n_orders;
                    const std::size_t other_a =
                        ta * n_orders + (oa + 1) % n_orders;
                    batch.add(space.orders[(ol + 1) % n_orders],
                              space.orders[(oa + 1) % n_orders],
                              bound.logit_costs[other_l],
                              bound.attend_costs[other_a]);
                    const DramSplit& split = batch.dram_split();
                    s.split_bytes = split.total(bound.logit_costs[li].reuse,
                                                bound.attend_costs[ai].reuse);
                    s.ledger_bytes =
                        plan_dram_traffic(
                            make_plan(platform.accel, shape.dims, df),
                            df.stage)
                            .total_dram();
                    detail::BlockFloor floor;
                    bound.block_floor(floor, split, tl, ta, n_orders);
                    s.floor_cycles = floor.cycles(ol, oa);
                    s.point_floor = bound.floor_cycles(split, li, ai);

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
                                                       ai, s.floor_cycles);
                        detail::OrderCandidate
                            candidates[detail::kMaxLoopOrders *
                                       detail::kMaxLoopOrders];
                        const std::size_t n = detail::pair_candidates(
                            slice, bound, kObjectives[o], tl, ta, n_orders,
                            candidates, s.pair_bound[o]);
                        s.block_bound[o] =
                            std::numeric_limits<double>::infinity();
                        for (std::size_t c = 0; c < n; ++c) {
                            s.block_bound[o] = std::min(
                                s.block_bound[o],
                                SliceBound::objective_bound(
                                    kObjectives[o],
                                    std::max(candidates[c].cycles,
                                             floor.cycles(candidates[c].ol,
                                                          candidates[c].oa)),
                                    candidates[c].energy));
                        }
                    }
                    s.floor_binds =
                        s.floor_cycles > bound.compute_cycles(li, ai);

                    // Every loop-order pair of the block: the least
                    // objective, and each member against the first
                    // order pair of its classes.
                    std::vector<OperatorCost> members;
                    for (std::size_t o = 0; o < 3; ++o) {
                        s.block_cost[o] =
                            std::numeric_limits<double>::infinity();
                        s.member_compute_bound[o] = s.block_cost[o];
                        s.member_bound[o] = s.block_cost[o];
                    }
                    for (std::size_t ml = 0; ml < n_orders; ++ml) {
                        for (std::size_t ma = 0; ma < n_orders; ++ma) {
                            FusedDataflow member = df;
                            member.order_logit = space.orders[ml];
                            member.order_attend = space.orders[ma];
                            members.push_back(model_attention(
                                *slice.style, platform.accel, shape.dims,
                                member, overlap));
                            const double energy =
                                estimate_energy(table,
                                                members.back().activity)
                                    .total();
                            const std::size_t mli = tl * n_orders + ml;
                            const std::size_t mai = ta * n_orders + ma;
                            for (int o = 0; o < 3; ++o) {
                                s.block_cost[o] = std::min(
                                    s.block_cost[o],
                                    objective_value(kObjectives[o],
                                                    members.back().cycles,
                                                    energy));
                                s.member_compute_bound[o] = std::min(
                                    s.member_compute_bound[o],
                                    bound.lower_bound(kObjectives[o], mli,
                                                      mai));
                                s.member_bound[o] = std::min(
                                    s.member_bound[o],
                                    bound.lower_bound(
                                        kObjectives[o], mli, mai,
                                        floor.cycles(ml, ma)));
                            }
                            const std::size_t fl =
                                (*slice.logit_order_class)[mli];
                            const std::size_t fa =
                                (*slice.attend_order_class)[mai];
                            if (fl == ml && fa == ma) {
                                continue;
                            }
                            ++s.class_members;
                            if (!same_bits(members.back(),
                                           members[fl * n_orders + fa]) &&
                                s.class_mismatch.empty()) {
                                s.class_mismatch =
                                    to_string(space.orders[ml]) + '/' +
                                    to_string(space.orders[ma]);
                            }
                        }
                    }
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
        const auto of_style = [&](auto pred) {
            return std::count_if(samples().begin(), samples().end(),
                                 [&](const Sample& s) {
                                     return s.style == style && pred(s);
                                 });
        };
        EXPECT_GE(of_style([](const Sample&) { return true; }), 200)
            << style->id();
        // The floor must actually be the binding term on some of every
        // style's sample, or the checks below would not test it; the
        // same goes for the order classes.
        EXPECT_GE(of_style([](const Sample& s) { return s.floor_binds; }),
                  10)
            << style->id();
        EXPECT_GE(of_style([](const Sample& s) {
                      return s.class_members > 0;
                  }),
                  40)
            << style->id();
    }
    // ... and on a good share of the whole sample.
    const auto binds =
        std::count_if(samples().begin(), samples().end(),
                      [](const Sample& s) { return s.floor_binds; });
    EXPECT_GE(binds, static_cast<long>(samples().size() / 4));
}

TEST(PruneBound, FloorBytesAreTheTimelineDramLedger)
{
    for (const Sample& s : samples()) {
        EXPECT_LE(std::abs(s.split_bytes - s.ledger_bytes),
                  1e-12 * std::max(1.0, s.ledger_bytes))
            << s.what << ": split " << s.split_bytes << " B, ledger "
            << s.ledger_bytes << " B";
        EXPECT_LE(std::abs(s.ledger_bytes - s.timeline_bytes),
                  1e-12 * std::max(1.0, s.timeline_bytes))
            << s.what << ": ledger " << s.ledger_bytes << " B, timeline "
            << s.timeline_bytes << " B";
    }
}

TEST(PruneBound, NeverExceedsTheObjectiveForEveryStyle)
{
    static const char* const kLevels[] = {"point", "tile pair", "block"};
    for (const Sample& s : samples()) {
        for (int o = 0; o < 3; ++o) {
            const double cost = objective_value(kObjectives[o], s.cycles,
                                                s.energy_j);
            // The point's own bound against its cost; the tile-pair
            // and block bounds against every order pair of the block.
            const double bounds[] = {s.bound[o], s.pair_bound[o],
                                     s.block_bound[o]};
            const double costs[] = {cost, s.block_cost[o],
                                    s.block_cost[o]};
            for (int level = 0; level < 3; ++level) {
                EXPECT_LE(bounds[level], costs[level])
                    << s.what << " objective " << o << ", "
                    << kLevels[level] << " bound " << bounds[level]
                    << " > cost " << costs[level]
                    << (s.floor_binds ? " (floor binds)" : "");
            }
        }
    }
}

TEST(PruneBound, PairAndBlockBoundsAreAtMostEveryMembersOwn)
{
    // The tile-pair skip and the block's least bound stand for every
    // point they cover: each is at most every member's own bound, so
    // a skip drops only points that would each fail their own test.
    for (const Sample& s : samples()) {
        for (int o = 0; o < 3; ++o) {
            EXPECT_LE(s.pair_bound[o], s.member_compute_bound[o])
                << s.what << " objective " << o;
            EXPECT_LE(s.block_bound[o], s.member_bound[o])
                << s.what << " objective " << o;
        }
    }
}

TEST(PruneBound, BlockFloorNeverExceedsTheModeledCycles)
{
    // For the baseline this is the per-window floor, sampled under both
    // overlap policies; the search applies the same slack. The mapper
    // prices the same floor one point at a time.
    for (const Sample& s : samples()) {
        EXPECT_LE(s.floor_cycles * SliceBound::kAssocSlack, s.cycles)
            << s.what << ": floor " << s.floor_cycles << " cycles";
        EXPECT_EQ(s.point_floor, s.floor_cycles) << s.what;
    }
}

TEST(PruneBound, OrderClassMembersPriceLikeTheirFirst)
{
    for (const Sample& s : samples()) {
        EXPECT_TRUE(s.class_mismatch.empty())
            << s.what << ": orders " << s.class_mismatch
            << " price unlike the first orders of their classes";
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
            explore_attention(accel, dims, opt);
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
