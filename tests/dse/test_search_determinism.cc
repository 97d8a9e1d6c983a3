/**
 * @file
 * Determinism contract of the parallel, pruned DSE engine: for any
 * thread count and with pruning on or off, search_attention must return
 * exactly the same best point (tag, cycles, energy) as the serial
 * unpruned reference, and explore_attention must return the same point
 * sequence. Bit-exact equality is intentional — every point is modeled
 * by exactly one thread with an identical instruction sequence, and the
 * reduction only compares, never accumulates, across threads. Where the
 * thread count is the only difference, the evaluated/pruned split must
 * match too: pruning reads a schedule-prefix incumbent no interleaving
 * moves.
 */
#include "dse/search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "dse/search_internal.h"
#include "workload/model_config.h"

namespace flat {
namespace {

AttentionDims
self_attention(std::uint64_t n)
{
    AttentionDims d;
    d.batch = 16;
    d.heads = 8;
    d.q_len = n;
    d.kv_len = n;
    d.head_dim = 64;
    return d;
}

AttentionDims
cross_attention(std::uint64_t q, std::uint64_t kv)
{
    AttentionDims d;
    d.batch = 8;
    d.heads = 12;
    d.q_len = q;
    d.kv_len = kv;
    d.head_dim = 64;
    return d;
}

struct Config {
    const char* name;
    AccelConfig accel;
    AttentionDims dims;
};

std::vector<Config>
configs()
{
    // Two presets x two workloads (plus a baseline-space case below).
    return {
        {"edge/self-1024", edge_accel(), self_attention(1024)},
        {"edge/cross-512x2048", edge_accel(), cross_attention(512, 2048)},
        {"cloud/self-4096", cloud_accel(), self_attention(4096)},
        {"cloud/cross-1024x4096", cloud_accel(),
         cross_attention(1024, 4096)},
    };
}

AttentionSearchResult
run(const Config& cfg, unsigned threads, bool prune,
    Objective objective = Objective::kRuntime, bool fused = true)
{
    AttentionSearchOptions opt;
    opt.quick = true;
    opt.fused = fused;
    opt.objective = objective;
    opt.threads = threads;
    opt.prune = prune;
    return search_attention(cfg.accel, cfg.dims, opt);
}

/** How much of the audit split two runs must share. */
enum class Split {
    kSum,   ///< the prune setting differs: the space size
    kExact, ///< only the thread count differs: evaluated and pruned
};

void
expect_same_best(const AttentionSearchResult& reference,
                 const AttentionSearchResult& candidate,
                 const char* what, Split split = Split::kSum)
{
    ASSERT_TRUE(candidate.found) << what;
    EXPECT_EQ(candidate.best.dataflow.tag(),
              reference.best.dataflow.tag())
        << what;
    EXPECT_EQ(candidate.best.cost.cycles, reference.best.cost.cycles)
        << what;
    EXPECT_EQ(candidate.best.energy_j, reference.best.energy_j) << what;
    if (split == Split::kExact) {
        EXPECT_EQ(candidate.evaluated, reference.evaluated) << what;
        EXPECT_EQ(candidate.pruned, reference.pruned) << what;
    } else {
        // Pruning may skip points but never lose any: the audit
        // counters must cover the full space.
        EXPECT_EQ(candidate.evaluated + candidate.pruned,
                  reference.evaluated + reference.pruned)
            << what;
    }
}

TEST(SearchDeterminism, ParallelAndPrunedMatchSerialUnpruned)
{
    for (const Config& cfg : configs()) {
        SCOPED_TRACE(cfg.name);
        const AttentionSearchResult reference =
            run(cfg, /*threads=*/1, /*prune=*/false);
        ASSERT_TRUE(reference.found);
        EXPECT_EQ(reference.pruned, 0u);

        const AttentionSearchResult serial_pruned = run(cfg, 1, true);
        expect_same_best(reference, serial_pruned, "serial, pruned");
        expect_same_best(reference, run(cfg, 4, false),
                         "4 threads, unpruned", Split::kExact);
        expect_same_best(serial_pruned, run(cfg, 4, true),
                         "4 threads, pruned", Split::kExact);
        expect_same_best(serial_pruned, run(cfg, 7, true),
                         "7 threads, pruned", Split::kExact);
    }
}

TEST(SearchDeterminism, HoldsForTheBaselineSpace)
{
    const Config cfg{"edge/self-1024/base", edge_accel(),
                     self_attention(1024)};
    const auto reference = run(cfg, 1, false, Objective::kRuntime,
                               /*fused=*/false);
    expect_same_best(reference,
                     run(cfg, 4, true, Objective::kRuntime, false),
                     "baseline space");
}

TEST(SearchDeterminism, HoldsForGroupedQueryDecode)
{
    // Grouped-query decode: every granularity ties on cycles here, so
    // a lower bound above the modeled optimum (K cold-start bytes
    // charged per query head instead of per K/V head) pruned all but
    // the first point to run, and the pick followed the schedule.
    AttentionDims d;
    d.batch = 16;
    d.heads = 32;
    d.kv_heads = 8;
    d.q_len = 1;
    d.kv_len = 2048;
    d.head_dim = 128;
    d.decode = true;
    const Config cfg{"cloud/gqa-decode-2048", cloud_accel(), d};
    const auto reference = run(cfg, 1, false);
    ASSERT_TRUE(reference.found);

    // No slice may bound above the optimum it contains.
    AttentionSearchOptions opt;
    opt.quick = true;
    opt.fused = true;
    const detail::SlicedSpace space =
        detail::build_sliced_space(cfg.accel, cfg.dims, opt);
    const EnergyTable table = EnergyTable::for_accel(cfg.accel);
    double min_lb = std::numeric_limits<double>::infinity();
    for (const detail::SearchSlice& slice : space.slices) {
        const detail::SliceBound bound = detail::make_slice_bound(
            cfg.accel, cfg.dims, table, slice);
        for (std::size_t li = 0; li < bound.logit_costs.size(); ++li) {
            for (std::size_t ai = 0; ai < bound.attend_costs.size();
                 ++ai) {
                min_lb = std::min(
                    min_lb,
                    bound.lower_bound(Objective::kRuntime, li, ai));
            }
        }
    }
    EXPECT_LE(min_lb, reference.best.cost.cycles);

    const AttentionSearchResult serial_pruned = run(cfg, 1, true);
    expect_same_best(reference, serial_pruned, "serial, pruned");
    expect_same_best(serial_pruned, run(cfg, 4, true),
                     "4 threads, pruned", Split::kExact);
    expect_same_best(serial_pruned, run(cfg, 16, true),
                     "16 threads, pruned", Split::kExact);
}

TEST(SearchDeterminism, HoldsForPipelinedDecode)
{
    // Decode GEMMs are one row tall, so the array's fill and drain
    // dominate them and the pipelined style's half-array tracks beat
    // the full array. Its stage bound, priced on the full array, sat
    // above the modeled cycles and pruned the tied winner: the pruned
    // search picked M/... where the unpruned one picks B/....
    AttentionDims d;
    d.batch = 16;
    d.heads = 32;
    d.kv_heads = 8;
    d.q_len = 1;
    d.kv_len = 512;
    d.head_dim = 128;
    d.decode = true;
    for (const char* style : {"pipelined", "all"}) {
        AttentionSearchOptions opt;
        opt.styles = {style};
        opt.threads = 1;
        opt.prune = false;
        const AttentionSearchResult reference =
            search_attention(cloud_accel(), d, opt);
        ASSERT_TRUE(reference.found);
        opt.prune = true;
        expect_same_best(reference, search_attention(cloud_accel(), d, opt),
                         style);
    }
}

TEST(SearchDeterminism, HoldsForEnergyAndEdpObjectives)
{
    const Config cfg{"edge/self-1024", edge_accel(),
                     self_attention(1024)};
    for (Objective objective : {Objective::kEnergy, Objective::kEdp}) {
        SCOPED_TRACE(static_cast<int>(objective));
        const auto reference = run(cfg, 1, false, objective);
        const auto serial_pruned = run(cfg, 1, true, objective);
        expect_same_best(reference, serial_pruned, "objective variant");
        expect_same_best(serial_pruned, run(cfg, 4, true, objective),
                         "objective variant, 4 threads", Split::kExact);
    }
}

TEST(SearchDeterminism, PruningActuallyFires)
{
    // Sanity that the determinism guarantee is not vacuous: on a
    // non-trivial space the bound must skip a decent share of points.
    const Config cfg{"edge/self-4096", edge_accel(),
                     self_attention(4096)};
    const auto pruned = run(cfg, 1, true);
    EXPECT_GT(pruned.pruned, 0u);
    const auto reference = run(cfg, 1, false);
    EXPECT_EQ(pruned.evaluated + pruned.pruned, reference.evaluated);
    expect_same_best(reference, pruned, "pruned run");
}

TEST(SearchDeterminism, OneThreadMatchesThirtyTwoThreads)
{
    // The oversubscribed extreme: 32 workers on any core count must
    // still reduce to the bit-identical optimum over the same
    // evaluated/pruned split (the schedule and each slice's incumbent
    // prefix are fixed).
    for (const Config& cfg : configs()) {
        SCOPED_TRACE(cfg.name);
        const AttentionSearchResult reference = run(cfg, 1, true);
        expect_same_best(reference, run(cfg, 32, true),
                         "32 threads, pruned", Split::kExact);
    }
}

TEST(SearchDeterminism, PruneSplitIsIdenticalAtAnyThreadCount)
{
    // The work counters, not just the result, are thread-invariant:
    // every slice prunes against the best of a fixed prefix of the
    // schedule plus its own incumbent, never against a value another
    // thread may or may not have published yet.
    for (const Config& cfg : configs()) {
        for (const bool prune : {true, false}) {
            SCOPED_TRACE(std::string(cfg.name) +
                         " prune=" + std::to_string(prune));
            AttentionSearchOptions opt;
            opt.quick = true;
            opt.styles = {"all"};
            opt.prune = prune;
            opt.threads = 1;
            const AttentionSearchResult serial =
                search_attention(cfg.accel, cfg.dims, opt);
            ASSERT_TRUE(serial.found);
            for (const unsigned threads : {2u, 8u, 32u}) {
                opt.threads = threads;
                const std::string what =
                    std::to_string(threads) + " threads";
                expect_same_best(serial,
                                 search_attention(cfg.accel, cfg.dims,
                                                  opt),
                                 what.c_str(), Split::kExact);
            }
        }
    }
}

TEST(SearchDeterminism, ExplicitFlatStyleMatchesTheLegacyFusedSpace)
{
    // styles={"flat"} must be the SAME search as the historical
    // fused=true default: same space, same audit counters, same best
    // bit for bit. This is the compatibility contract that keeps the
    // incumbent trajectory unchanged when flash is not requested.
    for (const Config& cfg : configs()) {
        SCOPED_TRACE(cfg.name);
        const AttentionSearchResult legacy = run(cfg, 1, true);
        AttentionSearchOptions opt;
        opt.quick = true;
        opt.threads = 1;
        opt.styles = {"flat"};
        const AttentionSearchResult explicit_style =
            search_attention(cfg.accel, cfg.dims, opt);
        ASSERT_TRUE(explicit_style.found);
        EXPECT_EQ(explicit_style.best.dataflow.tag(),
                  legacy.best.dataflow.tag());
        EXPECT_EQ(explicit_style.best.cost.cycles,
                  legacy.best.cost.cycles);
        EXPECT_EQ(explicit_style.evaluated, legacy.evaluated);
        EXPECT_EQ(explicit_style.pruned, legacy.pruned);
    }
}

TEST(SearchDeterminism, HoldsForTheFourStyleSpace)
{
    // The full style axis (baseline / flat / pipelined / flash) under
    // every engine configuration: thread counts and pruning must all
    // reduce to the serial unpruned optimum bit for bit. This also
    // validates each style's pruning bound empirically: an invalid
    // (too-high) bound would skip the optimum in some pruned run and
    // fail the comparison.
    for (const Config& cfg : configs()) {
        SCOPED_TRACE(cfg.name);
        AttentionSearchOptions opt;
        opt.quick = true;
        opt.styles = {"all"};
        opt.threads = 1;
        opt.prune = false;
        const AttentionSearchResult reference =
            search_attention(cfg.accel, cfg.dims, opt);
        ASSERT_TRUE(reference.found);
        EXPECT_EQ(reference.pruned, 0u);

        for (const unsigned threads : {1u, 8u}) {
            for (const bool prune : {false, true}) {
                SCOPED_TRACE("threads=" + std::to_string(threads) +
                             " prune=" + std::to_string(prune));
                opt.threads = threads;
                opt.prune = prune;
                expect_same_best(
                    reference, search_attention(cfg.accel, cfg.dims, opt),
                    "four-style space variant");
            }
        }
    }
}

TEST(SearchDeterminism, ExploreMinimumMatchesTheSearch)
{
    // Search-vs-reference oracle: explore_attention() prices every
    // point through the reference model_attention(); its minimum under
    // the search's total order (objective value, then candidate tag)
    // must be the batched, pruned search's best bit for bit.
    AttentionDims decode;
    decode.batch = 16;
    decode.heads = 32;
    decode.kv_heads = 8;
    decode.q_len = 1;
    decode.kv_len = 2048;
    decode.head_dim = 128;
    decode.decode = true;
    const std::vector<Config> cases = {
        {"edge/self-1024", edge_accel(), self_attention(1024)},
        {"cloud/gqa-decode-2048", cloud_accel(), decode},
    };
    for (const Config& cfg : cases) {
        for (const char* style :
             {"flat", "baseline", "pipelined", "flash", "all"}) {
            SCOPED_TRACE(std::string(cfg.name) + " styles=" + style);
            AttentionSearchOptions opt;
            opt.quick = true;
            opt.styles = {style};
            opt.threads = 2;
            const std::vector<DsePoint> points =
                explore_attention(cfg.accel, cfg.dims, opt);
            ASSERT_FALSE(points.empty());
            for (const Objective objective :
                 {Objective::kRuntime, Objective::kEnergy,
                  Objective::kEdp}) {
                const DsePoint* best = nullptr;
                double best_value = 0.0;
                std::string best_tag;
                for (const DsePoint& point : points) {
                    const double value = point.objective_value(objective);
                    const std::string tag =
                        detail::candidate_tag(*point.style, point.dataflow);
                    if (best == nullptr ||
                        detail::improves(value, tag, best_value,
                                         best_tag)) {
                        best = &point;
                        best_value = value;
                        best_tag = tag;
                    }
                }
                opt.objective = objective;
                for (const bool prune : {false, true}) {
                    SCOPED_TRACE("objective=" +
                                 std::to_string(static_cast<int>(objective)) +
                                 " prune=" + std::to_string(prune));
                    opt.prune = prune;
                    const AttentionSearchResult result =
                        search_attention(cfg.accel, cfg.dims, opt);
                    ASSERT_TRUE(result.found);
                    EXPECT_EQ(detail::candidate_tag(*result.best.style,
                                                    result.best.dataflow),
                              best_tag);
                    EXPECT_EQ(result.best.cost.cycles, best->cost.cycles);
                    EXPECT_EQ(result.best.energy_j, best->energy_j);
                    EXPECT_EQ(result.evaluated + result.pruned,
                              points.size());
                }
            }
        }
    }
}

TEST(SearchDeterminism, StyleOrderAndDuplicatesDoNotChangeTheResult)
{
    const Config cfg{"edge/self-1024", edge_accel(),
                     self_attention(1024)};
    AttentionSearchOptions opt;
    opt.quick = true;
    opt.threads = 1;
    opt.styles = {"all"};
    const AttentionSearchResult reference =
        search_attention(cfg.accel, cfg.dims, opt);
    ASSERT_TRUE(reference.found);
    // Explicit enumeration in a different order, with duplicates and
    // a redundant trailing "all": the same set of (style, candidate)
    // points is audited and the same optimum wins.
    opt.styles = {"flash", "flat", "flat", "baseline", "pipelined",
                  "all"};
    expect_same_best(reference,
                     search_attention(cfg.accel, cfg.dims, opt),
                     "shuffled style list");
}

TEST(ExploreDeterminism, PointOrderIndependentOfThreads)
{
    AttentionSearchOptions opt;
    opt.quick = true;
    opt.threads = 1;
    const AccelConfig accel = edge_accel();
    const AttentionDims dims = self_attention(1024);
    const auto serial = explore_attention(accel, dims, opt);
    opt.threads = 4;
    const auto parallel = explore_attention(accel, dims, opt);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(parallel[i].dataflow.tag(), serial[i].dataflow.tag())
            << "point " << i;
        ASSERT_EQ(parallel[i].cost.cycles, serial[i].cost.cycles)
            << "point " << i;
    }
}

} // namespace
} // namespace flat
