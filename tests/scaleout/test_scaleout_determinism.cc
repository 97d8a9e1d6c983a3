/**
 * @file
 * Determinism contract of the scale-out DSE: the (axis x devices)
 * sweep must return byte-identical winner lists for any thread count
 * and with pruning on or off — the inner search_attention inherits the
 * deterministic reduction and thread-invariant work counters, and the
 * outer enumeration is serial.
 */
#include "scaleout/scaleout_search.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "costmodel/execution_style.h"
#include "workload/model_config.h"

namespace flat {
namespace {

AttentionDims
dims()
{
    AttentionDims d;
    d.batch = 8;
    d.heads = 16;
    d.q_len = 512;
    d.kv_len = 512;
    d.head_dim = 64;
    return d;
}

ScaleOutSearchOptions
options(unsigned threads, bool prune)
{
    ScaleOutSearchOptions opt;
    opt.attention.quick = true;
    opt.attention.threads = threads;
    opt.attention.prune = prune;
    opt.fabric.axis = ShardAxis::kAuto;
    opt.fabric.link_bw = 200e9;
    opt.device_counts = {1, 2, 4, 8};
    return opt;
}

void
expect_same_points(const ScaleOutSearchResult& reference,
                   const ScaleOutSearchResult& candidate,
                   const char* what, bool same_split)
{
    ASSERT_EQ(reference.found, candidate.found) << what;
    ASSERT_EQ(reference.points.size(), candidate.points.size()) << what;
    for (std::size_t i = 0; i < reference.points.size(); ++i) {
        const ScaleOutSearchPoint& r = reference.points[i];
        const ScaleOutSearchPoint& c = candidate.points[i];
        EXPECT_EQ(r.cost.axis, c.cost.axis) << what << " point " << i;
        EXPECT_EQ(r.cost.devices, c.cost.devices)
            << what << " point " << i;
        // Byte-identical winners: tag, cycles and energy compare with
        // operator== — no tolerance.
        EXPECT_EQ(r.dataflow.tag(), c.dataflow.tag())
            << what << " point " << i;
        EXPECT_EQ(r.cost.cycles, c.cost.cycles) << what << " point " << i;
        EXPECT_EQ(r.total_energy_j, c.total_energy_j)
            << what << " point " << i;
        if (same_split) {
            // Only the thread count differs: the split is invariant.
            EXPECT_EQ(r.evaluated, c.evaluated) << what << " point " << i;
            EXPECT_EQ(r.pruned, c.pruned) << what << " point " << i;
        } else {
            // Pruning toggled: only the space size is shared.
            EXPECT_EQ(r.evaluated + r.pruned, c.evaluated + c.pruned)
                << what << " point " << i;
        }
    }
    EXPECT_EQ(reference.best.dataflow.tag(), candidate.best.dataflow.tag())
        << what;
    EXPECT_EQ(reference.best.cost.cycles, candidate.best.cost.cycles)
        << what;
    EXPECT_EQ(reference.best.cost.axis, candidate.best.cost.axis) << what;
    EXPECT_EQ(reference.best.cost.devices, candidate.best.cost.devices)
        << what;
}

TEST(ScaleOutDeterminism, ThreadCountInvariant)
{
    const ScaleOutSearchResult serial =
        search_scaleout(edge_accel(), dims(), options(1, true));
    ASSERT_TRUE(serial.found);
    EXPECT_FALSE(serial.points.empty());

    for (const unsigned threads : {2u, 8u}) {
        const ScaleOutSearchResult parallel =
            search_scaleout(edge_accel(), dims(), options(threads, true));
        expect_same_points(serial, parallel, "threads",
                           /*same_split=*/true);
    }
}

TEST(ScaleOutDeterminism, PruneInvariant)
{
    const ScaleOutSearchResult unpruned =
        search_scaleout(edge_accel(), dims(), options(1, false));
    const ScaleOutSearchResult pruned =
        search_scaleout(edge_accel(), dims(), options(8, true));
    expect_same_points(unpruned, pruned, "prune", /*same_split=*/false);
}

TEST(ScaleOutDeterminism, ExploreOverShardedDimsIsThreadInvariant)
{
    // explore_attention on the sharded per-device dims (the inner leg
    // of the scale-out DSE) must return the same point sequence for
    // any thread count and prune setting.
    for (const ShardAxis axis :
         {ShardAxis::kBatch, ShardAxis::kHead, ShardAxis::kSequence}) {
        const AttentionDims device_dims =
            shard_attention_dims(dims(), axis, 4);

        AttentionSearchOptions opt;
        opt.quick = true;
        opt.threads = 1;
        opt.prune = false;
        const std::vector<DsePoint> reference =
            explore_attention(edge_accel(), device_dims, opt);
        ASSERT_FALSE(reference.empty());

        opt.threads = 8;
        opt.prune = true;
        const std::vector<DsePoint> candidate =
            explore_attention(edge_accel(), device_dims, opt);

        ASSERT_EQ(reference.size(), candidate.size())
            << to_string(axis);
        for (std::size_t i = 0; i < reference.size(); ++i) {
            EXPECT_EQ(reference[i].dataflow.tag(),
                      candidate[i].dataflow.tag())
                << to_string(axis) << " point " << i;
            EXPECT_EQ(reference[i].cost.cycles, candidate[i].cost.cycles)
                << to_string(axis) << " point " << i;
            EXPECT_EQ(reference[i].energy_j, candidate[i].energy_j)
                << to_string(axis) << " point " << i;
        }
    }
}

TEST(ScaleOutDeterminism, BestIsOnTheParetoOfItsOwnPoints)
{
    const ScaleOutSearchResult result =
        search_scaleout(edge_accel(), dims(), options(4, true));
    ASSERT_TRUE(result.found);
    for (const ScaleOutSearchPoint& point : result.points) {
        EXPECT_LE(result.best.objective_value(Objective::kRuntime),
                  point.objective_value(Objective::kRuntime));
    }
}

TEST(ScaleOutDeterminism, InnerSearchStaysInTheFlatSpace)
{
    // The scale-out model prices the FLAT style, so every point's
    // per-device dataflow must be one FLAT admits, whatever styles the
    // caller searches. On bert at 16K with batch 1, flash would
    // otherwise win the per-device search with a C-Gran dataflow.
    const AccelConfig accel = edge_accel();
    const AttentionDims repro =
        AttentionDims::from_workload(make_workload(bert_base(), 1, 16384));
    ScaleOutSearchOptions flat_only;
    flat_only.attention.styles = {"flat"};
    flat_only.fabric.devices = 2;
    flat_only.device_counts = {1, 2};
    const ScaleOutSearchResult reference =
        search_scaleout(accel, repro, flat_only);
    ASSERT_TRUE(reference.found);

    for (const std::string styles : {"flash", "all"}) {
        SCOPED_TRACE(styles);
        ScaleOutSearchOptions opt = flat_only;
        opt.attention.styles = {styles};
        const ScaleOutSearchResult result =
            search_scaleout(accel, repro, opt);
        for (const ScaleOutSearchPoint& point : result.points) {
            EXPECT_TRUE(flat_execution_style().admits(
                accel, point.cost.device_dims, point.dataflow.cross))
                << point.dataflow.tag();
        }
        // The restricted inner search is the flat-only search itself.
        expect_same_points(reference, result, styles.c_str(),
                           /*same_split=*/true);
    }
}

} // namespace
} // namespace flat
