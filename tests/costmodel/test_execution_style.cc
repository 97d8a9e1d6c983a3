/**
 * @file
 * Contract tests of the pluggable execution-style registry: stable
 * enumeration order and ids, distinct cache keys, the per-style
 * legal-granularity predicate (including the flash style's
 * register-tier capacity check), the bound algebra each style prunes
 * with, and the model == timeline exactness seam for every style.
 */
#include "costmodel/execution_style.h"

#include <gtest/gtest.h>

#include <cmath>

#include "costmodel/attention_cost.h"
#include "dataflow/granularity.h"
#include "dse/search.h"
#include "workload/model_config.h"

namespace flat {
namespace {

const ExecutionStyle& kBaseline = baseline_execution_style();
const ExecutionStyle& kFlat = flat_execution_style();
const ExecutionStyle& kPipelined = pipelined_execution_style();

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

CrossLoop
cross_of(Granularity g, std::uint64_t rows = 0, std::uint64_t cols = 0)
{
    CrossLoop cross;
    cross.granularity = g;
    cross.rows = rows;
    cross.cols = cols;
    return cross;
}

TEST(ExecutionStyleRegistry, OrderAndIdsAreStable)
{
    const std::vector<const ExecutionStyle*>& styles = execution_styles();
    ASSERT_EQ(styles.size(), 4u);
    EXPECT_STREQ(styles[0]->id(), "baseline");
    EXPECT_STREQ(styles[1]->id(), "flat");
    EXPECT_STREQ(styles[2]->id(), "pipelined");
    EXPECT_STREQ(styles[3]->id(), "flash");
    EXPECT_EQ(styles[0], &baseline_execution_style());
    EXPECT_EQ(styles[1], &flat_execution_style());
    EXPECT_EQ(styles[2], &pipelined_execution_style());
    EXPECT_EQ(styles[3], &flash_execution_style());
}

TEST(ExecutionStyleRegistry, LookupRoundTripsAndRejectsUnknownIds)
{
    for (const ExecutionStyle* style : execution_styles()) {
        EXPECT_EQ(find_execution_style(style->id()), style);
        EXPECT_NE(style->summary()[0], '\0');
        EXPECT_NE(style->cost_name()[0], '\0');
    }
    EXPECT_EQ(find_execution_style("bogus"), nullptr);
    EXPECT_EQ(find_execution_style(""), nullptr);
    EXPECT_EQ(find_execution_style("FLAT"), nullptr); // ids are exact
}

TEST(ExecutionStyleRegistry, DefaultStyleFollowsTheHistoricalFusedFlag)
{
    EXPECT_EQ(&default_execution_style(true), &flat_execution_style());
    EXPECT_EQ(&default_execution_style(false),
              &baseline_execution_style());
    EXPECT_TRUE(flat_execution_style().fused());
    EXPECT_FALSE(baseline_execution_style().fused());
    EXPECT_TRUE(pipelined_execution_style().fused());
    EXPECT_TRUE(flash_execution_style().fused());
}

TEST(ExecutionStyleAdmits, GranularityContractPerStyle)
{
    const AccelConfig accel = edge_accel();
    const AttentionDims dims = self_attention(1024);
    const CrossLoop m = cross_of(Granularity::kMulti);
    const CrossLoop b = cross_of(Granularity::kBatch);
    const CrossLoop h = cross_of(Granularity::kHead);
    const CrossLoop r = cross_of(Granularity::kRow, 64);
    const CrossLoop c = cross_of(Granularity::kColumn, 32, 128);

    // Baseline: two-pass softmax over whole slices, no R/C tiles.
    EXPECT_TRUE(baseline_execution_style().admits(accel, dims, m));
    EXPECT_TRUE(baseline_execution_style().admits(accel, dims, b));
    EXPECT_TRUE(baseline_execution_style().admits(accel, dims, h));
    EXPECT_FALSE(baseline_execution_style().admits(accel, dims, r));
    EXPECT_FALSE(baseline_execution_style().admits(accel, dims, c));

    // FLAT: row granularity is its signature; no column streaming.
    EXPECT_TRUE(flat_execution_style().admits(accel, dims, m));
    EXPECT_TRUE(flat_execution_style().admits(accel, dims, r));
    EXPECT_FALSE(flat_execution_style().admits(accel, dims, c));

    // Pipelined: FLAT's granularities on a split array.
    EXPECT_TRUE(pipelined_execution_style().admits(accel, dims, r));
    EXPECT_FALSE(pipelined_execution_style().admits(accel, dims, c));

    // Flash: ONLY column-blocked tiles (its recurrence needs them).
    EXPECT_FALSE(flash_execution_style().admits(accel, dims, m));
    EXPECT_FALSE(flash_execution_style().admits(accel, dims, b));
    EXPECT_FALSE(flash_execution_style().admits(accel, dims, h));
    EXPECT_FALSE(flash_execution_style().admits(accel, dims, r));
    EXPECT_TRUE(flash_execution_style().admits(accel, dims, c));
}

TEST(ExecutionStyleAdmits, PipelinedNeedsASplittableArray)
{
    AccelConfig accel = edge_accel();
    const AttentionDims dims = self_attention(1024);
    const CrossLoop r = cross_of(Granularity::kRow, 64);
    ASSERT_TRUE(pipelined_execution_style().admits(accel, dims, r));
    accel.pe_rows = 1;
    EXPECT_FALSE(pipelined_execution_style().admits(accel, dims, r));
}

TEST(ExecutionStyleAdmits, FlashAdmissionIsRegisterTierCapacityChecked)
{
    const AccelConfig accel = edge_accel();
    const AttentionDims dims = self_attention(4096);

    // A tile within the register tier is admitted...
    const CrossLoop fits = cross_of(Granularity::kColumn, 32, 128);
    ASSERT_LE(register_tier_bytes(32, 128, dims.head_dim,
                                  accel.bytes_per_element),
              accel.rf_capacity_bytes());
    EXPECT_TRUE(flash_execution_style().admits(accel, dims, fits));

    // ...one whose running state outgrows it is not.
    const CrossLoop spills = cross_of(Granularity::kColumn, 4096, 4096);
    ASSERT_GT(register_tier_bytes(4096, 4096, dims.head_dim,
                                  accel.bytes_per_element),
              accel.rf_capacity_bytes());
    EXPECT_FALSE(flash_execution_style().admits(accel, dims, spills));
}

TEST(ExecutionStyleBounds, BoundAlgebraPerStyle)
{
    const double sum = 1000.0;
    const double mx = 700.0;
    const double sm = 300.0;
    const double cold = 50.0;
    const double rescale = 40.0;

    // Serial styles: every window is exposed, rescale is not theirs.
    EXPECT_EQ(baseline_execution_style().bound_cycles(sum, mx, sm, cold,
                                                      rescale),
              sum + sm + cold);
    EXPECT_EQ(flat_execution_style().bound_cycles(sum, mx, sm, cold,
                                                  rescale),
              sum + sm + cold);

    // Pipelined: concurrent tracks can beat the serial sum, so its
    // bound keeps only the slowest track (on the half array) plus the
    // softmax serialized between the tracks.
    EXPECT_EQ(pipelined_execution_style().bound_cycles(sum, mx, sm, cold,
                                                       rescale),
              mx + sm);

    // Flash: serial shape plus the online-softmax rescale SFU work.
    EXPECT_EQ(flash_execution_style().bound_cycles(sum, mx, sm, cold,
                                                   rescale),
              sum + sm + cold + rescale);
}

TEST(ExecutionStyleBounds, InterSgRoundTripReflectsTheStagingTier)
{
    // SG-staged styles round-trip the intermediate (write + read);
    // flash keeps it in the register tier and pays nothing at SG.
    EXPECT_EQ(baseline_execution_style().inter_sg_round_trip_bytes(64.0),
              128.0);
    EXPECT_EQ(flat_execution_style().inter_sg_round_trip_bytes(64.0),
              128.0);
    EXPECT_EQ(pipelined_execution_style().inter_sg_round_trip_bytes(64.0),
              128.0);
    EXPECT_EQ(flash_execution_style().inter_sg_round_trip_bytes(64.0),
              0.0);
}

TEST(ExecutionStyleSeam, ModelEqualsTimelineForEveryStyle)
{
    // The core seam invariant: for each style, the winning dataflow of
    // a style-restricted search re-evaluates through the generic
    // timeline entry point to exactly the modeled cycles.
    const AccelConfig accel = edge_accel();
    const AttentionDims dims = self_attention(1024);
    for (const ExecutionStyle* style : execution_styles()) {
        SCOPED_TRACE(style->id());
        AttentionSearchOptions opt;
        opt.quick = true;
        opt.styles = {style->id()};
        const AttentionSearchResult result =
            search_attention(accel, dims, opt);
        ASSERT_TRUE(result.found);
        EXPECT_EQ(result.best.style, style);
        const OperatorCost cost = model_attention(
            *style, accel, dims, result.best.dataflow);
        const TimelineResult timeline = attention_timeline(
            *style, accel, dims, result.best.dataflow);
        EXPECT_EQ(timeline.cycles, cost.cycles);
        EXPECT_EQ(cost.cycles, result.best.cost.cycles);
        EXPECT_STREQ(cost.name.c_str(), style->cost_name());
    }
}

TEST(ExecutionStyleSeam, FlashFreesTheSgShareOfTheIntermediate)
{
    // The flash win mechanism the paper-level ablation relies on: with
    // the intermediate in the register tier, the SG round-trip traffic
    // of the picked flash dataflow carries no intermediate term, so on
    // a long memory-bound sequence its DRAM traffic drops below FLAT's.
    const AccelConfig accel = edge_accel();
    const AttentionDims dims = self_attention(8192);

    AttentionSearchOptions flat_opt;
    flat_opt.quick = true;
    const AttentionSearchResult flat_res =
        search_attention(accel, dims, flat_opt);
    AttentionSearchOptions flash_opt;
    flash_opt.quick = true;
    flash_opt.styles = {"flash"};
    const AttentionSearchResult flash_res =
        search_attention(accel, dims, flash_opt);
    ASSERT_TRUE(flat_res.found);
    ASSERT_TRUE(flash_res.found);
    EXPECT_LT(flash_res.best.cost.activity.traffic.total_dram(),
              flat_res.best.cost.activity.traffic.total_dram());
}

} // namespace
} // namespace flat
