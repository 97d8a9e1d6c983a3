#include "dataflow/reuse.h"

#include <gtest/gtest.h>

#include "common/status.h"

namespace flat {
namespace {

TEST(Reuse, InnermostNonIndexingLoopGivesFreeReuse)
{
    // Order m,k,n: the innermost n loop does not index A, so each A tile
    // is fetched exactly once.
    const ReuseCounts c = analyze_reuse(LoopOrder::kMKN, 4, 3, 5);
    EXPECT_EQ(c.a_fetches, 4u * 3u);
    // B is indexed by the innermost loop -> refetched every iteration.
    EXPECT_EQ(c.b_fetches, 4u * 3u * 5u);
}

TEST(Reuse, OuterLoopForcesRefetch)
{
    // Order n,m,k: A (m,k) has no inner non-indexing loop; it is
    // fetched every iteration = Nn passes over the whole tensor.
    const ReuseCounts c = analyze_reuse(LoopOrder::kNMK, 4, 3, 5);
    EXPECT_EQ(c.a_fetches, 4u * 3u * 5u);
    // B (k,n): innermost k indexes it; middle m does not but is not
    // innermost-contiguous below an indexing loop... k is innermost and
    // indexes B, so B is refetched every iteration too.
    EXPECT_EQ(c.b_fetches, 4u * 3u * 5u);
}

TEST(Reuse, OutputResidentWhenReductionInnermost)
{
    // Order m,n,k: C (m,n) reused across the whole k loop: one write
    // per distinct tile, no partial-sum re-reads.
    const ReuseCounts c = analyze_reuse(LoopOrder::kMNK, 4, 3, 5);
    EXPECT_EQ(c.c_tiles, 4u * 5u);
    EXPECT_EQ(c.c_writes, 4u * 5u);
    EXPECT_EQ(c.c_reads, 0u);
}

TEST(Reuse, PartialSumsSpillWhenReductionOuter)
{
    // Order k,m,n: every k iteration revisits all C tiles.
    const ReuseCounts c = analyze_reuse(LoopOrder::kKMN, 4, 3, 5);
    EXPECT_EQ(c.c_writes, 4u * 3u * 5u);
    EXPECT_EQ(c.c_reads, 4u * 3u * 5u - 4u * 5u);
}

TEST(Reuse, SingleTripLoopsNeverForceRefetch)
{
    const ReuseCounts c = analyze_reuse(LoopOrder::kNMK, 4, 1, 1);
    EXPECT_EQ(c.a_fetches, 4u);
    EXPECT_EQ(c.b_fetches, 1u);
    EXPECT_EQ(c.c_writes, 4u);
    EXPECT_EQ(c.c_reads, 0u);
}

TEST(Reuse, RejectsZeroTrips)
{
    EXPECT_THROW(analyze_reuse(LoopOrder::kMKN, 0, 1, 1), Error);
}

/**
 * Property: for every loop order, fetch counts are bounded below by the
 * distinct-tile count and above by the total trip count, and at least
 * one tensor enjoys free reuse from the innermost loop.
 */
class ReuseBounds : public ::testing::TestWithParam<LoopOrder>
{
};

TEST_P(ReuseBounds, FetchCountsWithinBounds)
{
    const std::uint64_t tm = 6, tk = 4, tn = 10;
    const ReuseCounts c = analyze_reuse(GetParam(), tm, tk, tn);
    const std::uint64_t trips = tm * tk * tn;
    EXPECT_GE(c.a_fetches, tm * tk);
    EXPECT_LE(c.a_fetches, trips);
    EXPECT_GE(c.b_fetches, tk * tn);
    EXPECT_LE(c.b_fetches, trips);
    EXPECT_GE(c.c_writes, c.c_tiles);
    EXPECT_LE(c.c_writes, trips);
    EXPECT_EQ(c.c_reads, c.c_writes - c.c_tiles);

    const bool a_minimal = c.a_fetches == tm * tk;
    const bool b_minimal = c.b_fetches == tk * tn;
    const bool c_minimal = c.c_writes == c.c_tiles;
    EXPECT_TRUE(a_minimal || b_minimal || c_minimal)
        << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllOrders, ReuseBounds,
                         ::testing::ValuesIn(kAllLoopOrders),
                         [](const auto& info) {
                             return to_string(info.param);
                         });

} // namespace
} // namespace flat
