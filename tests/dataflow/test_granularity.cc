#include "dataflow/granularity.h"

#include <gtest/gtest.h>

#include "common/status.h"

namespace flat {
namespace {

TEST(Granularity, MultiCoversEverythingInOnePass)
{
    const CrossLoopExtent e =
        cross_loop_extent({Granularity::kMulti, 0}, 64, 12, 512);
    EXPECT_EQ(e.passes, 1u);
    EXPECT_EQ(e.instances_per_pass, 64u * 12u);
    EXPECT_EQ(e.rows_per_pass, 512u);
}

TEST(Granularity, BatchIteratesOverSamples)
{
    const CrossLoopExtent e =
        cross_loop_extent({Granularity::kBatch, 0}, 64, 12, 512);
    EXPECT_EQ(e.passes, 64u);
    EXPECT_EQ(e.instances_per_pass, 12u);
    EXPECT_EQ(e.rows_per_pass, 512u);
}

TEST(Granularity, HeadIteratesOverEveryInstance)
{
    const CrossLoopExtent e =
        cross_loop_extent({Granularity::kHead, 0}, 64, 12, 512);
    EXPECT_EQ(e.passes, 64u * 12u);
    EXPECT_EQ(e.instances_per_pass, 1u);
}

TEST(Granularity, RowChunksOneHead)
{
    const CrossLoopExtent e =
        cross_loop_extent({Granularity::kRow, 64}, 64, 12, 512);
    EXPECT_EQ(e.passes, 64u * 12u * 8u);
    EXPECT_EQ(e.instances_per_pass, 1u);
    EXPECT_EQ(e.rows_per_pass, 64u);
}

TEST(Granularity, RowLargerThanSequenceClamps)
{
    const CrossLoopExtent e =
        cross_loop_extent({Granularity::kRow, 4096}, 2, 4, 512);
    EXPECT_EQ(e.passes, 2u * 4u);
    EXPECT_EQ(e.rows_per_pass, 512u);
}

TEST(Granularity, RowCeilDivision)
{
    // 500 rows with R=64 -> 8 chunks per head.
    const CrossLoopExtent e =
        cross_loop_extent({Granularity::kRow, 64}, 1, 1, 500);
    EXPECT_EQ(e.passes, 8u);
}

TEST(Granularity, RowRequiresPositiveRows)
{
    EXPECT_THROW(cross_loop_extent({Granularity::kRow, 0}, 1, 1, 512),
                 Error);
}

TEST(Granularity, ValidateRejectsOutOfRangeGranularity)
{
    // A raw decode (a journal record, a cast) can carry any integer;
    // the extent must not fall through its switch to a default.
    for (const int raw : {5, 99, -1}) {
        SCOPED_TRACE(raw);
        const CrossLoop cross{static_cast<Granularity>(raw), 64};
        EXPECT_THROW(cross.validate(), Error);
        EXPECT_THROW(cross_loop_extent(cross, 8, 12, 512), Error);
    }
    for (const Granularity g :
         {Granularity::kMulti, Granularity::kBatch, Granularity::kHead,
          Granularity::kRow}) {
        EXPECT_NO_THROW((CrossLoop{g, 64}.validate()));
    }
    EXPECT_NO_THROW((CrossLoop{Granularity::kColumn, 64, 256}.validate()));
}

TEST(Granularity, RejectsZeroDims)
{
    EXPECT_THROW(cross_loop_extent({Granularity::kMulti, 0}, 0, 1, 1),
                 Error);
}

TEST(Granularity, Tags)
{
    EXPECT_EQ(CrossLoop({Granularity::kMulti, 0}).tag(), "M");
    EXPECT_EQ(CrossLoop({Granularity::kBatch, 0}).tag(), "B");
    EXPECT_EQ(CrossLoop({Granularity::kHead, 0}).tag(), "H");
    EXPECT_EQ(CrossLoop({Granularity::kRow, 64}).tag(), "R64");
}

/** Property: passes x instances_per_pass covers exactly B*H slices
 *  (up to row chunking). */
class ExtentCoverage
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::uint64_t,
                                                 std::uint64_t>>
{
};

TEST_P(ExtentCoverage, RowPassesCoverAllRows)
{
    const auto [batch, heads, rows] = GetParam();
    for (std::uint64_t r : {std::uint64_t{1}, std::uint64_t{32},
                            std::uint64_t{100}}) {
        const CrossLoopExtent e =
            cross_loop_extent({Granularity::kRow, r}, batch, heads, rows);
        const std::uint64_t chunks = (rows + r - 1) / r;
        EXPECT_EQ(e.passes, batch * heads * chunks);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExtentCoverage,
    ::testing::Values(std::make_tuple(1u, 1u, 512u),
                      std::make_tuple(64u, 12u, 512u),
                      std::make_tuple(8u, 16u, 4096u),
                      std::make_tuple(2u, 16u, 65536u)));

} // namespace
} // namespace flat
