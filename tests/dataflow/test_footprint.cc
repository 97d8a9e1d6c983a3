#include "dataflow/fused_dataflow.h"

#include <gtest/gtest.h>

#include "common/status.h"
#include "dataflow/operator_dataflow.h"

namespace flat {
namespace {

AttentionDims
dims(std::uint64_t b, std::uint64_t h, std::uint64_t n, std::uint64_t dk)
{
    AttentionDims d;
    d.batch = b;
    d.heads = h;
    d.q_len = n;
    d.kv_len = n;
    d.head_dim = dk;
    return d;
}

FusedDataflow
all_staged(Granularity g, std::uint64_t rows)
{
    FusedDataflow df;
    df.cross = {g, rows};
    df.l2_logit = {64, 64, 64};
    df.l2_attend = {64, 64, 64};
    return df;
}

/** Table 2 closed forms, checked against the footprint model with all
 *  FLAT-tiles enabled (tile terms vanish in the staged case). */
class Table2 : public ::testing::TestWithParam<Granularity>
{
};

TEST_P(Table2, ModelMatchesClosedForm)
{
    const Granularity g = GetParam();
    const AttentionDims d = dims(4, 16, 1024, 64);
    const std::uint64_t r = 128;
    const FusedDataflow df = all_staged(g, r);
    const std::uint64_t model_bytes = fused_live_footprint(df, d, 2);
    const std::uint64_t table_elems = table2_footprint_elems(g, d, r);
    EXPECT_EQ(model_bytes, table_elems * 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllGranularities, Table2,
    ::testing::Values(Granularity::kMulti, Granularity::kBatch,
                      Granularity::kHead, Granularity::kRow),
    [](const auto& info) { return to_string(info.param); });

TEST(Table2, ClosedFormsFromPaper)
{
    // R-Gran: 4*R*dk + 4*N*dk + R*N elements.
    const AttentionDims d = dims(64, 16, 2048, 64);
    EXPECT_EQ(table2_footprint_elems(Granularity::kRow, d, 64),
              4ull * 64 * 64 + 4ull * 2048 * 64 + 64ull * 2048);
    // H-Gran: 8*N*dk + N^2.
    EXPECT_EQ(table2_footprint_elems(Granularity::kHead, d, 0),
              8ull * 2048 * 64 + 2048ull * 2048);
    // B-Gran: 8*D*N + H*N^2 with D = H*dk.
    EXPECT_EQ(table2_footprint_elems(Granularity::kBatch, d, 0),
              8ull * 1024 * 2048 + 16ull * 2048 * 2048);
    // M-Gran: 8*B*D*N + B*H*N^2.
    EXPECT_EQ(table2_footprint_elems(Granularity::kMulti, d, 0),
              8ull * 64 * 1024 * 2048 + 64ull * 16 * 2048 * 2048);
}

TEST(Footprint, GranularityOrdering)
{
    // M >= B >= H >= R for the same workload (§4.4).
    const AttentionDims d = dims(64, 12, 4096, 64);
    const auto fp = [&](Granularity g, std::uint64_t r) {
        return fused_live_footprint(all_staged(g, r), d, 2);
    };
    EXPECT_GT(fp(Granularity::kMulti, 0), fp(Granularity::kBatch, 0));
    EXPECT_GT(fp(Granularity::kBatch, 0), fp(Granularity::kHead, 0));
    EXPECT_GT(fp(Granularity::kHead, 0), fp(Granularity::kRow, 64));
}

TEST(Footprint, RGranGrowsLinearlyInN)
{
    // §4.4: the R-Gran live footprint is O(N), not O(N^2).
    const std::uint64_t r = 64;
    const std::uint64_t dk = 64;
    const auto fp = [&](std::uint64_t n) {
        return fused_live_footprint(all_staged(Granularity::kRow, r),
                                    dims(1, 1, n, dk), 2);
    };
    const std::uint64_t f1 = fp(4096);
    const std::uint64_t f2 = fp(8192);
    // Doubling N should roughly double (not quadruple) the footprint.
    EXPECT_LT(f2, 3 * f1);
    EXPECT_GT(f2, f1);
}

TEST(Footprint, HGranGrowsQuadraticallyInN)
{
    const auto fp = [&](std::uint64_t n) {
        return fused_live_footprint(all_staged(Granularity::kHead, 0),
                                    dims(1, 1, n, 64), 2);
    };
    EXPECT_GT(fp(8192), 3 * fp(4096));
}

TEST(Footprint, DisablingIntermediateShrinksFootprint)
{
    const AttentionDims d = dims(8, 8, 2048, 64);
    FusedDataflow staged = all_staged(Granularity::kHead, 0);
    FusedDataflow unstaged = staged;
    unstaged.stage.intermediate = false;
    EXPECT_LT(fused_live_footprint(unstaged, d, 2),
              fused_live_footprint(staged, d, 2));
}

TEST(Footprint, DisablingEveryTensorLeavesOnlyTiles)
{
    const AttentionDims d = dims(8, 8, 2048, 64);
    FusedDataflow df = all_staged(Granularity::kHead, 0);
    df.stage = FusedStageFlags::decode(0);
    const std::uint64_t tile_bytes = fused_live_footprint(df, d, 2);
    // Twelve double-buffered 64x64 tile slots: Q, K (logit inputs),
    // V, output (attend), and the intermediate as both logit-C and
    // attend-A streams.
    EXPECT_EQ(tile_bytes, 12u * 64 * 64 * 2);
}

TEST(StageFlags, EncodeDecodeRoundTrip)
{
    for (std::uint32_t code = 0; code < 32; ++code) {
        const FusedStageFlags flags = FusedStageFlags::decode(code);
        EXPECT_EQ(FusedStageFlags::encode(flags), code);
    }
    EXPECT_THROW(FusedStageFlags::decode(32), Error);
}

TEST(StageFlags, TagShowsEnabledTensors)
{
    FusedStageFlags flags;
    EXPECT_EQ(flags.tag(), "QKVOI");
    flags.key = false;
    flags.intermediate = false;
    EXPECT_EQ(flags.tag(), "Q-VO-");
}

TEST(FusedDataflowTag, IsTheConcatenationOfItsParts)
{
    // The one-pass tag must stay byte-identical to the parts' own tags:
    // the search's tie-break and every report compare these strings.
    const std::uint64_t huge = ~std::uint64_t{0};
    for (const CrossLoop& cross :
         {CrossLoop{Granularity::kMulti, 0}, CrossLoop{Granularity::kBatch, 0},
          CrossLoop{Granularity::kHead, 0}, CrossLoop{Granularity::kRow, 64},
          CrossLoop{Granularity::kColumn, 128, 512},
          CrossLoop{Granularity::kColumn, huge, huge}}) {
        FusedDataflow df;
        df.cross = cross;
        df.l2_logit = {128, 64, 1};
        df.l2_attend = {huge, 10, 999};
        df.stage = FusedStageFlags::decode(0b10110);
        EXPECT_EQ(df.tag(), cross.tag() + "/" + df.l2_logit.tag() + "/" +
                                df.l2_attend.tag() + "/" + df.stage.tag());
    }
}

TEST(OperatorFootprint, StagedWeightNotScaledByInstances)
{
    GemmShape shape;
    shape.m = 512;
    shape.k = 256;
    shape.n = 256;
    shape.instances = 8;
    shape.b_kind = OperandKind::kWeight;

    OperatorDataflow df;
    df.l2 = {64, 64, 64};
    df.cross = {Granularity::kMulti, 0};
    df.l3 = {false, true, false};
    const std::uint64_t fp = operator_live_footprint(df, shape, 2);
    // staged weight (2x double buffer) + two streaming tile pairs.
    EXPECT_EQ(fp, 2u * 256 * 256 * 2 + 2u * 64 * 64 * 2 * 2);
}

TEST(OperatorFootprint, CrossGranularityScalesActivations)
{
    GemmShape shape;
    shape.m = 512;
    shape.k = 64;
    shape.n = 512;
    shape.instances = 16;
    shape.a_kind = OperandKind::kActivation;
    shape.b_kind = OperandKind::kActivation;

    OperatorDataflow df;
    df.l2 = {64, 64, 64};
    df.l3 = {true, true, true};
    df.cross = {Granularity::kMulti, 0};
    const std::uint64_t all = operator_live_footprint(df, shape, 2);
    df.cross = {Granularity::kHead, 0};
    const std::uint64_t one = operator_live_footprint(df, shape, 2);
    EXPECT_GT(all, one);
}

} // namespace
} // namespace flat
