#include "costmodel/attention_cost.h"

#include "costmodel/gemm_engine.h"

#include <gtest/gtest.h>

#include "common/status.h"
#include "common/units.h"

namespace flat {
namespace {

const ExecutionStyle& kBaseline = baseline_execution_style();
const ExecutionStyle& kFlat = flat_execution_style();
const ExecutionStyle& kPipelined = pipelined_execution_style();

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
make_dataflow(Granularity g, std::uint64_t rows)
{
    FusedDataflow df;
    df.cross = {g, rows};
    df.l2_logit = {128, 128, 128};
    df.l2_attend = {128, 128, 128};
    df.order_logit = LoopOrder::kMNK;
    df.order_attend = LoopOrder::kMNK;
    return df;
}

TEST(AttentionCost, MacsClosedForm)
{
    EXPECT_EQ(attention_macs(dims(64, 12, 512, 64)),
              2ull * 64 * 12 * 512 * 512 * 64);
}

TEST(AttentionCost, IdealCyclesScalesWithPes)
{
    const AttentionDims d = dims(8, 8, 1024, 64);
    const double edge_ideal = attention_ideal_cycles(edge_accel(), d);
    const double cloud_ideal = attention_ideal_cycles(cloud_accel(), d);
    EXPECT_DOUBLE_EQ(edge_ideal / cloud_ideal, 64.0);
}

TEST(AttentionCost, FlatStagedIntermediateNeverTouchesDram)
{
    AccelConfig accel = edge_accel();
    accel.sg_bytes = 16 * kMiB; // roomy: footprint fits
    const AttentionDims d = dims(4, 4, 1024, 64);
    const FusedDataflow df = make_dataflow(Granularity::kRow, 64);
    const OperatorCost cost = model_attention(kFlat, accel, d, df);
    ASSERT_DOUBLE_EQ(cost.resident_fraction, 1.0);
    // DRAM traffic is exactly Q + K + V in and output out.
    const double io_bytes =
        4.0 * d.batch * d.heads * d.q_len * d.head_dim * 2.0;
    EXPECT_DOUBLE_EQ(cost.activity.traffic.total_dram(), io_bytes);
}

TEST(AttentionCost, BaselineMovesIntermediateFourTimes)
{
    // Plain Base (nothing staged): L writes, softmax reads+writes, A
    // reads the O(N^2) intermediate.
    const AttentionDims d = dims(4, 4, 1024, 64);
    FusedDataflow df = make_dataflow(Granularity::kMulti, 0);
    df.stage = FusedStageFlags::decode(0);
    const OperatorCost cost =
        model_attention(kBaseline, edge_accel(), d, df);
    const double inter_bytes =
        static_cast<double>(d.batch) * d.heads * d.q_len * d.kv_len * 2.0;
    EXPECT_GE(cost.activity.traffic.total_dram(), 4.0 * inter_bytes);
}

TEST(AttentionCost, FlatBeatsBaselineWhenBufferLimited)
{
    AccelConfig accel = edge_accel(); // 512 KiB SG
    const AttentionDims d = dims(64, 12, 4096, 64);
    const FusedDataflow flat_df = make_dataflow(Granularity::kRow, 64);
    const FusedDataflow base_df = make_dataflow(Granularity::kHead, 0);
    const OperatorCost flat_cost =
        model_attention(kFlat, accel, d, flat_df);
    const OperatorCost base_cost =
        model_attention(kBaseline, accel, d, base_df);
    EXPECT_LT(flat_cost.cycles, base_cost.cycles);
}

TEST(AttentionCost, BaselineRejectsRowGranularity)
{
    const AttentionDims d = dims(4, 4, 512, 64);
    const FusedDataflow df = make_dataflow(Granularity::kRow, 64);
    EXPECT_THROW(model_attention(kBaseline, edge_accel(), d, df), Error);
}

TEST(AttentionCost, UtilBounded)
{
    for (Granularity g : {Granularity::kMulti, Granularity::kBatch,
                          Granularity::kHead}) {
        const OperatorCost flat_cost = model_attention(
            kFlat, edge_accel(), dims(8, 8, 2048, 64), make_dataflow(g, 0));
        EXPECT_GT(flat_cost.util(), 0.0);
        EXPECT_LE(flat_cost.util(), 1.0);
        const OperatorCost base_cost = model_attention(
            kBaseline, edge_accel(), dims(8, 8, 2048, 64), make_dataflow(g, 0));
        EXPECT_GT(base_cost.util(), 0.0);
        EXPECT_LE(base_cost.util(), 1.0);
    }
}

TEST(AttentionCost, InterleavingNeverSlowerThanSequential)
{
    // Same dataflow, fused vs sequential windows: the shared overlap
    // window can only help.
    for (std::uint64_t n : {512u, 2048u, 8192u}) {
        const AttentionDims d = dims(16, 8, n, 64);
        const FusedDataflow df = make_dataflow(Granularity::kHead, 0);
        const double fused =
            model_attention(kFlat, edge_accel(), d, df).cycles;
        const double sequential =
            model_attention(kBaseline, edge_accel(), d, df).cycles;
        EXPECT_LE(fused, sequential * 1.0001) << "N=" << n;
    }
}

TEST(AttentionCost, RGranFootprintLinearInN)
{
    const FusedDataflow df = make_dataflow(Granularity::kRow, 64);
    const OperatorCost c1 =
        model_attention(kFlat, edge_accel(), dims(1, 1, 8192, 64), df);
    const OperatorCost c2 =
        model_attention(kFlat, edge_accel(), dims(1, 1, 16384, 64), df);
    EXPECT_LT(static_cast<double>(c2.live_footprint_bytes),
              3.0 * static_cast<double>(c1.live_footprint_bytes));
}

TEST(AttentionCost, LongSequenceKeepsFlatUtilHigh)
{
    // The headline property: at N = 64K the R-Gran FLAT dataflow stays
    // near its cap once its O(N) footprint (Table 2: ~42MB here) is
    // provisioned, while the sequential baseline's O(N^2) footprint can
    // never fit — it stays collapsed even with the same buffer.
    AccelConfig accel = edge_accel();
    accel.sg_bytes = 64 * kMiB;
    const AttentionDims d = dims(64, 12, 65536, 64);
    const OperatorCost flat_cost = model_attention(
        kFlat, accel, d, make_dataflow(Granularity::kRow, 64));
    FusedDataflow base_df = make_dataflow(Granularity::kMulti, 0);
    base_df.stage = FusedStageFlags::decode(0);
    const OperatorCost base_cost =
        model_attention(kBaseline, accel, d, base_df);
    EXPECT_GT(flat_cost.util(), 0.9);
    EXPECT_LT(base_cost.util(), 0.7);
    EXPECT_GT(flat_cost.util() / base_cost.util(), 1.4);
}

TEST(AttentionCost, TinyBufferNeutralizesFlatAtLongSequence)
{
    // Corollary (honest spill accounting): when even one FLAT row-slice
    // plus the K/V working set dwarfs the SG, FLAT degrades toward the
    // baseline instead of magically staying compute-bound.
    const AttentionDims d = dims(64, 12, 65536, 64);
    const OperatorCost flat_cost = model_attention(
        kFlat, edge_accel(), d, make_dataflow(Granularity::kRow, 64));
    EXPECT_LT(flat_cost.util(), 0.7);
    EXPECT_LT(flat_cost.resident_fraction, 0.1);
}

TEST(PipelinedAttention, KeepsIntermediateOnChipLikeInterleaved)
{
    AccelConfig accel = edge_accel();
    accel.sg_bytes = 16 * kMiB;
    const AttentionDims d = dims(4, 4, 1024, 64);
    const FusedDataflow df = make_dataflow(Granularity::kRow, 64);
    const OperatorCost pipe = model_attention(kPipelined, accel, d, df);
    const double io_bytes =
        4.0 * d.batch * d.heads * d.q_len * d.head_dim * 2.0;
    EXPECT_DOUBLE_EQ(pipe.activity.traffic.total_dram(), io_bytes);
}

TEST(PipelinedAttention, InterleavedAtLeastAsGoodWhenImbalanced)
{
    // On the wide cloud array, A (n = dk = 128) wastes half the
    // columns; pipelining pays that waste at the slower stage's pace
    // on a half array while interleaving runs both stages on the full
    // array back to back. Tiles must be sized for the full array — a
    // deliberately undersized tile makes splitting free.
    const AccelConfig cloud = cloud_accel();
    AttentionDims d = dims(8, 16, 4096, 128);
    FusedDataflow df = make_dataflow(Granularity::kHead, 0);
    GemmShape logit_shape;
    logit_shape.m = d.q_len;
    logit_shape.k = d.head_dim;
    logit_shape.n = d.kv_len;
    GemmShape attend_shape;
    attend_shape.m = d.q_len;
    attend_shape.k = d.kv_len;
    attend_shape.n = d.head_dim;
    df.l2_logit = default_l2_tile(cloud, logit_shape,
                                  cloud.sg_bytes / 4,
                                  Stationarity::kOutputStationary);
    df.l2_attend = default_l2_tile(cloud, attend_shape,
                                   cloud.sg_bytes / 4,
                                   Stationarity::kOutputStationary);
    const OperatorCost inter = model_attention(kFlat, cloud, d, df);
    const OperatorCost pipe = model_attention(kPipelined, cloud, d, df);
    EXPECT_LT(inter.cycles, pipe.cycles);
}

TEST(PipelinedAttention, NearTieWhenPerfectlyBalanced)
{
    // Balanced stages on the edge array: the two styles agree within a
    // few percent; the decisive §5.1 arguments (area, non-fused ops)
    // are outside this model.
    const OperatorCost inter = model_attention(
        kFlat, edge_accel(), dims(8, 8, 2048, 64),
        make_dataflow(Granularity::kHead, 0));
    const OperatorCost pipe = model_attention(
        kPipelined, edge_accel(), dims(8, 8, 2048, 64),
        make_dataflow(Granularity::kHead, 0));
    EXPECT_NEAR(inter.cycles / pipe.cycles, 1.0, 0.05);
}

TEST(PipelinedAttention, RejectsUnsplittableArray)
{
    AccelConfig accel = edge_accel();
    accel.pe_rows = 1;
    EXPECT_THROW(model_attention(
                     kPipelined, accel, dims(1, 1, 128, 64),
                     make_dataflow(Granularity::kHead, 0)),
                 Error);
}

/** Property: doubling off-chip bandwidth never increases runtime, for
 *  both models at every granularity. */
class BandwidthMonotonicity : public ::testing::TestWithParam<Granularity>
{
};

TEST_P(BandwidthMonotonicity, MoreBwNeverSlower)
{
    const AttentionDims d = dims(16, 8, 4096, 64);
    FusedDataflow df = make_dataflow(GetParam(), 128);
    AccelConfig slow = edge_accel();
    AccelConfig fast = edge_accel();
    fast.offchip_bw *= 2;

    const bool can_baseline = GetParam() != Granularity::kRow;
    EXPECT_LE(model_attention(kFlat, fast, d, df).cycles,
              model_attention(kFlat, slow, d, df).cycles);
    if (can_baseline) {
        EXPECT_LE(model_attention(kBaseline, fast, d, df).cycles,
                  model_attention(kBaseline, slow, d, df).cycles);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllGranularities, BandwidthMonotonicity,
    ::testing::Values(Granularity::kMulti, Granularity::kBatch,
                      Granularity::kHead, Granularity::kRow),
    [](const auto& info) { return to_string(info.param); });

} // namespace
} // namespace flat
