/**
 * @file
 * Cross-validation between the two independent halves of this library:
 * the analytical cost model's DRAM traffic predictions and the
 * instrumented functional kernels' measured traffic must agree — they
 * describe the same dataflow from two directions.
 */
#include <gtest/gtest.h>

#include "common/units.h"
#include "costmodel/attention_cost.h"
#include "kernels/attention.h"

namespace flat {
namespace {

const ExecutionStyle& kBaseline = baseline_execution_style();
const ExecutionStyle& kFlat = flat_execution_style();

/** Off-chip elements (not bytes) moved by the functional kernel. */
std::uint64_t
kernel_offchip_elems(std::size_t n, std::size_t dk, bool fused,
                     std::size_t row_tile)
{
    Matrix q(n, dk);
    Matrix k(n, dk);
    Matrix v(n, dk);
    fill_random(q, 1);
    fill_random(k, 2);
    fill_random(v, 3);
    TrafficMeter meter;
    if (fused) {
        attention_flat(q, k, v, row_tile, {}, &meter);
    } else {
        attention_reference(q, k, v, {}, &meter);
    }
    return meter.total_offchip() / sizeof(float);
}

/** Off-chip elements predicted by the cost model for one head. */
double
model_offchip_elems(const AccelConfig& accel, std::size_t n,
                    std::size_t dk, bool fused, std::size_t row_tile)
{
    AttentionDims dims;
    dims.batch = 1;
    dims.heads = 1;
    dims.q_len = n;
    dims.kv_len = n;
    dims.head_dim = dk;

    FusedDataflow df;
    df.cross = fused ? CrossLoop{Granularity::kRow, row_tile}
                     : CrossLoop{Granularity::kMulti, 0};
    // Tiles larger than the slice: single-tile streaming, no re-fetch,
    // mirroring the kernel's semantics.
    df.l2_logit = {n, dk, n};
    df.l2_attend = {n, n, dk};
    if (!fused) {
        df.stage = FusedStageFlags::decode(0);
    }

    const OperatorCost cost =
        fused ? model_attention(kFlat, accel, dims, df)
              : model_attention(kBaseline, accel, dims, df);
    return cost.activity.traffic.total_dram() / accel.bytes_per_element;
}

class CrossCheck
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
  protected:
    AccelConfig accel_ = [] {
        AccelConfig a = edge_accel();
        a.sg_bytes = 256 * kMiB; // everything staged fits: exact regime
        return a;
    }();
};

TEST_P(CrossCheck, FlatTrafficMatchesKernelMeter)
{
    const auto [n, row_tile] = GetParam();
    const std::uint64_t measured =
        kernel_offchip_elems(n, 32, /*fused=*/true, row_tile);
    const double predicted =
        model_offchip_elems(accel_, n, 32, /*fused=*/true, row_tile);
    // FLAT moves exactly Q, K, V in and the output out: 4*N*dk.
    EXPECT_EQ(measured, 4u * n * 32);
    EXPECT_DOUBLE_EQ(predicted, static_cast<double>(measured));
}

TEST_P(CrossCheck, BaselineTrafficMatchesKernelMeter)
{
    const auto [n, row_tile] = GetParam();
    (void)row_tile;
    const std::uint64_t measured =
        kernel_offchip_elems(n, 32, /*fused=*/false, 0);
    const double predicted =
        model_offchip_elems(accel_, n, 32, /*fused=*/false, 0);
    // Baseline adds four crossings of the N x N intermediate.
    EXPECT_EQ(measured, 4u * n * 32 + 4u * n * n);
    EXPECT_DOUBLE_EQ(predicted, static_cast<double>(measured));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrossCheck,
    ::testing::Values(std::pair<std::size_t, std::size_t>{64, 16},
                      std::pair<std::size_t, std::size_t>{128, 32},
                      std::pair<std::size_t, std::size_t>{256, 64},
                      std::pair<std::size_t, std::size_t>{250, 32}));

} // namespace
} // namespace flat
