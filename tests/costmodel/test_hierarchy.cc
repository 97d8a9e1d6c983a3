/**
 * @file
 * Tests of the optional second-level on-chip buffer (SG2): the paper's
 * §3.1 note that the ideas extend to multi-level hierarchies.
 */
#include <gtest/gtest.h>

#include "common/status.h"
#include "common/units.h"
#include "costmodel/attention_cost.h"
#include "energy/energy_model.h"

namespace flat {
namespace {

const ExecutionStyle& kBaseline = baseline_execution_style();
const ExecutionStyle& kFlat = flat_execution_style();

AttentionDims
dims(std::uint64_t n)
{
    AttentionDims d;
    d.batch = 64;
    d.heads = 12;
    d.q_len = n;
    d.kv_len = n;
    d.head_dim = 64;
    return d;
}

FusedDataflow
flat_r(std::uint64_t rows)
{
    FusedDataflow df;
    df.cross = {Granularity::kRow, rows};
    df.l2_logit = {128, 128, 128};
    df.l2_attend = {128, 128, 128};
    return df;
}

AccelConfig
edge_with_edram(std::uint64_t sg2_bytes)
{
    AccelConfig accel = edge_accel();
    accel.sg2_bytes = sg2_bytes;
    accel.sg2_bw = 200e9; // eDRAM-class: 4x DRAM, 1/5 of SG BW
    return accel;
}

TEST(Hierarchy, ValidateRequiresBandwidthWithCapacity)
{
    AccelConfig accel = edge_accel();
    accel.sg2_bytes = 16 * kMiB;
    EXPECT_THROW(accel.validate(), Error); // no BW set
    accel.sg2_bw = 200e9;
    EXPECT_NO_THROW(accel.validate());
    accel.sg2_bw = 10e9; // below off-chip: nonsensical
    EXPECT_THROW(accel.validate(), Error);
}

TEST(Hierarchy, AbsentSg2ProducesNoSg2Traffic)
{
    const OperatorCost cost =
        model_attention(kFlat, edge_accel(), dims(65536), flat_r(64));
    EXPECT_DOUBLE_EQ(cost.activity.traffic.total_sg2(), 0.0);
}

TEST(Hierarchy, OverflowRecoversUtilizationAtLongSequence)
{
    // At N=64K the R-Gran footprint (~42MB) dwarfs the 512KB SG; an
    // eDRAM level large enough to absorb it restores near-cap Util.
    const AttentionDims d = dims(65536);
    const FusedDataflow df = flat_r(64);
    const double without =
        model_attention(kFlat, edge_accel(), d, df).util();
    const double with_edram =
        model_attention(kFlat, edge_with_edram(64 * kMiB), d, df).util();
    EXPECT_GT(with_edram, without + 0.15);
    EXPECT_GT(with_edram, 0.8);
}

TEST(Hierarchy, Sg2TrafficAppearsWhenOverflowing)
{
    const OperatorCost cost = model_attention(
        kFlat, edge_with_edram(64 * kMiB), dims(65536), flat_r(64));
    EXPECT_GT(cost.activity.traffic.total_sg2(), 0.0);
    // And the DRAM traffic drops to roughly the compulsory I/O.
    const double io =
        4.0 * 64 * 12 * 65536.0 * 64 * 2.0; // Q+K+V+out bytes
    EXPECT_LT(cost.activity.traffic.total_dram(), 3.0 * io);
}

TEST(Hierarchy, ResidentFractionCountsBothLevels)
{
    const OperatorCost without =
        model_attention(kFlat, edge_accel(), dims(65536), flat_r(64));
    const OperatorCost with_edram = model_attention(
        kFlat, edge_with_edram(64 * kMiB), dims(65536), flat_r(64));
    EXPECT_GT(with_edram.resident_fraction,
              without.resident_fraction + 0.5);
}

TEST(Hierarchy, MoreSg2NeverSlower)
{
    const AttentionDims d = dims(16384);
    const FusedDataflow df = flat_r(64);
    double prev = model_attention(kFlat, edge_accel(), d, df).cycles;
    for (std::uint64_t sg2 : {4 * kMiB, 16 * kMiB, 64 * kMiB}) {
        const double cycles =
            model_attention(kFlat, edge_with_edram(sg2), d, df).cycles;
        EXPECT_LE(cycles, prev * 1.0001) << format_bytes(sg2);
        prev = cycles;
    }
}

TEST(Hierarchy, BaselineBenefitsLessThanFlat)
{
    // The baseline's O(N^2) intermediate outgrows even a 64MB eDRAM at
    // 64K, while FLAT's O(N) footprint fits — the hierarchy widens the
    // FLAT advantage instead of erasing it.
    const AttentionDims d = dims(65536);
    const AccelConfig accel = edge_with_edram(64 * kMiB);
    FusedDataflow base_df = flat_r(64);
    base_df.cross = {Granularity::kMulti, 0};
    base_df.stage = FusedStageFlags::decode(0);
    const double base_util =
        model_attention(kBaseline, accel, d, base_df).util();
    const double flat_util =
        model_attention(kFlat, accel, d, flat_r(64)).util();
    EXPECT_GT(flat_util, base_util + 0.2);
}

TEST(Hierarchy, Sg2EnergyBetweenSgAndDram)
{
    const OperatorCost cost = model_attention(
        kFlat, edge_with_edram(64 * kMiB), dims(65536), flat_r(64));
    const EnergyBreakdown e =
        estimate_energy(EnergyTable{}, cost.activity);
    EXPECT_GT(e.sg2_j, 0.0);
    // Per byte, SG2 sits between SG and DRAM.
    EnergyTable t;
    EXPECT_GT(t.sg2_pj_per_byte, t.sg_pj_per_byte);
    EXPECT_LT(t.sg2_pj_per_byte, t.dram_pj_per_byte);
}

} // namespace
} // namespace flat
