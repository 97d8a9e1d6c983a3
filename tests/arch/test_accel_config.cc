#include "arch/accel_config.h"

#include <gtest/gtest.h>

#include "common/status.h"
#include "common/units.h"

namespace flat {
namespace {

TEST(AccelConfig, EdgePresetMatchesFigure7a)
{
    const AccelConfig edge = edge_accel();
    EXPECT_EQ(edge.pe_rows, 32u);
    EXPECT_EQ(edge.pe_cols, 32u);
    EXPECT_EQ(edge.sg_bytes, 512 * kKiB);
    EXPECT_DOUBLE_EQ(edge.onchip_bw, 1e12);
    EXPECT_DOUBLE_EQ(edge.offchip_bw, 50e9);
    EXPECT_DOUBLE_EQ(edge.clock_hz, 1e9);
    EXPECT_NO_THROW(edge.validate());
}

TEST(AccelConfig, CloudPresetMatchesFigure7a)
{
    const AccelConfig cloud = cloud_accel();
    EXPECT_EQ(cloud.pe_rows, 256u);
    EXPECT_EQ(cloud.pe_cols, 256u);
    EXPECT_EQ(cloud.sg_bytes, 32 * kMiB);
    EXPECT_DOUBLE_EQ(cloud.onchip_bw, 8e12);
    EXPECT_DOUBLE_EQ(cloud.offchip_bw, 400e9);
    EXPECT_NO_THROW(cloud.validate());
}

TEST(AccelConfig, PresetByNameIsEdgeOrCloud)
{
    EXPECT_EQ(accel_preset("edge").canonical(), edge_accel().canonical());
    EXPECT_EQ(accel_preset("Cloud").canonical(),
              cloud_accel().canonical());
    EXPECT_THROW(accel_preset("edge-sg2"), Error);
}

TEST(AccelConfig, DerivedQuantities)
{
    const AccelConfig edge = edge_accel();
    EXPECT_EQ(edge.num_pes(), 1024u);
    EXPECT_DOUBLE_EQ(edge.peak_macs_per_sec(), 1024.0 * 1e9);
    EXPECT_DOUBLE_EQ(edge.macs_per_cycle(), 1024.0);
    EXPECT_DOUBLE_EQ(edge.cycle_time(), 1e-9);
    EXPECT_DOUBLE_EQ(edge.offchip_bytes_per_cycle(), 50.0);
    EXPECT_DOUBLE_EQ(edge.onchip_bytes_per_cycle(), 1000.0);
}

TEST(AccelConfig, ValidateRejectsZeroPes)
{
    AccelConfig cfg = edge_accel();
    cfg.pe_rows = 0;
    EXPECT_THROW(cfg.validate(), Error);
}

TEST(AccelConfig, ValidateRejectsOffchipFasterThanOnchip)
{
    AccelConfig cfg = edge_accel();
    cfg.offchip_bw = cfg.onchip_bw * 2;
    EXPECT_THROW(cfg.validate(), Error);
}

TEST(AccelConfig, ValidateRejectsOddElementWidth)
{
    AccelConfig cfg = edge_accel();
    cfg.bytes_per_element = 3;
    EXPECT_THROW(cfg.validate(), Error);
}

TEST(AccelConfig, NocModelsSpanArray)
{
    const AccelConfig cloud = cloud_accel();
    EXPECT_EQ(cloud.distribution_model().fill_latency(), 512u);
    EXPECT_EQ(cloud.reduction_model().drain_latency(), 256u);
}

TEST(AccelConfig, CloudOutscalesEdge)
{
    // Sanity of the two presets relative to each other.
    const AccelConfig edge = edge_accel();
    const AccelConfig cloud = cloud_accel();
    EXPECT_GT(cloud.num_pes(), edge.num_pes());
    EXPECT_GT(cloud.sg_bytes, edge.sg_bytes);
    EXPECT_GT(cloud.offchip_bw, edge.offchip_bw);
}

} // namespace
} // namespace flat
