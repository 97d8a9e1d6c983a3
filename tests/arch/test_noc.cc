#include "arch/noc.h"

#include <gtest/gtest.h>

#include "common/status.h"

namespace flat {
namespace {

TEST(Noc, SystolicFillIsWavefrontSkew)
{
    const NocModel noc(NocKind::kSystolic, 32, 32);
    EXPECT_EQ(noc.fill_latency(), 64u);
    EXPECT_EQ(noc.drain_latency(), 32u);
}

TEST(Noc, TreeFillIsLogDepth)
{
    const NocModel noc(NocKind::kTree, 32, 32);
    EXPECT_EQ(noc.fill_latency(), 5u + 5u + 1u);
    // 1024 leaves -> depth 10 (+1 pipeline stage).
    EXPECT_EQ(noc.drain_latency(), 11u);
}

TEST(Noc, CrossbarIsConstant)
{
    const NocModel noc(NocKind::kCrossbar, 256, 256);
    EXPECT_EQ(noc.fill_latency(), 2u);
    EXPECT_EQ(noc.drain_latency(), 2u);
}

TEST(Noc, LargerArrayLargerSystolicSkew)
{
    const NocModel small(NocKind::kSystolic, 32, 32);
    const NocModel big(NocKind::kSystolic, 256, 256);
    EXPECT_GT(big.fill_latency(), small.fill_latency());
}

TEST(Noc, RejectsEmptyArray)
{
    EXPECT_THROW(NocModel(NocKind::kSystolic, 0, 32), Error);
    EXPECT_THROW(NocModel(NocKind::kTree, 32, 0), Error);
}

TEST(Noc, ToString)
{
    EXPECT_EQ(to_string(NocKind::kSystolic), "systolic");
    EXPECT_EQ(to_string(NocKind::kTree), "tree");
    EXPECT_EQ(to_string(NocKind::kCrossbar), "crossbar");
}

} // namespace
} // namespace flat
