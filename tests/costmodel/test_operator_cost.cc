#include "costmodel/operator_cost.h"

#include <gtest/gtest.h>

#include "common/status.h"
#include "common/units.h"
#include "costmodel/attention_plan.h"
#include "workload/attention.h"
#include "workload/model_config.h"

namespace flat {
namespace {

Operator
projection_op()
{
    const Workload w = make_workload(bert_base(), 64, 512);
    return w.ops[0]; // Q
}

OperatorDataflow
default_dataflow()
{
    OperatorDataflow df;
    df.l2 = {128, 128, 128};
    df.order = LoopOrder::kMNK;
    df.stationarity = Stationarity::kOutputStationary;
    df.cross = {Granularity::kMulti, 0};
    return df;
}

TEST(OperatorCost, UtilIsAtMostOne)
{
    const AccelConfig edge = edge_accel();
    const OperatorCost cost =
        model_gemm_operator(edge, projection_op(), default_dataflow());
    EXPECT_GT(cost.util(), 0.0);
    EXPECT_LE(cost.util(), 1.0);
}

TEST(OperatorCost, ProjectionIsComputeBoundAtBatch64)
{
    // §2.2: batched activation-weight operators have high intensity.
    const AccelConfig edge = edge_accel();
    const OperatorCost cost =
        model_gemm_operator(edge, projection_op(), default_dataflow());
    EXPECT_GT(cost.util(), 0.7);
}

TEST(OperatorCost, MoreBandwidthNeverHurts)
{
    AccelConfig accel = edge_accel();
    const Operator op = projection_op();
    const OperatorDataflow df = default_dataflow();
    const double slow = model_gemm_operator(accel, op, df).cycles;
    accel.offchip_bw *= 8;
    const double fast = model_gemm_operator(accel, op, df).cycles;
    EXPECT_LE(fast, slow);
}

TEST(OperatorCost, StagingWeightCutsDramTraffic)
{
    const AccelConfig edge = edge_accel();
    const Operator op = projection_op();
    OperatorDataflow streaming = default_dataflow();
    streaming.order = LoopOrder::kNMK; // weight refetched per m tile

    OperatorDataflow staged = streaming;
    staged.l3.b = true;

    const OperatorCost unstaged_cost =
        model_gemm_operator(edge, op, streaming);
    const OperatorCost staged_cost =
        model_gemm_operator(edge, op, staged);
    EXPECT_LT(staged_cost.activity.traffic.dram_read,
              unstaged_cost.activity.traffic.dram_read);
}

TEST(OperatorCost, SpillPenaltyWhenFootprintExceedsSg)
{
    // Staging a tensor that cannot fit must cost MORE traffic than not
    // staging it at all (the Base-M < Base effect of §6.2.1).
    AccelConfig accel = edge_accel();
    accel.sg_bytes = 64 * kKiB;

    const Workload w = make_workload(bert_base(), 64, 4096);
    const Operator& logit = w.logit_op();

    OperatorDataflow plain = default_dataflow();
    plain.l2 = {64, 64, 64};
    OperatorDataflow staged = plain;
    staged.l3 = {true, true, true};

    const OperatorCost plain_cost =
        model_gemm_operator(accel, logit, plain);
    const OperatorCost staged_cost =
        model_gemm_operator(accel, logit, staged);
    EXPECT_LT(staged_cost.resident_fraction, 0.05);
    EXPECT_GT(staged_cost.activity.traffic.total_dram(),
              plain_cost.activity.traffic.total_dram());
}

TEST(OperatorCost, SplitFetchesBlendsWithResidency)
{
    // The operator model's fetch events per tensor: split_fetches()
    // without an SG2 level.
    const auto dram = [](bool staged, double rho, double unstaged) {
        return split_fetches(staged, rho, 0.0, unstaged).dram;
    };
    EXPECT_DOUBLE_EQ(dram(false, 1.0, 7.0), 7.0);
    EXPECT_DOUBLE_EQ(dram(true, 1.0, 7.0), 1.0);
    // Fully spilled staging costs one extra pass.
    EXPECT_DOUBLE_EQ(dram(true, 0.0, 7.0), 8.0);
    // Half resident: average of the two regimes.
    EXPECT_DOUBLE_EQ(dram(true, 0.5, 7.0), 0.5 + 4.0);
}

TEST(OperatorCost, DramTrafficAtLeastCompulsory)
{
    const AccelConfig edge = edge_accel();
    const Operator op = projection_op();
    const OperatorCost cost =
        model_gemm_operator(edge, op, default_dataflow());
    const double compulsory =
        static_cast<double>(op.gemm.a_elems_total() +
                            op.gemm.b_elems_total()) *
        2.0;
    EXPECT_GE(cost.activity.traffic.dram_read, compulsory - 1.0);
    EXPECT_GE(cost.activity.traffic.dram_write,
              static_cast<double>(op.gemm.c_elems_total()) * 2.0 - 1.0);
}

TEST(OperatorCost, RejectsSoftmaxNode)
{
    const Workload w = make_workload(bert_base(), 1, 128);
    EXPECT_THROW(model_gemm_operator(edge_accel(), w.softmax_op(),
                                     default_dataflow()),
                 Error);
}

} // namespace
} // namespace flat
