/**
 * @file
 * Scale-out model contract: sharding arithmetic, D=1 bit-identity with
 * the single-device path, collective phases landing in the one
 * arbitration engine (trace totals == model cycles exactly), link-bound
 * attribution, and the fabric term in the energy ledger.
 */
#include "scaleout/scaleout_model.h"

#include <gtest/gtest.h>

#include "common/status.h"
#include "costmodel/trace.h"
#include "energy/energy_model.h"

namespace flat {
namespace {

const ExecutionStyle& kFlat = flat_execution_style();

AttentionDims
dims(std::uint64_t n)
{
    AttentionDims d;
    d.batch = 8;
    d.heads = 16;
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
    df.l2_logit = {128, 64, 128};
    df.l2_attend = {128, 128, 64};
    return df;
}

ScaleOutConfig
fabric(std::uint32_t devices, ShardAxis axis,
       LinkTopology topo = LinkTopology::kRing)
{
    ScaleOutConfig f;
    f.devices = devices;
    f.axis = axis;
    f.topology = topo;
    f.link_bw = 300e9;
    f.link_latency_s = 700e-9;
    return f;
}

TEST(ShardDims, BatchAndHeadCeilSplit)
{
    const AttentionDims d = dims(1024);
    const AttentionDims b3 =
        shard_attention_dims(d, ShardAxis::kBatch, 3);
    EXPECT_EQ(b3.batch, 3u); // ceil(8/3)
    EXPECT_EQ(b3.heads, d.heads);

    const AttentionDims h4 = shard_attention_dims(d, ShardAxis::kHead, 4);
    EXPECT_EQ(h4.heads, 4u);
    EXPECT_EQ(h4.batch, d.batch);
}

TEST(ShardDims, SequenceShardsQueriesKeepsKv)
{
    const AttentionDims s4 =
        shard_attention_dims(dims(1024), ShardAxis::kSequence, 4);
    EXPECT_EQ(s4.q_len, 256u);
    EXPECT_EQ(s4.kv_len, 1024u);
}

TEST(ShardDims, InfeasibleSplitsThrow)
{
    EXPECT_THROW(shard_attention_dims(dims(64), ShardAxis::kBatch, 16),
                 Error);
    EXPECT_THROW(shard_attention_dims(dims(64), ShardAxis::kHead, 32),
                 Error);
    EXPECT_THROW(
        shard_attention_dims(dims(8), ShardAxis::kSequence, 16), Error);
    EXPECT_THROW(shard_attention_dims(dims(64), ShardAxis::kAuto, 2),
                 Error);
}

TEST(ScaleOutModel, SingleDeviceIsBitIdentical)
{
    const AttentionDims d = dims(2048);
    const FusedDataflow df = flat_r(64);
    const AccelConfig accel = edge_accel();

    const ScaleOutCost so =
        model_scaleout_attention(accel, d, df, fabric(1, ShardAxis::kAuto));
    const TimelineResult single = attention_timeline(kFlat, accel, d, df);

    EXPECT_EQ(so.cycles, single.cycles); // bitwise, not approximate
    EXPECT_EQ(so.timeline.phases.size(), single.phases.size());
    EXPECT_EQ(so.collective_phases, 0u);
    EXPECT_EQ(so.link_bytes_per_device, 0.0);
    EXPECT_EQ(so.timeline.activity.traffic.total_link(), 0.0);
    EXPECT_EQ(so.exposed_collective_cycles, 0.0);
}

TEST(ScaleOutModel, BatchShardingEmitsNoCollectives)
{
    const ScaleOutCost so = model_scaleout_attention(
        edge_accel(), dims(1024), flat_r(64),
        fabric(4, ShardAxis::kBatch));
    EXPECT_EQ(so.collective_phases, 0u);
    EXPECT_EQ(so.link_bytes_per_device, 0.0);
    EXPECT_EQ(so.device_dims.batch, 2u);
    EXPECT_GT(so.cycles, 0.0);
}

TEST(ScaleOutModel, HeadShardingGathersOutputInEpilogue)
{
    const AttentionDims d = dims(1024);
    const ScaleOutCost so = model_scaleout_attention(
        edge_accel(), d, flat_r(64), fabric(4, ShardAxis::kHead));
    EXPECT_EQ(so.collective_phases, 1u);
    EXPECT_GT(so.exposed_collective_cycles, 0.0);
    EXPECT_GT(so.link_bytes_per_device, 0.0);

    // The epilogue group is collective-only and comes last.
    const GroupTiming& last = so.timeline.groups.back();
    ASSERT_EQ(last.phase_indices.size(), 1u);
    EXPECT_EQ(so.timeline.phases[last.phase_indices[0]].stage,
              StageTag::kCollective);
    EXPECT_EQ(last.bound_by, BoundBy::kLink);
}

TEST(ScaleOutModel, SequenceShardingGathersKvAndRescales)
{
    const ScaleOutCost so = model_scaleout_attention(
        edge_accel(), dims(1024), flat_r(64),
        fabric(4, ShardAxis::kSequence));
    ASSERT_EQ(so.collective_phases, 2u);

    // The KV gather shares the steady group with compute; only the
    // tiny stat rescale is exposed.
    EXPECT_GT(so.overlapped_link_cycles, 0.0);
    EXPECT_GT(so.exposed_collective_cycles, 0.0);
    EXPECT_LT(so.exposed_collective_cycles, so.cycles);
}

TEST(ScaleOutModel, TraceTotalsEqualModelCycles)
{
    for (const ShardAxis axis :
         {ShardAxis::kBatch, ShardAxis::kHead, ShardAxis::kSequence}) {
        const ScaleOutCost so = model_scaleout_attention(
            edge_accel(), dims(1024), flat_r(64), fabric(4, axis));
        const ExecutionTrace trace = trace_from_timeline(
            so.timeline, "scaleout-flat", "df", 1.0);
        EXPECT_EQ(trace.total_cycles, so.cycles)
            << "axis " << to_string(axis);
        if (axis == ShardAxis::kSequence) {
            std::size_t collectives = 0;
            for (const TracePhase& phase : trace.phases) {
                if (phase.stage == "collective") {
                    ++collectives;
                }
            }
            EXPECT_EQ(collectives, 2u);
        }
    }
}

TEST(ScaleOutModel, StarvedLinkBecomesTheBound)
{
    ScaleOutConfig f = fabric(8, ShardAxis::kSequence);
    f.link_bw = 1e9; // 1 GB/s: the fabric cannot keep up
    const ScaleOutCost so = model_scaleout_attention(
        edge_accel(), dims(2048), flat_r(64), f);
    EXPECT_EQ(so.timeline.bound_by, BoundBy::kLink);
    EXPECT_GT(so.overlapped_link_cycles, 0.0);
}

TEST(ScaleOutModel, FasterLinkNeverSlower)
{
    ScaleOutConfig slow = fabric(4, ShardAxis::kSequence);
    slow.link_bw = 10e9;
    ScaleOutConfig fast = slow;
    fast.link_bw = 600e9;
    const AttentionDims d = dims(2048);
    const ScaleOutCost c_slow =
        model_scaleout_attention(edge_accel(), d, flat_r(64), slow);
    const ScaleOutCost c_fast =
        model_scaleout_attention(edge_accel(), d, flat_r(64), fast);
    EXPECT_LE(c_fast.cycles, c_slow.cycles);
}

TEST(ScaleOutModel, LinkTrafficWithoutBandwidthThrows)
{
    // Emitting collective phases but evaluating without a link BW is a
    // configuration error, not silent free communication.
    ScaleOutConfig f = fabric(4, ShardAxis::kHead);
    const AccelConfig accel = edge_accel();
    Phase phase = collective_phase("gather", 9,
                                   CollectiveKind::kAllGather, f, accel,
                                   1e6);
    EXPECT_THROW(evaluate_timeline({phase}, accel), Error);
}

TEST(ScaleOutModel, LinkTrafficLandsInEnergyLedger)
{
    const ScaleOutCost so = model_scaleout_attention(
        edge_accel(), dims(1024), flat_r(64),
        fabric(4, ShardAxis::kSequence));
    const EnergyTable table = EnergyTable::for_accel(edge_accel());
    const EnergyBreakdown energy =
        estimate_energy(table, so.timeline.activity);
    EXPECT_GT(energy.link_j, 0.0);
    EXPECT_DOUBLE_EQ(energy.link_j,
                     so.link_bytes_per_device * table.link_pj_per_byte *
                         1e-12);
    EXPECT_GT(energy.total(), energy.link_j);
}

TEST(ScaleOutModel, AutoAxisRejectedAtModelLevel)
{
    EXPECT_THROW(model_scaleout_attention(edge_accel(), dims(1024),
                                          flat_r(64),
                                          fabric(4, ShardAxis::kAuto)),
                 Error);
}

} // namespace
} // namespace flat
