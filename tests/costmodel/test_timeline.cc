/**
 * @file
 * Property tests of the phase-timeline evaluator: the one arbitration
 * engine behind every execution style. The invariants here hold for
 * arbitrary phase lists, not just the ones the attention emitters
 * produce.
 */
#include "costmodel/timeline.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "costmodel/attention_cost.h"

namespace flat {
namespace {

const ExecutionStyle& kBaseline = baseline_execution_style();
const ExecutionStyle& kFlat = flat_execution_style();
const ExecutionStyle& kPipelined = pipelined_execution_style();

AttentionDims
dims(std::uint64_t n)
{
    AttentionDims d;
    d.batch = 8;
    d.heads = 8;
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

Phase
make_phase(const char* label, int group, double compute,
           double dram_read, double sg_read, bool pace_only = false)
{
    Phase p;
    p.label = label;
    p.group = group;
    p.compute_cycles = compute;
    p.activity.macs = compute;
    p.activity.traffic.dram_read = dram_read;
    p.activity.traffic.sg_read = sg_read;
    p.pace_only = pace_only;
    return p;
}

/** Synthetic four-phase timeline with mixed compute and traffic. */
std::vector<Phase>
synthetic_phases(int group_a, int group_b)
{
    return {make_phase("load", group_a, 0.0, 3e6, 1e6),
            make_phase("gemm", group_a, 5e5, 0.0, 4e6),
            make_phase("reduce", group_b, 2e5, 0.0, 2e6),
            make_phase("store", group_b, 0.0, 1e6, 1e6)};
}

// -------------------------------------------------------------------
// Property 1: a group can never be faster than its compute occupancy —
// the paced latency is at least the serial compute lower bound, under
// either overlap policy, for synthetic and for real emitted timelines.

TEST(Timeline, GroupLatencyAtLeastComputeLane)
{
    const AccelConfig accel = edge_accel();
    for (const OverlapKind overlap :
         {OverlapKind::kOverlapped, OverlapKind::kSerialTransfers}) {
        const TimelineResult r =
            evaluate_timeline(synthetic_phases(0, 1), accel, overlap);
        ASSERT_EQ(r.groups.size(), 2u);
        double compute_sum = 0.0;
        for (const GroupTiming& g : r.groups) {
            EXPECT_GE(g.latency, g.lanes.compute);
            compute_sum += g.lanes.compute;
        }
        EXPECT_GE(r.cycles, compute_sum);
    }
}

TEST(Timeline, PacedPhaseSumCoversComputeLowerBound)
{
    const AccelConfig accel = edge_accel();
    const AttentionDims d = dims(4096);
    // Head granularity: the one cross-loop every style can execute.
    FusedDataflow df = flat_r(64);
    df.cross = {Granularity::kHead, 0};
    for (const TimelineResult& r :
         {attention_timeline(kFlat, accel, d, df),
          attention_timeline(kBaseline, accel, d, df,
                                      BaselineOverlap::kFull),
          attention_timeline(kBaseline, accel, d, df,
                                      BaselineOverlap::kSerialized),
          attention_timeline(kPipelined, accel, d, df)}) {
        double paced_sum = 0.0;
        double occupancy_max = 0.0;
        for (std::size_t i = 0; i < r.phases.size(); ++i) {
            const PhaseTiming& t = r.phase_timings[i];
            // A phase alone is never faster than its own occupancy.
            EXPECT_GE(t.paced_cycles, t.occupancy_cycles);
            if (!r.phases[i].pace_only) {
                paced_sum += t.paced_cycles;
                occupancy_max =
                    std::max(occupancy_max, t.occupancy_cycles);
            }
        }
        // The fully-serialized sum of phases dominates the arbitrated
        // total, which in turn covers the slowest single phase.
        EXPECT_GE(paced_sum + r.cold_start_cycles, r.cycles);
        EXPECT_GE(r.cycles, occupancy_max);
    }
}

// -------------------------------------------------------------------
// Property 2: bound_by attribution responds to the hardware — an
// off-chip-bound timeline flips to compute-bound as DRAM bandwidth
// grows, and cycles shrink monotonically along the way.

TEST(Timeline, BoundByFlipsOffchipToComputeWithBandwidth)
{
    AccelConfig accel = edge_accel();
    const AttentionDims d = dims(32768);
    const FusedDataflow df = flat_r(32);

    const TimelineResult starved = attention_timeline(kFlat, accel, d, df);
    EXPECT_EQ(starved.bound_by, BoundBy::kOffchip);

    double prev_cycles = starved.cycles;
    bool flipped = false;
    for (const double scale : {4.0, 16.0, 64.0, 256.0}) {
        AccelConfig fat = edge_accel();
        // Off-chip BW may not exceed on-chip BW, so widen both.
        fat.offchip_bw *= scale;
        fat.onchip_bw *= scale;
        const TimelineResult r = attention_timeline(kFlat, fat, d, df);
        EXPECT_LE(r.cycles, prev_cycles);
        prev_cycles = r.cycles;
        flipped = flipped || r.bound_by == BoundBy::kCompute;
    }
    EXPECT_TRUE(flipped) << "never became compute-bound";

    // Once compute-bound, more bandwidth changes nothing.
    AccelConfig huge = edge_accel();
    huge.offchip_bw *= 1024.0;
    huge.onchip_bw *= 1024.0;
    const TimelineResult capped = attention_timeline(kFlat, huge, d, df);
    EXPECT_EQ(capped.bound_by, BoundBy::kCompute);
}

// -------------------------------------------------------------------
// Property 3: the activity ledger never double-counts a byte — it is
// invariant to how phases are grouped, and pace-only phases pace the
// clock without adding to the ledger.

TEST(Timeline, LedgerInvariantToGrouping)
{
    const AccelConfig accel = edge_accel();
    const TimelineResult fused =
        evaluate_timeline(synthetic_phases(0, 0), accel);
    const TimelineResult split =
        evaluate_timeline(synthetic_phases(0, 1), accel);

    EXPECT_DOUBLE_EQ(fused.activity.macs, split.activity.macs);
    EXPECT_DOUBLE_EQ(fused.activity.traffic.dram_read,
                     split.activity.traffic.dram_read);
    EXPECT_DOUBLE_EQ(fused.activity.traffic.dram_write,
                     split.activity.traffic.dram_write);
    EXPECT_DOUBLE_EQ(fused.activity.traffic.sg_read,
                     split.activity.traffic.sg_read);
    EXPECT_DOUBLE_EQ(fused.activity.traffic.sg_write,
                     split.activity.traffic.sg_write);

    // Overlapping more can only help latency, never the ledger.
    EXPECT_LE(fused.cycles, split.cycles);
}

TEST(Timeline, PaceOnlyPhasesExcludedFromLedger)
{
    const AccelConfig accel = edge_accel();
    std::vector<Phase> phases = synthetic_phases(1, 2);
    const TimelineResult without =
        evaluate_timeline(phases, accel);

    phases.insert(phases.begin(),
                  make_phase("cold start", 0, 0.0, 5e6, 0.0,
                             /*pace_only=*/true));
    const TimelineResult with_cold =
        evaluate_timeline(phases, accel);

    EXPECT_GT(with_cold.cold_start_cycles, 0.0);
    EXPECT_GT(with_cold.cycles, without.cycles);
    EXPECT_DOUBLE_EQ(with_cold.cycles,
                     without.cycles + with_cold.cold_start_cycles);
    // Same bytes, same MACs: the warm-up window is pacing, not work.
    EXPECT_DOUBLE_EQ(with_cold.activity.traffic.dram_read,
                     without.activity.traffic.dram_read);
    EXPECT_DOUBLE_EQ(with_cold.activity.macs, without.activity.macs);
}

TEST(Timeline, EmittedLedgersMatchModelActivity)
{
    const AccelConfig accel = edge_accel();
    const AttentionDims d = dims(2048);
    const FusedDataflow df = flat_r(64);

    const TimelineResult tl = attention_timeline(kFlat, accel, d, df);
    const OperatorCost cost = model_attention(kFlat, accel, d, df);
    EXPECT_DOUBLE_EQ(tl.cycles, cost.cycles);
    EXPECT_DOUBLE_EQ(tl.activity.macs, cost.activity.macs);
    EXPECT_DOUBLE_EQ(tl.activity.sfu_elems, cost.activity.sfu_elems);
    EXPECT_DOUBLE_EQ(tl.activity.traffic.total_dram(),
                     cost.activity.traffic.total_dram());
    EXPECT_DOUBLE_EQ(tl.activity.traffic.total_sg(),
                     cost.activity.traffic.total_sg());
}

// -------------------------------------------------------------------
// Arbitration-policy ordering and attribution details.

TEST(Timeline, SerializedTransfersNeverFasterThanOverlapped)
{
    const AccelConfig accel = edge_accel();
    const std::vector<Phase> phases = synthetic_phases(0, 1);
    const TimelineResult overlapped = evaluate_timeline(
        phases, accel, OverlapKind::kOverlapped);
    const TimelineResult serialized = evaluate_timeline(
        phases, accel, OverlapKind::kSerialTransfers);
    EXPECT_GE(serialized.cycles, overlapped.cycles);
}

TEST(Timeline, ConcurrentTracksTakeTheSlowerTrack)
{
    const AccelConfig accel = edge_accel();
    Phase left = make_phase("L half", 0, 4e5, 0.0, 0.0);
    left.track = 0;
    Phase right = make_phase("A half", 0, 3e5, 0.0, 0.0);
    right.track = 1;
    Phase serial = make_phase("softmax", 0, 1e5, 0.0, 0.0);

    const TimelineResult r =
        evaluate_timeline({left, right, serial}, accel);
    ASSERT_EQ(r.groups.size(), 1u);
    // serial + max(track0, track1), not the sum of all three.
    EXPECT_DOUBLE_EQ(r.groups[0].lanes.compute, 1e5 + 4e5);
    EXPECT_EQ(r.bound_by, BoundBy::kCompute);
}

TEST(Timeline, TieBreaksTowardCompute)
{
    AccelConfig accel = edge_accel();
    Phase p = make_phase("tied", 0, 1000.0, 0.0, 0.0);
    // Make the off-chip lane exactly equal to the compute lane.
    p.activity.traffic.dram_read =
        1000.0 * accel.offchip_bytes_per_cycle();
    const TimelineResult r = evaluate_timeline({p}, accel);
    EXPECT_DOUBLE_EQ(r.groups[0].lanes.compute, r.groups[0].lanes.offchip);
    EXPECT_EQ(r.bound_by, BoundBy::kCompute);
}

} // namespace
} // namespace flat
