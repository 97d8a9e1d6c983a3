/**
 * @file
 * Bit-identity contract of the SoA batch evaluators: a TimelineBatch
 * lane must reproduce evaluate_timeline_into()'s summary bit for bit
 * for the same phase values, and an AttentionBatchEvaluator lane must
 * reproduce model_attention() bit for bit — across the golden-catalog
 * accelerator presets, execution styles, overlap policies and batch
 * widths. Every EXPECT_EQ on a double below is an exact bit comparison
 * on purpose: the batched hot path is only admissible in the DSE
 * because it changes nothing.
 */
#include "costmodel/timeline.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/catalog.h"
#include "costmodel/attention_cost.h"
#include "costmodel/gemm_engine.h"
#include "dataflow/granularity.h"

namespace flat {
namespace {

const ExecutionStyle& kBaseline = baseline_execution_style();
const ExecutionStyle& kFlat = flat_execution_style();
const ExecutionStyle& kPipelined = pipelined_execution_style();

void
expect_same_summary(const TimelineBatch::LaneSummary& lane,
                    const TimelineResult& scalar, const char* what)
{
    EXPECT_EQ(lane.cycles, scalar.cycles) << what;
    EXPECT_EQ(lane.cold_start_cycles, scalar.cold_start_cycles)
        << what;
    EXPECT_EQ(lane.bound_by, scalar.bound_by) << what;
    EXPECT_EQ(lane.activity.macs, scalar.activity.macs) << what;
    EXPECT_EQ(lane.activity.sl_accesses, scalar.activity.sl_accesses)
        << what;
    EXPECT_EQ(lane.activity.sfu_elems, scalar.activity.sfu_elems)
        << what;
    const TrafficBytes& a = lane.activity.traffic;
    const TrafficBytes& b = scalar.activity.traffic;
    EXPECT_EQ(a.dram_read, b.dram_read) << what;
    EXPECT_EQ(a.dram_write, b.dram_write) << what;
    EXPECT_EQ(a.sg_read, b.sg_read) << what;
    EXPECT_EQ(a.sg_write, b.sg_write) << what;
    EXPECT_EQ(a.sg2_read, b.sg2_read) << what;
    EXPECT_EQ(a.sg2_write, b.sg2_write) << what;
    EXPECT_EQ(a.link_in, b.link_in) << what;
    EXPECT_EQ(a.link_out, b.link_out) << what;
}

/** Scalar reference: the summary-only path the DSE used before. */
TimelineResult
scalar_summary(const std::vector<Phase>& phases,
               const AccelConfig& accel, OverlapKind overlap)
{
    TimelineScratch scratch;
    scratch.phases = phases;
    scratch.summary_only = true;
    evaluate_timeline_into(scratch, accel, overlap);
    return scratch.result;
}

/** Loads @p phases' values into lane @p lane of @p batch. */
void
load_lane(TimelineBatch& batch, std::size_t lane,
          const std::vector<Phase>& phases)
{
    ASSERT_EQ(batch.add_lane(), lane);
    for (std::size_t p = 0; p < phases.size(); ++p) {
        batch.set_phase(lane, p, phases[p].compute_cycles,
                        phases[p].sfu_cycles,
                        phases[p].link_latency_cycles,
                        phases[p].activity);
    }
}

/** @p phases with every value scaled by @p factor (same structure). */
std::vector<Phase>
scaled(std::vector<Phase> phases, double factor)
{
    for (Phase& p : phases) {
        p.compute_cycles *= factor;
        p.sfu_cycles *= factor;
        p.activity.macs *= factor;
        p.activity.sfu_elems *= factor;
        p.activity.traffic.dram_read *= factor;
        p.activity.traffic.dram_write *= factor;
        p.activity.traffic.sg_read *= factor;
        p.activity.traffic.sg_write *= factor;
    }
    return phases;
}

/**
 * Checks every lane of a batch filled with per-lane scaled variants of
 * @p phases against per-lane scalar evaluations.
 */
void
check_parity(const std::vector<Phase>& phases,
             const AccelConfig& accel, OverlapKind overlap,
             std::size_t lanes, const char* what)
{
    TimelineBatch batch;
    batch.configure(phases, overlap, lanes);
    EXPECT_EQ(batch.phase_count(), phases.size());
    std::vector<std::vector<Phase>> variants;
    for (std::size_t l = 0; l < lanes; ++l) {
        variants.push_back(
            scaled(phases, 1.0 + 0.375 * static_cast<double>(l)));
        load_lane(batch, l, variants.back());
    }
    batch.evaluate(accel);
    for (std::size_t l = 0; l < lanes; ++l) {
        SCOPED_TRACE(l);
        expect_same_summary(batch.summary(l),
                            scalar_summary(variants[l], accel,
                                           overlap),
                            what);
    }
}

Phase
make_phase(int group, int track, double compute, double sfu,
           double dram_read, double sg_read, bool pace_only = false)
{
    Phase p;
    p.group = group;
    p.track = track;
    p.compute_cycles = compute;
    p.sfu_cycles = sfu;
    p.activity.macs = compute;
    p.activity.sfu_elems = sfu;
    p.activity.traffic.dram_read = dram_read;
    p.activity.traffic.sg_read = sg_read;
    p.pace_only = pace_only;
    return p;
}

TEST(TimelineBatch, MatchesScalarOnSyntheticStructures)
{
    const AccelConfig accel = edge_accel();
    // Serial members, concurrent tracks, a pace-only cold-start group
    // and a trailing mixed group — every structural feature at once.
    const std::vector<Phase> phases = {
        make_phase(0, -1, 0.0, 0.0, 3e6, 0.0, /*pace_only=*/true),
        make_phase(1, -1, 5e5, 0.0, 2e6, 4e6),
        make_phase(1, -1, 0.0, 3e5, 0.0, 2e6),
        make_phase(2, 0, 4e5, 0.0, 0.0, 3e6),
        make_phase(2, 1, 2e5, 1e5, 1e6, 1e6),
        make_phase(2, -1, 1e5, 0.0, 0.0, 0.0),
        make_phase(3, -1, 0.0, 0.0, 5e5, 5e5),
    };
    for (const OverlapKind overlap :
         {OverlapKind::kOverlapped, OverlapKind::kSerialTransfers}) {
        SCOPED_TRACE(static_cast<int>(overlap));
        check_parity(phases, accel, overlap, 5, "synthetic");
    }
}

TEST(TimelineBatch, ReconfigureAcrossStructuresStaysExact)
{
    const AccelConfig accel = edge_accel();
    const std::vector<Phase> wide = {
        make_phase(0, -1, 1e5, 0.0, 1e6, 1e6),
        make_phase(1, -1, 2e5, 1e4, 0.0, 2e6),
        make_phase(2, -1, 3e5, 0.0, 2e6, 0.0),
    };
    const std::vector<Phase> narrow = {
        make_phase(0, -1, 7e5, 2e4, 3e6, 1e6),
    };
    // Shrinking then regrowing the structure must reuse the retired
    // group entries without leaking stale members into the result.
    check_parity(wide, accel, OverlapKind::kOverlapped, 3, "wide");
    check_parity(narrow, accel, OverlapKind::kOverlapped, 2, "narrow");
    check_parity(wide, accel, OverlapKind::kSerialTransfers, 4,
                 "wide again");
}

AttentionDims
attention(std::uint64_t batch, std::uint64_t q, std::uint64_t kv)
{
    AttentionDims d;
    d.batch = batch;
    d.heads = 8;
    d.q_len = q;
    d.kv_len = kv;
    d.head_dim = 64;
    return d;
}

TEST(TimelineBatch, MatchesScalarOnEmittedAttentionTimelines)
{
    const AttentionDims dims = attention(8, 1024, 1024);
    FusedDataflow flat_df;
    flat_df.cross = {Granularity::kRow, 64};
    flat_df.l2_logit = {128, 64, 128};
    flat_df.l2_attend = {128, 128, 64};
    FusedDataflow base_df;
    base_df.cross = {Granularity::kMulti, 0};
    base_df.l2_logit = {128, 64, 128};
    base_df.l2_attend = {128, 128, 64};
    base_df.stage = FusedStageFlags{};

    for (const AccelConfig& accel : {edge_accel(), cloud_accel()}) {
        SCOPED_TRACE(accel.name);
        const AttentionPhases flat_p =
            attention_phases(kFlat, accel, dims, flat_df);
        check_parity(flat_p.phases, accel, flat_p.overlap, 4, "flat");

        for (const BaselineOverlap overlap :
             {BaselineOverlap::kFull, BaselineOverlap::kSerialized}) {
            const AttentionPhases base_p = attention_phases(
                kBaseline, accel, dims, base_df, overlap);
            check_parity(base_p.phases, accel, base_p.overlap, 3,
                         "baseline");
        }

        const AttentionPhases pipe_p =
            attention_phases(kPipelined, accel, dims, flat_df);
        check_parity(pipe_p.phases, accel, pipe_p.overlap, 2,
                     "pipelined");
    }
}

// -------------------------------------------------------------------
// AttentionBatchEvaluator: whole-model parity against the plain
// entry points, lane by lane.

void
expect_same_cost(const OperatorCost& got, const OperatorCost& want,
                 const char* what)
{
    EXPECT_EQ(got.cycles, want.cycles) << what;
    EXPECT_EQ(got.ideal_cycles, want.ideal_cycles) << what;
    EXPECT_EQ(got.live_footprint_bytes, want.live_footprint_bytes)
        << what;
    EXPECT_EQ(got.resident_fraction, want.resident_fraction) << what;
    EXPECT_EQ(got.activity.macs, want.activity.macs) << what;
    EXPECT_EQ(got.activity.traffic.dram_read,
              want.activity.traffic.dram_read)
        << what;
    EXPECT_EQ(got.activity.traffic.sg_read,
              want.activity.traffic.sg_read)
        << what;
}

/** The lane's GEMM cost records under the PlannedGemmCosts contract. */
GemmSliceCost
slice_cost(const AccelConfig& accel, const GemmShape& shape,
           const L2Tile& tile, LoopOrder order,
           Stationarity stationarity)
{
    return {model_gemm_compute(accel, shape, tile, order, stationarity),
            stage_reuse(shape, tile, order)};
}

/**
 * Evaluates every (order_logit, order_attend) lane of @p base through
 * the batch evaluator at @p width lanes per flush and checks each
 * against the scalar model.
 */
void
check_evaluator_parity(const AccelConfig& accel,
                       const AttentionDims& dims,
                       const FusedDataflow& base,
                       const ExecutionStyle& style,
                       BaselineOverlap overlap, std::size_t width,
                       const char* what)
{
    const CrossLoopExtent extent = cross_loop_extent(
        base.cross, dims.batch, dims.heads, dims.q_len);
    GemmShape logit_shape;
    logit_shape.m = extent.rows_per_pass;
    logit_shape.k = dims.head_dim;
    logit_shape.n = dims.kv_len;
    GemmShape attend_shape;
    attend_shape.m = extent.rows_per_pass;
    attend_shape.k = dims.kv_len;
    attend_shape.n = dims.head_dim;

    const std::vector<LoopOrder> orders = {
        LoopOrder::kMKN, LoopOrder::kNKM, LoopOrder::kKMN};

    AttentionEvalScratch scratch;
    AttentionBatchEvaluator batch;
    batch.begin(accel, dims, base, style, overlap, width, scratch);

    std::vector<FusedDataflow> lane_df;
    const auto flush_and_check = [&]() {
        batch.evaluate();
        for (std::size_t i = 0; i < batch.lanes(); ++i) {
            SCOPED_TRACE(lane_df[i].tag());
            const OperatorCost scalar =
                model_attention(style, accel, dims, lane_df[i], overlap);
            EXPECT_EQ(batch.cycles(i), scalar.cycles) << what;
            EXPECT_EQ(batch.activity(i).traffic.dram_read,
                      scalar.activity.traffic.dram_read)
                << what;
            expect_same_cost(batch.cost(i), scalar, what);
        }
        batch.clear_lanes();
        lane_df.clear();
    };

    for (const LoopOrder ol : orders) {
        for (const LoopOrder oa : orders) {
            FusedDataflow df = base;
            df.order_logit = ol;
            df.order_attend = oa;
            batch.add(slice_cost(accel, logit_shape, base.l2_logit, ol,
                                 base.stat_logit),
                      slice_cost(accel, attend_shape, base.l2_attend,
                                 oa, base.stat_attend));
            lane_df.push_back(df);
            if (batch.full()) {
                flush_and_check();
            }
        }
    }
    flush_and_check();
}

TEST(AttentionBatchEvaluator, MatchesScalarModelAcrossCatalogStyles)
{
    const AttentionDims self = attention(8, 1024, 1024);
    const AttentionDims cross = attention(4, 512, 2048);

    FusedDataflow flat_df;
    flat_df.cross = {Granularity::kRow, 64};
    flat_df.l2_logit = {128, 64, 128};
    flat_df.l2_attend = {128, 128, 64};

    FusedDataflow base_df = flat_df;
    base_df.cross = {Granularity::kHead, 0};
    base_df.stage = FusedStageFlags{};

    for (const AccelConfig& accel : {edge_accel(), cloud_accel()}) {
        SCOPED_TRACE(accel.name);
        for (const AttentionDims& dims : {self, cross}) {
            check_evaluator_parity(accel, dims, flat_df, kFlat,
                                   BaselineOverlap::kFull, 9, "flat");
            check_evaluator_parity(accel, dims, base_df, kBaseline,
                                   BaselineOverlap::kFull, 9,
                                   "baseline full");
            check_evaluator_parity(accel, dims, base_df, kBaseline,
                                   BaselineOverlap::kSerialized, 9,
                                   "baseline serialized");
        }
    }
}

TEST(AttentionBatchEvaluator, WidthOneAndPartialFlushesStayExact)
{
    const AttentionDims dims = attention(8, 2048, 2048);
    FusedDataflow df;
    df.cross = {Granularity::kRow, 128};
    df.l2_logit = {128, 64, 128};
    df.l2_attend = {128, 128, 64};
    const AccelConfig accel = edge_accel();
    // Degenerate 1-lane batches, a width that straddles the 9-lane
    // block, and a width larger than the block.
    for (const std::size_t width : {1ul, 4ul, 16ul}) {
        SCOPED_TRACE(width);
        check_evaluator_parity(accel, dims, df, kFlat,
                               BaselineOverlap::kFull, width,
                               "width variant");
    }
}

} // namespace
} // namespace flat
