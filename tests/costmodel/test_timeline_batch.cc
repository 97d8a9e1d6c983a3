/**
 * @file
 * Bit-identity contract of the SoA batch evaluators against the
 * reference path: a TimelineBatch lane must reproduce
 * evaluate_timeline()'s summary bit for bit for the same phase values,
 * and an AttentionBatchEvaluator lane must reproduce model_attention()
 * bit for bit — across the golden-catalog accelerator presets, every
 * execution style, prefill and decode shapes, overlap policies and
 * batch widths. Every EXPECT_EQ on a double below is an exact bit
 * comparison on purpose: the batched evaluator prices every searched
 * point, so it is only admissible because it changes nothing.
 */
#include "costmodel/timeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/catalog.h"
#include "costmodel/attention_cost.h"
#include "costmodel/gemm_engine.h"
#include "dataflow/granularity.h"
#include "dse/search_internal.h"
#include "support/accel_edits.h"

namespace flat {
namespace {

const ExecutionStyle& kBaseline = baseline_execution_style();
const ExecutionStyle& kFlat = flat_execution_style();
const ExecutionStyle& kPipelined = pipelined_execution_style();
const ExecutionStyle& kFlash = flash_execution_style();
const Stationarity kStationarities[] = {Stationarity::kWeightStationary,
                                        Stationarity::kInputStationary,
                                        Stationarity::kOutputStationary};

/** Every field of the activity ledger, bit for bit. */
void
expect_same_activity(const ActivityCounts& got, const ActivityCounts& want,
                     const char* what)
{
    EXPECT_EQ(got.macs, want.macs) << what;
    EXPECT_EQ(got.sl_accesses, want.sl_accesses) << what;
    EXPECT_EQ(got.sfu_elems, want.sfu_elems) << what;
    const TrafficBytes& a = got.traffic;
    const TrafficBytes& b = want.traffic;
    EXPECT_EQ(a.dram_read, b.dram_read) << what;
    EXPECT_EQ(a.dram_write, b.dram_write) << what;
    EXPECT_EQ(a.sg_read, b.sg_read) << what;
    EXPECT_EQ(a.sg_write, b.sg_write) << what;
    EXPECT_EQ(a.sg2_read, b.sg2_read) << what;
    EXPECT_EQ(a.sg2_write, b.sg2_write) << what;
    EXPECT_EQ(a.link_in, b.link_in) << what;
    EXPECT_EQ(a.link_out, b.link_out) << what;
}

void
expect_same_summary(const TimelineBatch::LaneSummary& lane,
                    const TimelineResult& scalar, const char* what)
{
    EXPECT_EQ(lane.cycles, scalar.cycles) << what;
    EXPECT_EQ(lane.cold_start_cycles, scalar.cold_start_cycles)
        << what;
    EXPECT_EQ(lane.bound_by, scalar.bound_by) << what;
    expect_same_activity(lane.activity, scalar.activity, what);
}

/** Loads @p phases' values into a new lane of @p batch. */
void
load_lane(TimelineBatch& batch, const std::vector<Phase>& phases)
{
    ASSERT_EQ(batch.phase_count(), phases.size());
    std::copy(phases.begin(), phases.end(), batch.add_lane());
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
 * Configures @p batch for @p phases and checks every lane of it, filled
 * with per-lane scaled variants of @p phases, against per-lane scalar
 * evaluations. Returns what configure() returned (layout kept).
 */
bool
check_parity_on(TimelineBatch& batch, const std::vector<Phase>& phases,
                const AccelConfig& accel, OverlapKind overlap,
                std::size_t lanes, const char* what)
{
    const bool kept = batch.configure(phases, overlap);
    EXPECT_EQ(batch.phase_count(), phases.size());
    std::vector<std::vector<Phase>> variants;
    for (std::size_t l = 0; l < lanes; ++l) {
        variants.push_back(
            scaled(phases, 1.0 + 0.375 * static_cast<double>(l)));
        load_lane(batch, variants.back());
    }
    EXPECT_EQ(batch.lanes(), lanes);
    batch.evaluate(accel);
    for (std::size_t l = 0; l < lanes; ++l) {
        SCOPED_TRACE(l);
        expect_same_summary(batch.summary(l),
                            evaluate_timeline(variants[l], accel,
                                              overlap),
                            what);
    }
    return kept;
}

/** check_parity_on() on a fresh batch. */
void
check_parity(const std::vector<Phase>& phases,
             const AccelConfig& accel, OverlapKind overlap,
             std::size_t lanes, const char* what)
{
    TimelineBatch batch;
    check_parity_on(batch, phases, accel, overlap, lanes, what);
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
    // Groups whose members interleave in emission order, tracks first
    // seen in descending id order and a pace-only member inside a
    // mixed group: the member lists must keep each group's phase order
    // and the ledger the emission order.
    // Thirds and sevenths round, so a sum taken in another order would
    // show in the bits.
    const std::vector<Phase> interleaved = {
        make_phase(5, 1, 3e5 / 7, 0.0, 1e6 / 3, 2e6 / 7),
        make_phase(2, -1, 1e5 / 3, 2e4, 0.0, 1e6 / 7, /*pace_only=*/true),
        make_phase(5, 0, 2e5 / 3, 1e5 / 7, 3e6 / 7, 0.0),
        make_phase(2, -1, 4e5 / 7, 0.0, 2e6 / 3, 5e5 / 3),
        make_phase(5, 1, 2e5 / 7, 0.0, 0.0, 1e6 / 3),
        make_phase(5, -1, 5e4 / 3, 0.0, 1e5 / 7, 1e5 / 3),
    };
    for (const OverlapKind overlap :
         {OverlapKind::kOverlapped, OverlapKind::kSerialTransfers}) {
        SCOPED_TRACE(static_cast<int>(overlap));
        check_parity(phases, accel, overlap, 5, "synthetic");
        check_parity(interleaved, accel, overlap, 3, "interleaved");
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

TEST(TimelineBatch, SkeletonCacheKeepsOnlyAMatchingLayout)
{
    const AttentionDims dims = attention(8, 1024, 1024);
    FusedDataflow flat_df;
    flat_df.cross = {Granularity::kRow, 64};
    flat_df.l2_logit = {128, 64, 128};
    flat_df.l2_attend = {128, 128, 64};
    FusedDataflow base_df = flat_df;
    base_df.cross = {Granularity::kMulti, 0};

    for (const AccelConfig& accel : {edge_accel(), cloud_accel()}) {
        SCOPED_TRACE(accel.name);
        const AttentionPhases flat_p =
            attention_phases(kFlat, accel, dims, flat_df);
        const AttentionPhases base_p = attention_phases(
            kBaseline, accel, dims, base_df, BaselineOverlap::kSerialized);
        // One batch, reconfigured the way a search reuses its own: the
        // layout is kept only for the same skeleton, lanes grow on
        // demand, and every lane stays exact whether it was kept or not.
        TimelineBatch batch;
        EXPECT_FALSE(check_parity_on(batch, flat_p.phases, accel,
                                     flat_p.overlap, 4, "flat, first"));
        EXPECT_TRUE(check_parity_on(batch, flat_p.phases, accel,
                                    flat_p.overlap, 3, "flat, hit"));
        EXPECT_FALSE(check_parity_on(batch, base_p.phases, accel,
                                     base_p.overlap, 3, "baseline, miss"));
        EXPECT_FALSE(check_parity_on(batch, flat_p.phases, accel,
                                     flat_p.overlap, 2, "flat, rebuilt"));
        EXPECT_TRUE(check_parity_on(batch, flat_p.phases, accel,
                                    flat_p.overlap, 2, "flat, hit again"));
        EXPECT_TRUE(check_parity_on(batch, flat_p.phases, accel,
                                    flat_p.overlap, 5, "flat, wider"));
        // Same phases under the other overlap policy: a new skeleton.
        EXPECT_FALSE(check_parity_on(batch, flat_p.phases, accel,
                                     OverlapKind::kSerialTransfers, 5,
                                     "flat, serialized"));
    }
}

// -------------------------------------------------------------------
// AttentionBatchEvaluator: whole-model parity against the reference
// model_attention(), lane by lane.

void
expect_same_cost(const OperatorCost& got, const OperatorCost& want,
                 const char* what)
{
    EXPECT_EQ(got.name, want.name) << what;
    EXPECT_EQ(got.cycles, want.cycles) << what;
    EXPECT_EQ(got.ideal_cycles, want.ideal_cycles) << what;
    EXPECT_EQ(got.live_footprint_bytes, want.live_footprint_bytes)
        << what;
    EXPECT_EQ(got.resident_fraction, want.resident_fraction) << what;
    expect_same_activity(got.activity, want.activity, what);
}

/** Every term of a DRAM split, bit for bit. */
void
expect_same_split(const DramSplit& got, const DramSplit& want,
                  const char* what)
{
    for (const auto& [g, w] : {std::pair{&got.logit, &want.logit},
                               std::pair{&got.attend, &want.attend}}) {
        EXPECT_EQ(g->base, w->base) << what;
        EXPECT_EQ(g->a, w->a) << what;
        EXPECT_EQ(g->b, w->b) << what;
        EXPECT_EQ(g->c_write, w->c_write) << what;
        EXPECT_EQ(g->c_read, w->c_read) << what;
    }
    EXPECT_EQ(got.softmax, want.softmax) << what;
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
 * Binds @p batch to @p base's slice, evaluates every (order_logit,
 * order_attend) lane of @p base through it, @p width lanes per begin()
 * block, and checks each lane field by field against the reference
 * model, and each block's dram_split() against a fresh make_plan()'s.
 */
void
check_evaluator_parity(AttentionBatchEvaluator& batch,
                       const AccelConfig& accel,
                       const AttentionDims& dims,
                       const FusedDataflow& base,
                       const ExecutionStyle& style,
                       BaselineOverlap overlap, std::size_t width,
                       const char* what)
{
    ASSERT_TRUE(style.admits(accel, dims, base.cross)) << what;
    // The staged shapes the search feeds the records for: C-Gran
    // streams kv in column blocks, so its stages cover one block.
    const CrossLoopExtent extent = cross_loop_extent(
        base.cross, dims.batch, dims.heads, dims.q_len);
    const std::uint64_t kv_tile = cross_col_tile(base.cross, dims.kv_len);
    GemmShape logit_shape;
    logit_shape.m = extent.rows_per_pass;
    logit_shape.k = dims.head_dim;
    logit_shape.n = kv_tile;
    GemmShape attend_shape;
    attend_shape.m = extent.rows_per_pass;
    attend_shape.k = kv_tile;
    attend_shape.n = dims.head_dim;

    const std::vector<LoopOrder> orders = {
        LoopOrder::kMKN, LoopOrder::kNKM, LoopOrder::kKMN};

    std::vector<FusedDataflow> lane_df;
    const auto evaluate_and_check = [&]() {
        expect_same_split(batch.dram_split(),
                          split_dram_traffic(make_plan(accel, dims, base),
                                             base.stage),
                          what);
        batch.evaluate();
        ASSERT_EQ(batch.lanes(), lane_df.size());
        for (std::size_t i = 0; i < batch.lanes(); ++i) {
            SCOPED_TRACE(lane_df[i].tag());
            EXPECT_EQ(batch.dataflow(i).tag(), lane_df[i].tag()) << what;
            const OperatorCost reference =
                model_attention(style, accel, dims, lane_df[i], overlap);
            EXPECT_EQ(batch.cycles(i), reference.cycles) << what;
            expect_same_activity(batch.activity(i), reference.activity,
                                 what);
            expect_same_cost(batch.cost(i), reference, what);
        }
        lane_df.clear();
    };

    batch.bind_slice(accel, dims, base.cross, style, overlap);
    for (const LoopOrder ol : orders) {
        for (const LoopOrder oa : orders) {
            if (lane_df.empty()) {
                batch.begin(base);
            }
            FusedDataflow df = base;
            df.order_logit = ol;
            df.order_attend = oa;
            batch.add(ol, oa,
                      slice_cost(accel, logit_shape, base.l2_logit, ol,
                                 base.stat_logit),
                      slice_cost(accel, attend_shape, base.l2_attend,
                                 oa, base.stat_attend));
            lane_df.push_back(df);
            if (lane_df.size() == width) {
                evaluate_and_check();
            }
        }
    }
    if (!lane_df.empty()) {
        evaluate_and_check();
    }
}

/** An admitted dataflow of @p style: H-Gran for the sequential
 *  baseline, a C-Gran cross for flash, R-Gran otherwise. */
FusedDataflow
dataflow_for(const ExecutionStyle& style)
{
    FusedDataflow df;
    df.l2_logit = {128, 64, 128};
    df.l2_attend = {128, 128, 64};
    if (&style == &kBaseline) {
        df.cross = {Granularity::kHead, 0};
    } else if (&style == &kFlash) {
        df.cross = {Granularity::kColumn, 64, 256};
    } else {
        df.cross = {Granularity::kRow, 64};
    }
    return df;
}

TEST(AttentionBatchEvaluator, MatchesScalarModelAcrossCatalogStyles)
{
    AttentionDims gqa_decode;
    gqa_decode.batch = 16;
    gqa_decode.heads = 32;
    gqa_decode.kv_heads = 8;
    gqa_decode.q_len = 1;
    gqa_decode.kv_len = 2048;
    gqa_decode.head_dim = 128;
    gqa_decode.decode = true;
    const std::vector<std::pair<const char*, AttentionDims>> shapes = {
        {"prefill", attention(8, 1024, 1024)},
        {"cross", attention(4, 512, 2048)},
        {"gqa decode", gqa_decode},
    };

    // An SG2 level puts bytes in the sg2 ledger fields too.
    AccelConfig edge_sg2 = edge_accel();
    edge_sg2.name = "edge-sg2";
    edge_sg2.sg2_bytes = 4ull << 20;
    edge_sg2.sg2_bw = 200e9;

    // One evaluator across every style, shape, staging and preset:
    // begin() must rebind everything a block reads.
    AttentionBatchEvaluator batch;
    for (const AccelConfig& accel : {edge_accel(), cloud_accel(), edge_sg2}) {
        SCOPED_TRACE(accel.name);
        ASSERT_GE(accel.pe_rows, 2u); // the pipelined style splits it
        for (const auto& [shape, dims] : shapes) {
            SCOPED_TRACE(shape);
            for (const ExecutionStyle* style : execution_styles()) {
                SCOPED_TRACE(style->id());
                FusedDataflow df = dataflow_for(*style);
                for (const std::uint32_t staged : {31u, 0u}) {
                    df.stage = FusedStageFlags::decode(staged);
                    for (const BaselineOverlap overlap :
                         {BaselineOverlap::kFull,
                          BaselineOverlap::kSerialized}) {
                        check_evaluator_parity(batch, accel, dims, df,
                                               *style, overlap, 9,
                                               "whole block");
                    }
                }
            }
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
    // Degenerate 1-lane batches, a width that splits the 9-lane block
    // into partial batches, and a width larger than the block (a
    // batch with fewer lanes than its capacity, as when the search
    // prunes part of a block).
    AttentionBatchEvaluator batch;
    for (const std::size_t width : {1ul, 4ul, 16ul}) {
        SCOPED_TRACE(width);
        check_evaluator_parity(batch, accel, dims, df, kFlat,
                               BaselineOverlap::kFull, width,
                               "width variant");
    }
}

TEST(AttentionBatchEvaluator, RebindsSlicesChangedInPlace)
{
    // A search reuses one worker-lifetime evaluator for every slice,
    // and a caller may edit its accel or dims between searches at the
    // same address. Every bind_slice() must rebuild what it takes from
    // them, and the block-part table must start afresh once either
    // differs by value: a part kept from an earlier binding prices the
    // lanes of another configuration.
    AccelConfig accel = edit_base();
    AttentionDims dims = attention(8, 1024, 1024);
    FusedDataflow head = dataflow_for(kBaseline); // flat runs H-Gran too
    head.stage = FusedStageFlags::decode(27u);
    const FusedDataflow row = dataflow_for(kFlat);
    const FusedDataflow col = dataflow_for(kFlash);
    AttentionBatchEvaluator batch;
    const auto check_widths = [&](const FusedDataflow& df,
                                  const ExecutionStyle& style,
                                  const char* what) {
        SCOPED_TRACE(what);
        for (const std::size_t width : {1ul, 9ul}) {
            SCOPED_TRACE(width);
            check_evaluator_parity(batch, accel, dims, df, style,
                                   BaselineOverlap::kSerialized, width,
                                   what);
        }
    };
    // Binds an H-Gran and a C-Gran block, at two flag sets each, from
    // the slice of every style that admits it and every stationarity
    // pair. Only the first slice to bind a block may compute its part,
    // and only when the table started afresh; every later slice reads
    // it, and every lane and split still equals the reference.
    const auto rebind_blocks = [&](bool fresh, const char* what) {
        SCOPED_TRACE(what);
        const std::uint64_t computed = batch.block_part_counts().computed;
        std::uint64_t blocks = 0;
        for (FusedDataflow df : {head, col}) {
            for (const std::uint32_t staged : {27u, 0u}) {
                df.stage = FusedStageFlags::decode(staged);
                bool bound = false;
                for (const ExecutionStyle* style : execution_styles()) {
                    if (!style->admits(accel, dims, df.cross)) {
                        continue;
                    }
                    bound = true;
                    for (const Stationarity logit : kStationarities) {
                        for (const Stationarity attend : kStationarities) {
                            df.stat_logit = logit;
                            df.stat_attend = attend;
                            check_evaluator_parity(
                                batch, accel, dims, df, *style,
                                BaselineOverlap::kSerialized, 9, what);
                        }
                    }
                }
                blocks += bound ? 1 : 0;
            }
        }
        EXPECT_GT(blocks, 0u) << what;
        EXPECT_EQ(batch.block_part_counts().computed - computed,
                  fresh ? blocks : 0u)
            << what;
    };

    rebind_blocks(true, "first binds");
    rebind_blocks(false, "every part from the table");
    check_widths(head, kFlat, "flat");
    check_widths(head, kBaseline, "flat -> baseline");
    check_widths(head, kFlat, "baseline -> flat");

    for (const auto& [field, edit] : accel_edits()) {
        accel = edit_base();
        edit(accel);
        rebind_blocks(true, field);
    }
    accel = edit_base();
    rebind_blocks(true, "accel restored in place");
    rebind_blocks(false, "accel unchanged");

    accel.offchip_bw /= 4.0;
    accel.sg_bytes /= 8;
    accel.sfu_lanes *= 2.0;
    check_widths(head, kFlat, "accel changed in place");

    using DimsEdit = std::pair<const char*, void (*)(AttentionDims&)>;
    const DimsEdit dims_edits[] = {
        {"batch", [](AttentionDims& d) { d.batch = 2; }},
        {"heads", [](AttentionDims& d) { d.heads = 16; }},
        {"q_len", [](AttentionDims& d) { d.q_len = 512; }},
        {"kv_len", [](AttentionDims& d) { d.kv_len = 4096; }},
        {"head_dim", [](AttentionDims& d) { d.head_dim = 128; }},
        {"kv_heads", [](AttentionDims& d) { d.kv_heads = 2; }},
        {"decode",
         [](AttentionDims& d) {
             d.q_len = 1;
             d.decode = true;
         }},
    };
    for (const auto& [field, edit] : dims_edits) {
        dims = attention(8, 1024, 1024);
        edit(dims);
        rebind_blocks(true, field);
    }

    dims = attention(8, 1024, 1024);
    dims.batch = 2;
    dims.kv_len = 4096;
    check_widths(head, kFlat, "dims changed in place");

    // Pipelined lanes price their half-array GEMMs from their own
    // loop orders, in a one-lane and a nine-lane block alike.
    check_widths(row, kPipelined, "pipelined");

    dims.heads = 32;
    dims.kv_heads = 8;
    dims.q_len = 1;
    dims.head_dim = 128;
    dims.decode = true;
    check_widths(head, kFlat, "dims made a GQA decode in place");
    check_widths(head, kBaseline, "decode baseline");
}

TEST(AttentionBatchEvaluator, StyleAllSearchComputesEachBlockPartOnce)
{
    // At one thread a search walks its slices on the calling thread's
    // evaluator. Unpruned, it binds every (tiles, flags) block of every
    // slice, and a block recurs in the slice of every style and
    // stationarity pair with its cross loop: each distinct (cross,
    // tiles, flags) part must be computed once, by its first bind.
    const AccelConfig accel = edge_accel();
    AttentionSearchOptions options;
    options.styles = {"all"};
    options.quick = true;
    options.threads = 1;
    options.prune = false;
    AttentionBatchEvaluator& batch = detail::worker_evaluator();

    // A search of other dims first: the one below must drop its table
    // and start on an empty one.
    search_attention(accel, attention(2, 256, 256), options);
    const AttentionDims dims = attention(2, 512, 512);
    const detail::SlicedSpace space =
        detail::build_sliced_space(accel, dims, options);
    std::set<std::string> distinct;
    std::uint64_t blocks = 0;
    for (const detail::SearchSlice& slice : space.slices) {
        for (const L2Tile& logit : *slice.tiles_logit) {
            for (const L2Tile& attend : *slice.tiles_attend) {
                for (const FusedStageFlags& flags : space.flag_sets) {
                    distinct.insert(slice.cross.tag() + "/" +
                                    logit.tag() + "/" + attend.tag() +
                                    "/" + flags.tag());
                    ++blocks;
                }
            }
        }
    }

    const AttentionBatchEvaluator::BlockPartCounts before =
        batch.block_part_counts();
    const AttentionSearchResult unpruned =
        search_attention(accel, dims, options);
    const AttentionBatchEvaluator::BlockPartCounts after =
        batch.block_part_counts();
    EXPECT_EQ(after.binds - before.binds, blocks);
    EXPECT_EQ(after.computed - before.computed, distinct.size());
    EXPECT_LT(distinct.size(), blocks) << "no block recurs";

    // Every block either pricer binds on these (accel, dims) is now in
    // the table: neither the pruned walk nor the mapper's climb
    // computes one, and the pruned walk still picks what the unpruned
    // walk picks.
    options.prune = true;
    const AttentionSearchResult pruned =
        search_attention(accel, dims, options);
    options.mode = SearchMode::kAnalytic;
    search_attention(accel, dims, options);
    EXPECT_GT(batch.block_part_counts().binds, after.binds);
    EXPECT_EQ(batch.block_part_counts().computed, after.computed);
    EXPECT_EQ(pruned.best.dataflow.tag(), unpruned.best.dataflow.tag());
    EXPECT_EQ(pruned.best.cost.cycles, unpruned.best.cost.cycles);
}

} // namespace
} // namespace flat
