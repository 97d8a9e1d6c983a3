#include "costmodel/trace.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/units.h"
#include "costmodel/attention_cost.h"
#include "dse/search.h"

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

TEST(Trace, PhasesInExecutionOrder)
{
    const ExecutionTrace t =
        trace_attention(kFlat, edge_accel(), dims(1024), flat_r(64));
    ASSERT_EQ(t.phases.size(), 5u);
    EXPECT_NE(t.phases[0].label.find("prefetch"), std::string::npos);
    EXPECT_NE(t.phases[1].label.find("L:"), std::string::npos);
    EXPECT_NE(t.phases[2].label.find("softmax"), std::string::npos);
    EXPECT_NE(t.phases[3].label.find("A:"), std::string::npos);
    EXPECT_NE(t.phases[4].label.find("writeback"), std::string::npos);
}

TEST(Trace, TransfersMarkedOverlapped)
{
    const ExecutionTrace t =
        trace_attention(kFlat, edge_accel(), dims(1024), flat_r(64));
    EXPECT_FALSE(t.phases[0].on_critical_path);
    EXPECT_TRUE(t.phases[1].on_critical_path);
    EXPECT_TRUE(t.phases[2].on_critical_path);
    EXPECT_TRUE(t.phases[3].on_critical_path);
    EXPECT_FALSE(t.phases[4].on_critical_path);
}

TEST(Trace, TotalsMatchCostModel)
{
    const AttentionDims d = dims(2048);
    const FusedDataflow df = flat_r(64);
    const ExecutionTrace t =
        trace_attention(kFlat, edge_accel(), d, df);
    const OperatorCost cost =
        model_attention(kFlat, edge_accel(), d, df);
    EXPECT_DOUBLE_EQ(t.total_cycles, cost.cycles);
    EXPECT_NEAR(t.pass_cycles * t.passes, cost.cycles,
                1e-6 * cost.cycles);
}

/** Head-granularity dataflow every execution style can run. */
FusedDataflow
head_df()
{
    FusedDataflow df;
    df.cross = {Granularity::kHead, 0};
    df.l2_logit = {128, 64, 128};
    df.l2_attend = {128, 128, 64};
    return df;
}

TEST(Trace, TotalsExactForEveryStyle)
{
    // The trace and the cost model consume the SAME evaluated
    // timeline, so totals agree bit-for-bit — cold start included —
    // for every execution style, on several hardware points.
    AccelConfig starved = edge_accel();
    starved.offchip_bw /= 8.0;
    for (const AccelConfig& accel :
         {edge_accel(), cloud_accel(), starved}) {
        for (const std::uint64_t n :
             {std::uint64_t{1024}, std::uint64_t{8192}}) {
            const AttentionDims d = dims(n);
            const FusedDataflow df = head_df();

            const ExecutionTrace flat_t =
                trace_attention(kFlat, accel, d, df);
            EXPECT_DOUBLE_EQ(flat_t.total_cycles,
                             model_attention(kFlat, accel, d, df).cycles);
            EXPECT_EQ(flat_t.style, "flat");

            const ExecutionTrace base_full = trace_attention(
                kBaseline, accel, d, df, BaselineOverlap::kFull);
            EXPECT_DOUBLE_EQ(
                base_full.total_cycles,
                model_attention(kBaseline, accel, d, df,
                                         BaselineOverlap::kFull)
                    .cycles);
            EXPECT_EQ(base_full.style, "baseline-full");

            const ExecutionTrace base_ser = trace_attention(
                kBaseline, accel, d, df, BaselineOverlap::kSerialized);
            EXPECT_DOUBLE_EQ(
                base_ser.total_cycles,
                model_attention(kBaseline, accel, d, df,
                                         BaselineOverlap::kSerialized)
                    .cycles);
            EXPECT_EQ(base_ser.style, "baseline-serialized");
            EXPECT_GE(base_ser.total_cycles, base_full.total_cycles);

            const ExecutionTrace pipe =
                trace_attention(kPipelined, accel, d, df);
            EXPECT_DOUBLE_EQ(
                pipe.total_cycles,
                model_attention(kPipelined, accel, d, df).cycles);
            EXPECT_EQ(pipe.style, "pipelined");
        }
    }
}

TEST(Trace, DecodeTotalsExactForGoldenShapes)
{
    // The two decode golden configs (edge-bert MHA, cloud-mistral
    // GQA): the trace totals must equal the model cycles bit-for-bit,
    // and the decode phase relabeling must show the KV-cache read.
    AttentionDims mha;
    mha.batch = 8;
    mha.heads = 12;
    mha.q_len = 1;
    mha.kv_len = 512;
    mha.head_dim = 64;
    mha.kv_heads = 12;
    mha.decode = true;

    AttentionDims gqa;
    gqa.batch = 16;
    gqa.heads = 32;
    gqa.q_len = 1;
    gqa.kv_len = 2048;
    gqa.head_dim = 128;
    gqa.kv_heads = 8;
    gqa.decode = true;

    struct Case {
        AccelConfig accel;
        AttentionDims d;
    };
    const Case cases[] = {{edge_accel(), mha}, {cloud_accel(), gqa}};
    for (const Case& c : cases) {
        SCOPED_TRACE(c.accel.name);
        AttentionSearchOptions opt;
        opt.quick = true;
        opt.fused = true;
        const AttentionSearchResult result =
            search_attention(c.accel, c.d, opt);
        ASSERT_TRUE(result.found);
        const FusedDataflow df = result.best.dataflow;
        const ExecutionTrace t = trace_attention(kFlat, c.accel, c.d, df);
        EXPECT_DOUBLE_EQ(t.total_cycles,
                         model_attention(kFlat, c.accel, c.d, df).cycles);
        bool saw_kv_read = false;
        for (const auto& phase : t.phases) {
            if (phase.label.find("KV-cache") != std::string::npos) {
                saw_kv_read = true;
            }
        }
        EXPECT_TRUE(saw_kv_read);
    }
}

TEST(Trace, GqaReducesKvTrafficNotMacs)
{
    // Same shape with and without head grouping: the grouped variant
    // must move fewer DRAM bytes while the MAC count is identical.
    AttentionDims d = dims(2048);
    const FusedDataflow df = flat_r(64);
    const OperatorCost mha = model_attention(kFlat, edge_accel(), d, df);
    d.kv_heads = 2; // 8 query heads in groups of 4
    const OperatorCost gqa = model_attention(kFlat, edge_accel(), d, df);
    EXPECT_EQ(gqa.activity.macs, mha.activity.macs);
    EXPECT_LT(gqa.activity.traffic.total_dram(),
              mha.activity.traffic.total_dram());
}

TEST(Trace, ColdStartIncludedInTotals)
{
    const AttentionDims d = dims(2048);
    const ExecutionTrace t =
        trace_attention(kFlat, edge_accel(), d, flat_r(64));
    EXPECT_GT(t.cold_start_cycles, 0.0);
    double phase_sum = 0.0;
    for (const TracePhase& p : t.phases) {
        phase_sum += p.cycles;
    }
    // The per-pass phase bars exclude the exposed warm-up; the total
    // includes it (that is what makes the totals exact).
    EXPECT_LT(t.cold_start_cycles, t.total_cycles);
    EXPECT_GE(phase_sum * t.passes + t.cold_start_cycles,
              t.total_cycles);
}

TEST(Trace, JsonAndCsvCarryTheTimeline)
{
    const ExecutionTrace t =
        trace_attention(kBaseline, edge_accel(), dims(1024), head_df(),
                        BaselineOverlap::kFull);
    const std::string json = t.to_json();
    EXPECT_NE(json.find("\"style\":\"baseline-full\""),
              std::string::npos);
    EXPECT_NE(json.find("\"bound_by\""), std::string::npos);
    EXPECT_NE(json.find("\"total_cycles\""), std::string::npos);
    EXPECT_NE(json.find("\"phases\":["), std::string::npos);

    const std::string csv = t.to_csv();
    EXPECT_EQ(csv.find("phase,stage,cycles,bound_by,on_critical_path"),
              0u);
    // One header line plus one line per phase.
    const std::size_t lines =
        static_cast<std::size_t>(
            std::count(csv.begin(), csv.end(), '\n'));
    EXPECT_EQ(lines, t.phases.size() + 1);
}

TEST(Trace, PassCountMatchesCrossLoop)
{
    const ExecutionTrace t =
        trace_attention(kFlat, edge_accel(), dims(1024), flat_r(64));
    // 8 batch x 8 heads x (1024/64) chunks.
    EXPECT_DOUBLE_EQ(t.passes, 8.0 * 8.0 * 16.0);
}

TEST(Trace, BoundByIdentifiesBottleneck)
{
    // Roomy buffer + fat pipe: compute bound.
    AccelConfig roomy = edge_accel();
    roomy.sg_bytes = 64 * kMiB;
    roomy.offchip_bw = 400e9;
    const ExecutionTrace fast =
        trace_attention(kFlat, roomy, dims(4096), flat_r(64));
    EXPECT_EQ(fast.bound_by, "compute");

    // Tiny buffer at long N: off-chip bound.
    const ExecutionTrace slow =
        trace_attention(kFlat, edge_accel(), dims(32768), flat_r(32));
    EXPECT_EQ(slow.bound_by, "off-chip BW");
}

TEST(Trace, RenderContainsBarsAndLabels)
{
    const ExecutionTrace t =
        trace_attention(kFlat, edge_accel(), dims(1024), flat_r(64));
    const std::string text = t.render(40);
    EXPECT_NE(text.find("L: logits slice GEMM"), std::string::npos);
    EXPECT_NE(text.find('#'), std::string::npos);
    EXPECT_NE(text.find("passes"), std::string::npos);
}

} // namespace
} // namespace flat
