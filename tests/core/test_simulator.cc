#include "core/simulator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/run_journal.h"
#include "common/status.h"
#include "workload/model_config.h"

namespace flat {
namespace {

SimOptions
quick()
{
    SimOptions options;
    options.quick = true;
    return options;
}

/**
 * Category sums of an independent L-A search plus one search_operator
 * per projection/FC GEMM, in op order and scaled to @p scope — the
 * arithmetic Simulator::run must reproduce bit for bit.
 */
CategoryBreakdown
independent_breakdown(const AccelConfig& accel, const Workload& w,
                      Scope scope, const AttentionSearchOptions& la_options,
                      const OperatorSearchOptions& op_options)
{
    CategoryBreakdown b;
    const AttentionSearchResult la = search_attention(
        accel, AttentionDims::from_workload(w), la_options);
    b.la_cycles = la.best.cost.cycles;
    b.la_ideal = la.best.cost.ideal_cycles;
    b.la_energy_j = la.best.energy_j;
    for (const Operator& op : w.ops) {
        if (op.kind != OpKind::kGemm ||
            op.category == OpCategory::kLogitAttend) {
            continue;
        }
        const OperatorSearchResult res =
            search_operator(accel, op, op_options);
        if (op.category == OpCategory::kProjection) {
            b.proj_cycles += res.cost.cycles;
            b.proj_ideal += res.cost.ideal_cycles;
            b.proj_energy_j += res.energy_j;
        } else {
            b.fc_cycles += res.cost.cycles;
            b.fc_ideal += res.cost.ideal_cycles;
            b.fc_energy_j += res.energy_j;
        }
    }
    const double mult = static_cast<double>(w.scope_multiplier(scope));
    for (double* field :
         {&b.la_cycles, &b.la_ideal, &b.la_energy_j, &b.proj_cycles,
          &b.proj_ideal, &b.proj_energy_j, &b.fc_cycles, &b.fc_ideal,
          &b.fc_energy_j}) {
        *field *= mult;
    }
    return b;
}

void
expect_same_breakdown(const ScopeReport& report,
                      const CategoryBreakdown& want)
{
    const CategoryBreakdown& got = report.breakdown;
    EXPECT_EQ(got.la_cycles, want.la_cycles);
    EXPECT_EQ(got.la_ideal, want.la_ideal);
    EXPECT_EQ(got.la_energy_j, want.la_energy_j);
    EXPECT_EQ(got.proj_cycles, want.proj_cycles);
    EXPECT_EQ(got.proj_ideal, want.proj_ideal);
    EXPECT_EQ(got.proj_energy_j, want.proj_energy_j);
    EXPECT_EQ(got.fc_cycles, want.fc_cycles);
    EXPECT_EQ(got.fc_ideal, want.fc_ideal);
    EXPECT_EQ(got.fc_energy_j, want.fc_energy_j);
    EXPECT_EQ(report.cycles,
              want.la_cycles + want.proj_cycles + want.fc_cycles);
    EXPECT_EQ(report.energy_j,
              want.la_energy_j + want.proj_energy_j + want.fc_energy_j);
}

/** The MHA and GQA workloads the decomposition tests cover. */
std::vector<Workload>
mha_and_gqa_workloads()
{
    return {make_workload(bert_base(), 8, 512),
            make_workload(mistral(), 2, 512)};
}

TEST(Simulator, ScopeReportConsistency)
{
    const Simulator sim(edge_accel());
    const Workload w = make_workload(bert_base(), 64, 512);
    const ScopeReport report = sim.run(
        w, Scope::kBlock, DataflowPolicy::parse("flat-opt"), quick());
    EXPECT_GT(report.cycles, 0.0);
    EXPECT_GT(report.ideal_cycles, 0.0);
    EXPECT_LE(report.util(), 1.0);
    EXPECT_NEAR(report.cycles,
                report.breakdown.la_cycles + report.breakdown.proj_cycles +
                    report.breakdown.fc_cycles,
                1e-6 * report.cycles);
    EXPECT_NEAR(report.runtime_s, report.cycles * 1e-9,
                1e-12 * report.runtime_s);
    EXPECT_GT(report.energy_j, 0.0);
}

TEST(Simulator, LaScopeHasNoProjectionCost)
{
    const Simulator sim(edge_accel());
    const Workload w = make_workload(bert_base(), 64, 512);
    const ScopeReport report = sim.run(
        w, Scope::kLogitAttend, DataflowPolicy::parse("flat-h"), quick());
    EXPECT_EQ(report.breakdown.proj_cycles, 0.0);
    EXPECT_EQ(report.breakdown.fc_cycles, 0.0);
    EXPECT_GT(report.breakdown.la_cycles, 0.0);
}

TEST(Simulator, ModelScopeScalesBlockByNumBlocks)
{
    const Simulator sim(edge_accel());
    const Workload w = make_workload(bert_base(), 64, 512);
    const DataflowPolicy policy = DataflowPolicy::parse("flat-h");
    const ScopeReport block = sim.run(w, Scope::kBlock, policy, quick());
    const ScopeReport model = sim.run(w, Scope::kModel, policy, quick());
    EXPECT_NEAR(model.cycles, 12.0 * block.cycles, 1e-6 * model.cycles);
    EXPECT_NEAR(model.energy_j, 12.0 * block.energy_j,
                1e-6 * model.energy_j);
}

TEST(Simulator, FlatOptBeatsBaseOptAtLaScope)
{
    const Simulator sim(edge_accel());
    for (std::uint64_t n : {512u, 4096u, 16384u}) {
        const Workload w = make_workload(bert_base(), 64, n);
        const ScopeReport flat_report = sim.run(
            w, Scope::kLogitAttend, DataflowPolicy::parse("flat-opt"),
            quick());
        const ScopeReport base_report = sim.run(
            w, Scope::kLogitAttend, DataflowPolicy::parse("base-opt"),
            quick());
        EXPECT_GE(flat_report.util(), base_report.util() * 0.9999)
            << "N=" << n;
    }
}

TEST(Simulator, AttaccOutperformsFlexAccelAtLongSequence)
{
    const Simulator sim(edge_accel());
    const Workload w = make_workload(bert_base(), 64, 16384);
    const ScopeReport attacc = sim.run(
        w, Scope::kModel, AcceleratorSpec::parse("attacc"), quick());
    const ScopeReport flex = sim.run(
        w, Scope::kModel, AcceleratorSpec::parse("flexaccel"), quick());
    const ScopeReport flexm = sim.run(
        w, Scope::kModel, AcceleratorSpec::parse("flexaccel-m"), quick());
    EXPECT_LT(attacc.cycles, flex.cycles);
    EXPECT_LE(flex.cycles, flexm.cycles * 1.0001);
}

TEST(Simulator, BaseAccelUsesFixedDataflowEverywhere)
{
    const Simulator sim(edge_accel());
    const Workload w = make_workload(bert_base(), 64, 2048);
    const ScopeReport base_accel = sim.run(
        w, Scope::kBlock, AcceleratorSpec::parse("baseaccel"), quick());
    const ScopeReport flex = sim.run(
        w, Scope::kBlock, AcceleratorSpec::parse("flexaccel"), quick());
    EXPECT_GE(base_accel.cycles, flex.cycles);
}

TEST(Simulator, NonFusedOperatorsIdenticalAcrossFlexAndAttacc)
{
    // §6.5.1: "FlexAccel and ATTACC share the same performance for
    // Projections and FCs".
    const Simulator sim(cloud_accel());
    const Workload w = make_workload(xlm(), 64, 4096);
    const ScopeReport attacc = sim.run(
        w, Scope::kBlock, AcceleratorSpec::parse("attacc"), quick());
    const ScopeReport flex = sim.run(
        w, Scope::kBlock, AcceleratorSpec::parse("flexaccel"), quick());
    EXPECT_DOUBLE_EQ(attacc.breakdown.proj_cycles,
                     flex.breakdown.proj_cycles);
    EXPECT_DOUBLE_EQ(attacc.breakdown.fc_cycles,
                     flex.breakdown.fc_cycles);
}

TEST(Simulator, AttentionPolicyEvaluation)
{
    const Simulator sim(edge_accel());
    const Workload w = make_workload(bert_base(), 64, 1024);
    const ScopeReport report = sim.run(
        w, Scope::kLogitAttend, DataflowPolicy::parse("flat-r64"), quick());
    const DsePoint& winner = report.la_winner;
    EXPECT_EQ(winner.style, &flat_execution_style());
    EXPECT_EQ(winner.dataflow.cross.granularity, Granularity::kRow);
    EXPECT_EQ(winner.dataflow.cross.rows, 64u);
    EXPECT_EQ(winner.cost.cycles, report.breakdown.la_cycles);
}

TEST(Simulator, PolicyOptionsForFixedPoliciesPinTheSpace)
{
    const AttentionSearchOptions opt = attention_options(
        DataflowPolicy::parse("base-h"), quick());
    EXPECT_FALSE(opt.fused);
    ASSERT_TRUE(opt.fixed_cross.has_value());
    EXPECT_EQ(opt.fixed_cross->granularity, Granularity::kHead);
    ASSERT_TRUE(opt.fixed_flags.has_value());
    EXPECT_TRUE(opt.fixed_flags->intermediate);

    const AttentionSearchOptions base = attention_options(
        DataflowPolicy::parse("base"), quick());
    ASSERT_TRUE(base.fixed_flags.has_value());
    EXPECT_EQ(FusedStageFlags::encode(*base.fixed_flags), 0u);
}

TEST(Simulator, SpecOptionsForAttaccRArePinnedCrossAlwaysStaged)
{
    // A fixed-granularity accelerator stages at that granularity by
    // construction (it cannot fall back to pure streaming).
    const AttentionSearchOptions opt = attention_options(
        AcceleratorSpec::parse("attacc-r128"), quick());
    EXPECT_TRUE(opt.fused);
    ASSERT_TRUE(opt.fixed_cross.has_value());
    EXPECT_EQ(opt.fixed_cross->rows, 128u);
    ASSERT_TRUE(opt.fixed_flags.has_value());
    EXPECT_EQ(FusedStageFlags::encode(*opt.fixed_flags), 31u);

    // The fully flexible ATTACC sweeps the staging flags.
    const AttentionSearchOptions full = attention_options(
        AcceleratorSpec::parse("attacc"), quick());
    EXPECT_FALSE(full.fixed_flags.has_value());
}

TEST(Simulator, BlockAndModelScopeEqualIndependentSearches)
{
    const Simulator sim(edge_accel());
    const DataflowPolicy policy = DataflowPolicy::parse("flat-opt");
    OperatorSearchOptions op_options;
    op_options.quick = true;
    for (const Workload& w : mha_and_gqa_workloads()) {
        SCOPED_TRACE(w.model.name);
        for (const Scope scope : {Scope::kBlock, Scope::kModel}) {
            SCOPED_TRACE(to_string(scope));
            const ScopeReport report = sim.run(w, scope, policy, quick());
            expect_same_breakdown(
                report,
                independent_breakdown(sim.accel(), w, scope,
                                      attention_options(policy, quick()),
                                      op_options));
        }
    }
}

TEST(Simulator, BaseAccelDecompositionEqualsIndependentSearches)
{
    // The non-flexible spec pins every GEMM to the fixed-policy menus
    // and has no L3 staging.
    const Simulator sim(edge_accel());
    const AcceleratorSpec spec = AcceleratorSpec::parse("baseaccel");
    OperatorSearchOptions op_options;
    op_options.quick = true;
    op_options.allow_l3 = false;
    op_options.candidates = fixed_policy_candidates();
    for (const Workload& w : mha_and_gqa_workloads()) {
        SCOPED_TRACE(w.model.name);
        for (const Scope scope : {Scope::kBlock, Scope::kModel}) {
            SCOPED_TRACE(to_string(scope));
            const ScopeReport report = sim.run(w, scope, spec, quick());
            expect_same_breakdown(
                report,
                independent_breakdown(sim.accel(), w, scope,
                                      attention_options(spec, quick()),
                                      op_options));
        }
    }
}

TEST(Simulator, IdenticalGemmShapesShareOneSearch)
{
    // MHA: K, V and O repeat Q's shape. GQA shrinks K/V below Q, so
    // only V (K's twin) and O (Q's twin) are reused.
    const Simulator sim(edge_accel());
    const std::vector<std::vector<std::string>> reused = {{"K", "V", "O"},
                                                          {"V", "O"}};
    const std::vector<Workload> workloads = mha_and_gqa_workloads();
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        SCOPED_TRACE(workloads[i].model.name);
        const ScopeReport report =
            sim.run(workloads[i], Scope::kBlock,
                    DataflowPolicy::parse("flat-opt"), quick());
        std::vector<std::string> names;
        std::vector<std::string> got;
        for (const BlockLayerPlan& layer : report.block.layers) {
            names.push_back(layer.name);
            if (layer.reused) {
                got.push_back(layer.name);
                EXPECT_EQ(layer.evaluated, 0u) << layer.name;
            }
        }
        EXPECT_EQ(names, (std::vector<std::string>{"Q", "K", "V", "L-A",
                                                   "O", "FC1", "FC2"}));
        EXPECT_EQ(got, reused[i]);
    }
}

TEST(Simulator, LentGemmMemoSpansRunsWithoutChangingThem)
{
    // Decode projections and FCs depend on the batch, not the context,
    // so a memo lent across two decode steps serves the second step's
    // GEMMs from the first's searches. Another accelerator or other
    // menus must search again, and so must the edge preset with one
    // field changed under its own name (`flatsim --offchip-bw` keeps
    // the preset's name).
    const DataflowPolicy policy = DataflowPolicy::parse("flat-opt");
    AccelConfig slow_dram = edge_accel();
    slow_dram.offchip_bw /= 2.0;
    AccelConfig small_sg = edge_accel();
    small_sg.sg_bytes /= 2;
    const Workload ctx256 = make_decode_workload(bert_base(), 4, 256);
    const Workload ctx512 = make_decode_workload(bert_base(), 4, 512);
    GemmSearchMemo memo;
    SimOptions lent = quick();
    lent.gemm_memo = &memo;
    SimOptions lent_full = lent;
    lent_full.quick = false;

    struct Step {
        const char* what;
        AccelConfig accel;
        const Workload* workload;
        SimOptions options;
        bool all_reused; ///< every GEMM layer comes from the memo
    };
    const Step steps[] = {
        {"edge ctx 256", edge_accel(), &ctx256, lent, false},
        {"edge ctx 512", edge_accel(), &ctx512, lent, true},
        {"cloud ctx 512", cloud_accel(), &ctx512, lent, false},
        {"edge full menus", edge_accel(), &ctx512, lent_full, false},
        {"edge half off-chip bandwidth", slow_dram, &ctx512, lent, false},
        {"edge half SG", small_sg, &ctx512, lent, false},
    };
    for (const Step& step : steps) {
        SCOPED_TRACE(step.what);
        const Simulator sim(step.accel);
        const ScopeReport report =
            sim.run(*step.workload, Scope::kModel, policy, step.options);
        SimOptions unlent = step.options;
        unlent.gemm_memo = nullptr;
        const ScopeReport reference =
            sim.run(*step.workload, Scope::kModel, policy, unlent);
        expect_same_breakdown(report, reference.breakdown);
        ASSERT_EQ(report.block.layers.size(),
                  reference.block.layers.size());
        bool all_reused = true;
        for (std::size_t i = 0; i < report.block.layers.size(); ++i) {
            const BlockLayerPlan& layer = report.block.layers[i];
            if (!layer.attention) {
                all_reused = all_reused && layer.reused;
                EXPECT_EQ(layer.dataflow.tag(),
                          reference.block.layers[i].dataflow.tag());
            }
        }
        EXPECT_EQ(all_reused, step.all_reused);
    }
}

TEST(Simulator, CanonicalOptionsWriteWhatShapesResultsOnly)
{
    // The options line of every journal hash: a journal must go stale
    // under another objective, mode, menu, style set or overlap model,
    // and must resume under any execution knob.
    const SimOptions base;
    const std::vector<std::pair<const char*, void (*)(SimOptions&)>>
        shaping = {
            {"objective",
             [](SimOptions& o) { o.objective = Objective::kEnergy; }},
            {"search_mode",
             [](SimOptions& o) { o.search_mode = SearchMode::kAnalytic; }},
            {"quick", [](SimOptions& o) { o.quick = true; }},
            {"styles", [](SimOptions& o) { o.styles = {"flash"}; }},
            {"baseline_overlap",
             [](SimOptions& o) {
                 o.baseline_overlap = BaselineOverlap::kSerialized;
             }},
        };
    for (const auto& [field, edit] : shaping) {
        SimOptions options = base;
        edit(options);
        EXPECT_NE(options.canonical(), base.canonical()) << field;
    }

    const std::string path = ::testing::TempDir() + "flat_canonical.jsonl";
    const std::unique_ptr<RunJournal> journal =
        RunJournal::create(path, RunJournalHeader{});
    const CancellationToken cancel;
    GemmSearchMemo memo;
    SimOptions knobs = base;
    knobs.threads = 8;
    knobs.prune = false;
    knobs.journal = journal.get();
    knobs.cancel = &cancel;
    knobs.gemm_memo = &memo;
    EXPECT_EQ(knobs.canonical(), base.canonical());
    std::remove(path.c_str());
}

TEST(Simulator, RejectsInvalidAccel)
{
    AccelConfig bad = edge_accel();
    bad.pe_rows = 0;
    EXPECT_THROW(Simulator{bad}, Error);
}

} // namespace
} // namespace flat
