#include "dse/search.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "dse/search_internal.h"
#include "workload/attention.h"
#include "workload/model_config.h"

namespace flat {
namespace {

AttentionDims
dims(std::uint64_t n)
{
    AttentionDims d;
    d.batch = 16;
    d.heads = 8;
    d.q_len = n;
    d.kv_len = n;
    d.head_dim = 64;
    return d;
}

TEST(Search, FindsAPoint)
{
    AttentionSearchOptions opt;
    opt.quick = true;
    const AttentionSearchResult res =
        search_attention(edge_accel(), dims(1024), opt);
    EXPECT_TRUE(res.found);
    EXPECT_GT(res.evaluated, 100u);
    EXPECT_GT(res.best.cost.cycles, 0.0);
    EXPECT_GT(res.best.energy_j, 0.0);
}

TEST(Search, FusedOptimumNeverWorseThanBaselineOptimum)
{
    // FLAT's space strictly contains everything the baseline space can
    // express plus fusion; the optimum must dominate (§6.2).
    for (std::uint64_t n : {512u, 4096u, 16384u}) {
        AttentionSearchOptions opt;
        opt.quick = true;
        opt.fused = true;
        const auto flat_res =
            search_attention(edge_accel(), dims(n), opt);
        opt.fused = false;
        const auto base_res =
            search_attention(edge_accel(), dims(n), opt);
        EXPECT_LE(flat_res.best.cost.cycles,
                  base_res.best.cost.cycles * 1.0001)
            << "N=" << n;
    }
}

TEST(Search, FixedCrossRestrictsSpace)
{
    AttentionSearchOptions opt;
    opt.quick = true;
    opt.fixed_cross = CrossLoop{Granularity::kHead, 0};
    const auto res = search_attention(edge_accel(), dims(1024), opt);
    EXPECT_EQ(res.best.dataflow.cross.granularity, Granularity::kHead);
}

TEST(Search, FixedFlagsRestrictSpace)
{
    AttentionSearchOptions opt;
    opt.quick = true;
    FusedStageFlags flags = FusedStageFlags::decode(0);
    opt.fixed_flags = flags;
    const auto res = search_attention(edge_accel(), dims(1024), opt);
    EXPECT_EQ(FusedStageFlags::encode(res.best.dataflow.stage), 0u);
}

TEST(Search, BaselineSpaceExcludesRowGranularity)
{
    AttentionSearchOptions opt;
    opt.quick = true;
    opt.fused = false;
    const auto points =
        explore_attention(edge_accel(), dims(1024), opt);
    ASSERT_FALSE(points.empty());
    for (const DsePoint& p : points) {
        EXPECT_NE(p.dataflow.cross.granularity, Granularity::kRow);
    }
}

TEST(Search, EnergyObjectivePicksLowerEnergyPoint)
{
    AttentionSearchOptions runtime_opt;
    runtime_opt.quick = true;
    runtime_opt.objective = Objective::kRuntime;
    AttentionSearchOptions energy_opt = runtime_opt;
    energy_opt.objective = Objective::kEnergy;

    const auto by_runtime =
        search_attention(edge_accel(), dims(4096), runtime_opt);
    const auto by_energy =
        search_attention(edge_accel(), dims(4096), energy_opt);
    EXPECT_LE(by_energy.best.energy_j,
              by_runtime.best.energy_j * 1.0001);
    EXPECT_LE(by_runtime.best.cost.cycles,
              by_energy.best.cost.cycles * 1.0001);
}

TEST(Search, EdpObjectiveBetweenExtremes)
{
    const DsePoint p{FusedDataflow{}, OperatorCost{}, 2.0};
    DsePoint q = p;
    q.cost.cycles = 3.0;
    EXPECT_DOUBLE_EQ(q.objective_value(Objective::kRuntime), 3.0);
    EXPECT_DOUBLE_EQ(q.objective_value(Objective::kEnergy), 2.0);
    EXPECT_DOUBLE_EQ(q.objective_value(Objective::kEdp), 6.0);
}

TEST(OperatorSearch, FindsDataflowForProjection)
{
    const Workload w = make_workload(bert_base(), 64, 512);
    OperatorSearchOptions opt;
    opt.quick = true;
    const OperatorSearchResult res =
        search_operator(edge_accel(), w.ops[0], opt);
    EXPECT_TRUE(res.found);
    EXPECT_GT(res.cost.util(), 0.5);
}

TEST(OperatorSearch, L3ForbiddenMeansNoStaging)
{
    const Workload w = make_workload(bert_base(), 64, 512);
    OperatorSearchOptions opt;
    opt.quick = true;
    opt.allow_l3 = false;
    const OperatorSearchResult res =
        search_operator(edge_accel(), w.ops[0], opt);
    EXPECT_FALSE(res.dataflow.l3.any());
}

TEST(OperatorSearch, AllowingL3NeverHurts)
{
    const Workload w = make_workload(bert_base(), 64, 2048);
    OperatorSearchOptions with;
    with.quick = true;
    OperatorSearchOptions without = with;
    without.allow_l3 = false;
    const auto res_with = search_operator(edge_accel(), w.ops[0], with);
    const auto res_without =
        search_operator(edge_accel(), w.ops[0], without);
    EXPECT_LE(res_with.cost.cycles, res_without.cost.cycles * 1.0001);
}

TEST(Search, UtilMonotoneInBufferSize)
{
    // Property: a larger SG can never make the best fused dataflow
    // slower (the DSE can always ignore the extra capacity).
    const AttentionDims d = dims(8192);
    double prev_cycles = std::numeric_limits<double>::infinity();
    for (std::uint64_t buf = 64 * 1024; buf <= 256ull * 1024 * 1024;
         buf *= 8) {
        AccelConfig accel = edge_accel();
        accel.sg_bytes = buf;
        AttentionSearchOptions opt;
        opt.quick = true;
        const auto res = search_attention(accel, d, opt);
        EXPECT_LE(res.best.cost.cycles, prev_cycles * 1.0001)
            << "buffer " << buf;
        prev_cycles = res.best.cost.cycles;
    }
}

TEST(Search, SerializedBaselineNeverFasterThanOverlapped)
{
    for (std::uint64_t n : {1024u, 16384u}) {
        AttentionSearchOptions opt;
        opt.quick = true;
        opt.fused = false;
        const auto full = search_attention(edge_accel(), dims(n), opt);
        opt.baseline_overlap = BaselineOverlap::kSerialized;
        const auto serial = search_attention(edge_accel(), dims(n), opt);
        EXPECT_GE(serial.best.cost.cycles,
                  full.best.cost.cycles * 0.9999)
            << "N=" << n;
    }
}

TEST(Search, BestPointNeverBeatsIdealCycles)
{
    AttentionSearchOptions opt;
    opt.quick = true;
    const AttentionDims d = dims(4096);
    const auto res = search_attention(edge_accel(), d, opt);
    EXPECT_GE(res.best.cost.cycles,
              attention_ideal_cycles(edge_accel(), d) * 0.9999);
}

/** The operator search as one model_gemm_operator() call per
 *  candidate, in enumeration order under the strict < — the reference
 *  the batched search must reproduce. */
OperatorSearchResult
reference_operator_search(const AccelConfig& accel, const Operator& op,
                          const OperatorSearchOptions& options)
{
    const CandidateOptions cand =
        detail::effective_candidates(options.candidates, options.quick);
    const EnergyTable table = EnergyTable::for_accel(accel);
    std::vector<L3StageFlags> l3_sets = {L3StageFlags{}};
    if (options.allow_l3) {
        for (std::uint32_t code = 1; code < 8; ++code) {
            l3_sets.push_back(L3StageFlags{(code & 1) != 0,
                                           (code & 2) != 0,
                                           (code & 4) != 0});
        }
    }
    OperatorSearchResult result;
    double best = std::numeric_limits<double>::infinity();
    for (const Stationarity stat : stationarity_candidates(cand)) {
        for (const L2Tile& tile :
             tile_candidates(accel, op.gemm, cand, stat)) {
            for (const LoopOrder order : loop_order_candidates(cand)) {
                for (const L3StageFlags& l3 : l3_sets) {
                    OperatorDataflow df;
                    df.l2 = tile;
                    df.order = order;
                    df.stationarity = stat;
                    df.l3 = l3;
                    df.cross = {Granularity::kMulti, 0};
                    const OperatorCost cost =
                        model_gemm_operator(accel, op, df);
                    const double energy =
                        estimate_energy(table, cost.activity).total();
                    ++result.evaluated;
                    const double value = objective_value(
                        options.objective, cost.cycles, energy);
                    if (value < best) {
                        best = value;
                        result.dataflow = df;
                        result.cost = cost;
                        result.energy_j = energy;
                        result.found = true;
                    }
                }
            }
        }
    }
    return result;
}

/** Prefill projections/FCs and the batched L/A GEMMs of an MHA model,
 *  plus a GQA decode step's (narrow K/V projections, one query row per
 *  sequence). */
std::vector<Operator>
searched_gemms()
{
    std::vector<Operator> ops;
    for (const Workload& w :
         {make_workload(bert_base(), 8, 512),
          make_decode_workload(model_by_name("mistral"), 16, 2048)}) {
        for (const Operator& op : w.ops) {
            if (op.kind == OpKind::kGemm) {
                ops.push_back(op);
            }
        }
    }
    return ops;
}

TEST(OperatorSearch, BatchedLanesMatchTheReferenceLoop)
{
    for (const AccelConfig& accel : {edge_accel(), cloud_accel()}) {
        for (const Operator& op : searched_gemms()) {
            for (const bool allow_l3 : {false, true}) {
                for (const bool quick : {true, false}) {
                    for (const Objective objective :
                         {Objective::kRuntime, Objective::kEnergy,
                          Objective::kEdp}) {
                        SCOPED_TRACE(accel.name + " " + op.name + " m=" +
                                     std::to_string(op.gemm.m) +
                                     " l3=" + std::to_string(allow_l3) +
                                     " quick=" + std::to_string(quick) +
                                     " objective=" +
                                     std::to_string(
                                         static_cast<int>(objective)));
                        OperatorSearchOptions opt;
                        opt.allow_l3 = allow_l3;
                        opt.quick = quick;
                        opt.objective = objective;
                        const OperatorSearchResult want =
                            reference_operator_search(accel, op, opt);
                        const OperatorSearchResult got =
                            search_operator(accel, op, opt);
                        ASSERT_TRUE(got.found);
                        EXPECT_EQ(got.dataflow.tag(), want.dataflow.tag());
                        EXPECT_EQ(got.cost.cycles, want.cost.cycles);
                        EXPECT_EQ(got.energy_j, want.energy_j);
                        EXPECT_EQ(got.evaluated, want.evaluated);
                    }
                }
            }
        }
    }
}

/** A lane's cycles and every activity field equal @p cost's, bit for
 *  bit. */
bool
lane_matches(const TimelineBatch::LaneSummary& lane,
             const OperatorCost& cost)
{
    const auto same = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof x) == 0;
    };
    const ActivityCounts& a = lane.activity;
    const ActivityCounts& b = cost.activity;
    return same(lane.cycles, cost.cycles) && same(a.macs, b.macs) &&
           same(a.sl_accesses, b.sl_accesses) &&
           same(a.sfu_elems, b.sfu_elems) &&
           same(a.traffic.dram_read, b.traffic.dram_read) &&
           same(a.traffic.dram_write, b.traffic.dram_write) &&
           same(a.traffic.sg_read, b.traffic.sg_read) &&
           same(a.traffic.sg_write, b.traffic.sg_write) &&
           same(a.traffic.sg2_read, b.traffic.sg2_read) &&
           same(a.traffic.sg2_write, b.traffic.sg2_write) &&
           same(a.traffic.link_in, b.traffic.link_in) &&
           same(a.traffic.link_out, b.traffic.link_out);
}

TEST(OperatorSearch, EveryLaneMatchesTheReference)
{
    // Every candidate's lane, not only the winner, prices as
    // model_gemm_operator() does: a lane reading another candidate's
    // record or resident fraction could hide behind an unchanged
    // winner.
    TimelineBatch batch;
    std::vector<OperatorDataflow> candidates;
    std::size_t lanes = 0;
    std::size_t spilled = 0;
    for (const AccelConfig& accel : {edge_accel(), cloud_accel()}) {
        for (const Operator& op : searched_gemms()) {
            for (const bool allow_l3 : {false, true}) {
                for (const bool quick : {true, false}) {
                    SCOPED_TRACE(accel.name + " " + op.name + " m=" +
                                 std::to_string(op.gemm.m) +
                                 " l3=" + std::to_string(allow_l3) +
                                 " quick=" + std::to_string(quick));
                    OperatorSearchOptions opt;
                    opt.allow_l3 = allow_l3;
                    opt.quick = quick;
                    detail::price_operator_lanes(accel, op, opt,
                                                 candidates, batch);
                    ASSERT_EQ(batch.lanes(), candidates.size());
                    std::size_t mismatched = 0;
                    std::string first;
                    for (std::size_t i = 0; i < candidates.size(); ++i) {
                        const OperatorCost want =
                            model_gemm_operator(accel, op, candidates[i]);
                        spilled += want.resident_fraction < 1.0 ? 1 : 0;
                        if (!lane_matches(batch.summary(i), want) &&
                            mismatched++ == 0) {
                            first = candidates[i].tag();
                        }
                    }
                    EXPECT_EQ(mismatched, 0u) << "first: " << first;
                    lanes += candidates.size();
                }
            }
        }
    }
    // Staged candidates must spill often, or lanes that mix up the L3
    // subsets' resident fractions would price alike.
    EXPECT_GT(spilled, lanes / 4) << spilled << " of " << lanes;
}

TEST(OperatorSearch, RejectsSoftmax)
{
    const Workload w = make_workload(bert_base(), 1, 128);
    EXPECT_THROW(
        search_operator(edge_accel(), w.softmax_op(), {}), Error);
}

TEST(CandidateTag, StackTagsOrderTiesLikeTheirStrings)
{
    // The fold compares a tying lane's tag formed in a stack buffer
    // against the incumbent's stored string; candidate_tag() defines
    // the order. Sample a tie set whose tile dims cross a digit-count
    // boundary (64 vs 128 sorts "128" < "64" as text) across styles,
    // crosses and flags, and check every pair orders the same way.
    const std::vector<const ExecutionStyle*>& styles = execution_styles();
    const std::vector<CrossLoop> crosses = {
        {Granularity::kMulti, 0}, {Granularity::kHead, 0},
        {Granularity::kRow, 64},  {Granularity::kRow, 128},
        {Granularity::kColumn, 64, 128}, {Granularity::kColumn, 128, 64}};
    const std::vector<L2Tile> tiles = {{64, 64, 128},  {128, 64, 64},
                                       {64, 128, 64},  {128, 128, 128},
                                       {8, 64, 1024},  {1024, 64, 8}};
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    const auto pick = [&](std::size_t n) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::size_t>((state >> 33) % n);
    };
    struct Candidate {
        std::string text;   ///< candidate_tag()
        std::string buffer; ///< format_candidate_tag(), copied out
    };
    std::vector<Candidate> ties;
    for (int i = 0; i < 300; ++i) {
        const ExecutionStyle& style = *styles[pick(styles.size())];
        FusedDataflow df;
        df.cross = crosses[pick(crosses.size())];
        df.l2_logit = tiles[pick(tiles.size())];
        df.l2_attend = tiles[pick(tiles.size())];
        df.stage = FusedStageFlags::decode(
            static_cast<std::uint32_t>(pick(32)));
        char buffer[detail::kCandidateTagChars];
        const std::string_view view =
            detail::format_candidate_tag(buffer, style, df);
        ties.push_back({detail::candidate_tag(style, df),
                        std::string(view)});
        EXPECT_EQ(ties.back().buffer, ties.back().text);
    }
    const double value = 1.0e6; // every candidate ties on the objective
    for (const Candidate& a : ties) {
        for (const Candidate& b : ties) {
            ASSERT_EQ(detail::improves(value, std::string_view(a.buffer),
                                       value, b.text),
                      detail::improves(value, a.text, value, b.text))
                << a.text << " vs " << b.text;
            ASSERT_EQ(std::string_view(a.buffer) < std::string_view(b.buffer),
                      a.text < b.text);
        }
    }
}

} // namespace
} // namespace flat
