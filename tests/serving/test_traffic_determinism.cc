/**
 * @file
 * Determinism contract of the request-level traffic simulator: the
 * serving report — SLO percentiles, tokens/s, and the exact completion
 * order — is bit-identical at any inner-DSE thread count and batch
 * width, and a run resumed from a step-cost journal (even one
 * truncated mid-write) reproduces the uninterrupted report bit for
 * bit. The serving event loop is strictly serial; the only parallelism
 * is inside each step-cost DSE, whose result is thread-invariant.
 */
#include "serving/serving.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/run_journal.h"
#include "common/status.h"
#include "costmodel/execution_style.h"
#include "dse/block_search.h"
#include "dse/search_internal.h"
#include "support/accel_edits.h"
#include "workload/attention.h"
#include "workload/model_config.h"

namespace flat {
namespace {

std::vector<Request>
small_trace()
{
    ArrivalOptions opt;
    opt.kind = ArrivalKind::kPoisson;
    opt.seed = 13;
    opt.rate_rps = 16.0;
    opt.requests = 10;
    opt.prompt_tokens = 256;
    opt.output_tokens = 6;
    return generate_arrivals(opt);
}

ServeOptions
serve_options(unsigned threads, bool prune = true)
{
    ServeOptions opt;
    opt.sched.max_batch = 4;
    opt.sim.quick = true;
    opt.sim.threads = threads;
    opt.sim.prune = prune;
    return opt;
}

void
expect_identical_reports(const ServeReport& a, const ServeReport& b,
                         const char* what)
{
    EXPECT_EQ(a.completed, b.completed) << what;
    EXPECT_EQ(a.p50_s, b.p50_s) << what; // bit-exact, no tolerance
    EXPECT_EQ(a.p95_s, b.p95_s) << what;
    EXPECT_EQ(a.p99_s, b.p99_s) << what;
    EXPECT_EQ(a.mean_s, b.mean_s) << what;
    EXPECT_EQ(a.makespan_s, b.makespan_s) << what;
    EXPECT_EQ(a.tokens_per_s, b.tokens_per_s) << what;
    EXPECT_EQ(a.prefill_steps, b.prefill_steps) << what;
    EXPECT_EQ(a.decode_steps, b.decode_steps) << what;
    ASSERT_EQ(a.completion_order.size(), b.completion_order.size())
        << what;
    for (std::size_t i = 0; i < a.completion_order.size(); ++i) {
        EXPECT_EQ(a.completion_order[i], b.completion_order[i]) << what;
    }
}

RunJournalHeader
serve_header(const AccelConfig& accel, const ModelConfig& model,
             const std::vector<Request>& requests,
             const ServeOptions& options)
{
    RunJournalHeader header;
    header.mode = "serve";
    header.space_hash = fnv1a64(
        serving_space_canonical(accel, model, requests, options));
    return header;
}

TEST(TrafficDeterminism, EveryAccelFieldChangesBothJournalHashes)
{
    // A serve journal replays step costs and a search journal slice
    // winners, so each must go stale when any accelerator field moves
    // — the serve line once missed the SG2 bandwidth, the NoC kinds
    // and the capability bits, and both once printed doubles to 6
    // digits, so 25GB/s and 25.00001GB/s shared a journal.
    const AccelConfig base = edit_base();
    const ModelConfig model = model_by_name("bert");
    const std::vector<Request> requests = small_trace();
    const ServeOptions options = serve_options(1);
    const AttentionDims dims =
        AttentionDims::from_workload(make_workload(bert_base(), 2, 256));
    const AttentionSearchOptions search;
    const std::string serve_text =
        serving_space_canonical(base, model, requests, options);
    const std::string search_text =
        detail::search_space_canonical(base, dims, search);
    for (const auto& [field, edit] : accel_edits()) {
        AccelConfig accel = base;
        edit(accel);
        EXPECT_NE(serving_space_canonical(accel, model, requests, options),
                  serve_text)
            << field;
        EXPECT_NE(detail::search_space_canonical(accel, dims, search),
                  search_text)
            << field;
    }
}

TEST(TrafficDeterminism, EveryAccelFieldEditMissesTheGemmMemo)
{
    // The memo keys on raw bytes, not on canonical text, because every
    // serve step looks it up; an edit of any field must still search
    // afresh (`flatsim --offchip-bw` keeps the preset's name).
    GemmShape shape;
    shape.m = 256;
    shape.k = 768;
    shape.n = 768;
    const Operator op =
        make_gemm_op("Q", OpCategory::kProjection, shape);
    OperatorSearchOptions options;
    options.quick = true;
    for (const auto& [field, edit] : accel_edits()) {
        AccelConfig accel = edit_base();
        edit(accel);
        GemmSearchMemo memo;
        bool reused = true;
        memo.search(edit_base(), op, options, reused);
        EXPECT_FALSE(reused) << field;
        memo.search(accel, op, options, reused);
        EXPECT_FALSE(reused) << field;
        memo.search(accel, op, options, reused);
        EXPECT_TRUE(reused) << field;
    }
}

TEST(TrafficDeterminism, ReportIsThreadAndBatchWidthInvariant)
{
    const AccelConfig accel = edge_accel();
    const ModelConfig model = model_by_name("bert");
    const std::vector<Request> requests = small_trace();

    const ServeReport reference =
        run_serving(accel, model, requests, serve_options(1, false));
    ASSERT_EQ(reference.completed, requests.size());
    ASSERT_GT(reference.tokens_per_s, 0.0);

    for (const unsigned threads : {1u, 8u}) {
        for (const bool prune : {false, true}) {
            const ServeReport candidate = run_serving(
                accel, model, requests, serve_options(threads, prune));
            expect_identical_reports(
                reference, candidate,
                (std::string("threads=") + std::to_string(threads) +
                 " prune=" + std::to_string(prune))
                    .c_str());
        }
    }
}

TEST(TrafficDeterminism, BothPoliciesDrainDeterministically)
{
    const AccelConfig accel = edge_accel();
    const ModelConfig model = model_by_name("bert");
    const std::vector<Request> requests = small_trace();
    for (const SchedPolicy policy : sched_policies()) {
        ServeOptions a = serve_options(1);
        a.sched.policy = policy;
        ServeOptions b = serve_options(8);
        b.sched.policy = policy;
        expect_identical_reports(run_serving(accel, model, requests, a),
                                 run_serving(accel, model, requests, b),
                                 to_string(policy).c_str());
    }
}

class TrafficJournal : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = ::testing::TempDir() + "flat_traffic_journal_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".jsonl";
        std::remove(path_.c_str());
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(TrafficJournal, ResumedRunMatchesUninterruptedBitForBit)
{
    const AccelConfig accel = edge_accel();
    const ModelConfig model = model_by_name("bert");
    const std::vector<Request> requests = small_trace();

    const ServeReport uninterrupted =
        run_serving(accel, model, requests, serve_options(1));

    // Journaled first run, then a resume that replays every step cost.
    {
        ServeOptions opt = serve_options(1);
        auto journal = RunJournal::create(
            path_, serve_header(accel, model, requests, opt));
        opt.journal = journal.get();
        const ServeReport journaled =
            run_serving(accel, model, requests, opt);
        expect_identical_reports(uninterrupted, journaled, "journaled");
        EXPECT_EQ(journaled.cost_journal_hits, 0u);
    }
    {
        ServeOptions opt = serve_options(8);
        auto journal = RunJournal::open_resume(
            path_, serve_header(accel, model, requests, opt));
        EXPECT_GT(journal->restored(), 0u);
        opt.journal = journal.get();
        const ServeReport resumed =
            run_serving(accel, model, requests, opt);
        expect_identical_reports(uninterrupted, resumed, "resumed");
        // Every distinct step cost came from the journal, none from a
        // fresh DSE.
        EXPECT_EQ(resumed.cost_journal_hits,
                  resumed.cost_lookups - resumed.cost_memo_hits);
        EXPECT_GT(resumed.cost_journal_hits, 0u);
    }
}

TEST_F(TrafficJournal, ResumeFromTruncatedJournalMatchesUninterrupted)
{
    const AccelConfig accel = edge_accel();
    const ModelConfig model = model_by_name("bert");
    const std::vector<Request> requests = small_trace();

    const ServeReport uninterrupted =
        run_serving(accel, model, requests, serve_options(1));

    {
        ServeOptions opt = serve_options(1);
        auto journal = RunJournal::create(
            path_, serve_header(accel, model, requests, opt));
        opt.journal = journal.get();
        run_serving(accel, model, requests, opt);
    }

    // Simulate a crash mid-write: drop the tail of the journal,
    // leaving a torn final line behind.
    std::ifstream in(path_);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(text.size(), 0u);
    std::size_t cut = text.size() - text.size() / 3;
    {
        std::ofstream out(path_, std::ios::trunc);
        out << text.substr(0, cut); // mid-record: torn final line
    }

    ServeOptions opt = serve_options(8);
    auto journal = RunJournal::open_resume(
        path_, serve_header(accel, model, requests, opt));
    opt.journal = journal.get();
    const ServeReport resumed = run_serving(accel, model, requests, opt);
    expect_identical_reports(uninterrupted, resumed,
                             "resume from truncated journal");
    // The torn tail re-evaluates; the intact prefix replays.
    EXPECT_GT(resumed.cost_journal_hits, 0u);
}

TEST_F(TrafficJournal, StaleJournalIsRejected)
{
    const AccelConfig accel = edge_accel();
    const ModelConfig model = model_by_name("bert");
    const std::vector<Request> requests = small_trace();
    ServeOptions opt = serve_options(1);
    {
        auto journal = RunJournal::create(
            path_, serve_header(accel, model, requests, opt));
        opt.journal = journal.get();
        run_serving(accel, model, requests, opt);
    }
    // A different trace (one more request) is a different space.
    ArrivalOptions bigger;
    bigger.seed = 13;
    bigger.rate_rps = 16.0;
    bigger.requests = 11;
    bigger.prompt_tokens = 256;
    bigger.output_tokens = 6;
    const std::vector<Request> other = generate_arrivals(bigger);
    EXPECT_THROW(RunJournal::open_resume(
                     path_, serve_header(accel, model, other, opt)),
                 Error);
}

TEST(ServingSearch, AutoPicksTheThroughputWinnerDeterministically)
{
    const AccelConfig accel = edge_accel();
    const ModelConfig model = model_by_name("bert");
    const std::vector<Request> requests = small_trace();

    ServeOptions opt = serve_options(1);
    const ServingSearchResult a =
        search_serving(accel, model, requests, opt);
    ASSERT_TRUE(a.found);
    // style registry x 2 batching policies, all feasible here
    EXPECT_EQ(a.evaluated.size() % 2, 0u);
    EXPECT_GE(a.evaluated.size(), 4u);
    for (const ServeReport& r : a.evaluated) {
        EXPECT_LE(r.tokens_per_s, a.report.tokens_per_s);
    }

    ServeOptions opt8 = serve_options(8, false);
    const ServingSearchResult b =
        search_serving(accel, model, requests, opt8);
    ASSERT_TRUE(b.found);
    EXPECT_EQ(a.best.style, b.best.style);
    EXPECT_EQ(a.best.sched, b.best.sched);
    expect_identical_reports(a.report, b.report, "serving search");
}

TEST(ServingSearch, EveryCombinationMatchesItsStandaloneRun)
{
    // search_serving prices each (style, step) once for both batching
    // policies and shares its GEMM searches across all combinations;
    // neither memo may change a report.
    const AccelConfig accel = edge_accel();
    const ModelConfig model = model_by_name("bert");
    const std::vector<Request> requests = small_trace();
    const ServeOptions opt = serve_options(1);
    const ServingSearchResult result =
        search_serving(accel, model, requests, opt);
    ASSERT_TRUE(result.found);

    std::size_t i = 0;
    std::uint64_t searched_priced = 0;
    std::uint64_t standalone_priced = 0;
    const auto priced = [](const ServeReport& r) {
        return r.cost_lookups - r.cost_memo_hits - r.cost_journal_hits;
    };
    for (const ExecutionStyle* style : execution_styles()) {
        for (const SchedPolicy policy : sched_policies()) {
            SCOPED_TRACE(std::string(style->id()) + " " +
                         to_string(policy));
            ServeOptions combo = opt;
            combo.sim.styles = {style->id()};
            combo.sim.search_mode = opt.dse_mode;
            combo.sched.policy = policy;
            const ServeReport standalone =
                run_serving(accel, model, requests, combo);
            ASSERT_LT(i, result.evaluated.size());
            const ServeReport& searched = result.evaluated[i++];
            EXPECT_EQ(searched.sched_policy, standalone.sched_policy);
            EXPECT_EQ(searched.generated_tokens,
                      standalone.generated_tokens);
            EXPECT_EQ(searched.cost_lookups, standalone.cost_lookups);
            expect_identical_reports(searched, standalone,
                                     "search vs standalone");
            searched_priced += priced(searched);
            standalone_priced += priced(standalone);
        }
    }
    EXPECT_EQ(i, result.evaluated.size());
    // The second policy of each style finds its steps already priced.
    EXPECT_LT(searched_priced, standalone_priced);
}

} // namespace
} // namespace flat
