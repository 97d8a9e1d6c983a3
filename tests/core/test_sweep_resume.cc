/**
 * @file
 * Long-run robustness of the sweep engine: journaled checkpoint /
 * resume determinism (threads 1 vs 8, prune on/off, complete and
 * interrupted journals), graceful cancellation drain (exit 5) and the
 * preemptive per-point deadline.
 */
#include "core/sweep.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "common/json.h"

namespace flat {
namespace {

/** 2 models x 2 policies x 2 seqs x 2 batches = 16 cheap points. */
SweepSpec
small_spec()
{
    return SweepSpec::from_text(
        "models    = bert, t5\n"
        "platforms = edge\n"
        "policies  = flat-opt, base\n"
        "seq       = 256, 512\n"
        "batch     = 2, 4\n"
        "scope     = la\n"
        "quick     = true\n");
}

/** Machine-readable report with wall-clock noise normalized away —
 *  everything else must be byte-identical across resume paths. */
std::string
scrubbed_json(const SweepReport& report)
{
    JsonWriter json;
    report.write_json(json);
    const std::string text = json.str();
    const std::string key = "\"wall_ms\":";
    std::string out;
    out.reserve(text.size());
    std::size_t pos = 0;
    while (true) {
        const std::size_t hit = text.find(key, pos);
        if (hit == std::string::npos) {
            out.append(text, pos, std::string::npos);
            return out;
        }
        out.append(text, pos, hit + key.size() - pos);
        out.push_back('0');
        std::size_t end = hit + key.size();
        while (end < text.size() && text[end] != ',' &&
               text[end] != '}') {
            ++end;
        }
        pos = end;
    }
}

class SweepResume : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = ::testing::TempDir() + "flat_sweep_resume_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".jsonl";
        std::remove(path_.c_str());
    }

    void TearDown() override
    {
        disarm_all_faults();
        std::remove(path_.c_str());
    }

    std::string path_;
};

TEST_F(SweepResume, JournalHeaderTracksResultShapingKnobsOnly)
{
    const SweepSpec spec = small_spec();
    SimOptions sim;
    const RunJournalHeader base = sweep_journal_header(spec, sim);
    EXPECT_EQ(base.mode, "sweep");
    EXPECT_EQ(base.points, 16u);

    // Execution knobs do not invalidate a journal...
    SimOptions threaded = sim;
    threaded.threads = 8;
    threaded.prune = false;
    EXPECT_EQ(sweep_journal_header(spec, threaded).space_hash,
              base.space_hash);

    // ...result-shaping knobs do.
    SweepSpec other = spec;
    other.seq_lens = {256, 1024};
    EXPECT_NE(sweep_journal_header(other, sim).space_hash,
              base.space_hash);
    SimOptions serialized = sim;
    serialized.baseline_overlap = BaselineOverlap::kSerialized;
    EXPECT_NE(sweep_journal_header(spec, serialized).space_hash,
              base.space_hash);
    // Every point searches the styles, so they shape the results too.
    SimOptions styled = sim;
    styled.styles = {"all"};
    const RunJournalHeader all = sweep_journal_header(spec, styled);
    EXPECT_NE(all.space_hash, base.space_hash);
    styled.styles = {"flat", "flash"};
    EXPECT_NE(sweep_journal_header(spec, styled).space_hash,
              all.space_hash);
    styled.styles = {"all"};
    EXPECT_EQ(sweep_journal_header(spec, styled).space_hash,
              all.space_hash);
}

TEST_F(SweepResume, ResumedSweepMatchesFreshAcrossThreadsAndPrune)
{
    const SweepSpec spec = small_spec();
    SweepOptions options;
    options.threads = 2;
    const std::string fresh = scrubbed_json(run_sweep(spec, options));

    {
        auto journal = RunJournal::create(
            path_, sweep_journal_header(spec, options.sim));
        SweepOptions journaled = options;
        journaled.journal = journal.get();
        // Journaling itself must not change the report.
        EXPECT_EQ(scrubbed_json(run_sweep(spec, journaled)), fresh);
    }

    for (const unsigned threads : {1u, 8u}) {
        for (const bool prune : {true, false}) {
            SCOPED_TRACE(std::to_string(threads) + " threads, prune " +
                         (prune ? "on" : "off"));
            SweepOptions resumed_options;
            resumed_options.threads = threads;
            resumed_options.sim.prune = prune;
            auto journal = RunJournal::open_resume(
                path_, sweep_journal_header(spec, resumed_options.sim));
            resumed_options.journal = journal.get();
            const SweepReport resumed = run_sweep(spec, resumed_options);
            EXPECT_EQ(resumed.resumed(), 16u);
            EXPECT_EQ(scrubbed_json(resumed), fresh);
        }
    }
}

TEST_F(SweepResume, InterruptedJournalResumesToTheIdenticalReport)
{
    const SweepSpec spec = small_spec();
    SweepOptions options;
    options.threads = 2;
    const std::string fresh = scrubbed_json(run_sweep(spec, options));

    {
        auto journal = RunJournal::create(
            path_, sweep_journal_header(spec, options.sim));
        SweepOptions journaled = options;
        journaled.journal = journal.get();
        run_sweep(spec, journaled);
    }
    // Simulate a crash partway: keep the header plus roughly half of
    // the journal (which interleaves per-search slice records with
    // completed sweep points — any prefix is a valid crash state).
    std::vector<std::string> lines;
    {
        std::ifstream in(path_);
        std::string line;
        while (std::getline(in, line)) {
            lines.push_back(line);
        }
    }
    ASSERT_GT(lines.size(), 4u);
    {
        std::ofstream out(path_, std::ios::trunc);
        for (std::size_t i = 0; i < lines.size() / 2; ++i) {
            out << lines[i] << "\n";
        }
    }
    SweepOptions resumed_options;
    resumed_options.threads = 8;
    resumed_options.sim.prune = false;
    auto journal = RunJournal::open_resume(
        path_, sweep_journal_header(spec, resumed_options.sim));
    resumed_options.journal = journal.get();
    const SweepReport resumed = run_sweep(spec, resumed_options);
    EXPECT_LT(resumed.resumed(), 16u);
    EXPECT_EQ(scrubbed_json(resumed), fresh);
}

TEST_F(SweepResume, PreCancelledSweepDrainsWithExitFive)
{
    CancellationToken cancel;
    cancel.request(CancelReason::kSignal);
    SweepOptions options;
    options.threads = 2;
    options.cancel = &cancel;
    const SweepReport report = run_sweep(small_spec(), options);
    ASSERT_EQ(report.results.size(), 16u);
    EXPECT_EQ(report.cancelled(), 16u);
    EXPECT_EQ(report.completed(), 0u);
    EXPECT_EQ(report.failed(), 0u);
    EXPECT_EQ(report.exit_code(), 5);
    for (const SweepPointResult& r : report.results) {
        EXPECT_TRUE(r.cancelled);
    }
    JsonWriter json;
    report.write_json(json);
    EXPECT_NE(json.str().find("\"cancelled\":16"), std::string::npos);
}

TEST_F(SweepResume, PreemptiveDeadlineStopsAStuckPointEarly)
{
    // A point stuck far past its deadline: a delay fault at the search
    // entry holds it for ten deadlines, whatever the search costs, so
    // the per-point token has expired by the first poll. It must then
    // unwind the DSE at that poll and record a timeout diagnostic, not
    // leave the point to the post-hoc "exceeded deadline" backstop,
    // which would catch it only after the search ran to the end.
    const SweepSpec spec = SweepSpec::from_text(
        "models    = bert\n"
        "platforms = edge\n"
        "policies  = flat-opt\n"
        "seq       = 8192\n"
        "batch     = 64\n"
        "scope     = block\n");
    FaultSpec stuck;
    stuck.action = FaultAction::kDelay;
    stuck.seed = 0; // the sweep's first (only) point
    stuck.delay_ms = 50;
    arm_fault("dse.search_attention", stuck);
    SweepOptions options;
    options.threads = 1;
    options.deadline_ms = 5.0;
    const SweepReport report = run_sweep(spec, options);
    ASSERT_EQ(report.results.size(), 1u);
    EXPECT_FALSE(report.results[0].ok);
    EXPECT_EQ(report.results[0].diag.kind, DiagKind::kTimeout);
    EXPECT_EQ(report.results[0].diag.message, "deadline exceeded")
        << "the timeout came from the backstop, not the per-point token";
    EXPECT_EQ(report.exit_code(), 4);
}

TEST_F(SweepResume, FailedPointsAreJournaledAndNotReattempted)
{
    const SweepSpec spec = small_spec();
    {
        FaultSpec poison; // deterministic failure
        poison.seed = 5;
        arm_fault("sweep.point", poison);
        auto journal = RunJournal::create(
            path_, sweep_journal_header(spec, SimOptions{}));
        SweepOptions options;
        options.threads = 2;
        options.journal = journal.get();
        EXPECT_EQ(run_sweep(spec, options).failed(), 1u);
    }
    disarm_all_faults();
    // Resume WITHOUT the fault: the journaled failure is restored as a
    // failure (a journal records outcomes, it does not retry them).
    SweepOptions options;
    options.threads = 2;
    auto journal = RunJournal::open_resume(
        path_, sweep_journal_header(spec, options.sim));
    options.journal = journal.get();
    const SweepReport resumed = run_sweep(spec, options);
    EXPECT_EQ(resumed.resumed(), 16u);
    EXPECT_EQ(resumed.failed(), 1u);
    EXPECT_FALSE(resumed.results[5].ok);
    EXPECT_EQ(resumed.exit_code(), 4);
}

} // namespace
} // namespace flat
