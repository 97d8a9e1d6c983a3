/**
 * @file
 * Checkpoint/resume contract of the slice-journaled attention search:
 * a search restored from its journal returns the bit-identical best
 * point — for any thread count, prune on or off, from a complete OR a
 * partially-written (interrupted) journal — and a journal written for
 * a different search space contributes nothing.
 */
#include "dse/search.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/run_journal.h"
#include "common/status.h"
#include "workload/model_config.h"

namespace flat {
namespace {

AttentionDims
self_attention(std::uint64_t n)
{
    AttentionDims d;
    d.batch = 16;
    d.heads = 8;
    d.q_len = n;
    d.kv_len = n;
    d.head_dim = 64;
    return d;
}

RunJournalHeader
test_header()
{
    RunJournalHeader header;
    header.mode = "run";
    header.space_hash = fnv1a64("search-journal-test");
    return header;
}

AttentionSearchResult
run_search(unsigned threads, bool prune, RunJournal* journal = nullptr)
{
    AttentionSearchOptions opt;
    opt.quick = true;
    opt.threads = threads;
    opt.prune = prune;
    opt.journal = journal;
    return search_attention(edge_accel(), self_attention(1024), opt);
}

void
expect_same_best(const AttentionSearchResult& reference,
                 const AttentionSearchResult& candidate,
                 const char* what)
{
    ASSERT_TRUE(candidate.found) << what;
    EXPECT_EQ(candidate.best.dataflow.tag(),
              reference.best.dataflow.tag())
        << what;
    EXPECT_EQ(candidate.best.cost.cycles, reference.best.cost.cycles)
        << what;
    EXPECT_EQ(candidate.best.energy_j, reference.best.energy_j) << what;
}

class SearchJournal : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = ::testing::TempDir() + "flat_search_journal_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".jsonl";
        std::remove(path_.c_str());
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(SearchJournal, RestoredSearchMatchesFreshBitForBit)
{
    const AttentionSearchResult fresh = run_search(1, false);
    ASSERT_TRUE(fresh.found);

    std::size_t journaled = 0;
    {
        auto journal = RunJournal::create(path_, test_header());
        expect_same_best(fresh, run_search(1, false, journal.get()),
                         "journaled fresh run");
        journal->flush();
    }
    {
        auto journal = RunJournal::open_resume(path_, test_header());
        journaled = journal->restored();
        EXPECT_GT(journaled, 0u);
        // Every slice restored; the determinism conditions (threads,
        // prune) may differ between the writing and the resuming run.
        for (const unsigned threads : {1u, 8u}) {
            for (const bool prune : {false, true}) {
                expect_same_best(fresh,
                                 run_search(threads, prune,
                                            journal.get()),
                                 "restored run");
            }
        }
        journal->flush();
    }
    // Restored re-runs never double-journal their slices.
    auto journal = RunJournal::open_resume(path_, test_header());
    EXPECT_EQ(journal->restored(), journaled);
}

TEST_F(SearchJournal, PartialJournalResumesToTheSameResult)
{
    const AttentionSearchResult fresh = run_search(1, false);
    {
        auto journal = RunJournal::create(path_, test_header());
        run_search(1, false, journal.get());
        journal->flush();
    }
    // Simulate an interrupted run: keep the header and the first three
    // slice records, drop the rest.
    std::string kept;
    {
        std::ifstream in(path_);
        std::string line;
        for (int i = 0; i < 4 && std::getline(in, line); ++i) {
            kept += line + "\n";
        }
    }
    {
        std::ofstream out(path_, std::ios::trunc);
        out << kept;
    }
    auto journal = RunJournal::open_resume(path_, test_header());
    EXPECT_EQ(journal->restored(), 3u);
    expect_same_best(fresh, run_search(8, true, journal.get()),
                     "partial resume");
    journal->flush();
    // The resumed run journaled the missing slices.
    auto full = RunJournal::open_resume(path_, test_header());
    EXPECT_GT(full->restored(), 3u);
}

TEST_F(SearchJournal, DifferentSearchSpaceIgnoresTheJournal)
{
    {
        auto journal = RunJournal::create(path_, test_header());
        run_search(1, false, journal.get());
        journal->flush();
    }
    auto journal = RunJournal::open_resume(path_, test_header());
    // A different dims/space hashes to a different scope: nothing
    // matches, the search runs fresh and appends its own records.
    AttentionSearchOptions opt;
    opt.quick = true;
    opt.journal = journal.get();
    const AttentionSearchResult other =
        search_attention(edge_accel(), self_attention(2048), opt);
    AttentionSearchOptions plain;
    plain.quick = true;
    const AttentionSearchResult reference =
        search_attention(edge_accel(), self_attention(2048), plain);
    expect_same_best(reference, other, "disjoint space");
    EXPECT_EQ(other.evaluated, reference.evaluated);
}

TEST_F(SearchJournal, FourStyleSpaceResumesToTheSameResult)
{
    // The style axis rides the same slice journal: a search
    // enumerating baseline/flat/pipelined/flash checkpoints its
    // style-prefixed slices and resumes bit-identically — including
    // from a partial journal whose surviving records span styles.
    AttentionSearchOptions opt;
    opt.quick = true;
    opt.styles = {"all"};
    const AttentionSearchResult fresh =
        search_attention(edge_accel(), self_attention(1024), opt);
    ASSERT_TRUE(fresh.found);

    {
        auto journal = RunJournal::create(path_, test_header());
        opt.journal = journal.get();
        expect_same_best(fresh,
                         search_attention(edge_accel(),
                                          self_attention(1024), opt),
                         "journaled four-style run");
        journal->flush();
    }
    // Truncate to an interrupted prefix, then resume with different
    // engine conditions.
    std::string kept;
    {
        std::ifstream in(path_);
        std::string line;
        for (int i = 0; i < 6 && std::getline(in, line); ++i) {
            kept += line + "\n";
        }
    }
    {
        std::ofstream out(path_, std::ios::trunc);
        out << kept;
    }
    auto journal = RunJournal::open_resume(path_, test_header());
    EXPECT_EQ(journal->restored(), 5u);
    opt.journal = journal.get();
    opt.threads = 8;
    opt.prune = true;
    expect_same_best(fresh,
                     search_attention(edge_accel(),
                                      self_attention(1024), opt),
                     "four-style partial resume");
}

TEST_F(SearchJournal, StyleRestrictedJournalIsScopedByStyleSet)
{
    // A journal written for the flat-only space must not leak into the
    // four-style space (its scope hash covers the style list).
    {
        auto journal = RunJournal::create(path_, test_header());
        run_search(1, false, journal.get());
        journal->flush();
    }
    auto journal = RunJournal::open_resume(path_, test_header());
    AttentionSearchOptions opt;
    opt.quick = true;
    opt.styles = {"all"};
    opt.journal = journal.get();
    const AttentionSearchResult resumed =
        search_attention(edge_accel(), self_attention(1024), opt);
    AttentionSearchOptions plain = opt;
    plain.journal = nullptr;
    const AttentionSearchResult reference =
        search_attention(edge_accel(), self_attention(1024), plain);
    expect_same_best(reference, resumed, "style-disjoint space");
    EXPECT_EQ(resumed.evaluated, reference.evaluated);
}

TEST_F(SearchJournal, TamperedSliceRecordsAreRejected)
{
    // A restored record must be one the slice could have produced:
    // counters that cover the slice's points and a winner built from
    // the slice's cross loop, tile menus, loop orders and flag sets.
    // Each edit below of the first slice record of a fresh journal is
    // a configuration error on resume, not a quietly wrong result.
    {
        auto journal = RunJournal::create(path_, test_header());
        run_search(1, false, journal.get());
        journal->flush();
    }
    std::vector<std::string> lines;
    {
        std::ifstream in(path_);
        for (std::string line; std::getline(in, line);) {
            lines.push_back(line);
        }
    }
    ASSERT_GE(lines.size(), 2u);
    const std::string record = lines[1];
    ASSERT_NE(record.find("\"found\":true"), std::string::npos);

    const auto edit = [&](const char* pattern, const std::string& with) {
        return std::regex_replace(record, std::regex(pattern), with);
    };
    const bool row64 =
        record.find("\"gran\":3,\"rows\":64,") != std::string::npos;
    const std::vector<std::pair<const char*, std::string>> edits = {
        {"evaluated count",
         edit("\"evaluated\":[0-9]+", "\"evaluated\":1000000000")},
        {"granularity", edit("\"gran\":[0-9]+", "\"gran\":99")},
        {"cross loop of another slice",
         edit("\"gran\":[0-9]+,\"rows\":[0-9]+",
              row64 ? "\"gran\":0,\"rows\":0"
                    : "\"gran\":3,\"rows\":64")},
        {"tiles in no menu",
         edit("\"l([mkn])\":[0-9]+", "\"l$1\":512")},
    };
    for (const auto& [what, tampered] : edits) {
        SCOPED_TRACE(what);
        ASSERT_NE(tampered, record);
        {
            std::ofstream out(path_, std::ios::trunc);
            for (std::size_t i = 0; i < lines.size(); ++i) {
                out << (i == 1 ? tampered : lines[i]) << '\n';
            }
        }
        auto journal = RunJournal::open_resume(path_, test_header());
        EXPECT_THROW(run_search(1, true, journal.get()), Error);
    }
}

TEST_F(SearchJournal, CancelledSearchThrowsAndFlushesCompletedSlices)
{
    CancellationToken cancel;
    cancel.request(CancelReason::kSignal);
    AttentionSearchOptions opt;
    opt.quick = true;
    opt.cancel = &cancel;
    EXPECT_THROW(
        search_attention(edge_accel(), self_attention(1024), opt),
        CancelledError);
}

} // namespace
} // namespace flat
