/**
 * @file
 * Append-only JSONL run journal: crash-safe checkpoint/resume for
 * long-running sweeps and DSE searches.
 *
 * Layout: line 1 is a header record binding the journal to one run
 * configuration —
 *
 *   {"flat_run_journal":1,"mode":"sweep",
 *    "space_hash":"0xa1b2c3d4e5f60718","points":24}
 *
 * — every further line is one completed work item:
 *
 *   {"scope":"sweep","key":"bert/edge/flat-opt/seq=4096/batch=64",
 *    "data":{...}}
 *
 * The (scope, key) pair is the canonical point key; `data` is an
 * opaque payload the producer (sweep engine, attention search) knows
 * how to restore. Appends are buffered and fsync'd in batches, so a
 * crash loses at most the last unflushed batch — which resume simply
 * re-evaluates.
 *
 * Resume contract (open_resume):
 *  - the header must match the expected mode, space hash and point
 *    count exactly, otherwise the journal is STALE and rejected with a
 *    flat::Error (exit code 1 through the CLI) — a journal written for
 *    a different spec must never leak results into this run;
 *  - a torn FINAL line (partial write at crash time) is tolerated: it
 *    is dropped and the file truncated back to the last intact record;
 *  - a corrupt NON-final line is rejected (that is data loss in the
 *    middle of the file, not a crash artifact).
 *
 * Thread safety: find() reads the immutable restored map; append() and
 * flush() are serialized by an internal mutex, so sweep/search worker
 * threads journal their results directly.
 */
#ifndef FLAT_COMMON_RUN_JOURNAL_H
#define FLAT_COMMON_RUN_JOURNAL_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"

namespace flat {

/** 64-bit FNV-1a of @p text (the canonical space description). */
std::uint64_t fnv1a64(std::string_view text);

/** Identity of the run a journal belongs to. */
struct RunJournalHeader {
    /** Producer mode: "sweep" (run_sweep) or "run" (single-run DSE). */
    std::string mode;

    /** Hash of the canonical search-space description. Includes every
     *  knob that changes results (axes, scope, objective, overlap
     *  model, quick menus); excludes bit-identical execution knobs
     *  (threads, prune), so a journal written at --threads 8 resumes
     *  fine at --threads 1. */
    std::uint64_t space_hash = 0;

    /** Expected work-item count (sweep points); 0 for open-ended
     *  producers (the per-search slice count is part of space_hash). */
    std::uint64_t points = 0;
};

class RunJournal
{
  public:
    /** Creates a fresh journal at @p path (truncating any existing
     *  file) and writes the header. Throws flat::Error on I/O. */
    static std::unique_ptr<RunJournal> create(
        const std::string& path, const RunJournalHeader& header);

    /** Opens @p path for resume: loads every intact record, drops a
     *  torn final line, and re-opens for appending. Throws flat::Error
     *  when the file is missing/corrupt or the header does not match
     *  @p expected (stale journal). */
    static std::unique_ptr<RunJournal> open_resume(
        const std::string& path, const RunJournalHeader& expected);

    /** Flushes and closes. */
    ~RunJournal();

    RunJournal(const RunJournal&) = delete;
    RunJournal& operator=(const RunJournal&) = delete;

    /** The payload of a restored record; nullptr when (scope, key) was
     *  not in the journal at open time. */
    const JsonValue* find(const std::string& scope,
                          const std::string& key) const;

    /** Records restored at open time (0 for a fresh journal). */
    std::size_t restored() const { return records_.size(); }

    /**
     * Appends one record. @p data_json must be one complete JSON value
     * without embedded newlines (use JsonWriter). Duplicate (scope,
     * key) pairs — already restored or already appended — are dropped,
     * so re-running a restored search cannot double-journal.
     */
    void append(const std::string& scope, const std::string& key,
                const std::string& data_json);

    /** Writes buffered records and fsyncs. */
    void flush();

    /** Appends between fsyncs (default 8; tests shrink it to 1). */
    void set_flush_every(std::size_t n);

    const std::string& path() const { return path_; }

  private:
    RunJournal() = default;

    void flush_locked();

    std::string path_;
    int fd_ = -1;

    /** Records loaded at open_resume time, keyed by (scope, key). */
    std::map<std::pair<std::string, std::string>, JsonValue> records_;

    mutable std::mutex mutex_;
    std::set<std::pair<std::string, std::string>> appended_;
    std::string pending_;
    std::size_t pending_records_ = 0;
    std::size_t flush_every_ = 8;
};

} // namespace flat

#endif // FLAT_COMMON_RUN_JOURNAL_H
