/**
 * @file
 * Fault-isolated batch sweep engine: evaluates the cross product of
 * models x platforms x policies x sequence lengths x batch sizes, one
 * Simulator::run per point, over the shared ThreadPool.
 *
 * Robustness contract:
 *  - every point runs inside its own exception boundary: a config
 *    error, infeasible dataflow, internal invariant violation or OOM in
 *    one point is recorded as a structured Diagnostic and never stops
 *    the other points (unless fail_fast is requested);
 *  - a per-point wall-clock deadline demotes over-budget points to
 *    kTimeout diagnostics; the deadline is enforced PREEMPTIVELY via a
 *    per-point CancellationToken polled inside the DSE loops, so a
 *    stuck point stops near its budget instead of after it;
 *  - partial results are always emitted: the report carries one entry
 *    per point, completed or failed, in spec order regardless of the
 *    thread count;
 *  - a cancellation request (SIGINT/SIGTERM via options.cancel) drains
 *    gracefully: running points finish, unstarted points are marked
 *    cancelled, and the report's exit code becomes 5;
 *  - with options.journal set, every final point outcome (ok or
 *    failed) is checkpointed; a resumed sweep restores journaled
 *    points instead of re-evaluating them and produces the same
 *    machine-readable report as an uninterrupted run;
 *  - each point is wrapped in a FaultScope carrying its index, so
 *    `--inject-fault SITE:N` deterministically poisons point N only.
 *
 * Spec files reuse the key=value syntax of common/config.h; list values
 * are comma-separated:
 *
 *   # edge_quick.sweep
 *   models    = bert, t5
 *   platforms = edge
 *   policies  = flat-opt, base-opt
 *   seq       = 512, 4096
 *   batch     = 64
 *   scope     = la          # la | block | model
 *   objective = runtime     # runtime | energy | edp
 *   quick     = true
 */
#ifndef FLAT_CORE_SWEEP_H
#define FLAT_CORE_SWEEP_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/diagnostics.h"
#include "common/run_journal.h"
#include "core/simulator.h"

namespace flat {

class JsonWriter;

/** One point of the cross product. */
struct SweepPoint {
    std::size_t index = 0;
    std::string model;
    std::string platform; ///< "edge" | "cloud"
    std::string policy;   ///< DataflowPolicy::parse name
    std::uint64_t seq = 0;
    std::uint64_t batch = 0;

    /** Stable id: "bert/edge/flat-opt/seq=4096/batch=64". */
    std::string tag() const;
};

/** The sweep axes plus shared evaluation settings. */
struct SweepSpec {
    std::vector<std::string> models = {"bert"};
    std::vector<std::string> platforms = {"edge"};
    std::vector<std::string> policies = {"flat-opt"};
    std::vector<std::uint64_t> seq_lens = {4096};
    std::vector<std::uint64_t> batches = {64};
    Scope scope = Scope::kBlock;
    Objective objective = Objective::kRuntime;
    bool quick = false;

    /** Parses a spec (see the file header); unknown keys throw. */
    static SweepSpec parse(const ConfigMap& config);
    static SweepSpec from_text(const std::string& text);
    static SweepSpec from_file(const std::string& path);

    /** Cross product in axis order (model-major), with every model,
     *  platform and policy name validated eagerly so a typo fails the
     *  whole sweep up front instead of every point individually. */
    std::vector<SweepPoint> expand() const;
};

/** Execution knobs of one sweep run. */
struct SweepOptions {
    /** Sweep-level worker threads; 0 = auto. Per-point DSE runs
     *  serially inside a sweep worker (nested parallel_for). */
    unsigned threads = 0;

    /** Per-point wall-clock deadline in milliseconds; 0 = none. */
    double deadline_ms = 0.0;

    /** Stop scheduling new points after the first failure. Started
     *  points still finish; unstarted ones are reported as skipped. */
    bool fail_fast = false;

    /**
     * Optional checkpoint journal (scope "sweep", key = point tag):
     * each point's FINAL outcome — completed or failed, with its
     * diagnostics and warnings — is appended once; points already
     * journaled are restored instead of re-evaluated.
     * Skipped/cancelled points are never journaled (a resume retries
     * them). Not owned.
     */
    RunJournal* journal = nullptr;

    /**
     * Optional cooperative cancellation (SIGINT/SIGTERM drain): polled
     * as each point starts. Running points FINISH (the token is not
     * threaded into point evaluation), pending points are marked
     * cancelled, and the report's exit code becomes 5. Not owned.
     */
    const CancellationToken* cancel = nullptr;

    /** Forwarded to Simulator::run; the spec's objective and quick
     *  menus replace sim's, and the DSE inside a sweep worker runs
     *  serially (nested parallel_for). */
    SimOptions sim;
};

/** Outcome of one point: a report or a diagnostic, never both. */
struct SweepPointResult {
    SweepPoint point;
    bool ok = false;
    bool skipped = false;   ///< not attempted (fail-fast abort)
    bool cancelled = false; ///< not attempted (cancellation drain)
    bool resumed = false;   ///< restored from the checkpoint journal
    ScopeReport report;     ///< valid iff ok
    Diagnostic diag;        ///< valid iff !ok && !skipped && !cancelled
    std::vector<Diagnostic> warnings; ///< captured during evaluation
    double wall_ms = 0.0;
};

/** Aggregate outcome; always has one entry per expanded point. */
struct SweepReport {
    std::vector<SweepPointResult> results;
    double wall_ms = 0.0;

    std::size_t completed() const;
    std::size_t failed() const;
    std::size_t skipped() const;
    std::size_t cancelled() const;

    /** Points restored from the checkpoint journal. */
    std::size_t resumed() const;

    /** Failed (not skipped/cancelled) points, in spec order. */
    std::vector<const SweepPointResult*> failures() const;

    /** 0 when every attempted point completed, 5 when the run was
     *  cancelled (even with failures), 4 otherwise. */
    int exit_code() const;

    /** Full machine-readable report (spec echo, per-point results,
     *  structured diagnostics). */
    void write_json(JsonWriter& json) const;

    /** Human-readable tables: results, then failure diagnostics. */
    void print(std::ostream& os) const;

    /** Per-point CSV rows (partial results for failed sweeps too). */
    void write_csv(const std::string& path) const;
};

/** Runs @p spec under @p options; throws only on spec-level errors
 *  (per-point failures are isolated into the report). */
SweepReport run_sweep(const SweepSpec& spec, const SweepOptions& options);

/**
 * Journal identity of @p spec under @p sim: mode "sweep", a hash over
 * the axes, each platform's AccelConfig::canonical() and the
 * SimOptions::canonical() every point runs under (the spec's objective
 * and quick menus replace @p sim's), plus the expanded point count.
 * flatsim uses this to create fresh journals and to reject stale ones
 * on --resume.
 */
RunJournalHeader sweep_journal_header(const SweepSpec& spec,
                                      const SimOptions& sim);

} // namespace flat

#endif // FLAT_CORE_SWEEP_H
