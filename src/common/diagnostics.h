/**
 * @file
 * Structured diagnostics for graceful degradation.
 *
 * A Diagnostic is a machine-readable error/warning record: severity,
 * kind (usage/config/infeasible/internal/timeout/oom), message, source
 * location and the context stack that was active when it was raised.
 * The context stack is maintained by RAII frames:
 *
 *   FLAT_ERROR_CONTEXT("evaluating point seq=" << seq);
 *   ... // any Diagnostic built here names this phase
 *
 * Exception-to-diagnostic classification (diagnostic_from_exception)
 * maps the status.h taxonomy onto kinds, so batch drivers like the
 * sweep engine can isolate a failing work item, record what happened
 * and keep going. Warnings flow through emit_diagnostic(), which
 * delivers to the innermost DiagnosticCapture on the calling thread
 * (or the logger when none is installed).
 */
#ifndef FLAT_COMMON_DIAGNOSTICS_H
#define FLAT_COMMON_DIAGNOSTICS_H

#include <string>
#include <vector>

#include "common/status.h"

namespace flat {

class JsonWriter;

/** CLI misuse (bad flag or flag value); maps to exit code 2. */
class UsageError : public Error
{
  public:
    explicit UsageError(const std::string& msg) : Error(msg) {}
};

/** How bad: warnings are advisory, errors fail the enclosing item. */
enum class DiagSeverity {
    kWarning,
    kError,
};

/** What class of failure a diagnostic describes. */
enum class DiagKind {
    kUsage,      ///< CLI misuse (bad flag value)
    kConfig,     ///< invalid user configuration (files, specs)
    kInfeasible, ///< valid input, but no feasible evaluation exists
    kInternal,   ///< violated library invariant (a bug)
    kTimeout,    ///< a work item exceeded its wall-clock deadline
    kOom,        ///< allocation failure while evaluating
    kCancelled,  ///< run cancelled (SIGINT/SIGTERM graceful drain)
};

const char* to_string(DiagSeverity severity);
const char* to_string(DiagKind kind);

/** Inverse of to_string(DiagKind); throws flat::Error on unknown
 *  names. Used to round-trip diagnostics through the run journal. */
DiagKind parse_diag_kind(const std::string& name);

/** Inverse of to_string(DiagSeverity); throws flat::Error. */
DiagSeverity parse_diag_severity(const std::string& name);

/**
 * Process exit code contract (shared by flatsim and the sweep engine):
 * 0 success, 1 config/infeasible error, 2 usage, 3 internal/oom/
 * timeout, 5 run cancelled by a SIGINT/SIGTERM drain.
 * (Exit code 4 — sweep completed with failed points — is owned by the
 * sweep report, not by a single diagnostic; a cancelled sweep reports
 * 5 even when it also has failed points.)
 */
int exit_code_for(DiagKind kind);

/** One structured error/warning record. */
struct Diagnostic {
    DiagSeverity severity = DiagSeverity::kError;
    DiagKind kind = DiagKind::kConfig;
    std::string message;

    /** Fault-injection probe that raised this (empty otherwise). */
    std::string probe_site;

    /** Context stack at raise time, outermost first. */
    std::vector<std::string> context;

    /** One-line human rendering: "error[config] message (in: a > b)". */
    std::string to_string() const;

    /** Emits this record as a JSON object on @p json. */
    void write_json(JsonWriter& json) const;

    /** Column header shared by the table and CSV renderings. */
    static std::vector<std::string> table_header();

    /** Cells matching table_header() (context joined with " > "). */
    std::vector<std::string> table_row() const;
};

/**
 * RAII frame on the calling thread's diagnostic context stack. Use via
 * FLAT_ERROR_CONTEXT so frames compose with stream-style messages.
 */
class DiagContext
{
  public:
    explicit DiagContext(std::string label);
    ~DiagContext();

    DiagContext(const DiagContext&) = delete;
    DiagContext& operator=(const DiagContext&) = delete;
};

/** Snapshot of the calling thread's context stack, outermost first. */
std::vector<std::string> diagnostic_context();

/**
 * Classifies a caught exception: UsageError -> usage, CancelledError ->
 * cancelled (or timeout when its reason is a deadline), InternalError
 * -> internal, bad_alloc -> oom, other
 * std::exception -> internal, and plain flat::Error -> @p error_kind
 * (callers that already validated their configuration pass
 * kInfeasible). The current context stack and the last fired
 * fault-injection site (if any) are attached.
 */
Diagnostic diagnostic_from_exception(const std::exception& e,
                                     DiagKind error_kind = DiagKind::kConfig);

/** catch (...) variant of diagnostic_from_exception. */
Diagnostic diagnostic_from_current_exception(
    DiagKind error_kind = DiagKind::kConfig);

/**
 * Routes @p diag to the innermost DiagnosticCapture on this thread;
 * falls back to the logger (warn/error level) when none is active.
 */
void emit_diagnostic(const Diagnostic& diag);

/** RAII sink collecting emit_diagnostic() calls on this thread. */
class DiagnosticCapture
{
  public:
    DiagnosticCapture();
    ~DiagnosticCapture();

    DiagnosticCapture(const DiagnosticCapture&) = delete;
    DiagnosticCapture& operator=(const DiagnosticCapture&) = delete;

    const std::vector<Diagnostic>& diagnostics() const
    {
        return diagnostics_;
    }

    /** Moves the captured records out (capture keeps running). */
    std::vector<Diagnostic> take();

  private:
    friend void emit_diagnostic(const Diagnostic&);

    std::vector<Diagnostic> diagnostics_;
    DiagnosticCapture* previous_ = nullptr;
};

} // namespace flat

#define FLAT_DIAG_CONCAT_IMPL(a, b) a##b
#define FLAT_DIAG_CONCAT(a, b) FLAT_DIAG_CONCAT_IMPL(a, b)

/**
 * Pushes a stream-style label onto the diagnostic context stack for the
 * rest of the enclosing scope:
 *   FLAT_ERROR_CONTEXT("parsing " << path << " line " << line_no);
 */
#define FLAT_ERROR_CONTEXT(msg)                                              \
    ::flat::DiagContext FLAT_DIAG_CONCAT(flat_diag_ctx__, __LINE__)([&] {    \
        std::ostringstream flat_oss__;                                       \
        flat_oss__ << msg;                                                   \
        return flat_oss__.str();                                             \
    }())

#endif // FLAT_COMMON_DIAGNOSTICS_H
