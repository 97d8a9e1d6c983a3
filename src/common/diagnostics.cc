#include "common/diagnostics.h"

#include <typeinfo>

#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace flat {
namespace {

/** Per-thread diagnostic state (context stack + innermost capture). */
thread_local std::vector<std::string> t_context;
thread_local DiagnosticCapture* t_capture = nullptr;

} // namespace

const char*
to_string(DiagSeverity severity)
{
    switch (severity) {
      case DiagSeverity::kWarning: return "warning";
      case DiagSeverity::kError: return "error";
    }
    return "error";
}

const char*
to_string(DiagKind kind)
{
    switch (kind) {
      case DiagKind::kUsage: return "usage";
      case DiagKind::kConfig: return "config";
      case DiagKind::kInfeasible: return "infeasible";
      case DiagKind::kInternal: return "internal";
      case DiagKind::kTimeout: return "timeout";
      case DiagKind::kOom: return "oom";
      case DiagKind::kCancelled: return "cancelled";
    }
    return "internal";
}

DiagKind
parse_diag_kind(const std::string& name)
{
    for (const DiagKind kind :
         {DiagKind::kUsage, DiagKind::kConfig, DiagKind::kInfeasible,
          DiagKind::kInternal, DiagKind::kTimeout, DiagKind::kOom,
          DiagKind::kCancelled}) {
        if (name == to_string(kind)) {
            return kind;
        }
    }
    FLAT_FAIL("unknown diagnostic kind '" << name << "'");
}

DiagSeverity
parse_diag_severity(const std::string& name)
{
    for (const DiagSeverity severity :
         {DiagSeverity::kWarning, DiagSeverity::kError}) {
        if (name == to_string(severity)) {
            return severity;
        }
    }
    FLAT_FAIL("unknown diagnostic severity '" << name << "'");
}

int
exit_code_for(DiagKind kind)
{
    switch (kind) {
      case DiagKind::kUsage:
        return 2;
      case DiagKind::kConfig:
      case DiagKind::kInfeasible:
        return 1;
      case DiagKind::kInternal:
      case DiagKind::kTimeout:
      case DiagKind::kOom:
        return 3;
      case DiagKind::kCancelled:
        return 5;
    }
    return 3;
}

std::string
Diagnostic::to_string() const
{
    std::ostringstream oss;
    oss << flat::to_string(severity) << "[" << flat::to_string(kind)
        << "] " << message;
    if (!probe_site.empty()) {
        oss << " {probe: " << probe_site << "}";
    }
    if (!context.empty()) {
        oss << " (in: " << join(context, " > ") << ")";
    }
    return oss.str();
}

void
Diagnostic::write_json(JsonWriter& json) const
{
    json.begin_object();
    json.field("severity", flat::to_string(severity));
    json.field("kind", flat::to_string(kind));
    json.field("message", message);
    if (!probe_site.empty()) {
        json.field("probe_site", probe_site);
    }
    json.key("context");
    json.begin_array();
    for (const std::string& frame : context) {
        json.value(frame);
    }
    json.end_array();
    json.end_object();
}

std::vector<std::string>
Diagnostic::table_header()
{
    return {"severity", "kind", "probe", "context", "message"};
}

std::vector<std::string>
Diagnostic::table_row() const
{
    return {flat::to_string(severity), flat::to_string(kind), probe_site,
            join(context, " > "), message};
}

DiagContext::DiagContext(std::string label)
{
    t_context.push_back(std::move(label));
}

DiagContext::~DiagContext()
{
    t_context.pop_back();
}

std::vector<std::string>
diagnostic_context()
{
    return t_context;
}

Diagnostic
diagnostic_from_exception(const std::exception& e, DiagKind error_kind)
{
    Diagnostic diag;
    diag.severity = DiagSeverity::kError;
    diag.message = e.what();
    diag.context = diagnostic_context();
    diag.probe_site = take_last_fired_fault_site();

    if (dynamic_cast<const UsageError*>(&e) != nullptr) {
        diag.kind = DiagKind::kUsage;
    } else if (const auto* cancelled =
                   dynamic_cast<const CancelledError*>(&e)) {
        // A tripped deadline keeps the established kTimeout contract;
        // everything else (signal drain, programmatic) is kCancelled.
        diag.kind = (cancelled->reason() == CancelReason::kDeadline)
                        ? DiagKind::kTimeout
                        : DiagKind::kCancelled;
    } else if (const auto* fault =
                   dynamic_cast<const FaultInjectedError*>(&e)) {
        diag.kind = error_kind;
        diag.probe_site = fault->site();
    } else if (dynamic_cast<const Error*>(&e) != nullptr) {
        diag.kind = error_kind;
    } else if (dynamic_cast<const InternalError*>(&e) != nullptr) {
        diag.kind = DiagKind::kInternal;
    } else if (dynamic_cast<const std::bad_alloc*>(&e) != nullptr) {
        diag.kind = DiagKind::kOom;
        diag.message = strprintf("allocation failed (%s)", e.what());
    } else {
        diag.kind = DiagKind::kInternal;
        diag.message = strprintf("unexpected exception (%s): %s",
                                 typeid(e).name(), e.what());
    }
    return diag;
}

Diagnostic
diagnostic_from_current_exception(DiagKind error_kind)
{
    try {
        throw;
    } catch (const std::exception& e) {
        return diagnostic_from_exception(e, error_kind);
    } catch (...) {
        Diagnostic diag;
        diag.severity = DiagSeverity::kError;
        diag.kind = DiagKind::kInternal;
        diag.message = "unexpected non-standard exception";
        diag.context = diagnostic_context();
        diag.probe_site = take_last_fired_fault_site();
        return diag;
    }
}

void
emit_diagnostic(const Diagnostic& diag)
{
    if (t_capture != nullptr) {
        t_capture->diagnostics_.push_back(diag);
        return;
    }
    const LogLevel level = (diag.severity == DiagSeverity::kWarning)
                               ? LogLevel::kWarn
                               : LogLevel::kError;
    FLAT_LOG(level, diag.to_string());
}

DiagnosticCapture::DiagnosticCapture() : previous_(t_capture)
{
    t_capture = this;
}

DiagnosticCapture::~DiagnosticCapture()
{
    t_capture = previous_;
}

std::vector<Diagnostic>
DiagnosticCapture::take()
{
    std::vector<Diagnostic> out;
    out.swap(diagnostics_);
    return out;
}

} // namespace flat
