#include "core/sweep.h"

#include <atomic>
#include <chrono>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/cancellation.h"
#include "common/csv.h"
#include "common/fault_injection.h"
#include "common/json.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "workload/model_config.h"

namespace flat {
namespace {

using Clock = std::chrono::steady_clock;

double
elapsed_ms(Clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     since)
        .count();
}

std::vector<std::string>
parse_name_list(const std::string& key, const std::string& value)
{
    std::vector<std::string> out;
    for (const std::string& part : split(value, ',')) {
        const std::string name = trim(part);
        FLAT_CHECK(!name.empty(),
                   "sweep key '" << key << "' has an empty list entry: '"
                                 << value << "'");
        out.push_back(name);
    }
    return out;
}

std::vector<std::uint64_t>
parse_u64_list(const std::string& key, const std::string& value)
{
    std::vector<std::uint64_t> out;
    for (const std::string& name : parse_name_list(key, value)) {
        std::size_t pos = 0;
        std::uint64_t v = 0;
        try {
            v = std::stoull(name, &pos);
        } catch (const std::exception&) {
            pos = 0;
        }
        FLAT_CHECK(pos != 0 && pos == name.size() && v > 0,
                   "sweep key '" << key
                                 << "' expects positive integers, got '"
                                 << name << "'");
        out.push_back(v);
    }
    return out;
}

bool
parse_bool(const std::string& key, const std::string& value)
{
    const std::string v = to_lower(value);
    if (v == "true" || v == "yes" || v == "1") {
        return true;
    }
    if (v == "false" || v == "no" || v == "0") {
        return false;
    }
    FLAT_FAIL("sweep key '" << key << "' expects a boolean, got '"
                            << value << "'");
}

/** @p sim with the objective and quick menus the spec owns. */
SimOptions
spec_sim_options(const SweepSpec& spec, SimOptions sim)
{
    sim.objective = spec.objective;
    sim.quick = spec.quick;
    return sim;
}

/** Evaluates one point; throws on any failure (isolated by the caller). */
ScopeReport
evaluate_point(const SweepPoint& point, const SweepSpec& spec,
               const SweepOptions& options,
               const CancellationToken* cancel)
{
    FLAT_FAULT_POINT("sweep.point");
    const ModelConfig model = model_by_name(point.model);
    const AccelConfig accel = accel_preset(point.platform);
    const Workload workload =
        make_workload(model, point.batch, point.seq);

    SimOptions sim = spec_sim_options(spec, options.sim);
    // The sweep-level journal also flows into the per-point DSE, so a
    // crash mid-point resumes from completed search slices, not from
    // scratch. The per-point deadline token makes --deadline preemptive.
    sim.journal = options.journal;
    sim.cancel = cancel;

    const Simulator simulator(accel);
    return simulator.run(workload, spec.scope,
                         DataflowPolicy::parse(point.policy), sim);
}

const char*
status_name(const SweepPointResult& r)
{
    if (r.ok) {
        return "ok";
    }
    if (r.cancelled) {
        return "cancelled";
    }
    return r.skipped ? "skipped" : "failed";
}

/** Serializes one FINAL point outcome for the checkpoint journal. */
std::string
encode_point_record(const SweepPointResult& r)
{
    JsonWriter json;
    json.begin_object();
    json.field("ok", r.ok);
    json.field("wall_ms", r.wall_ms);
    if (r.ok) {
        json.key("report");
        json.begin_object();
        json.field("dataflow", r.report.la_dataflow_tag);
        json.field("cycles", r.report.cycles);
        json.field("ideal_cycles", r.report.ideal_cycles);
        json.field("runtime_s", r.report.runtime_s);
        json.field("energy_j", r.report.energy_j);
        json.field("dram_bytes", r.report.traffic.total_dram());
        json.end_object();
    } else {
        json.key("diag");
        r.diag.write_json(json);
    }
    if (!r.warnings.empty()) {
        json.key("warnings");
        json.begin_array();
        for (const Diagnostic& w : r.warnings) {
            w.write_json(json);
        }
        json.end_array();
    }
    json.end_object();
    return json.str();
}

/** Inverse of Diagnostic::write_json. */
Diagnostic
decode_diag(const JsonValue& v)
{
    Diagnostic d;
    d.severity = parse_diag_severity(v.member_string("severity"));
    d.kind = parse_diag_kind(v.member_string("kind"));
    d.message = v.member_string("message");
    if (const JsonValue* site = v.find("probe_site")) {
        d.probe_site = site->as_string();
    }
    if (const JsonValue* ctx = v.find("context")) {
        for (const JsonValue& frame : ctx->array) {
            d.context.push_back(frame.as_string());
        }
    }
    return d;
}

/**
 * Restores a journaled point outcome. Only the emitter-visible slice
 * of the ScopeReport is stored/restored (tag, cycles, ideal cycles,
 * runtime, energy, DRAM traffic) — exactly the fields the sweep JSON,
 * CSV and tables read — so a resumed report renders byte-identically
 * to the uninterrupted one.
 */
void
restore_point_record(const JsonValue& data, SweepPointResult& r)
{
    r.ok = data.member_bool("ok");
    r.wall_ms = data.member_number("wall_ms");
    r.resumed = true;
    if (r.ok) {
        const JsonValue* rep = data.find("report");
        FLAT_CHECK(rep != nullptr, "journaled sweep point '"
                                       << r.point.tag()
                                       << "' has ok=true but no report");
        r.report.la_dataflow_tag = rep->member_string("dataflow");
        r.report.cycles = rep->member_number("cycles");
        r.report.ideal_cycles = rep->member_number("ideal_cycles");
        r.report.runtime_s = rep->member_number("runtime_s");
        r.report.energy_j = rep->member_number("energy_j");
        // total_dram() = dram_read + dram_write; park the restored sum
        // on one side so the emitters reproduce it exactly.
        r.report.traffic.dram_read = rep->member_number("dram_bytes");
        r.report.traffic.dram_write = 0.0;
    } else {
        const JsonValue* diag = data.find("diag");
        FLAT_CHECK(diag != nullptr,
                   "journaled sweep point '"
                       << r.point.tag()
                       << "' has ok=false but no diagnostic");
        r.diag = decode_diag(*diag);
    }
    if (const JsonValue* warns = data.find("warnings")) {
        for (const JsonValue& w : warns->array) {
            r.warnings.push_back(decode_diag(w));
        }
    }
}

} // namespace

std::string
SweepPoint::tag() const
{
    return strprintf("%s/%s/%s/seq=%llu/batch=%llu", model.c_str(),
                     platform.c_str(), policy.c_str(),
                     static_cast<unsigned long long>(seq),
                     static_cast<unsigned long long>(batch));
}

SweepSpec
SweepSpec::parse(const ConfigMap& config)
{
    SweepSpec spec;
    for (const auto& [key, value] : config) {
        if (key == "models") {
            spec.models = parse_name_list(key, value);
        } else if (key == "platforms") {
            spec.platforms = parse_name_list(key, value);
        } else if (key == "policies") {
            spec.policies = parse_name_list(key, value);
        } else if (key == "seq") {
            spec.seq_lens = parse_u64_list(key, value);
        } else if (key == "batch") {
            spec.batches = parse_u64_list(key, value);
        } else if (key == "scope") {
            spec.scope = parse_scope(value);
        } else if (key == "objective") {
            spec.objective = parse_objective(value);
        } else if (key == "quick") {
            spec.quick = parse_bool(key, value);
        } else {
            FLAT_FAIL("unknown sweep key '"
                      << key
                      << "' (models | platforms | policies | seq | "
                         "batch | scope | objective | quick)");
        }
    }
    return spec;
}

SweepSpec
SweepSpec::from_text(const std::string& text)
{
    return parse(parse_config_text(text));
}

SweepSpec
SweepSpec::from_file(const std::string& path)
{
    FLAT_ERROR_CONTEXT("sweep spec " << path);
    return parse(parse_config_file(path));
}

std::vector<SweepPoint>
SweepSpec::expand() const
{
    // Validate every axis value once, up front: a typo fails the sweep
    // before any evaluation starts instead of failing every point.
    for (const std::string& model : models) {
        model_by_name(model);
    }
    for (const std::string& platform : platforms) {
        accel_preset(platform);
    }
    for (const std::string& policy : policies) {
        DataflowPolicy::parse(policy);
    }
    FLAT_CHECK(!seq_lens.empty() && !batches.empty(),
               "sweep needs at least one seq and batch value");

    std::vector<SweepPoint> points;
    points.reserve(models.size() * platforms.size() * policies.size() *
                   seq_lens.size() * batches.size());
    for (const std::string& model : models) {
        for (const std::string& platform : platforms) {
            for (const std::string& policy : policies) {
                for (const std::uint64_t seq : seq_lens) {
                    for (const std::uint64_t batch : batches) {
                        SweepPoint point;
                        point.index = points.size();
                        point.model = model;
                        point.platform = platform;
                        point.policy = policy;
                        point.seq = seq;
                        point.batch = batch;
                        points.push_back(std::move(point));
                    }
                }
            }
        }
    }
    return points;
}

std::size_t
SweepReport::completed() const
{
    std::size_t n = 0;
    for (const SweepPointResult& r : results) {
        n += r.ok ? 1 : 0;
    }
    return n;
}

std::size_t
SweepReport::failed() const
{
    std::size_t n = 0;
    for (const SweepPointResult& r : results) {
        n += (!r.ok && !r.skipped && !r.cancelled) ? 1 : 0;
    }
    return n;
}

std::size_t
SweepReport::skipped() const
{
    std::size_t n = 0;
    for (const SweepPointResult& r : results) {
        n += r.skipped ? 1 : 0;
    }
    return n;
}

std::size_t
SweepReport::cancelled() const
{
    std::size_t n = 0;
    for (const SweepPointResult& r : results) {
        n += r.cancelled ? 1 : 0;
    }
    return n;
}

std::size_t
SweepReport::resumed() const
{
    std::size_t n = 0;
    for (const SweepPointResult& r : results) {
        n += r.resumed ? 1 : 0;
    }
    return n;
}

std::vector<const SweepPointResult*>
SweepReport::failures() const
{
    std::vector<const SweepPointResult*> out;
    out.reserve(failed());
    for (const SweepPointResult& r : results) {
        if (!r.ok && !r.skipped && !r.cancelled) {
            out.push_back(&r);
        }
    }
    return out;
}

int
SweepReport::exit_code() const
{
    if (cancelled() > 0) {
        return 5; // cancellation wins over per-point failures
    }
    return (failed() == 0 && skipped() == 0) ? 0 : 4;
}

void
SweepReport::write_json(JsonWriter& json) const
{
    json.begin_object();
    json.field("points", static_cast<std::uint64_t>(results.size()));
    json.field("completed", static_cast<std::uint64_t>(completed()));
    json.field("failed", static_cast<std::uint64_t>(failed()));
    json.field("skipped", static_cast<std::uint64_t>(skipped()));
    // Resumed-point counts deliberately stay OUT of the JSON: a resumed
    // run must emit byte-identical machine output to an uninterrupted
    // one (the resume provenance goes to the human footer instead).
    json.field("cancelled", static_cast<std::uint64_t>(cancelled()));
    json.field("wall_ms", wall_ms);
    json.field("exit_code",
               static_cast<std::int64_t>(exit_code()));

    json.key("results");
    json.begin_array();
    for (const SweepPointResult& r : results) {
        json.begin_object();
        json.field("index", static_cast<std::uint64_t>(r.point.index));
        json.field("tag", r.point.tag());
        json.field("model", r.point.model);
        json.field("platform", r.point.platform);
        json.field("policy", r.point.policy);
        json.field("seq", r.point.seq);
        json.field("batch", r.point.batch);
        json.field("status", status_name(r));
        json.field("wall_ms", r.wall_ms);
        if (r.ok) {
            json.key("report");
            json.begin_object();
            json.field("picked_dataflow", r.report.la_dataflow_tag);
            json.field("utilization", r.report.util());
            json.field("runtime_s", r.report.runtime_s);
            json.field("cycles", r.report.cycles);
            json.field("energy_j", r.report.energy_j);
            json.field("dram_bytes", r.report.traffic.total_dram());
            json.end_object();
        } else if (!r.skipped && !r.cancelled) {
            json.key("diagnostic");
            r.diag.write_json(json);
        }
        if (!r.warnings.empty()) {
            json.key("warnings");
            json.begin_array();
            for (const Diagnostic& w : r.warnings) {
                w.write_json(json);
            }
            json.end_array();
        }
        json.end_object();
    }
    json.end_array();

    // Flat list of failure diagnostics for report consumers that only
    // triage errors.
    json.key("diagnostics");
    json.begin_array();
    for (const SweepPointResult* r : failures()) {
        json.begin_object();
        json.field("index", static_cast<std::uint64_t>(r->point.index));
        json.field("tag", r->point.tag());
        json.key("diagnostic");
        r->diag.write_json(json);
        json.end_object();
    }
    json.end_array();
    json.end_object();
}

void
SweepReport::print(std::ostream& os) const
{
    TextTable table({"point", "status", "runtime", "util", "energy",
                     "wall"});
    for (const SweepPointResult& r : results) {
        if (r.ok) {
            table.add_row({r.point.tag(), "ok",
                           format_time(r.report.runtime_s),
                           strprintf("%.3f", r.report.util()),
                           strprintf("%.4g J", r.report.energy_j),
                           format_time(r.wall_ms / 1e3)});
        } else {
            table.add_row({r.point.tag(), status_name(r), "-", "-", "-",
                           format_time(r.wall_ms / 1e3)});
        }
    }
    table.print(os);

    const std::vector<const SweepPointResult*> failed_points =
        failures();
    os << "\n"
       << completed() << "/" << results.size() << " points completed, "
       << failed_points.size() << " failed, " << skipped()
       << " skipped";
    if (cancelled() > 0) {
        os << ", " << cancelled() << " cancelled";
    }
    if (resumed() > 0) {
        os << " (" << resumed() << " restored from journal)";
    }
    os << "\n";
    if (!failed_points.empty()) {
        os << "\nfailure diagnostics:\n";
        std::vector<std::string> header = {"point"};
        for (std::string& col : Diagnostic::table_header()) {
            header.push_back(std::move(col));
        }
        TextTable diag_table(std::move(header));
        for (const SweepPointResult* r : failed_points) {
            std::vector<std::string> row = {r->point.tag()};
            for (std::string& cell : r->diag.table_row()) {
                row.push_back(std::move(cell));
            }
            diag_table.add_row(std::move(row));
        }
        diag_table.print(os);
    }
}

void
SweepReport::write_csv(const std::string& path) const
{
    CsvWriter csv(path,
                  {"index", "tag", "status", "runtime_s", "cycles",
                   "energy_j", "utilization", "wall_ms", "kind",
                   "message"});
    for (const SweepPointResult& r : results) {
        if (r.ok) {
            csv.add_row({std::to_string(r.point.index), r.point.tag(),
                         "ok", strprintf("%.6g", r.report.runtime_s),
                         strprintf("%.6g", r.report.cycles),
                         strprintf("%.6g", r.report.energy_j),
                         strprintf("%.4f", r.report.util()),
                         strprintf("%.1f", r.wall_ms), "", ""});
        } else {
            const bool has_diag = !r.skipped && !r.cancelled;
            csv.add_row({std::to_string(r.point.index), r.point.tag(),
                         status_name(r), "", "", "", "",
                         strprintf("%.1f", r.wall_ms),
                         has_diag ? to_string(r.diag.kind) : "",
                         has_diag ? r.diag.message : ""});
        }
    }
}

SweepReport
run_sweep(const SweepSpec& spec, const SweepOptions& options)
{
    std::vector<SweepPoint> points = spec.expand();

    SweepReport report;
    report.results.resize(points.size());
    std::atomic<bool> stop{false};
    const Clock::time_point sweep_start = Clock::now();

    // The cancellation token is deliberately NOT passed to parallel_for
    // here: every result slot must be written (as ok / failed /
    // skipped / cancelled), so the body always runs and does its own
    // token check at entry. Points already running when the signal
    // lands simply finish.
    parallel_for(points.size(), options.threads, [&](std::size_t i) {
        SweepPointResult& r = report.results[i];
        // Each point's record owns its SweepPoint; the expanded list is
        // not read again, so the strings move instead of copying.
        r.point = std::move(points[i]);
        if (options.fail_fast &&
            stop.load(std::memory_order_relaxed)) {
            r.skipped = true;
            return;
        }
        if (options.cancel != nullptr && options.cancel->cancelled()) {
            // Graceful drain: unstarted points are marked cancelled
            // and never journaled, so a resume attempts them again.
            r.cancelled = true;
            return;
        }

        // Checkpoint restore: a journaled outcome is final — ok and
        // failed alike (failures are deterministic).
        if (options.journal != nullptr) {
            const JsonValue* rec =
                options.journal->find("sweep", r.point.tag());
            if (rec != nullptr) {
                restore_point_record(*rec, r);
                if (!r.ok && options.fail_fast) {
                    stop.store(true, std::memory_order_relaxed);
                }
                return;
            }
        }

        DiagnosticCapture capture;
        FLAT_ERROR_CONTEXT("sweep point " << i << " ("
                                          << r.point.tag() << ")");
        (void)take_last_fired_fault_site(); // drop stale attribution

        // Per-point preemptive deadline. A separate token — NOT
        // parented to options.cancel — so a SIGINT lets the running
        // point finish instead of aborting it mid-search.
        CancellationToken deadline;
        const CancellationToken* point_cancel = nullptr;
        if (options.deadline_ms > 0.0) {
            deadline.set_deadline_ms(options.deadline_ms);
            point_cancel = &deadline;
        }

        const Clock::time_point start = Clock::now();
        {
            // Deterministic fault targeting: probes hit while
            // evaluating point i fire iff the armed seed equals i.
            FaultScope fault_scope(i);
            try {
                r.report = evaluate_point(r.point, spec, options,
                                          point_cancel);
                r.ok = true;
            } catch (...) {
                // Spec axes were validated by expand(), so an Error
                // here means the point itself is infeasible.
                r.diag = diagnostic_from_current_exception(
                    DiagKind::kInfeasible);
                r.ok = false;
            }
        }
        r.wall_ms = elapsed_ms(start);

        if (r.ok && options.deadline_ms > 0.0 &&
            r.wall_ms > options.deadline_ms) {
            // Post-hoc backstop for points that never reached a poll
            // site (the preemptive token already caught the rest).
            r.ok = false;
            r.diag = Diagnostic{};
            r.diag.kind = DiagKind::kTimeout;
            r.diag.message = strprintf(
                "point exceeded deadline: %.0fms > %.0fms", r.wall_ms,
                options.deadline_ms);
            r.diag.context = diagnostic_context();
            // A delay fault that slept here gets the attribution.
            r.diag.probe_site = take_last_fired_fault_site();
        }
        r.warnings = capture.take();
        if (!r.ok && options.fail_fast) {
            stop.store(true, std::memory_order_relaxed);
        }

        // Journal the FINAL outcome (ok or failed, with its
        // warnings); the per-slice search records for this point were
        // already appended by the DSE while it ran.
        if (options.journal != nullptr) {
            options.journal->append("sweep", r.point.tag(),
                                    encode_point_record(r));
        }
    });

    if (options.journal != nullptr) {
        options.journal->flush();
    }
    report.wall_ms = elapsed_ms(sweep_start);
    return report;
}

RunJournalHeader
sweep_journal_header(const SweepSpec& spec, const SimOptions& sim)
{
    // Every input that shapes the sweep's results: each platform's
    // accelerator, the options every point runs under and the axes.
    // Execution knobs (threads, prune, deadlines) stay out, so a
    // journal written under one execution configuration resumes under
    // another.
    std::ostringstream text;
    text << "sweep models=" << join(spec.models, ",")
         << " policies=" << join(spec.policies, ",") << " seq=";
    for (const std::uint64_t s : spec.seq_lens) {
        text << s << ',';
    }
    text << " batch=";
    for (const std::uint64_t b : spec.batches) {
        text << b << ',';
    }
    text << " scope=" << to_string(spec.scope) << '\n'
         << spec_sim_options(spec, sim).canonical();
    for (const std::string& platform : spec.platforms) {
        text << accel_preset(platform).canonical();
    }

    RunJournalHeader header;
    header.mode = "sweep";
    header.space_hash = fnv1a64(text.str());
    header.points = spec.expand().size();
    return header;
}

} // namespace flat
