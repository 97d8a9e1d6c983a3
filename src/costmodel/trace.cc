#include "costmodel/trace.h"

#include <algorithm>
#include <cmath>

#include "common/json.h"
#include "common/string_util.h"

namespace flat {
namespace {

double
passes_of(const AttentionDims& dims, const FusedDataflow& dataflow)
{
    return static_cast<double>(
        cross_loop_extent(dataflow.cross, dims.batch, dims.heads,
                          dims.q_len)
            .passes);
}

/** CSV cell, quoted when it contains a delimiter or quote. */
std::string
csv_cell(const std::string& text)
{
    if (text.find_first_of(",\"\n") == std::string::npos) {
        return text;
    }
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"') {
            out += '"';
        }
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

ExecutionTrace
trace_from_timeline(const TimelineResult& timeline, std::string style,
                    std::string dataflow_tag, double passes)
{
    ExecutionTrace trace;
    trace.style = std::move(style);
    trace.dataflow_tag = std::move(dataflow_tag);
    trace.passes = passes;
    trace.total_cycles = timeline.cycles;
    trace.cold_start_cycles = timeline.cold_start_cycles;
    trace.pass_cycles = timeline.cycles / std::max(1.0, passes);
    trace.bound_by = to_string(timeline.bound_by);

    const double per_pass = std::max(1.0, passes);
    for (std::size_t i = 0; i < timeline.phases.size(); ++i) {
        const Phase& phase = timeline.phases[i];
        if (phase.pace_only) {
            continue; // warm-up windows live in cold_start_cycles
        }
        const PhaseTiming& timing = timeline.phase_timings[i];
        TracePhase out;
        out.label = phase.label;
        out.stage = to_string(phase.stage);
        out.cycles = timing.paced_cycles / per_pass;
        out.bound_by = to_string(timing.bound_by);
        out.on_critical_path = timing.on_critical_path;
        trace.phases.push_back(std::move(out));
    }
    return trace;
}

ExecutionTrace
trace_attention(const ExecutionStyle& style, const AccelConfig& accel,
                const AttentionDims& dims, const FusedDataflow& dataflow,
                BaselineOverlap overlap)
{
    std::string name = style.id();
    if (&style == &baseline_execution_style()) {
        name = overlap == BaselineOverlap::kFull ? "baseline-full"
                                                 : "baseline-serialized";
    }
    return trace_from_timeline(
        attention_timeline(style, accel, dims, dataflow, overlap),
        std::move(name), dataflow.tag(), passes_of(dims, dataflow));
}

std::string
ExecutionTrace::render(std::size_t width) const
{
    double max_cycles = 1.0;
    for (const TracePhase& phase : phases) {
        max_cycles = std::max(max_cycles, phase.cycles);
    }
    std::string out;
    out += strprintf("dataflow %s (%s) — %.0f passes, %s-bound\n",
                     dataflow_tag.c_str(), style.c_str(), passes,
                     bound_by.c_str());
    out += strprintf("one steady-state pass (~%.0f cycles):\n",
                     pass_cycles);
    for (const TracePhase& phase : phases) {
        const std::size_t bar_len = static_cast<std::size_t>(
            std::lround(width * phase.cycles / max_cycles));
        std::string bar(bar_len, phase.on_critical_path ? '#' : '~');
        out += strprintf("  %-34s |%-*s| %.0f\n", phase.label.c_str(),
                         static_cast<int>(width), bar.c_str(),
                         phase.cycles);
    }
    if (cold_start_cycles > 0.0) {
        out += strprintf("cold start / fill: %.3g cycles exposed\n",
                         cold_start_cycles);
    }
    out += strprintf("total: %.3g cycles ('#' serial on the array/SFU, "
                     "'~' overlapped transfers)\n",
                     total_cycles);
    return out;
}

std::string
ExecutionTrace::to_json() const
{
    JsonWriter json;
    json.begin_object();
    json.field("style", style);
    json.field("dataflow", dataflow_tag);
    json.field("passes", passes);
    json.field("bound_by", bound_by);
    json.field("pass_cycles", pass_cycles);
    json.field("cold_start_cycles", cold_start_cycles);
    json.field("total_cycles", total_cycles);
    json.key("phases");
    json.begin_array();
    for (const TracePhase& phase : phases) {
        json.begin_object();
        json.field("label", phase.label);
        json.field("stage", phase.stage);
        json.field("cycles", phase.cycles);
        json.field("bound_by", phase.bound_by);
        json.field("on_critical_path", phase.on_critical_path);
        json.end_object();
    }
    json.end_array();
    json.end_object();
    return json.str();
}

std::string
ExecutionTrace::to_csv() const
{
    std::string out = "phase,stage,cycles,bound_by,on_critical_path\n";
    for (const TracePhase& phase : phases) {
        out += strprintf("%s,%s,%.17g,%s,%d\n",
                         csv_cell(phase.label).c_str(),
                         phase.stage.c_str(), phase.cycles,
                         csv_cell(phase.bound_by).c_str(),
                         phase.on_critical_path ? 1 : 0);
    }
    return out;
}

} // namespace flat
