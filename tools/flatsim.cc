/**
 * @file
 * flatsim — command-line front end to the FLAT/ATTACC simulator.
 *
 * Examples:
 *   flatsim --model bert --platform edge --policy flat-opt --seq 4096
 *   flatsim --model xlm --platform cloud --accel attacc --scope model \
 *           --seq 65536 --objective energy
 *   flatsim --model t5 --platform edge --policy flat-r64 --buffer 2MiB
 *   flatsim --list
 */
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/accel_config_io.h"
#include "arch/scaleout_config.h"
#include "common/cancellation.h"
#include "common/diagnostics.h"
#include "common/fault_injection.h"
#include "common/json.h"
#include "common/run_journal.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/units.h"
#include "core/simulator.h"
#include "core/sweep.h"
#include "dse/block_search.h"
#include "costmodel/execution_style.h"
#include "costmodel/trace.h"
#include "scaleout/scaleout_search.h"
#include "serving/serving.h"
#include "workload/model_config.h"

namespace {

using namespace flat;

void
print_usage()
{
    std::printf(R"(flatsim — FLAT/ATTACC attention dataflow simulator

usage: flatsim [options]
  --model NAME       bert | trxl | flaubert | t5 | xlm      (default bert)
  --platform NAME    edge | cloud                           (default edge)
  --platform-file F  load a custom platform (key = value; see
                     arch/accel_config_io.h for the keys)
  --policy NAME      base | base-{M,B,H} | base-opt |
                     flat-{M,B,H} | flat-R<rows> | flat-opt (default flat-opt)
  --accel NAME       baseaccel | flexaccel-m | flexaccel |
                     attacc-m | attacc-r<rows> | attacc     (overrides --policy)
  --style NAME       execution style(s) for the L-A DSE:
                     baseline | flat | pipelined | flash | all
                     (repeatable or comma-separated; default: the one
                     style --policy/--accel implies)
  --list-styles      list the registered execution styles
  --scope NAME       la | block | model                     (default block)
  --seq N            sequence length                        (default 4096)
  --kv-seq N         key/value sequence length (cross-attention)
  --window W         local (windowed) attention with radius W
  --batch N          batch size                             (default 64)
  --buffer SIZE      override on-chip buffer, e.g. 2MiB
  --sg2 SIZE         add a second-level on-chip buffer, e.g. 64MiB
  --sg2-bw BW        SG2 bandwidth (default 200GB/s)
  --offchip-bw BW    override off-chip bandwidth, e.g. 100GB/s
  --objective NAME   runtime | energy | edp                 (default runtime)
  --search-mode NAME exhaustive | analytic | analytic-verified
                     how the L-A DSE walks its space (default:
                     exhaustive; --serve defaults to analytic).
                     analytic derives each slice's tiles in closed
                     form from the SL/SG footprint and bandwidth
                     bounds, then refines locally through the exact
                     timeline cost; analytic-verified additionally
                     cross-checks the pick against the exhaustive
                     optimum and reports the objective ratio
  --block            per-layer view of a model-scope run: one
                     independent search per layer (QKV projections,
                     the fused L-A pipeline, the FCs), identical GEMM
                     shapes searched once; prints each layer's mapping
                     (composes with --search-mode analytic)
  --threads N        DSE worker threads (default: FLAT_THREADS env,
                     else all hardware threads; the result and the
                     exhaustive search's points evaluated / pruned are
                     identical for any thread count)
  --no-prune         disable DSE lower-bound pruning (compute bound and
                     DRAM-traffic floor; same result, every design
                     point evaluated; the analytic mapper's climb then
                     prices every point it visits and skips no slice)
  --serialized-baseline   model the baseline without transfer overlap
  --quick            smaller DSE menus
  --json             emit the report as JSON instead of tables
  --trace            append a per-pass timeline of the picked L-A
                     dataflow (any execution style; totals equal the
                     cost model's cycles exactly)
  --trace-json       emit the per-phase timeline as a JSON document
  --trace-csv FILE   write the per-phase timeline as CSV to FILE
  --list             list models, policies and accelerators
  --help             this text

multi-device scale-out (shards the L-A layer; see src/scaleout/):
  --devices D        number of identical FLAT accelerators (default 1)
  --shard-axis NAME  batch | head | seq | auto               (default auto)
  --topology NAME    ring | tree                             (default ring)
  --link-bw BW       per-link, per-direction bandwidth, e.g. 300GB/s
  --link-latency T   per-hop link latency, e.g. 700ns
  --scaleout NAME    fabric preset: single | pod-ring | pod-tree |
                     edge-mesh (flags above override preset fields)
  --scaleout-file F  load a fabric description (key = value; see
                     arch/scaleout_config.h for the keys)

inference serving (request-level traffic simulator; src/serving/):
  --serve            serve an arrival trace through the continuous-
                     batching scheduler, pricing every prefill/decode
                     step with the cost model, and report p50/p95/p99
                     request latency plus sustained tokens/s
  --arrival KIND     poisson | bursty | replay               (default poisson)
  --arrival-file F   replay trace: `arrival_s,prompt,output` rows
                     ('#' comments); required with --arrival replay
  --rate R           offered load in requests/second         (default 4)
  --serve-requests N requests to generate                    (default 32)
  --serve-seed S     arrival-trace PRNG seed                 (default 1)
  --sched NAME       prefill-first | decode-first | auto     (default
                     prefill-first); auto runs the serving DSE over
                     execution style x batching policy and reports the
                     best combination by tokens/s (ties: lower p99)
  --max-batch N      batch arbitration cap                   (default 8)
  --prompt-tokens N  mean prompt length (+/- 25%% jitter)     (default 512)
  --output-tokens N  generated tokens per request            (default 32)
  --ctx-bucket N     context-length rounding granule for the
                     step-cost memo                          (default 64)
  (one serve run searches each projection/FC GEMM shape once and, under
  --sched auto, prices each style's steps once for both policies)
  (--serve composes with --journal/--resume: step costs checkpoint
  under scope "serve" and a resumed report is bit-identical. The
  report is bit-identical at any --threads too.)

batch sweeps (fault-isolated; see core/sweep.h for the spec syntax):
  --sweep FILE       evaluate the cross product described by FILE; a
                     failing point is recorded as a diagnostic and the
                     sweep keeps going
  --deadline MS      per-point wall-clock deadline (0 = none); enforced
                     preemptively inside the DSE loops
  --keep-going       continue past failed points (the default)
  --fail-fast        stop scheduling new points after the first failure
  --sweep-csv FILE   also write per-point results as CSV
  --inject-fault SITE[:SEED][:ACTION[=MS]]
                     arm a fault probe (repeatable); ACTION is one of
                     error | internal | oom | delay[=MS] | crash.
                     In a sweep, SEED is the poisoned point index.

long runs (crash-safe checkpoints; see common/run_journal.h):
  --journal FILE     checkpoint completed DSE slices and sweep points
                     to a fresh append-only JSONL journal at FILE
  --resume FILE      resume from an earlier journal: completed work is
                     restored instead of re-evaluated, new work is
                     appended, and the final output is bit-identical to
                     an uninterrupted run; a journal written by a
                     different configuration is rejected as stale

signals: the first SIGINT/SIGTERM drains gracefully (running work
finishes, the journal is flushed, partial results are emitted, exit
code 5); a second signal hard-exits with 128+signo. SIGPIPE is
ignored: when the output pipe closes early (e.g. | head) the report
is truncated but the exit code still reflects the run.

exit codes: 0 success, 1 config error, 2 usage, 3 internal error,
            4 sweep completed with failed points, 5 cancelled
            (signal drain or preemptive deadline)
on error, stderr carries a human-readable line followed by one
machine-readable JSON diagnostic record
)");
}

void
print_catalog()
{
    std::printf("models:\n");
    for (const ModelConfig& m : model_zoo()) {
        std::printf("  %-9s blocks=%-3u D=%-5u H=%-3u FF=%u\n",
                    m.name.c_str(), m.num_blocks, m.hidden_dim,
                    m.num_heads, m.ff_dim);
    }
    std::printf("\ndataflow policies (Fig. 7b): Base, Base-M/B/H, "
                "Base-opt, FLAT-M/B/H, FLAT-R<rows>, FLAT-opt\n");
    std::printf("accelerators (Fig. 7c): BaseAccel, FlexAccel-M, "
                "FlexAccel, ATTACC-M, ATTACC-R<rows>, ATTACC\n");
    std::printf("\nplatforms (Fig. 7a):\n");
    for (const AccelConfig& a : {edge_accel(), cloud_accel()}) {
        std::printf("  %-6s %ux%u PEs, %s SG, %s on-chip, %s off-chip\n",
                    a.name.c_str(), a.pe_rows, a.pe_cols,
                    format_bytes(a.sg_bytes).c_str(),
                    format_bandwidth(a.onchip_bw).c_str(),
                    format_bandwidth(a.offchip_bw).c_str());
    }
}

void
print_styles()
{
    std::printf("execution styles (--style; the L-A DSE axis):\n");
    for (const ExecutionStyle* style : execution_styles()) {
        std::printf("  %-10s %s\n", style->id(), style->summary());
    }
    std::printf("\n'all' enumerates every registered style in one "
                "search; the flag is repeatable and accepts\n"
                "comma-separated lists (e.g. --style flat,flash)\n");
}

/** Upper bound for dimension-like flags (seq, batch, window). */
constexpr std::uint64_t kMaxDim = 1ull << 32;

struct Args {
    std::string model = "bert";
    std::string platform = "edge";
    std::string platform_file;
    std::string policy = "flat-opt";
    std::string accel;
    std::vector<std::string> styles;
    std::string scope = "block";
    std::uint64_t seq = 4096;
    std::uint64_t kv_seq = 0;
    std::uint64_t window = 0;
    std::uint64_t batch = 64;
    std::string buffer;
    std::string sg2;
    std::string sg2_bw = "200GB/s";
    std::string offchip_bw;
    std::string objective = "runtime";
    std::string search_mode; ///< "" = mode default (run: exhaustive,
                             ///< serve: analytic)
    bool block = false;      ///< --block: per-layer model view
    std::uint64_t threads = 0;
    bool no_prune = false;
    bool serialized_baseline = false;
    bool quick = false;
    bool json = false;
    bool trace = false;
    bool trace_json = false;
    std::string trace_csv;

    std::uint64_t devices = 0; // 0 = not set, keep the fabric default
    std::string shard_axis;
    std::string topology;
    std::string link_bw;
    std::string link_latency;
    std::string scaleout_preset;
    std::string scaleout_file;

    std::string sweep_file;
    std::string sweep_csv;
    std::uint64_t deadline_ms = 0;
    bool fail_fast = false;
    std::vector<std::string> inject_faults;

    std::string journal_file; ///< --journal: fresh checkpoint journal
    std::string resume_file;  ///< --resume: restore + append

    bool serve = false;             ///< --serve: traffic-simulator mode
    std::string arrival = "poisson"; ///< poisson | bursty | replay
    std::string arrival_file;        ///< --arrival replay trace
    double rate = 4.0;               ///< offered load, requests/s
    std::uint64_t serve_requests = 32;
    std::uint64_t serve_seed = 1;
    std::string sched = "prefill-first"; ///< + decode-first | auto
    std::uint64_t max_batch = 8;
    std::uint64_t prompt_tokens = 512;
    std::uint64_t output_tokens = 32;
    std::uint64_t ctx_bucket = 64;
};

/**
 * Process-wide cancellation token for the SIGINT/SIGTERM graceful
 * drain; handed to install_signal_cancellation() once the flags are
 * parsed and threaded into every work loop from there.
 */
CancellationToken g_signal_cancel;

/** Opens the checkpoint journal requested by --journal / --resume
 *  (nullptr when neither flag is present). */
std::unique_ptr<RunJournal>
open_journal(const Args& args, const RunJournalHeader& header)
{
    if (!args.resume_file.empty()) {
        return RunJournal::open_resume(args.resume_file, header);
    }
    if (!args.journal_file.empty()) {
        return RunJournal::create(args.journal_file, header);
    }
    return nullptr;
}

/**
 * Parses a numeric flag value strictly: the whole token must be a
 * non-negative integer in [min, max]. Anything else (letters, trailing
 * garbage, a sign, overflow) is a usage error, exit code 2.
 */
std::uint64_t
parse_u64_flag(const std::string& flag, const std::string& text,
               std::uint64_t min = 0,
               std::uint64_t max = std::uint64_t(-1))
{
    std::size_t pos = 0;
    unsigned long long value = 0;
    if (text.empty() || text[0] == '-' || text[0] == '+') {
        throw UsageError(flag + " expects a non-negative integer, got '" +
                         text + "'");
    }
    try {
        value = std::stoull(text, &pos);
    } catch (const std::exception&) {
        pos = 0;
    }
    if (pos == 0 || pos != text.size()) {
        throw UsageError(flag + " expects a non-negative integer, got '" +
                         text + "'");
    }
    if (value < min || value > max) {
        throw UsageError(flag + " value " + text + " is out of range [" +
                         std::to_string(min) + ", " +
                         std::to_string(max) + "]");
    }
    return value;
}

/**
 * Parses a positive decimal flag value (e.g. --rate): the whole token
 * must parse and land in (0, max]. Anything else is a usage error.
 */
double
parse_positive_double_flag(const std::string& flag,
                           const std::string& text, double max = 1e12)
{
    std::size_t pos = 0;
    double value = 0.0;
    try {
        value = std::stod(text, &pos);
    } catch (const std::exception&) {
        pos = 0;
    }
    if (pos == 0 || pos != text.size() || !(value > 0.0) ||
        value > max) {
        throw UsageError(flag + " expects a positive number, got '" +
                         text + "'");
    }
    return value;
}

/**
 * Builds the scale-out fabric: preset / file base first, then
 * individual flag overrides. Bad flag VALUES are usage errors (exit
 * 2); an inconsistent resulting fabric is a config error (exit 1).
 */
ScaleOutConfig
fabric_from_args(const Args& args)
{
    ScaleOutConfig fabric;
    if (!args.scaleout_preset.empty()) {
        try {
            fabric = scaleout_preset(args.scaleout_preset);
        } catch (const InternalError&) {
            throw;
        } catch (const Error& e) {
            throw UsageError(e.what());
        }
    }
    // File CONTENT problems are config errors, like --platform-file.
    if (!args.scaleout_file.empty()) {
        fabric = scaleout_from_config_file(args.scaleout_file, fabric);
    }
    try {
        if (args.devices != 0) {
            fabric.devices = static_cast<std::uint32_t>(args.devices);
        }
        if (!args.shard_axis.empty()) {
            fabric.axis = parse_shard_axis(args.shard_axis);
        }
        if (!args.topology.empty()) {
            fabric.topology = parse_topology(args.topology);
        }
        if (!args.link_bw.empty()) {
            fabric.link_bw = parse_bandwidth(args.link_bw);
        }
        if (!args.link_latency.empty()) {
            fabric.link_latency_s = parse_time(args.link_latency);
        }
    } catch (const InternalError&) {
        throw;
    } catch (const Error& e) {
        // Only flag-VALUE parsing runs inside this try: misuse.
        throw UsageError(e.what());
    }
    fabric.validate();
    return fabric;
}

/** Builds the platform from --platform/--platform-file plus the
 *  buffer/bandwidth override flags (shared by every mode). */
AccelConfig
accel_from_args(const Args& args)
{
    FLAT_CHECK(to_lower(args.platform) == "cloud" ||
                   to_lower(args.platform) == "edge",
               "unknown platform '" << args.platform
                                    << "' (edge | cloud)");
    AccelConfig accel = (to_lower(args.platform) == "cloud")
                            ? cloud_accel()
                            : edge_accel();
    if (!args.platform_file.empty()) {
        accel = accel_from_config_file(args.platform_file, accel);
    }
    if (!args.buffer.empty()) {
        accel.sg_bytes = parse_bytes(args.buffer);
    }
    if (!args.sg2.empty()) {
        accel.sg2_bytes = parse_bytes(args.sg2);
        accel.sg2_bw = parse_bandwidth(args.sg2_bw);
    }
    if (!args.offchip_bw.empty()) {
        accel.offchip_bw = parse_bandwidth(args.offchip_bw);
    }
    return accel;
}

/** Builds the workload from --model/--batch/--seq/--kv-seq/--window
 *  (shared by the single-run and block modes). */
Workload
workload_from_args(const Args& args, const ModelConfig& model)
{
    FLAT_CHECK(args.kv_seq == 0 || args.window == 0,
               "--kv-seq and --window are mutually exclusive");
    if (args.kv_seq != 0) {
        return make_cross_attention_workload(model, args.batch,
                                             args.seq, args.kv_seq);
    }
    if (args.window != 0) {
        return make_local_attention_workload(model, args.batch,
                                             args.seq, args.window);
    }
    return make_workload(model, args.batch, args.seq);
}

/** The L-A search mode a mode's flags resolve to. */
SearchMode
search_mode_from_args(const Args& args, SearchMode fallback)
{
    return args.search_mode.empty() ? fallback
                                    : parse_search_mode(args.search_mode);
}

/** Evaluation options from the DSE flags (run, block and serve modes);
 *  @p mode is the search mode when --search-mode is absent. */
SimOptions
sim_options_from_args(const Args& args, SearchMode mode)
{
    SimOptions options;
    options.objective = parse_objective(args.objective);
    options.search_mode = search_mode_from_args(args, mode);
    options.quick = args.quick;
    options.threads = static_cast<unsigned>(args.threads);
    options.prune = !args.no_prune;
    options.baseline_overlap = args.serialized_baseline
                                   ? BaselineOverlap::kSerialized
                                   : BaselineOverlap::kFull;
    options.styles = args.styles;
    options.cancel = &g_signal_cancel;
    return options;
}

/** Simulator::run under --accel when given, else under --policy. */
ScopeReport
run_simulator(const Args& args, const AccelConfig& accel,
              const Workload& workload, Scope scope,
              const SimOptions& options)
{
    const Simulator sim(accel);
    return args.accel.empty()
               ? sim.run(workload, scope,
                         DataflowPolicy::parse(args.policy), options)
               : sim.run(workload, scope,
                         AcceleratorSpec::parse(args.accel), options);
}

int
run(const Args& args)
{
    const ModelConfig model = model_by_name(args.model);
    const AccelConfig accel = accel_from_args(args);
    const Workload workload = workload_from_args(args, model);
    const Scope scope = parse_scope(args.scope);
    SimOptions options = sim_options_from_args(args, SearchMode::kExhaustive);

    // Journal identity of a single-run DSE: a coarse hash over the
    // result-shaping CLI surface. The fine-grained staleness guard is
    // the per-search scope key search_attention journals under (a hash
    // of accelerator + dims + search options) — a record from a
    // different space simply never matches at restore time. The search
    // mode is folded in only when non-exhaustive, so pre-existing
    // exhaustive journals keep their historical hash.
    RunJournalHeader journal_header;
    journal_header.mode = "run";
    std::string space_text = strprintf(
        "run|%s|%llu|%llu|%.17g|%s|%llu|%llu|%llu|%llu|%s|%s|%d|%d|%d|%s",
        accel.name.c_str(),
        static_cast<unsigned long long>(accel.sg_bytes),
        static_cast<unsigned long long>(accel.sg2_bytes),
        accel.offchip_bw, model.name.c_str(),
        static_cast<unsigned long long>(args.batch),
        static_cast<unsigned long long>(args.seq),
        static_cast<unsigned long long>(args.kv_seq),
        static_cast<unsigned long long>(args.window),
        to_string(scope).c_str(),
        (args.accel.empty() ? args.policy : args.accel).c_str(),
        static_cast<int>(options.objective),
        static_cast<int>(options.quick),
        static_cast<int>(options.baseline_overlap),
        join(args.styles, ",").c_str());
    if (options.search_mode != SearchMode::kExhaustive) {
        space_text += strprintf("|mode=%s",
                                to_string(options.search_mode));
    }
    journal_header.space_hash = fnv1a64(space_text);
    const std::unique_ptr<RunJournal> journal =
        open_journal(args, journal_header);
    options.journal = journal.get();

    const ScopeReport report =
        run_simulator(args, accel, workload, scope, options);

    // Multi-device scale-out of the L-A layer: two-level DSE (axis x
    // devices outer, per-device dataflow inner) plus a D=1 reference
    // point for the speedup row. Single-device runs skip all of this.
    const ScaleOutConfig fabric = fabric_from_args(args);
    ScaleOutSearchResult scaleout;
    double single_device_cycles = 0.0;
    if (!fabric.single_device()) {
        const AttentionDims dims = AttentionDims::from_workload(workload);
        ScaleOutSearchOptions so_options;
        so_options.attention =
            args.accel.empty()
                ? attention_options(DataflowPolicy::parse(args.policy),
                                    options)
                : attention_options(AcceleratorSpec::parse(args.accel),
                                    options);
        FLAT_CHECK(so_options.attention.fused,
                   "scale-out shards the fused FLAT execution; pick a "
                   "flat-* policy or an ATTACC accelerator (got "
                       << report.policy_name << ")");
        so_options.fabric = fabric;
        scaleout = search_scaleout(accel, dims, so_options);
        FLAT_CHECK(scaleout.found,
                   "no feasible sharding of this layer across "
                       << fabric.devices << " devices");
        // The D=1 reference searches FLAT alone. Without --style that
        // is the L-A search the report already ran, with the same
        // options, so its winner is the reference.
        if (args.styles.empty()) {
            single_device_cycles = report.la_winner.cost.cycles;
        } else {
            ScaleOutSearchOptions ref_options = so_options;
            ref_options.device_counts = {1};
            single_device_cycles =
                search_scaleout(accel, dims, ref_options).best.cost.cycles;
        }
    }

    // Per-phase timeline of the report's L-A winner: the trace
    // re-shapes the same evaluated timeline the cost model consumed, so
    // its totals equal the report's (unscaled) L-A cycles exactly. With
    // --devices > 1 the trace shows ONE device's sharded timeline,
    // collective phases included.
    ExecutionTrace trace;
    const bool want_trace =
        args.trace || args.trace_json || !args.trace_csv.empty();
    if (want_trace && !fabric.single_device()) {
        const ScaleOutCost& cost = scaleout.best.cost;
        trace = trace_from_timeline(
            cost.timeline,
            std::string("scaleout-") + to_string(cost.axis),
            scaleout.best.dataflow.tag(),
            static_cast<double>(
                cross_loop_extent(scaleout.best.dataflow.cross,
                                  cost.device_dims.batch,
                                  cost.device_dims.heads,
                                  cost.device_dims.q_len)
                    .passes));
    } else if (want_trace) {
        trace = trace_attention(*report.la_winner.style, accel,
                                AttentionDims::from_workload(workload),
                                report.la_winner.dataflow,
                                options.baseline_overlap);
    }
    if (want_trace) {
        if (!args.trace_csv.empty()) {
            std::FILE* file = std::fopen(args.trace_csv.c_str(), "w");
            FLAT_CHECK(file != nullptr, "cannot write trace CSV '"
                                            << args.trace_csv << "'");
            std::fputs(trace.to_csv().c_str(), file);
            std::fclose(file);
        }
    }

    if (args.json) {
        JsonWriter json;
        json.begin_object();
        json.field("model", model.name);
        json.field("platform", accel.name);
        json.field("policy", report.policy_name);
        json.field("picked_dataflow", report.la_dataflow_tag);
        json.field("scope", to_string(scope));
        json.field("batch", static_cast<std::uint64_t>(args.batch));
        json.field("seq_len", static_cast<std::uint64_t>(args.seq));
        json.field("utilization", report.util());
        json.field("runtime_s", report.runtime_s);
        json.field("cycles", report.cycles);
        json.field("ideal_cycles", report.ideal_cycles);
        json.field("energy_j", report.energy_j);
        json.field("dram_bytes", report.traffic.total_dram());
        json.field("sg_bytes", report.traffic.total_sg());
        json.field("la_footprint_bytes",
                   static_cast<std::uint64_t>(report.la_footprint_bytes));
        json.field("la_resident_fraction", report.la_resident_fraction);
        json.field("la_points_evaluated",
                   static_cast<std::uint64_t>(report.la_points_evaluated));
        json.field("la_points_pruned",
                   static_cast<std::uint64_t>(report.la_points_pruned));
        if (options.search_mode != SearchMode::kExhaustive) {
            json.field("search_mode", to_string(options.search_mode));
        }
        if (report.la_verified) {
            json.field("la_verified_ratio", report.la_verified_ratio);
        }
        json.key("breakdown_cycles");
        json.begin_object();
        json.field("la", report.breakdown.la_cycles);
        json.field("projection", report.breakdown.proj_cycles);
        json.field("fc", report.breakdown.fc_cycles);
        json.end_object();
        json.field("la_bound_by", report.la_stages.bound_by);
        json.key("la_stage_cycles");
        json.begin_object();
        json.field("prefetch", report.la_stages.prefetch_cycles);
        json.field("logit", report.la_stages.logit_cycles);
        json.field("softmax", report.la_stages.softmax_cycles);
        json.field("attend", report.la_stages.attend_cycles);
        json.field("writeback", report.la_stages.writeback_cycles);
        json.field("cold_start", report.la_stages.cold_start_cycles);
        json.end_object();
        if (!fabric.single_device()) {
            const ScaleOutSearchPoint& best = scaleout.best;
            const ScaleOutCost& cost = best.cost;
            json.key("scaleout");
            json.begin_object();
            json.field("devices",
                       static_cast<std::uint64_t>(cost.devices));
            json.field("shard_axis", to_string(cost.axis));
            json.field("topology", to_string(fabric.topology));
            json.field("link_bw", fabric.link_bw);
            json.field("link_latency_s", fabric.link_latency_s);
            json.key("device_dims");
            json.begin_object();
            json.field("batch", cost.device_dims.batch);
            json.field("heads", cost.device_dims.heads);
            json.field("q_len", cost.device_dims.q_len);
            json.field("kv_len", cost.device_dims.kv_len);
            json.field("head_dim", cost.device_dims.head_dim);
            json.end_object();
            json.field("device_dataflow", best.dataflow.tag());
            json.field("la_cycles", cost.cycles);
            json.field("la_cycles_single_device", single_device_cycles);
            json.field("speedup", single_device_cycles / cost.cycles);
            json.field("collective_phases",
                       static_cast<std::uint64_t>(cost.collective_phases));
            json.field("exposed_collective_cycles",
                       cost.exposed_collective_cycles);
            json.field("overlapped_link_cycles",
                       cost.overlapped_link_cycles);
            json.field("link_bytes_per_device",
                       cost.link_bytes_per_device);
            json.field("fleet_energy_j", best.total_energy_j);
            json.end_object();
        }
        json.end_object();
        std::printf("%s\n", json.str().c_str());
        if (args.trace_json) {
            std::printf("%s\n", trace.to_json().c_str());
        }
        return 0;
    }

    std::printf("workload : %s, batch %llu, N=%llu%s (%s scope)\n",
                model.name.c_str(),
                static_cast<unsigned long long>(args.batch),
                static_cast<unsigned long long>(args.seq),
                args.kv_seq != 0
                    ? strprintf(", N_kv=%llu",
                                static_cast<unsigned long long>(
                                    args.kv_seq))
                          .c_str()
                    : "",
                to_string(scope).c_str());
    std::printf("platform : %s (%ux%u PEs, %s SG, %s off-chip)\n",
                accel.name.c_str(), accel.pe_rows, accel.pe_cols,
                format_bytes(accel.sg_bytes).c_str(),
                format_bandwidth(accel.offchip_bw).c_str());
    std::printf("dataflow : %s -> picked %s\n\n",
                report.policy_name.c_str(),
                report.la_dataflow_tag.c_str());

    TextTable table({"metric", "value"});
    table.add_row({"utilization", strprintf("%.3f", report.util())});
    table.add_row({"runtime", format_time(report.runtime_s)});
    table.add_row({"cycles", format_count(report.cycles)});
    table.add_row({"non-stall cycles", format_count(report.ideal_cycles)});
    table.add_row({"energy", strprintf("%.4g J", report.energy_j)});
    table.add_row({"DRAM traffic",
                   format_bytes(static_cast<std::uint64_t>(
                       report.traffic.total_dram()))});
    table.add_row({"on-chip traffic",
                   format_bytes(static_cast<std::uint64_t>(
                       report.traffic.total_sg()))});
    table.add_row({"L-A live footprint",
                   format_bytes(report.la_footprint_bytes)});
    table.add_row({"L-A resident fraction",
                   strprintf("%.2f", report.la_resident_fraction)});
    table.add_row({"L-A DSE points",
                   strprintf("%zu evaluated, %zu pruned",
                             report.la_points_evaluated,
                             report.la_points_pruned)});
    if (report.la_verified) {
        table.add_row({"L-A vs exhaustive",
                       strprintf("objective ratio %.6f",
                                 report.la_verified_ratio)});
    }
    table.print(std::cout);

    std::printf("\nL-A stages (%s-bound; cycles each stage alone "
                "would need):\n",
                report.la_stages.bound_by.c_str());
    TextTable stages({"stage", "cycles"});
    stages.add_row({"prefetch",
                    format_count(report.la_stages.prefetch_cycles)});
    stages.add_row({"logit GEMM",
                    format_count(report.la_stages.logit_cycles)});
    stages.add_row({"softmax",
                    format_count(report.la_stages.softmax_cycles)});
    stages.add_row({"attend GEMM",
                    format_count(report.la_stages.attend_cycles)});
    stages.add_row({"writeback",
                    format_count(report.la_stages.writeback_cycles)});
    stages.add_row({"cold start",
                    format_count(report.la_stages.cold_start_cycles)});
    stages.print(std::cout);

    if (!fabric.single_device()) {
        const ScaleOutSearchPoint& best = scaleout.best;
        const ScaleOutCost& cost = best.cost;
        const double speedup = single_device_cycles / cost.cycles;
        std::printf("\nscale-out (L-A layer): %u devices, %s-sharded, "
                    "%s @ %s per link\n",
                    cost.devices, to_string(cost.axis),
                    to_string(fabric.topology),
                    format_bandwidth(fabric.link_bw).c_str());
        TextTable so_table({"metric", "value"});
        so_table.add_row(
            {"per-device shard",
             strprintf("B=%llu H=%llu N=%llu N_kv=%llu",
                       static_cast<unsigned long long>(
                           cost.device_dims.batch),
                       static_cast<unsigned long long>(
                           cost.device_dims.heads),
                       static_cast<unsigned long long>(
                           cost.device_dims.q_len),
                       static_cast<unsigned long long>(
                           cost.device_dims.kv_len))});
        so_table.add_row({"device dataflow", best.dataflow.tag()});
        so_table.add_row({"L-A cycles (1 device)",
                          format_count(single_device_cycles)});
        so_table.add_row({"L-A cycles (sharded)",
                          format_count(cost.cycles)});
        so_table.add_row(
            {"speedup", strprintf("%.2fx (%.0f%% efficiency)", speedup,
                                  100.0 * speedup / cost.devices)});
        so_table.add_row({"collective phases",
                          std::to_string(cost.collective_phases)});
        so_table.add_row({"exposed collective cycles",
                          format_count(cost.exposed_collective_cycles)});
        so_table.add_row({"overlapped link cycles",
                          format_count(cost.overlapped_link_cycles)});
        so_table.add_row(
            {"link traffic / device",
             format_bytes(static_cast<std::uint64_t>(
                 cost.link_bytes_per_device))});
        so_table.add_row({"fleet energy (L-A)",
                          strprintf("%.4g J", best.total_energy_j)});
        so_table.print(std::cout);
    }

    if (args.trace) {
        std::printf("\n%s", trace.render().c_str());
    }
    if (args.trace_json) {
        std::printf("\n%s\n", trace.to_json().c_str());
    }

    if (scope != Scope::kLogitAttend) {
        std::printf("\nlatency breakdown (cycles):\n");
        TextTable breakdown({"category", "cycles", "share"});
        const auto row = [&](const char* name, double cycles) {
            breakdown.add_row({name, format_count(cycles),
                               strprintf("%.1f%%", 100.0 * cycles /
                                                       report.cycles)});
        };
        row("L-A (fused/sequential)", report.breakdown.la_cycles);
        row("Projections (Q/K/V/O)", report.breakdown.proj_cycles);
        row("Feed-forward FCs", report.breakdown.fc_cycles);
        breakdown.print(std::cout);
    }
    return 0;
}

/** Shared --serve report body (table or JSON object fields). */
void
print_serve_report(const Args& args, const AccelConfig& accel,
                   const ServeReport& report, const char* picked_style)
{
    if (args.json) {
        JsonWriter json;
        json.begin_object();
        json.field("model", report.model);
        json.field("platform", accel.name);
        json.field("policy", report.policy);
        json.field("style", picked_style);
        json.field("sched", report.sched_policy);
        json.field("arrival", args.arrival);
        json.field("max_batch", report.max_batch);
        json.field("offered", report.offered);
        json.field("completed", report.completed);
        json.field("p50_s", report.p50_s);
        json.field("p95_s", report.p95_s);
        json.field("p99_s", report.p99_s);
        json.field("mean_s", report.mean_s);
        json.field("makespan_s", report.makespan_s);
        json.field("tokens_per_s", report.tokens_per_s);
        json.field("prefilled_tokens", report.prefilled_tokens);
        json.field("generated_tokens", report.generated_tokens);
        json.field("prefill_steps", report.prefill_steps);
        json.field("decode_steps", report.decode_steps);
        json.field("cost_lookups", report.cost_lookups);
        json.field("cost_memo_hits", report.cost_memo_hits);
        json.field("cost_journal_hits", report.cost_journal_hits);
        json.field("cancelled", report.cancelled);
        json.key("completion_order");
        json.begin_array();
        for (const std::uint64_t id : report.completion_order) {
            json.value(id);
        }
        json.end_array();
        json.end_object();
        std::printf("%s\n", json.str().c_str());
        return;
    }

    std::printf("serving  : %s on %s, %s arrivals @ %.3g req/s, "
                "%llu requests\n",
                report.model.c_str(), accel.name.c_str(),
                args.arrival.c_str(), args.rate,
                static_cast<unsigned long long>(report.offered));
    std::printf("batching : %s, cap %llu, dataflow %s (style %s)%s\n\n",
                report.sched_policy.c_str(),
                static_cast<unsigned long long>(report.max_batch),
                report.policy.c_str(), picked_style,
                report.cancelled ? " [cancelled: partial report]" : "");

    TextTable table({"metric", "value"});
    table.add_row({"completed",
                   strprintf("%llu / %llu",
                             static_cast<unsigned long long>(
                                 report.completed),
                             static_cast<unsigned long long>(
                                 report.offered))});
    table.add_row({"p50 latency", format_time(report.p50_s)});
    table.add_row({"p95 latency", format_time(report.p95_s)});
    table.add_row({"p99 latency", format_time(report.p99_s)});
    table.add_row({"mean latency", format_time(report.mean_s)});
    table.add_row({"makespan", format_time(report.makespan_s)});
    table.add_row({"tokens/s",
                   strprintf("%.4g", report.tokens_per_s)});
    table.add_row({"prefill steps",
                   std::to_string(report.prefill_steps)});
    table.add_row({"decode steps",
                   std::to_string(report.decode_steps)});
    table.add_row(
        {"step-cost lookups",
         strprintf("%llu (%llu memo, %llu journal hits)",
                   static_cast<unsigned long long>(report.cost_lookups),
                   static_cast<unsigned long long>(
                       report.cost_memo_hits),
                   static_cast<unsigned long long>(
                       report.cost_journal_hits))});
    table.print(std::cout);
}

/** --block excludes the serve/sweep/trace/scale-out surfaces. */
void
throw_if_block_conflicts(const Args& args)
{
    if (args.serve) {
        throw UsageError("--block and --serve are mutually exclusive");
    }
    if (!args.sweep_file.empty()) {
        throw UsageError("--block and --sweep are mutually exclusive");
    }
    if (args.trace || args.trace_json || !args.trace_csv.empty()) {
        throw UsageError("--block has no per-phase trace; drop the "
                         "--trace flags");
    }
    if (args.devices > 1) {
        throw UsageError("--block searches a single device; drop "
                         "--devices");
    }
}

/** The report-facing tag of a block layer's picked mapping. */
std::string
block_layer_tag(const BlockLayerPlan& layer)
{
    if (!layer.attention) {
        return layer.dataflow.tag();
    }
    const std::string prefix =
        layer.la.style != nullptr
            ? std::string(layer.la.style->id()) + ":"
            : std::string();
    return prefix + layer.la.dataflow.tag();
}

int
run_block_mode(const Args& args)
{
    const ModelConfig model = model_by_name(args.model);
    const AccelConfig accel = accel_from_args(args);
    const Workload workload = workload_from_args(args, model);
    const SimOptions options =
        sim_options_from_args(args, SearchMode::kExhaustive);

    // The per-layer view of a model-scope run: the same search_block
    // call Simulator::run folds into its report.
    const BlockSearchResult result =
        run_simulator(args, accel, workload, Scope::kModel, options).block;

    if (args.json) {
        JsonWriter json;
        json.begin_object();
        json.field("model", model.name);
        json.field("platform", accel.name);
        json.field("policy",
                   args.accel.empty() ? args.policy : args.accel);
        json.field("search_mode", to_string(options.search_mode));
        json.key("layers");
        json.begin_array();
        for (const BlockLayerPlan& layer : result.layers) {
            json.begin_object();
            json.field("name", layer.name);
            json.field("kind", layer.attention ? "attention" : "gemm");
            json.field("dataflow", block_layer_tag(layer));
            json.field("cycles", layer.cycles);
            json.field("energy_j", layer.energy_j);
            json.field("evaluated",
                       static_cast<std::uint64_t>(layer.evaluated));
            json.field("pruned",
                       static_cast<std::uint64_t>(layer.pruned));
            json.field("reused", layer.reused);
            json.end_object();
        }
        json.end_array();
        json.field("block_cycles", result.block_cycles);
        json.field("block_energy_j", result.block_energy_j);
        json.field("blocks", result.blocks);
        json.field("model_cycles", result.model_cycles);
        json.field("model_energy_j", result.model_energy_j);
        json.field("evaluated",
                   static_cast<std::uint64_t>(result.evaluated));
        json.field("pruned",
                   static_cast<std::uint64_t>(result.pruned));
        json.end_object();
        std::printf("%s\n", json.str().c_str());
        return 0;
    }

    std::printf("block DSE: %s, batch %llu, N=%llu on %s "
                "(%s mode, %s objective)\n\n",
                model.name.c_str(),
                static_cast<unsigned long long>(args.batch),
                static_cast<unsigned long long>(args.seq),
                accel.name.c_str(), to_string(options.search_mode),
                args.objective.c_str());
    TextTable table(
        {"layer", "kind", "picked dataflow", "cycles", "energy (J)",
         "evaluated"});
    for (const BlockLayerPlan& layer : result.layers) {
        table.add_row(
            {layer.name, layer.attention ? "attention" : "gemm",
             block_layer_tag(layer), strprintf("%.0f", layer.cycles),
             strprintf("%.4g", layer.energy_j),
             layer.reused
                 ? "(reused)"
                 : strprintf("%llu", static_cast<unsigned long long>(
                                         layer.evaluated))});
    }
    table.add_separator();
    table.add_row({"block", "", "",
                   strprintf("%.0f", result.block_cycles),
                   strprintf("%.4g", result.block_energy_j),
                   strprintf("%llu", static_cast<unsigned long long>(
                                         result.evaluated))});
    table.add_row(
        {strprintf("model (x%llu)",
                   static_cast<unsigned long long>(result.blocks)),
         "", "", strprintf("%.0f", result.model_cycles),
         strprintf("%.4g", result.model_energy_j), ""});
    table.print(std::cout);
    return 0;
}

/** --serve excludes the single-run/sweep-only surfaces. */
void
throw_if_serve_conflicts(const Args& args)
{
    if (!args.sweep_file.empty()) {
        throw UsageError("--serve and --sweep are mutually exclusive");
    }
    if (args.trace || args.trace_json || !args.trace_csv.empty()) {
        throw UsageError("--serve has no per-phase trace; drop the "
                         "--trace flags");
    }
}

int
run_serve_mode(const Args& args)
{
    const ModelConfig model = model_by_name(args.model);
    const AccelConfig accel = accel_from_args(args);

    // Flag-VALUE validation: unknown arrival kinds / scheduling
    // policies and a missing or unreadable replay trace are CLI
    // misuse (exit 2), like every other bad flag value.
    ArrivalOptions trace_options;
    const bool auto_sched = args.sched == "auto";
    SchedPolicy fixed_policy = SchedPolicy::kPrefillFirst;
    try {
        trace_options.kind = parse_arrival_kind(args.arrival);
        if (!auto_sched) {
            fixed_policy = parse_sched_policy(args.sched);
        }
    } catch (const InternalError&) {
        throw;
    } catch (const Error& e) {
        throw UsageError(std::string(e.what()) +
                         " (--sched also accepts 'auto')");
    }
    if (trace_options.kind == ArrivalKind::kReplay &&
        args.arrival_file.empty()) {
        throw UsageError("--arrival replay needs --arrival-file FILE");
    }
    trace_options.seed = args.serve_seed;
    trace_options.rate_rps = args.rate;
    trace_options.requests = args.serve_requests;
    trace_options.prompt_tokens = args.prompt_tokens;
    trace_options.output_tokens = args.output_tokens;
    trace_options.replay_file = args.arrival_file;
    std::vector<Request> requests;
    try {
        requests = generate_arrivals(trace_options);
    } catch (const InternalError&) {
        throw;
    } catch (const Error& e) {
        // The trace comes straight from flag values; a bad one is
        // misuse, not a config error.
        throw UsageError(e.what());
    }

    ServeOptions options;
    options.sched.policy = fixed_policy;
    options.sched.max_batch = args.max_batch;
    options.policy = args.policy;
    options.ctx_bucket = args.ctx_bucket;
    // Serving prices hundreds of small per-step searches, so the
    // analytic mapper is the default; --search-mode exhaustive is the
    // fallback. Both paths (fixed --sched and the auto DSE) use it.
    options.sim = sim_options_from_args(args, SearchMode::kAnalytic);
    options.dse_mode = options.sim.search_mode;

    // Journal identity: the full serving space (accel, model, the
    // whole trace, scheduler + DSE knobs) plus the sched-mode string,
    // so an `auto` search never resumes a fixed-policy journal.
    RunJournalHeader journal_header;
    journal_header.mode = "serve";
    journal_header.space_hash = fnv1a64(
        args.sched + '|' +
        serving_space_canonical(accel, model, requests, options));
    const std::unique_ptr<RunJournal> journal =
        open_journal(args, journal_header);
    options.journal = journal.get();

    ServeReport report;
    std::string picked_style =
        args.styles.empty() ? "default" : join(args.styles, ",");
    if (auto_sched) {
        const ServingSearchResult result =
            search_serving(accel, model, requests, options);
        FLAT_CHECK(result.found || result.report.cancelled,
                   "no feasible execution style x batching policy "
                   "combination for this trace");
        report = result.report;
        if (result.found) {
            picked_style = result.best.style;
        }
    } else {
        report = run_serving(accel, model, requests, options);
    }

    print_serve_report(args, accel, report, picked_style.c_str());
    if (report.cancelled) {
        // Partial SLO report first, then the documented cancelled
        // exit path (stderr diagnostic + exit code 5).
        throw CancelledError(CancelReason::kSignal,
                             "serving drained after cancellation; the "
                             "report covers the completed prefix");
    }
    return 0;
}

int
run_sweep_mode(const Args& args)
{
    const SweepSpec spec = SweepSpec::from_file(args.sweep_file);
    SweepOptions options;
    options.threads = static_cast<unsigned>(args.threads);
    options.deadline_ms = static_cast<double>(args.deadline_ms);
    options.fail_fast = args.fail_fast;
    options.sim.prune = !args.no_prune;
    options.sim.baseline_overlap = args.serialized_baseline
                                       ? BaselineOverlap::kSerialized
                                       : BaselineOverlap::kFull;
    options.sim.styles = args.styles;
    options.cancel = &g_signal_cancel;

    const std::unique_ptr<RunJournal> journal =
        open_journal(args, sweep_journal_header(spec, options.sim));
    options.journal = journal.get();

    const SweepReport report = run_sweep(spec, options);

    if (!args.sweep_csv.empty()) {
        report.write_csv(args.sweep_csv);
    }
    if (args.json) {
        JsonWriter json;
        report.write_json(json);
        std::printf("%s\n", json.str().c_str());
    } else {
        report.print(std::cout);
    }
    return report.exit_code();
}

} // namespace

int
main(int argc, char** argv)
{
#ifdef SIGPIPE
    // A consumer closing the pipe (flatsim --sweep ... | head) must
    // not kill the run mid-write: writes past the close fail silently,
    // the report is truncated, and the exit code still reflects the
    // run (see --help).
    std::signal(SIGPIPE, SIG_IGN);
#endif
    Args args;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc) {
                    throw UsageError(flag + " needs a value");
                }
                return argv[++i];
            };
            if (flag == "--help" || flag == "-h") {
                print_usage();
                return 0;
            } else if (flag == "--list") {
                print_catalog();
                return 0;
            } else if (flag == "--model") {
                args.model = next();
            } else if (flag == "--platform") {
                args.platform = next();
            } else if (flag == "--platform-file") {
                args.platform_file = next();
            } else if (flag == "--policy") {
                args.policy = next();
            } else if (flag == "--accel") {
                args.accel = next();
            } else if (flag == "--style") {
                for (const std::string& part :
                     flat::split(next(), ',')) {
                    const std::string id = flat::to_lower(flat::trim(part));
                    if (!id.empty()) {
                        args.styles.push_back(id);
                    }
                }
            } else if (flag == "--list-styles") {
                print_styles();
                return 0;
            } else if (flag == "--scope") {
                args.scope = next();
            } else if (flag == "--seq") {
                args.seq = parse_u64_flag(flag, next(), 1, kMaxDim);
            } else if (flag == "--kv-seq") {
                args.kv_seq = parse_u64_flag(flag, next(), 1, kMaxDim);
            } else if (flag == "--window") {
                args.window = parse_u64_flag(flag, next(), 1, kMaxDim);
            } else if (flag == "--batch") {
                args.batch = parse_u64_flag(flag, next(), 1, kMaxDim);
            } else if (flag == "--buffer") {
                args.buffer = next();
            } else if (flag == "--sg2") {
                args.sg2 = next();
            } else if (flag == "--sg2-bw") {
                args.sg2_bw = next();
            } else if (flag == "--offchip-bw") {
                args.offchip_bw = next();
            } else if (flag == "--objective") {
                args.objective = next();
            } else if (flag == "--search-mode") {
                args.search_mode = flat::to_lower(next());
            } else if (flag == "--block") {
                args.block = true;
            } else if (flag == "--threads") {
                args.threads = parse_u64_flag(flag, next(), 0, 4096);
            } else if (flag == "--sweep") {
                args.sweep_file = next();
            } else if (flag == "--sweep-csv") {
                args.sweep_csv = next();
            } else if (flag == "--deadline") {
                args.deadline_ms = parse_u64_flag(flag, next());
            } else if (flag == "--keep-going") {
                args.fail_fast = false;
            } else if (flag == "--fail-fast") {
                args.fail_fast = true;
            } else if (flag == "--journal") {
                args.journal_file = next();
            } else if (flag == "--resume") {
                args.resume_file = next();
            } else if (flag == "--inject-fault") {
                args.inject_faults.push_back(next());
            } else if (flag == "--no-prune") {
                args.no_prune = true;
            } else if (flag == "--serialized-baseline") {
                args.serialized_baseline = true;
            } else if (flag == "--quick") {
                args.quick = true;
            } else if (flag == "--json") {
                args.json = true;
            } else if (flag == "--trace") {
                args.trace = true;
            } else if (flag == "--trace-json") {
                args.trace_json = true;
            } else if (flag == "--trace-csv") {
                args.trace_csv = next();
            } else if (flag == "--devices") {
                args.devices = parse_u64_flag(flag, next(), 1, 4096);
            } else if (flag == "--shard-axis") {
                args.shard_axis = next();
            } else if (flag == "--topology") {
                args.topology = next();
            } else if (flag == "--link-bw") {
                args.link_bw = next();
            } else if (flag == "--link-latency") {
                args.link_latency = next();
            } else if (flag == "--scaleout") {
                args.scaleout_preset = next();
            } else if (flag == "--scaleout-file") {
                args.scaleout_file = next();
            } else if (flag == "--serve") {
                args.serve = true;
            } else if (flag == "--arrival") {
                args.arrival = next();
            } else if (flag == "--arrival-file") {
                args.arrival_file = next();
            } else if (flag == "--rate") {
                args.rate = parse_positive_double_flag(flag, next());
            } else if (flag == "--serve-requests") {
                args.serve_requests =
                    parse_u64_flag(flag, next(), 1, 1 << 20);
            } else if (flag == "--serve-seed") {
                args.serve_seed = parse_u64_flag(flag, next());
            } else if (flag == "--sched") {
                args.sched = flat::to_lower(next());
            } else if (flag == "--max-batch") {
                args.max_batch = parse_u64_flag(flag, next(), 1, 4096);
            } else if (flag == "--prompt-tokens") {
                args.prompt_tokens =
                    parse_u64_flag(flag, next(), 1, kMaxDim);
            } else if (flag == "--output-tokens") {
                args.output_tokens =
                    parse_u64_flag(flag, next(), 1, kMaxDim);
            } else if (flag == "--ctx-bucket") {
                args.ctx_bucket =
                    parse_u64_flag(flag, next(), 1, kMaxDim);
            } else {
                std::fprintf(stderr, "unknown flag: %s\n\n",
                             flag.c_str());
                print_usage();
                return 2;
            }
        }
        // Unknown --style values are CLI misuse (exit 2), caught here
        // before any work starts; the DSE re-checks defensively.
        for (const std::string& id : args.styles) {
            if (id != "all" &&
                flat::find_execution_style(id) == nullptr) {
                throw flat::UsageError(
                    "unknown execution style '" + id +
                    "' (run 'flatsim --list-styles' for the "
                    "registered ids)");
            }
        }
        // Bad --search-mode values are CLI misuse too (exit 2).
        if (!args.search_mode.empty()) {
            try {
                flat::parse_search_mode(args.search_mode);
            } catch (const flat::InternalError&) {
                throw;
            } catch (const flat::Error& e) {
                throw flat::UsageError(e.what());
            }
        }
        if (!args.journal_file.empty() && !args.resume_file.empty()) {
            throw flat::UsageError(
                "--journal and --resume are mutually exclusive "
                "(--resume keeps appending to the journal it resumes)");
        }
        for (const std::string& spec : args.inject_faults) {
            // A malformed fault spec is CLI misuse, not a config error.
            try {
                const auto [site, fault] = flat::parse_fault_spec(spec);
                flat::arm_fault(site, fault);
            } catch (const flat::Error& e) {
                throw flat::UsageError(e.what());
            }
        }
        // Arm the graceful SIGINT/SIGTERM drain only once real work
        // starts; a second signal hard-exits with 128+signo.
        flat::install_signal_cancellation(&g_signal_cancel);
        if (args.block) {
            throw_if_block_conflicts(args);
            return run_block_mode(args);
        }
        if (args.serve) {
            throw_if_serve_conflicts(args);
            return run_serve_mode(args);
        }
        return args.sweep_file.empty() ? run(args)
                                       : run_sweep_mode(args);
    } catch (const std::exception& e) {
        // Map the taxonomy onto the exit-code contract: usage -> 2,
        // config/infeasible -> 1, internal/oom -> 3 (see diagnostics.h).
        const flat::Diagnostic diag = flat::diagnostic_from_exception(e);
        std::fprintf(stderr, "%s\n", diag.to_string().c_str());
        if (diag.kind == flat::DiagKind::kUsage) {
            std::fprintf(stderr, "run 'flatsim --help' for usage\n");
        }
        // Last stderr line is a machine-readable record of the same
        // diagnostic (tests and wrappers parse it; see --help).
        flat::JsonWriter json;
        diag.write_json(json);
        std::fprintf(stderr, "%s\n", json.str().c_str());
        return flat::exit_code_for(diag.kind);
    } catch (...) {
        std::fprintf(stderr, "[flat] unexpected unknown exception\n");
        return 3;
    }
}
