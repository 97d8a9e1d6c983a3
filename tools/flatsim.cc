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
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <variant>
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

usage: flatsim [options]                 a single run
       flatsim --block [options]         per-layer view of a model run
       flatsim --serve [options]         serving simulation
       flatsim --sweep FILE [options]    fault-isolated batch sweep

Each flag belongs to the modes that read it, and any other mode refuses
it (exit 2): the scale-out flags, --scope and the --trace flags belong
to a single run; --accel, --seq, --kv-seq, --window and --batch to a
single run and --block; --model, --platform, --platform-file, --policy,
--buffer, --sg2, --sg2-bw, --offchip-bw, --objective and --quick to
every mode but --sweep, whose spec owns them; the serving and sweep
sections' flags to their mode; the rest to every mode.

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
  --sg2-bw BW        SG2 bandwidth (default 200GB/s with --sg2, else
                     the platform file's); needs an SG2 level
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
                     (journals as the --scope model run it views)
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
                     (the four flags below need a fabric of more than
                     one device: with one, they exit 2)
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
                     and refused with any other --arrival
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
                     restored instead of re-evaluated and new work is
                     appended. The picks and every simulated number are
                     bit-identical to an uninterrupted run; a search
                     resumed mid-way may split its points evaluated /
                     pruned differently. A journal written by a
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

/** The request modes. The parser picks one from the mode flags
 *  (--block, then --serve, then --sweep, else a single run), and each
 *  flag row names the modes that read it. */
enum Mode : unsigned {
    kRun = 1u << 0,
    kBlock = 1u << 1,
    kServe = 1u << 2,
    kSweep = 1u << 3,
};
constexpr unsigned kRunBlock = kRun | kBlock;
/** Every mode but --sweep, whose spec owns the model, the platform,
 *  the policy, the objective and the menus. */
constexpr unsigned kNotSweep = kRun | kBlock | kServe;
constexpr unsigned kEvery = kNotSweep | kSweep;

struct Args {
    Mode mode = kRun;

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
    std::string sg2_bw; ///< "" = 200GB/s with --sg2, else the platform's
    std::string offchip_bw;
    std::string objective = "runtime";
    std::string search_mode; ///< "" = the mode's default
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

/** A flag without a value: it sets a switch to `to`. */
struct Switch {
    bool Args::*field;
    bool to = true;
};

/** A flag whose value is an integer in [min, max]. */
struct Count {
    std::uint64_t Args::*field;
    std::uint64_t min = 0;
    std::uint64_t max = std::uint64_t(-1);
};

/** One flag: its name, the modes that read it, and where its value
 *  lands — a field that keeps the text, a switch, an integer, a
 *  positive number, or a setter for what needs more. */
struct FlagRow {
    const char* name;
    unsigned modes;
    std::variant<std::string Args::*, Switch, Count, double Args::*,
                 void (*)(Args&, std::string)>
        lands;
};

/** Every flag but --help, --list and --list-styles, each declared once
 *  (README's flag x mode table mirrors it). */
const FlagRow kFlags[] = {
    // A single run: its scope, the per-phase trace and the scale-out
    // fabric.
    {"--scope", kRun, &Args::scope},
    {"--trace", kRun, Switch{&Args::trace}},
    {"--trace-json", kRun, Switch{&Args::trace_json}},
    {"--trace-csv", kRun, &Args::trace_csv},
    {"--devices", kRun, Count{&Args::devices, 1, 4096}},
    {"--shard-axis", kRun, &Args::shard_axis},
    {"--topology", kRun, &Args::topology},
    {"--link-bw", kRun, &Args::link_bw},
    {"--link-latency", kRun, &Args::link_latency},
    {"--scaleout", kRun, &Args::scaleout_preset},
    {"--scaleout-file", kRun, &Args::scaleout_file},
    // --block: the per-layer view of a model-scope run.
    {"--block", kBlock, Switch{&Args::block}},
    // A single run and --block: the workload and the accelerator spec.
    {"--accel", kRunBlock, &Args::accel},
    {"--seq", kRunBlock, Count{&Args::seq, 1, kMaxDim}},
    {"--kv-seq", kRunBlock, Count{&Args::kv_seq, 1, kMaxDim}},
    {"--window", kRunBlock, Count{&Args::window, 1, kMaxDim}},
    {"--batch", kRunBlock, Count{&Args::batch, 1, kMaxDim}},
    // Every mode but --sweep: the model, the platform, the policy, the
    // objective and the menus.
    {"--model", kNotSweep, &Args::model},
    {"--platform", kNotSweep, &Args::platform},
    {"--platform-file", kNotSweep, &Args::platform_file},
    {"--policy", kNotSweep, &Args::policy},
    {"--buffer", kNotSweep, &Args::buffer},
    {"--sg2", kNotSweep, &Args::sg2},
    {"--sg2-bw", kNotSweep, &Args::sg2_bw},
    {"--offchip-bw", kNotSweep, &Args::offchip_bw},
    {"--objective", kNotSweep, &Args::objective},
    {"--quick", kNotSweep, Switch{&Args::quick}},
    // --serve: the arrival trace and the scheduler.
    {"--serve", kServe, Switch{&Args::serve}},
    {"--arrival", kServe, &Args::arrival},
    {"--arrival-file", kServe, &Args::arrival_file},
    {"--rate", kServe, &Args::rate},
    {"--serve-requests", kServe, Count{&Args::serve_requests, 1, 1 << 20}},
    {"--serve-seed", kServe, Count{&Args::serve_seed}},
    {"--sched", kServe,
     [](Args& a, std::string v) { a.sched = to_lower(v); }},
    {"--max-batch", kServe, Count{&Args::max_batch, 1, 4096}},
    {"--prompt-tokens", kServe, Count{&Args::prompt_tokens, 1, kMaxDim}},
    {"--output-tokens", kServe, Count{&Args::output_tokens, 1, kMaxDim}},
    {"--ctx-bucket", kServe, Count{&Args::ctx_bucket, 1, kMaxDim}},
    // --sweep: the spec, its CSV and the per-point isolation knobs.
    {"--sweep", kSweep, &Args::sweep_file},
    {"--sweep-csv", kSweep, &Args::sweep_csv},
    {"--deadline", kSweep, Count{&Args::deadline_ms}},
    {"--keep-going", kSweep, Switch{&Args::fail_fast, false}},
    {"--fail-fast", kSweep, Switch{&Args::fail_fast}},
    // Every mode: the search, the report, faults and journals.
    {"--style", kEvery,
     [](Args& a, std::string v) {
         for (const std::string& part : split(v, ',')) {
             const std::string id = to_lower(trim(part));
             if (!id.empty()) {
                 a.styles.push_back(id);
             }
         }
     }},
    {"--search-mode", kEvery, &Args::search_mode},
    {"--threads", kEvery, Count{&Args::threads, 0, 4096}},
    {"--no-prune", kEvery, Switch{&Args::no_prune}},
    {"--serialized-baseline", kEvery, Switch{&Args::serialized_baseline}},
    {"--json", kEvery, Switch{&Args::json}},
    {"--inject-fault", kEvery,
     [](Args& a, std::string v) { a.inject_faults.push_back(std::move(v)); }},
    {"--journal", kEvery, &Args::journal_file},
    {"--resume", kEvery, &Args::resume_file},
};

/**
 * Lands one flag's value in Args: visits the flag row's target and
 * reads, when the target needs one, the next argv token. A missing or
 * malformed value is a usage error (exit 2).
 */
class FlagParser
{
  public:
    FlagParser(Args& args, int argc, char** argv, int& i)
        : args_(args), argc_(argc), argv_(argv), i_(i), flag_(argv[i])
    {
    }

    void operator()(std::string Args::*field) { args_.*field = text(); }

    void operator()(const Switch& s) { args_.*s.field = s.to; }

    /** A non-negative integer in [min, max]: letters, trailing
     *  garbage, a sign or overflow are refused. */
    void
    operator()(const Count& c)
    {
        const std::string value = text();
        std::size_t pos = 0;
        unsigned long long n = 0;
        if (!value.empty() && value[0] != '-' && value[0] != '+') {
            try {
                n = std::stoull(value, &pos);
            } catch (const std::exception&) {
                pos = 0;
            }
        }
        if (pos == 0 || pos != value.size()) {
            throw UsageError(flag_ + " expects a non-negative integer, "
                                     "got '" + value + "'");
        }
        if (n < c.min || n > c.max) {
            throw UsageError(flag_ + " value " + value +
                             " is out of range [" +
                             std::to_string(c.min) + ", " +
                             std::to_string(c.max) + "]");
        }
        args_.*c.field = n;
    }

    /** A decimal in (0, 1e12]. */
    void
    operator()(double Args::*field)
    {
        const std::string value = text();
        std::size_t pos = 0;
        double x = 0.0;
        try {
            x = std::stod(value, &pos);
        } catch (const std::exception&) {
            pos = 0;
        }
        if (pos == 0 || pos != value.size() || !(x > 0.0) || x > 1e12) {
            throw UsageError(flag_ + " expects a positive number, got '" +
                             value + "'");
        }
        args_.*field = x;
    }

    void operator()(void (*set)(Args&, std::string)) { set(args_, text()); }

  private:
    /** The next argv token. */
    std::string
    text()
    {
        if (i_ + 1 >= argc_) {
            throw UsageError(flag_ + " needs a value");
        }
        return argv_[++i_];
    }

    Args& args_;
    int argc_;
    char** argv_;
    int& i_;
    std::string flag_;
};

/** How a diagnostic names @p modes. */
std::string
mode_names(unsigned modes)
{
    std::vector<std::string> names;
    for (const auto& [mode, name] :
         {std::pair{kRun, "a single run"}, std::pair{kBlock, "--block"},
          std::pair{kServe, "--serve"}, std::pair{kSweep, "--sweep"}}) {
        if ((modes & mode) != 0) {
            names.emplace_back(name);
        }
    }
    return join(names, ", ");
}

/**
 * Checks, before any work starts, every flag value the library parses:
 * a bad one is CLI misuse (exit 2), while a bad model, platform, policy
 * or config file stays a config error (exit 1). Arms the --inject-fault
 * probes on the way.
 */
void
check_flag_values(const Args& args)
{
    for (const std::string& id : args.styles) {
        if (id != "all" && find_execution_style(id) == nullptr) {
            throw UsageError("unknown execution style '" + id +
                             "' (run 'flatsim --list-styles' for the "
                             "registered ids)");
        }
    }
    if (!args.journal_file.empty() && !args.resume_file.empty()) {
        throw UsageError("--journal and --resume are mutually exclusive "
                         "(--resume keeps appending to the journal it "
                         "resumes)");
    }
    try {
        if (!args.search_mode.empty()) {
            parse_search_mode(args.search_mode);
        }
        if (!args.scaleout_preset.empty()) {
            scaleout_preset(args.scaleout_preset);
        }
        if (!args.shard_axis.empty()) {
            parse_shard_axis(args.shard_axis);
        }
        if (!args.topology.empty()) {
            parse_topology(args.topology);
        }
        if (!args.link_bw.empty()) {
            parse_bandwidth(args.link_bw);
        }
        if (!args.link_latency.empty()) {
            parse_time(args.link_latency);
        }
        if (args.mode == kServe) {
            const bool replay =
                parse_arrival_kind(args.arrival) == ArrivalKind::kReplay;
            if (replay && args.arrival_file.empty()) {
                throw UsageError(
                    "--arrival replay needs --arrival-file FILE");
            }
            if (!replay && !args.arrival_file.empty()) {
                throw UsageError("--arrival-file is read only by "
                                 "--arrival replay (got --arrival " +
                                 args.arrival + ")");
            }
            if (args.sched != "auto") {
                parse_sched_policy(args.sched);
            }
        }
        for (const std::string& spec : args.inject_faults) {
            const auto [site, fault] = parse_fault_spec(spec);
            arm_fault(site, fault);
        }
    } catch (const Error& e) {
        throw UsageError(e.what());
    }
}

/**
 * Process-wide cancellation token for the SIGINT/SIGTERM graceful
 * drain; handed to install_signal_cancellation() once the flags are
 * parsed and threaded into every work loop from there.
 */
CancellationToken g_signal_cancel;

/** Opens the checkpoint journal requested by --journal / --resume
 *  (nullptr when neither flag is present, and then @p header, which
 *  hashes the request's whole identity, is never called). */
template <typename Header>
std::unique_ptr<RunJournal>
open_journal(const Args& args, const Header& header)
{
    if (!args.resume_file.empty()) {
        return RunJournal::open_resume(args.resume_file, header());
    }
    if (!args.journal_file.empty()) {
        return RunJournal::create(args.journal_file, header());
    }
    return nullptr;
}

/** Builds the scale-out fabric: preset / file base first, then
 *  individual flag overrides. An inconsistent fabric is a config error
 *  (exit 1); a link or sharding flag on a one-device fabric, which
 *  skips scale-out, is misuse (exit 2). */
ScaleOutConfig
fabric_from_args(const Args& args)
{
    ScaleOutConfig fabric;
    if (!args.scaleout_preset.empty()) {
        fabric = scaleout_preset(args.scaleout_preset);
    }
    if (!args.scaleout_file.empty()) {
        fabric = scaleout_from_config_file(args.scaleout_file, fabric);
    }
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
    fabric.validate();
    if (fabric.single_device()) {
        for (const auto& [flag, value] :
             {std::pair{"--shard-axis", &args.shard_axis},
              std::pair{"--topology", &args.topology},
              std::pair{"--link-bw", &args.link_bw},
              std::pair{"--link-latency", &args.link_latency}}) {
            if (!value->empty()) {
                throw UsageError(std::string(flag) +
                                 " needs a fabric of more than one "
                                 "device (give --devices D > 1 or a "
                                 "multi-device --scaleout)");
            }
        }
    }
    return fabric;
}

/** Builds the platform from --platform/--platform-file plus the
 *  buffer/bandwidth override flags. --sg2-bw on a platform without an
 *  SG2 level is misuse (exit 2). */
AccelConfig
accel_from_args(const Args& args)
{
    AccelConfig accel = accel_preset(args.platform);
    if (!args.platform_file.empty()) {
        accel = accel_from_config_file(args.platform_file, accel);
    }
    if (!args.buffer.empty()) {
        accel.sg_bytes = parse_bytes(args.buffer);
    }
    if (!args.sg2.empty()) {
        accel.sg2_bytes = parse_bytes(args.sg2);
        accel.sg2_bw = 200e9; // --sg2-bw's default
    }
    if (!args.sg2_bw.empty()) {
        if (!accel.has_sg2()) {
            throw UsageError("--sg2-bw needs an SG2 level (give --sg2 "
                             "SIZE or a --platform-file with sg2)");
        }
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

/** Evaluation options of every mode. Serving prices hundreds of small
 *  per-step searches, so --serve defaults to the analytic mapper and
 *  every other mode to the exhaustive sweep. */
SimOptions
sim_options_from_args(const Args& args)
{
    SimOptions options;
    options.objective = parse_objective(args.objective);
    if (!args.search_mode.empty()) {
        options.search_mode = parse_search_mode(args.search_mode);
    } else if (args.mode == kServe) {
        options.search_mode = SearchMode::kAnalytic;
    }
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

/** Journal identity of a single run, and of --block as the --scope
 *  model run it views (both call the same Simulator::run). */
RunJournalHeader
run_journal_header(const Args& args, const ModelConfig& model,
                   const AccelConfig& accel, Scope scope,
                   const SimOptions& options)
{
    RunJournalHeader header;
    header.mode = "run";
    header.space_hash = fnv1a64(
        accel.canonical() + options.canonical() +
        strprintf("run model=%s batch=%llu seq=%llu kv_seq=%llu "
                  "window=%llu scope=%s %s=%s\n",
                  model.name.c_str(),
                  static_cast<unsigned long long>(args.batch),
                  static_cast<unsigned long long>(args.seq),
                  static_cast<unsigned long long>(args.kv_seq),
                  static_cast<unsigned long long>(args.window),
                  to_string(scope).c_str(),
                  args.accel.empty() ? "policy" : "accel",
                  (args.accel.empty() ? args.policy : args.accel)
                      .c_str()));
    return header;
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
    const ScaleOutConfig fabric = fabric_from_args(args);
    SimOptions options = sim_options_from_args(args);
    const std::unique_ptr<RunJournal> journal = open_journal(args, [&] {
        return run_journal_header(args, model, accel, scope, options);
    });
    options.journal = journal.get();

    const ScopeReport report =
        run_simulator(args, accel, workload, scope, options);

    // Multi-device scale-out of the L-A layer: two-level DSE (axis x
    // devices outer, per-device dataflow inner) plus a D=1 reference
    // point for the speedup row. Single-device runs skip all of this.
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
    SimOptions options = sim_options_from_args(args);
    const std::unique_ptr<RunJournal> journal = open_journal(args, [&] {
        return run_journal_header(args, model, accel, Scope::kModel,
                                  options);
    });
    options.journal = journal.get();

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

int
run_serve_mode(const Args& args)
{
    const ModelConfig model = model_by_name(args.model);
    const AccelConfig accel = accel_from_args(args);

    ArrivalOptions trace_options;
    trace_options.kind = parse_arrival_kind(args.arrival);
    trace_options.seed = args.serve_seed;
    trace_options.rate_rps = args.rate;
    trace_options.requests = args.serve_requests;
    trace_options.prompt_tokens = args.prompt_tokens;
    trace_options.output_tokens = args.output_tokens;
    trace_options.replay_file = args.arrival_file;
    std::vector<Request> requests;
    try {
        requests = generate_arrivals(trace_options);
    } catch (const Error& e) {
        // The trace comes straight from flag values; a bad one is
        // misuse, not a config error.
        throw UsageError(e.what());
    }

    const bool auto_sched = args.sched == "auto";
    ServeOptions options;
    if (!auto_sched) {
        options.sched.policy = parse_sched_policy(args.sched);
    }
    options.sched.max_batch = args.max_batch;
    options.policy = args.policy;
    options.ctx_bucket = args.ctx_bucket;
    // Both paths (fixed --sched and the auto DSE) search in one mode.
    options.sim = sim_options_from_args(args);
    options.dse_mode = options.sim.search_mode;

    // Journal identity: the serving space plus the sched-mode string,
    // so an `auto` search never resumes a fixed-policy journal.
    const std::unique_ptr<RunJournal> journal = open_journal(args, [&] {
        RunJournalHeader header;
        header.mode = "serve";
        header.space_hash = fnv1a64(
            args.sched + '|' +
            serving_space_canonical(accel, model, requests, options));
        return header;
    });
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
    options.sim = sim_options_from_args(args);
    options.cancel = &g_signal_cancel;

    const std::unique_ptr<RunJournal> journal = open_journal(
        args, [&] { return sweep_journal_header(spec, options.sim); });
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
        std::vector<const FlagRow*> given;
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (flag == "--help" || flag == "-h") {
                print_usage();
                return 0;
            }
            if (flag == "--list") {
                print_catalog();
                return 0;
            }
            if (flag == "--list-styles") {
                print_styles();
                return 0;
            }
            const FlagRow* row = nullptr;
            for (const FlagRow& candidate : kFlags) {
                if (flag == candidate.name) {
                    row = &candidate;
                    break;
                }
            }
            if (row == nullptr) {
                std::fprintf(stderr, "unknown flag: %s\n\n",
                             flag.c_str());
                print_usage();
                return 2;
            }
            std::visit(FlagParser(args, argc, argv, i), row->lands);
            given.push_back(row);
        }
        // Pick the mode, then refuse every flag it does not read.
        args.mode = args.block               ? kBlock
                    : args.serve             ? kServe
                    : args.sweep_file.empty() ? kRun
                                              : kSweep;
        for (const FlagRow* row : given) {
            if ((row->modes & args.mode) == 0) {
                throw UsageError(std::string(row->name) +
                                 " does not apply to " +
                                 mode_names(args.mode) +
                                 " (it applies to " +
                                 mode_names(row->modes) + ")");
            }
        }
        check_flag_values(args);
        // Arm the graceful SIGINT/SIGTERM drain only once real work
        // starts; a second signal hard-exits with 128+signo.
        install_signal_cancellation(&g_signal_cancel);
        switch (args.mode) {
          case kBlock: return run_block_mode(args);
          case kServe: return run_serve_mode(args);
          case kSweep: return run_sweep_mode(args);
          case kRun: break;
        }
        return run(args);
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
