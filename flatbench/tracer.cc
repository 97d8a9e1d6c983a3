/**
 * @file
 * flatbench_trace — the benchmark's traced replay of one flatsim
 * request. It parses the same argv the CLI receives, performs the
 * request in-process through the library's stable entry points, and
 * wraps every call into a layer in a span. Spans and counters stay in
 * memory and are printed as one JSON document when the request ends,
 * together with the simulated outputs run.py compares against the
 * CLI's report.
 *
 *   flatbench_trace [--no-spans] [--part request|probe|points] -- ARGV
 *
 * --part request  the request itself, rooted in a "request" span
 * --part probe    --serve only: analytic-mapper and operator searches
 *                 on the trace's representative prefill/decode step
 *                 shapes, then the serving call priced into a fresh
 *                 journal and re-run against it ("serving.loop")
 * --part points   --sweep only: every point of SweepSpec::expand()
 *                 through the same decomposition as a run request
 * --no-spans      identical work with the span recorder switched off
 *                 (the untraced twin that measures tracing overhead)
 *
 * Exit codes: 0 done, 2 usage, 1 the library raised an error.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/scaleout_config.h"
#include "common/json.h"
#include "common/run_journal.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/units.h"
#include "core/simulator.h"
#include "core/sweep.h"
#include "costmodel/attention_cost.h"
#include "costmodel/execution_style.h"
#include "costmodel/timeline.h"
#include "dse/block_search.h"
#include "scaleout/scaleout_search.h"
#include "serving/serving.h"
#include "workload/model_config.h"

namespace {

using namespace flat;
using Clock = std::chrono::steady_clock;

std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** In-memory span recorder: strictly nested, single-threaded. */
class SpanLog
{
  public:
    struct Record {
        const char* name;
        int parent;
        std::int64_t start_ns;
        std::int64_t end_ns;
    };

    bool enabled = true;

    int
    open(const char* name)
    {
        if (!enabled) {
            return -1;
        }
        records_.push_back({name, current_, now_ns(), 0});
        current_ = static_cast<int>(records_.size()) - 1;
        return current_;
    }

    void
    close(int id)
    {
        if (id < 0) {
            return;
        }
        records_[static_cast<std::size_t>(id)].end_ns = now_ns();
        current_ = records_[static_cast<std::size_t>(id)].parent;
    }

    void
    write(JsonWriter& json) const
    {
        json.key("spans");
        json.begin_array();
        for (const Record& r : records_) {
            json.begin_object();
            json.field("name", r.name);
            json.field("parent", static_cast<std::int64_t>(r.parent));
            json.field("start_ns", r.start_ns);
            json.field("dur_ns", r.end_ns - r.start_ns);
            json.end_object();
        }
        json.end_array();
    }

  private:
    std::vector<Record> records_;
    int current_ = -1;
};

SpanLog g_spans;

/** RAII span around one call into a layer. */
class Span
{
  public:
    explicit Span(const char* name) : id_(g_spans.open(name)) {}
    ~Span() { g_spans.close(id_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    int id_;
};

/** Layer counters, summed over the request. */
std::map<std::string, double> g_counters;

void
count(const std::string& name, double value)
{
    g_counters[name] += value;
}

/** The subset of the flatsim CLI the benchmark's generator emits. */
struct Args {
    std::string model = "bert";
    std::string platform = "edge";
    std::string policy = "flat-opt";
    std::string accel;
    std::vector<std::string> styles;
    std::string scope = "block";
    std::uint64_t seq = 4096;
    std::uint64_t kv_seq = 0;
    std::uint64_t batch = 64;
    std::string buffer;
    std::string offchip_bw;
    bool block = false;
    std::uint64_t devices = 0;

    bool serve = false;
    std::string arrival = "poisson";
    double rate = 4.0;
    std::uint64_t serve_requests = 32;
    std::uint64_t serve_seed = 1;
    std::string sched = "prefill-first";
    std::uint64_t max_batch = 8;
    std::uint64_t prompt_tokens = 512;
    std::uint64_t output_tokens = 32;

    std::string sweep_file;
    std::string journal_file;
    std::string resume_file;
};

Args
parse_args(const std::vector<std::string>& argv)
{
    Args args;
    for (std::size_t i = 0; i < argv.size(); ++i) {
        const std::string& flag = argv[i];
        const auto next = [&]() -> const std::string& {
            FLAT_CHECK(i + 1 < argv.size(), flag << " needs a value");
            return argv[++i];
        };
        const auto next_u64 = [&]() {
            return static_cast<std::uint64_t>(std::stoull(next()));
        };
        if (flag == "--model") {
            args.model = next();
        } else if (flag == "--platform") {
            args.platform = next();
        } else if (flag == "--policy") {
            args.policy = next();
        } else if (flag == "--accel") {
            args.accel = next();
        } else if (flag == "--style") {
            for (const std::string& part : split(next(), ',')) {
                args.styles.push_back(to_lower(trim(part)));
            }
        } else if (flag == "--scope") {
            args.scope = next();
        } else if (flag == "--seq") {
            args.seq = next_u64();
        } else if (flag == "--kv-seq") {
            args.kv_seq = next_u64();
        } else if (flag == "--batch") {
            args.batch = next_u64();
        } else if (flag == "--buffer") {
            args.buffer = next();
        } else if (flag == "--offchip-bw") {
            args.offchip_bw = next();
        } else if (flag == "--block") {
            args.block = true;
        } else if (flag == "--devices") {
            args.devices = next_u64();
        } else if (flag == "--serve") {
            args.serve = true;
        } else if (flag == "--arrival") {
            args.arrival = next();
        } else if (flag == "--rate") {
            args.rate = std::stod(next());
        } else if (flag == "--serve-requests") {
            args.serve_requests = next_u64();
        } else if (flag == "--serve-seed") {
            args.serve_seed = next_u64();
        } else if (flag == "--sched") {
            args.sched = next();
        } else if (flag == "--max-batch") {
            args.max_batch = next_u64();
        } else if (flag == "--prompt-tokens") {
            args.prompt_tokens = next_u64();
        } else if (flag == "--output-tokens") {
            args.output_tokens = next_u64();
        } else if (flag == "--sweep") {
            args.sweep_file = next();
        } else if (flag == "--journal") {
            args.journal_file = next();
        } else if (flag == "--resume") {
            args.resume_file = next();
        } else if (flag == "--threads") {
            FLAT_CHECK(next() == "1", "the traced replay is serial");
        } else if (flag == "--json") {
            // Reports are always JSON here.
        } else {
            FLAT_FAIL("flag outside the benchmark's request mix: " << flag);
        }
    }
    return args;
}

AccelConfig
accel_from_args(const Args& args)
{
    AccelConfig accel =
        to_lower(args.platform) == "cloud" ? cloud_accel() : edge_accel();
    if (!args.buffer.empty()) {
        accel.sg_bytes = parse_bytes(args.buffer);
    }
    if (!args.offchip_bw.empty()) {
        accel.offchip_bw = parse_bandwidth(args.offchip_bw);
    }
    return accel;
}

Workload
workload_from_args(const Args& args, const ModelConfig& model)
{
    if (args.kv_seq != 0) {
        return make_cross_attention_workload(model, args.batch, args.seq,
                                             args.kv_seq);
    }
    return make_workload(model, args.batch, args.seq);
}

/** The CLI's defaults: run requests search exhaustively, serve requests
 *  with the analytic mapper. */
SimOptions
sim_options(const Args& args, SearchMode mode)
{
    SimOptions options;
    options.search_mode = mode;
    options.threads = 1;
    options.styles = args.styles;
    return options;
}

/** The L-A dataflow and operator mapping knobs a policy or accelerator
 *  spec implies, exactly as Simulator::run derives them. */
struct RunPlan {
    AttentionSearchOptions la;
    bool flexible_ops = true;
    bool allow_l3 = true;
    std::string policy_name;
};

RunPlan
plan_for(const std::string& policy, const std::string& accel_spec,
         const SimOptions& options)
{
    RunPlan plan;
    if (accel_spec.empty()) {
        const DataflowPolicy parsed = DataflowPolicy::parse(policy);
        plan.la = attention_options(parsed, options);
        plan.policy_name = parsed.name();
    } else {
        const AcceleratorSpec spec = AcceleratorSpec::parse(accel_spec);
        plan.la = attention_options(spec, options);
        plan.flexible_ops = spec.flexible();
        plan.allow_l3 = spec.allows_l3();
        plan.policy_name = spec.name();
    }
    return plan;
}

/** What one decomposed run produced, for the report and the probes. */
struct RunOutcome {
    ScopeReport report;
    AttentionSearchResult la;
    const ExecutionStyle* style = nullptr;
    AttentionDims dims;
};

/**
 * Simulator::run, decomposed into its layer calls: the L-A search, its
 * energy and timeline, then one operator search per projection / FC
 * GEMM, scaled to the scope. The arithmetic follows the library's
 * order so every simulated output is bit-identical to the CLI's.
 */
RunOutcome
traced_run(const AccelConfig& accel, const Workload& workload, Scope scope,
           const RunPlan& plan, const SimOptions& options)
{
    RunOutcome out;
    accel.validate();
    const EnergyTable table = [&] {
        const Span span("energy");
        return EnergyTable::for_accel(accel);
    }();
    out.dims = AttentionDims::from_workload(workload);
    ScopeReport& report = out.report;
    report.scope = scope;
    report.policy_name = plan.policy_name;

    const bool exhaustive = plan.la.mode == SearchMode::kExhaustive;
    const std::string layer = exhaustive ? "dse.attention" : "dse.mapper";
    {
        const Span span(exhaustive ? "dse.attention" : "dse.mapper");
        out.la = search_attention(accel, out.dims, plan.la);
    }
    const AttentionSearchResult& la = out.la;
    FLAT_CHECK(la.found, "no feasible L-A dataflow");
    count(layer + "_evaluated", static_cast<double>(la.evaluated));
    count(layer + "_pruned", static_cast<double>(la.pruned));

    double la_energy = 0.0;
    {
        const Span span("energy");
        la_energy = estimate_energy(table, la.best.cost.activity).total();
    }
    report.breakdown.la_cycles = la.best.cost.cycles;
    report.breakdown.la_ideal = la.best.cost.ideal_cycles;
    report.breakdown.la_energy_j = la_energy;
    out.style = la.best.style != nullptr
                    ? la.best.style
                    : &default_execution_style(plan.la.fused);
    // The CLI keeps the historical "fused:" / "seq:" prefixes for the
    // two original styles; newer styles carry their registry id.
    const std::string style_prefix =
        out.style == &flat_execution_style()       ? "fused:"
        : out.style == &baseline_execution_style() ? "seq:"
                                                   : out.style->id() +
                                                         std::string(":");
    report.la_dataflow_tag = style_prefix + la.best.dataflow.tag();
    report.la_points_evaluated = la.evaluated;
    report.la_points_pruned = la.pruned;
    report.traffic += la.best.cost.activity.traffic;
    {
        const Span span("costmodel.timeline");
        const TimelineResult timeline =
            attention_timeline(*out.style, accel, out.dims,
                               la.best.dataflow, plan.la.baseline_overlap);
        FLAT_CHECK(timeline.cycles == la.best.cost.cycles,
                   "timeline cycles disagree with the cost model");
    }

    if (scope != Scope::kLogitAttend) {
        OperatorSearchOptions op_options;
        op_options.objective = options.objective;
        op_options.allow_l3 = plan.allow_l3;
        op_options.quick = options.quick;
        if (!plan.flexible_ops) {
            op_options.candidates = fixed_policy_candidates();
            op_options.allow_l3 = false;
        }
        for (const Operator& op : workload.ops) {
            if (op.kind != OpKind::kGemm ||
                op.category == OpCategory::kLogitAttend) {
                continue;
            }
            OperatorSearchResult res;
            {
                const Span span("dse.operator");
                res = search_operator(accel, op, op_options);
            }
            count("dse.operator_evaluated",
                  static_cast<double>(res.evaluated));
            double op_energy = 0.0;
            {
                const Span span("energy");
                op_energy = estimate_energy(table, res.cost.activity).total();
            }
            CategoryBreakdown& b = report.breakdown;
            if (op.category == OpCategory::kProjection) {
                b.proj_cycles += res.cost.cycles;
                b.proj_ideal += res.cost.ideal_cycles;
                b.proj_energy_j += op_energy;
            } else {
                b.fc_cycles += res.cost.cycles;
                b.fc_ideal += res.cost.ideal_cycles;
                b.fc_energy_j += op_energy;
            }
            report.traffic += res.cost.activity.traffic;
        }
    }

    const double mult = static_cast<double>(workload.scope_multiplier(scope));
    CategoryBreakdown& b = report.breakdown;
    b.la_cycles *= mult;
    b.la_ideal *= mult;
    b.la_energy_j *= mult;
    b.proj_cycles *= mult;
    b.proj_ideal *= mult;
    b.proj_energy_j *= mult;
    b.fc_cycles *= mult;
    b.fc_ideal *= mult;
    b.fc_energy_j *= mult;
    report.cycles = b.la_cycles + b.proj_cycles + b.fc_cycles;
    report.ideal_cycles = b.la_ideal + b.proj_ideal + b.fc_ideal;
    report.energy_j = b.la_energy_j + b.proj_energy_j + b.fc_energy_j;
    report.runtime_s = report.cycles * accel.cycle_time();
    return out;
}

void
write_scope_report(JsonWriter& json, const ScopeReport& report)
{
    json.field("picked_dataflow", report.la_dataflow_tag);
    json.field("cycles", report.cycles);
    json.field("ideal_cycles", report.ideal_cycles);
    json.field("energy_j", report.energy_j);
    json.field("runtime_s", report.runtime_s);
    json.field("dram_bytes", report.traffic.total_dram());
    json.field("la_points_evaluated",
               static_cast<std::uint64_t>(report.la_points_evaluated));
    json.key("breakdown_cycles");
    json.begin_object();
    json.field("la", report.breakdown.la_cycles);
    json.field("projection", report.breakdown.proj_cycles);
    json.field("fc", report.breakdown.fc_cycles);
    json.end_object();
}

/** Median wall time of 15 scalar model_attention() replays of a picked
 *  dataflow: the cost model's price for evaluating one design point. */
void
time_point_evaluation(const AccelConfig& accel, const RunOutcome& run,
                      const RunPlan& plan)
{
    constexpr int kReplays = 15;
    std::vector<double> samples;
    for (int i = 0; i < kReplays; ++i) {
        const std::int64_t start = now_ns();
        const OperatorCost cost =
            model_attention(*run.style, accel, run.dims,
                            run.la.best.dataflow, plan.la.baseline_overlap);
        samples.push_back(static_cast<double>(now_ns() - start));
        FLAT_CHECK(cost.cycles == run.la.best.cost.cycles,
                   "model_attention replay disagrees with the search");
    }
    std::nth_element(samples.begin(), samples.begin() + kReplays / 2,
                     samples.end());
    count("costmodel.eval_ns", samples[kReplays / 2]);
    count("costmodel.eval_samples", 1);
}

void
run_request(const Args& args, JsonWriter& json)
{
    const Span root("core.run");
    const ModelConfig model = model_by_name(args.model);
    const AccelConfig accel = accel_from_args(args);
    const Workload workload = workload_from_args(args, model);
    const SimOptions options = sim_options(args, SearchMode::kExhaustive);
    const RunPlan plan = plan_for(args.policy, args.accel, options);

    if (args.block) {
        BlockSearchOptions block_options;
        block_options.attention = plan.la;
        block_options.op.allow_l3 = plan.allow_l3;
        if (!plan.flexible_ops) {
            block_options.op.candidates = fixed_policy_candidates();
            block_options.op.allow_l3 = false;
        }
        block_options.op.objective = options.objective;
        block_options.op.quick = options.quick;
        BlockSearchResult result;
        {
            const Span span("dse.block");
            result = search_block(accel, workload, block_options);
        }
        std::size_t reused = 0;
        json.key("layers");
        json.begin_array();
        for (const BlockLayerPlan& layer : result.layers) {
            reused += layer.reused ? 1 : 0;
            const std::string tag =
                !layer.attention ? layer.dataflow.tag()
                : layer.la.style != nullptr
                    ? std::string(layer.la.style->id()) + ":" +
                          layer.la.dataflow.tag()
                    : layer.la.dataflow.tag();
            json.begin_object();
            json.field("name", layer.name);
            json.field("dataflow", tag);
            json.field("cycles", layer.cycles);
            json.end_object();
        }
        json.end_array();
        json.field("block_cycles", result.block_cycles);
        json.field("model_cycles", result.model_cycles);
        json.field("model_energy_j", result.model_energy_j);
        json.field("evaluated", static_cast<std::uint64_t>(result.evaluated));
        count("dse.block_reused_layers", static_cast<double>(reused));
        return;
    }

    const RunOutcome run = traced_run(accel, workload,
                                      parse_scope(args.scope), plan, options);
    write_scope_report(json, run.report);

    if (args.devices > 1) {
        ScaleOutConfig fabric;
        fabric.devices = static_cast<std::uint32_t>(args.devices);
        fabric.validate();
        ScaleOutSearchOptions so_options;
        so_options.attention = plan.la;
        FLAT_CHECK(so_options.attention.fused,
                   "scale-out shards the fused FLAT execution");
        so_options.fabric = fabric;
        ScaleOutSearchOptions ref_options = so_options;
        ref_options.device_counts = {1};
        ScaleOutSearchResult scaleout;
        ScaleOutSearchResult reference;
        {
            const Span span("scaleout.search");
            scaleout = search_scaleout(accel, run.dims, so_options);
        }
        FLAT_CHECK(scaleout.found, "no feasible sharding");
        {
            const Span span("scaleout.search");
            reference = search_scaleout(accel, run.dims, ref_options);
        }
        for (const ScaleOutSearchResult* r : {&scaleout, &reference}) {
            for (const ScaleOutSearchPoint& p : r->points) {
                count("scaleout.evaluated", static_cast<double>(p.evaluated));
            }
        }
        json.key("scaleout");
        json.begin_object();
        json.field("devices",
                   static_cast<std::uint64_t>(scaleout.best.cost.devices));
        json.field("shard_axis", to_string(scaleout.best.cost.axis));
        json.field("device_dataflow", scaleout.best.dataflow.tag());
        json.field("la_cycles", scaleout.best.cost.cycles);
        json.field("la_cycles_single_device", reference.best.cost.cycles);
        json.end_object();
    }
}

/** The serve request's arrival trace and serving options, as flatsim
 *  --serve builds them. */
struct ServePlan {
    std::vector<Request> requests;
    ServeOptions options;
    bool auto_sched = false;
};

ServePlan
serve_plan(const Args& args)
{
    ServePlan plan;
    ArrivalOptions trace;
    trace.kind = parse_arrival_kind(args.arrival);
    trace.seed = args.serve_seed;
    trace.rate_rps = args.rate;
    trace.requests = args.serve_requests;
    trace.prompt_tokens = args.prompt_tokens;
    trace.output_tokens = args.output_tokens;
    {
        const Span span("serving.arrivals");
        plan.requests = generate_arrivals(trace);
    }
    plan.auto_sched = args.sched == "auto";
    ServeOptions& options = plan.options;
    if (!plan.auto_sched) {
        options.sched.policy = parse_sched_policy(args.sched);
    }
    options.sched.max_batch = args.max_batch;
    options.policy = args.policy;
    options.sim = sim_options(args, SearchMode::kAnalytic);
    options.dse_mode = options.sim.search_mode;
    return plan;
}

/** run_serving or search_serving, as the request's --sched selects.
 *  @p served, when given, receives the report of every serving run the
 *  call made (one, or every combination the auto search tried). */
ServeReport
serve(const AccelConfig& accel, const ModelConfig& model,
      const ServePlan& plan, std::string* picked_style,
      std::vector<ServeReport>* served = nullptr)
{
    if (!plan.auto_sched) {
        ServeReport report =
            run_serving(accel, model, plan.requests, plan.options);
        if (served != nullptr) {
            served->push_back(report);
        }
        return report;
    }
    ServingSearchResult result =
        search_serving(accel, model, plan.requests, plan.options);
    FLAT_CHECK(result.found, "no feasible serving combination");
    *picked_style = result.best.style;
    if (served != nullptr) {
        *served = std::move(result.evaluated);
    }
    return result.report;
}

void
serve_request(const Args& args, JsonWriter& json)
{
    const ModelConfig model = model_by_name(args.model);
    const AccelConfig accel = accel_from_args(args);
    const ServePlan plan = serve_plan(args);
    std::string style =
        args.styles.empty() ? "default" : join(args.styles, ",");
    ServeReport report;
    std::vector<ServeReport> served;
    {
        const Span span(plan.auto_sched ? "serving.search" : "serving.run");
        report = serve(accel, model, plan, &style, &served);
    }
    for (const ServeReport& r : served) {
        count("serving.steps",
              static_cast<double>(r.prefill_steps + r.decode_steps));
        count("serving.lookups", static_cast<double>(r.cost_lookups));
        count("serving.memo_hits", static_cast<double>(r.cost_memo_hits));
        count("serving.priced_steps",
              static_cast<double>(r.cost_lookups - r.cost_memo_hits -
                                  r.cost_journal_hits));
    }
    json.field("style", style);
    json.field("offered", report.offered);
    json.field("completed", report.completed);
    json.field("p50_s", report.p50_s);
    json.field("p99_s", report.p99_s);
    json.field("tokens_per_s", report.tokens_per_s);
    json.key("completion_order");
    json.begin_array();
    for (const std::uint64_t id : report.completion_order) {
        json.value(id);
    }
    json.end_array();
}

std::uint64_t
bucket_up(std::uint64_t tokens, std::uint64_t bucket)
{
    return (tokens + bucket - 1) / bucket * bucket;
}

void
serve_probe(const Args& args, const std::string& scratch_journal)
{
    const ModelConfig model = model_by_name(args.model);
    const AccelConfig accel = accel_from_args(args);
    const ServePlan plan = serve_plan(args);

    // Representative step shapes: one bucketed prompt prefill and a
    // full-batch decode at the mean context, priced as serving prices
    // a step (model scope, the serving search mode).
    const SimOptions options = plan.options.sim;
    const RunPlan run_plan = plan_for(plan.options.policy, "", options);
    const std::uint64_t ctx_bucket = plan.options.ctx_bucket;
    const Workload prefill = make_workload(
        model, 1, bucket_up(args.prompt_tokens, ctx_bucket));
    const Workload decode = make_decode_workload(
        model, args.max_batch,
        bucket_up(args.prompt_tokens + args.output_tokens / 2, ctx_bucket));
    for (const Workload* shape : {&prefill, &decode}) {
        const RunOutcome run =
            traced_run(accel, *shape, Scope::kModel, run_plan, options);
        time_point_evaluation(accel, run, run_plan);
    }

    // Price every step into a fresh journal, then re-run against it:
    // the second call is the event loop, the memo and the lookups only.
    RunJournalHeader header;
    header.mode = "serve";
    header.space_hash = fnv1a64(
        args.sched + '|' +
        serving_space_canonical(accel, model, plan.requests, plan.options));
    std::string style;
    ServeReport priced;
    {
        const std::unique_ptr<RunJournal> journal =
            RunJournal::create(scratch_journal, header);
        ServePlan journaled = plan;
        journaled.options.journal = journal.get();
        priced = serve(accel, model, journaled, &style);
        journal->flush();
    }
    const std::unique_ptr<RunJournal> journal =
        RunJournal::open_resume(scratch_journal, header);
    ServePlan resumed = plan;
    resumed.options.journal = journal.get();
    ServeReport replayed;
    {
        const Span span("serving.loop");
        replayed = serve(accel, model, resumed, &style);
    }
    FLAT_CHECK(replayed.p99_s == priced.p99_s &&
                   replayed.tokens_per_s == priced.tokens_per_s,
               "journal-replayed serving run disagrees with the priced run");
    std::remove(scratch_journal.c_str());
}

SweepOptions
sweep_options(const Args& args)
{
    SweepOptions options;
    options.threads = 1;
    options.sim.styles = args.styles;
    return options;
}

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * Rewrites the records of the journal at @p source into a fresh journal
 * at @p target through create + append + flush: the journal layer's
 * write cost for exactly the records this request produced.
 */
void
rewrite_journal(const std::string& source, const std::string& target,
                const RunJournalHeader& header)
{
    const std::string text = read_file(source);
    std::vector<std::string> lines = split(text, '\n');
    std::uint64_t records = 0;
    {
        const Span span("common.journal_write");
        const std::unique_ptr<RunJournal> journal =
            RunJournal::create(target, header);
        for (std::size_t i = 1; i < lines.size(); ++i) {
            const std::string& line = lines[i];
            const std::size_t data = line.find(",\"data\":");
            if (data == std::string::npos || line.back() != '}') {
                continue;
            }
            const JsonValue record = parse_json(line);
            journal->append(record.member_string("scope"),
                            record.member_string("key"),
                            line.substr(data + 8, line.size() - data - 9));
            ++records;
        }
        journal->flush();
    }
    count("common.journal_records", static_cast<double>(records));
    count("common.journal_bytes",
          static_cast<double>(read_file(target).size()));
    std::remove(target.c_str());
}

void
sweep_request(const Args& args, JsonWriter& json)
{
    SweepSpec spec;
    SweepOptions options = sweep_options(args);
    std::unique_ptr<RunJournal> journal;
    RunJournalHeader header;
    {
        const Span span("core.sweep_spec");
        spec = SweepSpec::from_file(args.sweep_file);
        header = sweep_journal_header(spec, options.sim);
    }
    if (!args.resume_file.empty()) {
        const Span span("common.journal_read");
        journal = RunJournal::open_resume(args.resume_file, header);
    } else if (!args.journal_file.empty()) {
        const Span span("common.journal_create");
        journal = RunJournal::create(args.journal_file, header);
    }
    options.journal = journal.get();
    SweepReport report;
    {
        const Span span("core.sweep");
        report = run_sweep(spec, options);
    }
    journal.reset();
    count("core.sweep_points", static_cast<double>(report.results.size()));
    count("core.sweep_restored", static_cast<double>(report.resumed()));
    json.field("completed", static_cast<std::uint64_t>(report.completed()));
    json.key("results");
    json.begin_array();
    for (const SweepPointResult& r : report.results) {
        json.begin_object();
        json.field("tag", r.point.tag());
        json.field("ok", r.ok);
        write_scope_report(json, r.report);
        json.end_object();
    }
    json.end_array();
}

void
sweep_points(const Args& args, JsonWriter& json)
{
    const SweepSpec spec = SweepSpec::from_file(args.sweep_file);
    SimOptions options = sweep_options(args).sim;
    options.objective = spec.objective;
    options.quick = spec.quick;
    json.key("results");
    json.begin_array();
    for (const SweepPoint& point : spec.expand()) {
        const AccelConfig accel =
            to_lower(point.platform) == "cloud" ? cloud_accel() : edge_accel();
        const Workload workload =
            make_workload(model_by_name(point.model), point.batch, point.seq);
        const RunPlan plan = plan_for(point.policy, "", options);
        RunOutcome run;
        {
            const Span span("core.run");
            run = traced_run(accel, workload, spec.scope, plan, options);
        }
        json.begin_object();
        json.field("tag", point.tag());
        write_scope_report(json, run.report);
        json.end_object();
    }
    json.end_array();
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: flatbench_trace [--no-spans] "
                 "[--part request|probe|points] -- FLATSIM_ARGV...\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string part = "request";
    std::vector<std::string> request;
    bool in_request = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (in_request) {
            request.push_back(arg);
        } else if (arg == "--") {
            in_request = true;
        } else if (arg == "--no-spans") {
            g_spans.enabled = false;
        } else if (arg == "--part" && i + 1 < argc) {
            part = argv[++i];
        } else {
            return usage();
        }
    }
    if (!in_request ||
        (part != "request" && part != "probe" && part != "points")) {
        return usage();
    }

    try {
        const Args args = parse_args(request);
        const std::string scratch =
            (args.journal_file.empty() ? std::string("flatbench_trace")
                                       : args.journal_file) +
            ".scratch";
        JsonWriter json;
        json.begin_object();
        json.key("result");
        json.begin_object();
        std::int64_t request_ns = 0;
        if (part == "probe") {
            FLAT_CHECK(args.serve, "--part probe needs a --serve request");
            serve_probe(args, scratch);
        } else if (part == "points") {
            FLAT_CHECK(!args.sweep_file.empty(),
                       "--part points needs a --sweep request");
            sweep_points(args, json);
        } else {
            const std::int64_t start = now_ns();
            {
                const Span root("request");
                if (args.serve) {
                    serve_request(args, json);
                } else if (!args.sweep_file.empty()) {
                    sweep_request(args, json);
                } else {
                    run_request(args, json);
                }
            }
            request_ns = now_ns() - start;
            if (!args.journal_file.empty()) {
                // After the request: the journal layer's write cost for
                // the records the sweep produced.
                rewrite_journal(args.journal_file, scratch,
                                sweep_journal_header(
                                    SweepSpec::from_file(args.sweep_file),
                                    sweep_options(args).sim));
            }
        }
        json.end_object();
        json.field("request_ns", request_ns);
        json.key("counters");
        json.begin_object();
        for (const auto& [name, value] : g_counters) {
            json.field(name, value);
        }
        json.end_object();
        g_spans.write(json);
        json.end_object();
        std::printf("%s\n", json.str().c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "flatbench_trace: %s\n", e.what());
        return 1;
    }
}
