/**
 * @file
 * Serving-layer throughput bench: serves one fixed seeded arrival
 * trace (edge, bert) under both batching policies, pricing steps the
 * way `flatsim --serve` does (the analytic mapper over full menus),
 * and reports
 *
 *  - the SIMULATED serving quality at that offered load — sustained
 *    tokens/s and p50/p99 request latency — which must not regress
 *    when the cost model or scheduler changes, and
 *  - the WALL-CLOCK simulator throughput (scheduler steps/s and
 *    step-cost lookups/s), the knob the step-cost memo, the run's
 *    GEMM-search memo and the mapper's climb pruning keep fast.
 *
 * Emits BENCH_serving.json (tools/bench_compare.py diffs two of them
 * and gates on the steps/s headline).
 *
 * Usage: serving_throughput [--requests N] [--threads N] [--out FILE]
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "serving/serving.h"
#include "workload/model_config.h"

using namespace flat;
using namespace flat::bench;

namespace {

struct Leg {
    ServeReport report;
    double wall_seconds = 0.0;

    double
    steps_per_sec() const
    {
        const double steps = static_cast<double>(
            report.prefill_steps + report.decode_steps);
        return wall_seconds > 0.0 ? steps / wall_seconds : 0.0;
    }
};

Leg
serve_leg(const AccelConfig& accel, const ModelConfig& model,
          const std::vector<Request>& requests, SchedPolicy policy,
          unsigned threads)
{
    ServeOptions options;
    options.sched.policy = policy;
    options.sched.max_batch = 8;
    options.sim.search_mode = SearchMode::kAnalytic;
    options.sim.threads = threads;
    Leg leg;
    ScopedTimer timer;
    leg.report = run_serving(accel, model, requests, options);
    leg.wall_seconds = timer.seconds();
    return leg;
}

void
write_leg(JsonWriter& json, const std::string& key, const Leg& leg)
{
    json.key(key);
    json.begin_object();
    json.field("completed", leg.report.completed);
    json.field("sim_tokens_per_s", leg.report.tokens_per_s);
    json.field("p50_s", leg.report.p50_s);
    json.field("p99_s", leg.report.p99_s);
    json.field("makespan_s", leg.report.makespan_s);
    json.field("prefill_steps", leg.report.prefill_steps);
    json.field("decode_steps", leg.report.decode_steps);
    json.field("cost_lookups", leg.report.cost_lookups);
    json.field("cost_memo_hits", leg.report.cost_memo_hits);
    json.field("wall_seconds", leg.wall_seconds);
    json.field("steps_per_sec", leg.steps_per_sec());
    json.end_object();
}

} // namespace

int
main(int argc, char** argv)
{
    banner("Serving throughput — traffic simulator + step-cost memo",
           "One seeded trace (edge, bert) under both batching "
           "policies: simulated SLOs and wall-clock simulator rate");

    std::uint64_t n_requests = 48;
    std::string out_path = "BENCH_serving.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
            const long parsed = std::atol(argv[++i]);
            if (parsed > 0) {
                n_requests = static_cast<std::uint64_t>(parsed);
            }
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        }
    }
    const unsigned threads = cli_threads(argc, argv);

    const AccelConfig accel = edge_accel();
    const ModelConfig model = bert_base();
    ArrivalOptions arrivals;
    arrivals.kind = ArrivalKind::kPoisson;
    arrivals.seed = 42;
    arrivals.rate_rps = 8.0; // fixed offered load
    arrivals.requests = n_requests;
    arrivals.prompt_tokens = 512;
    arrivals.output_tokens = 16;
    const std::vector<Request> requests = generate_arrivals(arrivals);

    std::printf("trace: %llu poisson requests @ %.3g req/s, prompt "
                "~%llu, output %llu\n\n",
                static_cast<unsigned long long>(requests.size()),
                arrivals.rate_rps,
                static_cast<unsigned long long>(arrivals.prompt_tokens),
                static_cast<unsigned long long>(arrivals.output_tokens));

    TextTable table({"policy", "sim tokens/s", "p50", "p99",
                     "sim steps", "wall s", "steps/s (wall)"});
    std::vector<std::pair<std::string, Leg>> legs;
    for (const SchedPolicy policy : sched_policies()) {
        const Leg leg =
            serve_leg(accel, model, requests, policy, threads);
        const std::uint64_t steps =
            leg.report.prefill_steps + leg.report.decode_steps;
        table.add_row({to_string(policy),
                       fmt(leg.report.tokens_per_s, 4),
                       format_time(leg.report.p50_s),
                       format_time(leg.report.p99_s),
                       std::to_string(steps),
                       fmt(leg.wall_seconds, 3),
                       fmt(leg.steps_per_sec(), 0)});
        // JSON keys use underscores so bench_compare's dot-joined
        // flattening stays unambiguous.
        std::string key = to_string(policy);
        for (char& c : key) {
            if (c == '-') {
                c = '_';
            }
        }
        legs.emplace_back(key, leg);
    }
    table.print(std::cout);

    JsonWriter json;
    json.begin_object();
    json.field("bench", "serving_throughput");
    json.field("requests",
               static_cast<std::uint64_t>(requests.size()));
    json.field("offered_rps", arrivals.rate_rps);
    for (const auto& [key, leg] : legs) {
        write_leg(json, key, leg);
    }
    json.end_object();

    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(out, "%s\n", json.str().c_str());
    std::fclose(out);
    std::printf("\nwrote %s\n", out_path.c_str());
    return 0;
}
