#include "serving/serving.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>

#include "common/cancellation.h"
#include "common/run_journal.h"
#include "common/status.h"
#include "common/string_util.h"
#include "costmodel/execution_style.h"

namespace flat {
namespace {

/** Rounds @p tokens up to the next multiple of @p bucket. */
std::uint64_t
bucket_up(std::uint64_t tokens, std::uint64_t bucket)
{
    if (bucket <= 1) {
        return tokens;
    }
    return (tokens + bucket - 1) / bucket * bucket;
}

/** Nearest-rank percentile of an ascending-sorted sample. */
double
percentile(const std::vector<double>& sorted, double q)
{
    if (sorted.empty()) {
        return 0.0;
    }
    const std::size_t rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(sorted.size()))));
    return sorted[std::min(rank, sorted.size()) - 1];
}

/** The style tag step-cost keys carry ("default" = policy's style). */
std::string
style_tag(const SimOptions& sim)
{
    if (sim.styles.empty()) {
        return "default";
    }
    std::string tag;
    for (const std::string& s : sim.styles) {
        if (!tag.empty()) {
            tag += ',';
        }
        tag += s;
    }
    return tag;
}

/** Step costs (seconds) by step-cost key; the key carries the style. */
using StepMemo = std::map<std::string, double>;

/**
 * Prices prefill and decode steps: a memo keyed by (style, kind, batch,
 * token bucket) in front of the model-scope DSE, with an optional
 * journal underneath so resumed runs replay recorded costs. The memo
 * and the GEMM-search memo in `options.sim` belong to the serving call
 * (run_serving, or search_serving across all its combinations).
 */
class StepCostModel
{
  public:
    StepCostModel(const AccelConfig& accel, const ModelConfig& model,
                  const ServeOptions& options, StepMemo& memo,
                  ServeReport* report)
        : simulator_(accel), model_(model), options_(options),
          policy_(DataflowPolicy::parse(options.policy)),
          style_(style_tag(options.sim)), memo_(memo), report_(report)
    {
    }

    /** Seconds one prefill of @p batch prompts of @p tokens takes. */
    double
    prefill_seconds(std::uint64_t batch, std::uint64_t tokens)
    {
        return lookup("prefill", batch, tokens, [&] {
            const Workload w = make_workload(model_, batch, tokens);
            return simulator_
                .run(w, Scope::kModel, policy_, options_.sim)
                .runtime_s;
        });
    }

    /** Seconds one decode step of @p batch tokens at context @p n_ctx
     *  takes. */
    double
    decode_seconds(std::uint64_t batch, std::uint64_t n_ctx)
    {
        return lookup("decode", batch, n_ctx, [&] {
            const Workload w =
                make_decode_workload(model_, batch, n_ctx);
            return simulator_
                .run(w, Scope::kModel, policy_, options_.sim)
                .runtime_s;
        });
    }

  private:
    template <typename Fn>
    double
    lookup(const char* kind, std::uint64_t batch, std::uint64_t tokens,
           Fn&& compute)
    {
        ++report_->cost_lookups;
        const std::string key =
            strprintf("cost|style=%s|%s|b=%llu|t=%llu", style_.c_str(),
                      kind, static_cast<unsigned long long>(batch),
                      static_cast<unsigned long long>(tokens));
        const auto it = memo_.find(key);
        if (it != memo_.end()) {
            ++report_->cost_memo_hits;
            return it->second;
        }
        double seconds = 0.0;
        const JsonValue* restored =
            options_.journal != nullptr
                ? options_.journal->find("serve", key)
                : nullptr;
        if (restored != nullptr) {
            ++report_->cost_journal_hits;
            seconds = restored->member_number("s");
        } else {
            seconds = compute();
            if (options_.journal != nullptr) {
                JsonWriter json;
                json.begin_object();
                json.field("s", seconds);
                json.end_object();
                options_.journal->append("serve", key, json.str());
            }
        }
        memo_.emplace(key, seconds);
        return seconds;
    }

    Simulator simulator_;
    ModelConfig model_;
    const ServeOptions& options_;
    DataflowPolicy policy_;
    std::string style_;
    StepMemo& memo_;
    ServeReport* report_;
};

} // namespace

std::string
serving_space_canonical(const AccelConfig& accel,
                        const ModelConfig& model,
                        const std::vector<Request>& requests,
                        const ServeOptions& options)
{
    std::ostringstream text;
    text << std::setprecision(std::numeric_limits<double>::max_digits10)
         << "serve " << accel.canonical() << options.sim.canonical();
    text << "model " << model.name << ' ' << model.num_blocks << ' '
         << model.hidden_dim << ' ' << model.num_heads << ' '
         << model.ff_dim << ' ' << model.kv_heads() << '\n';
    text << "sched policy=" << to_string(options.sched.policy)
         << " max_batch=" << options.sched.max_batch
         << " ctx_bucket=" << options.ctx_bucket << '\n';
    text << "dse policy=" << options.policy
         << " auto_mode=" << to_string(options.dse_mode) << '\n';
    text << "trace n=" << requests.size() << '\n';
    for (const Request& r : requests) {
        text << r.id << ' ' << r.arrival_s << ' ' << r.prompt_tokens
             << ' ' << r.output_tokens << '\n';
    }
    return text.str();
}

namespace {

/** run_serving's event loop over caller-owned memos (@p options.sim
 *  lends the GEMM-search memo). */
ServeReport
serve_trace(const AccelConfig& accel, const ModelConfig& model,
            const std::vector<Request>& requests,
            const ServeOptions& options, StepMemo& steps)
{
    FLAT_CHECK(!requests.empty(), "nothing to serve: empty trace");
    FLAT_CHECK(options.ctx_bucket > 0,
               "context bucket must be positive");
    model.validate();
    accel.validate();

    ServeReport report;
    report.model = model.name;
    report.policy = options.policy;
    report.sched_policy = to_string(options.sched.policy);
    report.max_batch = options.sched.max_batch;
    report.offered = requests.size();

    StepCostModel costs(accel, model, options, steps, &report);
    ContinuousBatchScheduler scheduler(options.sched);
    const CancellationToken* cancel = options.sim.cancel;

    std::vector<double> latencies;
    double now = 0.0;
    std::size_t next_arrival = 0;

    const auto admit_until = [&](double t) {
        while (next_arrival < requests.size() &&
               requests[next_arrival].arrival_s <= t) {
            scheduler.enqueue(requests[next_arrival]);
            ++next_arrival;
        }
    };

    try {
        while (scheduler.has_work() ||
               next_arrival < requests.size()) {
            if (cancel != nullptr && cancel->cancelled()) {
                report.cancelled = true;
                break;
            }
            admit_until(now);
            const SchedStep step = scheduler.plan();
            if (step.kind == SchedStep::Kind::kIdle) {
                FLAT_CHECK(next_arrival < requests.size(),
                           "scheduler idle with no pending arrivals");
                now = std::max(now,
                               requests[next_arrival].arrival_s);
                continue;
            }
            if (step.kind == SchedStep::Kind::kPrefill) {
                // One padded prefill batch: every member is processed
                // at the longest member's bucketed prompt length.
                std::uint64_t longest = 0;
                std::uint64_t exact = 0;
                for (std::size_t i = 0; i < step.ids.size(); ++i) {
                    const Request& r =
                        requests[static_cast<std::size_t>(
                            step.ids[i])];
                    longest = std::max(longest, r.prompt_tokens);
                    exact += r.prompt_tokens;
                }
                now += costs.prefill_seconds(
                    step.ids.size(),
                    bucket_up(longest, options.ctx_bucket));
                scheduler.complete_prefill(step);
                report.prefilled_tokens += exact;
                ++report.prefill_steps;
                continue;
            }
            // Decode: one token per member at the deepest member's
            // bucketed context (padded batch, like real serving).
            std::uint64_t deepest = 0;
            for (const std::uint64_t id : step.ids) {
                deepest =
                    std::max(deepest, scheduler.context_tokens(id));
            }
            now += costs.decode_seconds(
                step.ids.size(),
                bucket_up(deepest, options.ctx_bucket));
            const std::vector<std::uint64_t> finished =
                scheduler.complete_decode(step);
            report.generated_tokens += step.ids.size();
            ++report.decode_steps;
            for (const std::uint64_t id : finished) {
                const Request& r =
                    requests[static_cast<std::size_t>(id)];
                latencies.push_back(now - r.arrival_s);
                report.completion_order.push_back(id);
                ++report.completed;
            }
        }
    } catch (const CancelledError&) {
        // A cancel that tripped inside a step-cost DSE: drain with
        // what completed so far, exactly like the loop-level check.
        report.cancelled = true;
    }

    report.makespan_s = now;
    std::vector<double> sorted = latencies;
    std::sort(sorted.begin(), sorted.end());
    report.p50_s = percentile(sorted, 0.50);
    report.p95_s = percentile(sorted, 0.95);
    report.p99_s = percentile(sorted, 0.99);
    if (!sorted.empty()) {
        double sum = 0.0;
        for (const double v : sorted) {
            sum += v;
        }
        report.mean_s = sum / static_cast<double>(sorted.size());
    }
    report.tokens_per_s =
        report.makespan_s > 0.0
            ? static_cast<double>(report.generated_tokens) /
                  report.makespan_s
            : 0.0;
    if (options.journal != nullptr) {
        options.journal->flush();
    }
    return report;
}

} // namespace

ServeReport
run_serving(const AccelConfig& accel, const ModelConfig& model,
            const std::vector<Request>& requests,
            const ServeOptions& options)
{
    GemmSearchMemo gemms;
    StepMemo steps;
    ServeOptions scoped = options;
    scoped.sim.gemm_memo = &gemms;
    return serve_trace(accel, model, requests, scoped, steps);
}

ServingSearchResult
search_serving(const AccelConfig& accel, const ModelConfig& model,
               const std::vector<Request>& requests,
               const ServeOptions& options)
{
    // Style menu: the caller's list, or the whole registry in its
    // stable enumeration order.
    std::vector<std::string> styles = options.sim.styles;
    if (styles.empty() ||
        (styles.size() == 1 && styles.front() == "all")) {
        styles.clear();
        for (const ExecutionStyle* style : execution_styles()) {
            styles.push_back(style->id());
        }
    }

    // A step's cost depends on its style, not on the batching policy:
    // each style prices a step once for both policies (the memo key
    // carries the style), and every combination shares the GEMM
    // searches.
    GemmSearchMemo gemms;
    StepMemo steps;
    ServingSearchResult result;
    for (const std::string& style : styles) {
        for (const SchedPolicy policy : sched_policies()) {
            if (options.sim.cancel != nullptr &&
                options.sim.cancel->cancelled()) {
                result.report.cancelled = true;
                return result;
            }
            ServeOptions combo = options;
            combo.sim.styles = {style};
            combo.sim.search_mode = options.dse_mode;
            combo.sched.policy = policy;
            combo.sim.gemm_memo = &gemms;
            ServeReport report;
            try {
                report = serve_trace(accel, model, requests, combo, steps);
            } catch (const Error&) {
                continue; // style infeasible for this trace's shapes
            }
            const bool cancelled = report.cancelled;
            result.evaluated.push_back(report);
            const bool better =
                !result.found ||
                report.tokens_per_s > result.report.tokens_per_s ||
                (report.tokens_per_s == result.report.tokens_per_s &&
                 report.p99_s < result.report.p99_s);
            if (!cancelled && better) {
                result.found = true;
                result.best.style = style;
                result.best.sched = policy;
                result.report = report;
            }
            if (cancelled) {
                result.report.cancelled = true;
                return result;
            }
        }
    }
    return result;
}

} // namespace flat
