/**
 * @file
 * DSE throughput harness for the batched timeline hot path. Three
 * measurements:
 *
 *   1. full-space search_attention throughput (points/s) — the
 *      headline points/s of the batched evaluator on a realistic
 *      search load;
 *   2. the per-point hot path in isolation — the reference
 *      model_attention() on one dataflow vs one 9-lane loop-order
 *      block (the exhaustive walk's shape) and one 1-lane block (the
 *      analytic mapper's usual shape) of the same (tiles, flags)
 *      through the AttentionBatchEvaluator the searches price with;
 *      the block is bound again each iteration, so these legs time a
 *      repeated block: a block-part table read plus the lanes;
 *   3. heap allocations per evaluated point, via a replaced global
 *      operator new that counts every allocation in the process.
 *
 * Pruning is disabled for the throughput leg so "points" is the full
 * space size — a fixed work unit that makes points/s comparable across
 * runs and thread counts.
 *
 * Timing is best-sustained: every (repeat, dims) search is timed on
 * its own and each dims keeps its minimum, so the leg's seconds is the
 * sum of per-dims minima over one pass of the workload. Means would
 * fold host drift and scheduler preemption of oversubscribed workers
 * into the number; the minimum is the reproducible throughput of the
 * code itself.
 *
 * Emits BENCH_dse.json (tools/bench_compare.py diffs two of them and
 * fails on a >7.5% points/s regression; `ctest -L perf` runs that as a
 * smoke test).
 *
 * Usage: dse_throughput [--threads N] [--repeats R] [--out FILE]
 */
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

#include "alloc_counter.h"
#include "bench_util.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "costmodel/attention_cost.h"
#include "dse/search.h"

using namespace flat;
using namespace flat::bench;

namespace {

struct SearchLeg {
    double seconds = 0.0;
    std::uint64_t points = 0;
    std::uint64_t allocations = 0;

    double
    points_per_sec() const
    {
        return seconds > 0.0 ? static_cast<double>(points) / seconds
                             : 0.0;
    }
};

/**
 * One leg over the workload. Every (repeat, dims) search is timed
 * individually and the per-dims MINIMUM is kept, so the leg reports
 * best-sustained throughput: on a shared host a leg-level wall total
 * conflates machine drift with the thing being measured.
 */
SearchLeg
run_searches(const AccelConfig& accel,
             const std::vector<AttentionDims>& sweep,
             const AttentionSearchOptions& options, unsigned repeats)
{
    SearchLeg leg;
    const std::uint64_t allocs_before =
        allocations_so_far();
    std::vector<double> best(sweep.size(),
                             std::numeric_limits<double>::infinity());
    std::vector<std::uint64_t> points(sweep.size(), 0);
    for (unsigned r = 0; r < repeats; ++r) {
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            const ScopedTimer timer;
            const AttentionSearchResult result =
                search_attention(accel, sweep[i], options);
            best[i] = std::min(best[i], timer.seconds());
            points[i] = result.evaluated + result.pruned;
        }
    }
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        leg.seconds += best[i];
        leg.points += points[i];
    }
    leg.allocations = allocations_so_far() -
                      allocs_before;
    return leg;
}

struct HotPathLeg {
    double ns_per_eval = 0.0;
    double allocs_per_eval = 0.0;
};

/** Repeated calls of @p eval; the figures are per call. */
template <typename Eval>
HotPathLeg
run_hot_path(unsigned iterations, const Eval& eval)
{
    // One warm-up call grows reused buffers to steady state.
    eval();
    const std::uint64_t allocs_before =
        allocations_so_far();
    const ScopedTimer timer;
    for (unsigned i = 0; i < iterations; ++i) {
        eval();
    }
    const double seconds = timer.seconds();
    const std::uint64_t allocs =
        allocations_so_far() - allocs_before;
    HotPathLeg leg;
    leg.ns_per_eval = iterations > 0 ? seconds * 1e9 / iterations : 0.0;
    leg.allocs_per_eval =
        iterations > 0 ? static_cast<double>(allocs) / iterations : 0.0;
    return leg;
}

} // namespace

int
main(int argc, char** argv)
{
    banner("DSE throughput — batched evaluator + hot-path memory",
           "full-space points/s, per-point eval cost, allocations/point");

    unsigned repeats = 4;
    std::string out_path = "BENCH_dse.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
            const long parsed = std::atol(argv[++i]);
            if (parsed > 0) {
                repeats = static_cast<unsigned>(parsed);
            }
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        }
    }

    const AccelConfig accel = edge_accel();
    const ModelConfig bert = bert_base();
    std::vector<AttentionDims> sweep;
    for (const std::uint64_t seq : {512ull, 1024ull, 2048ull}) {
        sweep.push_back(AttentionDims::from_workload(
            make_workload(bert, /*batch=*/8, seq)));
    }

    AttentionSearchOptions options;
    options.quick = false; // full menus: a realistic per-search load
    options.fused = true;
    options.prune = false; // fixed work unit: points == full space
    options.threads = cli_threads(argc, argv);
    const unsigned threads = resolve_threads(options.threads);

    std::printf("workload: %zu dims x %u repeats, threads=%u, "
                "prune=off\n\n",
                sweep.size(), repeats, threads);

    // Leg 1: identical full-space searches.
    const SearchLeg search = run_searches(accel, sweep, options, repeats);
    print_search_stats("full space", search.points, 0, search.seconds);

    // Allocations per point: a single-threaded search so the counter
    // sees only the evaluation hot path, not worker startup.
    AttentionSearchOptions serial = options;
    serial.threads = 1;
    const SearchLeg warm = run_searches(accel, sweep, serial, 1);
    const double allocs_per_point =
        warm.points > 0
            ? static_cast<double>(warm.allocations) /
                  static_cast<double>(warm.points)
            : 0.0;
    std::printf("allocations/point (1 thread): %.2f\n",
                allocs_per_point);

    // Leg 2: the per-point hot path in isolation on one dataflow.
    const AttentionDims dims = sweep.back();
    const AttentionSearchResult best =
        search_attention(accel, dims, serial);
    const FusedDataflow dataflow = best.best.dataflow;
    constexpr unsigned kEvalIters = 20000;
    const ExecutionStyle& flat = flat_execution_style();
    const HotPathLeg plain = run_hot_path(kEvalIters, [&] {
        (void)model_attention(flat, accel, dims, dataflow);
    });

    // The block's GEMM cost records, as the search's per-slice tables
    // hold them: one per loop order of each stage.
    const AttentionPlan plan = make_plan(accel, dims, dataflow);
    const std::vector<LoopOrder> orders = loop_order_candidates({});
    std::vector<GemmSliceCost> logit_costs;
    std::vector<GemmSliceCost> attend_costs;
    for (const LoopOrder order : orders) {
        logit_costs.push_back(
            {model_gemm_compute(accel, plan.logit_shape, dataflow.l2_logit,
                                order, dataflow.stat_logit),
             stage_reuse(plan.logit_shape, dataflow.l2_logit, order)});
        attend_costs.push_back(
            {model_gemm_compute(accel, plan.attend_shape,
                                dataflow.l2_attend, order,
                                dataflow.stat_attend),
             stage_reuse(plan.attend_shape, dataflow.l2_attend, order)});
    }
    // One (tiles, flags) block as the searches price it: the slice is
    // bound once, each block pays its begin() and its lanes. The
    // exhaustive walk prices whole 9-lane order blocks; the analytic
    // mapper mostly one-lane blocks. Every iteration begins the same
    // block, so after the first its block part is a read from the
    // evaluator's table, as for a block a search binds again.
    AttentionBatchEvaluator batch;
    batch.bind_slice(accel, dims, dataflow.cross, flat,
                     BaselineOverlap::kFull);
    const auto block_leg = [&](std::size_t lanes) {
        const HotPathLeg leg = run_hot_path(
            static_cast<unsigned>(kEvalIters / lanes), [&] {
                batch.begin(dataflow);
                for (std::size_t i = 0; i < lanes; ++i) {
                    const std::size_t ol = i / orders.size();
                    const std::size_t oa = i % orders.size();
                    batch.add(orders[ol], orders[oa], logit_costs[ol],
                              attend_costs[oa]);
                }
                batch.evaluate();
            });
        HotPathLeg per_point;
        per_point.ns_per_eval = leg.ns_per_eval / lanes;
        per_point.allocs_per_eval = leg.allocs_per_eval / lanes;
        return per_point;
    };
    const std::size_t lanes = orders.size() * orders.size();
    const HotPathLeg batched = block_leg(lanes);
    const HotPathLeg single = block_leg(1);
    std::printf("\nper-point eval (%u points): plain %.0f ns "
                "(%.1f allocs), %zu-lane block %.0f ns (%.2f allocs) "
                "— %s, 1-lane block %.0f ns (%.2f allocs)\n",
                kEvalIters, plain.ns_per_eval, plain.allocs_per_eval,
                lanes, batched.ns_per_eval, batched.allocs_per_eval,
                fmt_x(batched.ns_per_eval > 0.0
                          ? plain.ns_per_eval / batched.ns_per_eval
                          : 0.0)
                    .c_str(),
                single.ns_per_eval, single.allocs_per_eval);

    JsonWriter json;
    json.begin_object();
    json.field("bench", "dse_throughput");
    json.field("threads", static_cast<std::uint64_t>(threads));
    json.field("repeats", static_cast<std::uint64_t>(repeats));
    json.key("search");
    json.begin_object();
    json.field("seconds", search.seconds);
    json.field("points", search.points);
    json.field("points_per_sec", search.points_per_sec());
    json.end_object();
    json.field("allocs_per_point", allocs_per_point);
    json.key("hot_path");
    json.begin_object();
    json.field("plain_ns_per_eval", plain.ns_per_eval);
    json.field("plain_allocs_per_eval", plain.allocs_per_eval);
    json.field("batch_ns_per_point", batched.ns_per_eval);
    json.field("batch_allocs_per_point", batched.allocs_per_eval);
    json.field("one_lane_ns_per_point", single.ns_per_eval);
    json.field("one_lane_allocs_per_point", single.allocs_per_eval);
    json.field("speedup",
               batched.ns_per_eval > 0.0
                   ? plain.ns_per_eval / batched.ns_per_eval
                   : 0.0);
    json.end_object();
    json.end_object();

    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    out << json.str() << '\n';
    out.close();
    std::printf("\nwrote %s\n", out_path.c_str());
    return 0;
}
