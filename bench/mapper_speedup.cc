/**
 * @file
 * Analytic-mapper speedup harness. Three measurements:
 *
 *   1. exhaustive full-space search_attention throughput (points/s) —
 *      the sweep evaluates every (style, cross, stationarity, tile,
 *      flag, order) point of the candidate space with pruning OFF, the
 *      same fixed-work-unit convention dse_throughput uses, so the
 *      headline ratio measures the full enumeration the mapper
 *      replaces. A second exhaustive leg with the incumbent
 *      lower-bound pruning ON (the sweep as deployed) is reported
 *      alongside so the pruned-baseline ratio is visible too;
 *   2. the analytic mapper (SearchMode::kAnalytic) on the SAME space:
 *      closed-form tile seeds per slice, bounded local refinement
 *      through the exact timeline cost. Every leg accounts for the
 *      identical space (evaluated + pruned match), so points/s is a
 *      direct wall-clock speedup on a fixed work unit;
 *   3. winner quality: the analytic pick's objective on each sweep
 *      dims as a ratio of the exhaustive optimum, plus exact-parity
 *      counts over the 12-golden catalog via
 *      SearchMode::kAnalyticVerified;
 *   4. the mapper's heap allocations per evaluated point, from one
 *      warm single-threaded analytic pass under a counting global
 *      operator new (alloc_counter.h), next to its allocations per
 *      search (slices, tables and outcomes it sets up once).
 *
 * The sweep uses long-sequence, memory-bound shapes (the paper's
 * regime of interest). There the compute-cycle lower bound is loose,
 * exhaustive pruning is weak, and the sweep really does pay for most
 * of the space — exactly the cost the analytic mapper removes.
 *
 * Timing is best-sustained like dse_throughput: every (repeat, dims)
 * search is timed on its own and each dims keeps its minimum.
 *
 * Emits BENCH_mapper.json (tools/bench_compare.py gates the headline
 * analytic.points_per_sec; `ctest -L perf` runs a tiny smoke).
 *
 * Usage: mapper_speedup [--threads N] [--repeats R] [--quick] [--out F]
 */
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "bench_util.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "core/goldens.h"
#include "dse/search.h"
#include "workload/model_config.h"

using namespace flat;
using namespace flat::bench;

namespace {

struct SearchLeg {
    double seconds = 0.0;
    std::uint64_t points = 0;    ///< evaluated + pruned (space size)
    std::uint64_t evaluated = 0; ///< cost-model evaluations actually run
    std::vector<double> best_values; ///< per-dims winning objective
    std::vector<std::string> best_tags;

    double
    points_per_sec() const
    {
        return seconds > 0.0 ? static_cast<double>(points) / seconds
                             : 0.0;
    }
};

/** One leg over the sweep; per-dims minimum across repeats. */
SearchLeg
run_leg(const AccelConfig& accel,
        const std::vector<AttentionDims>& sweep,
        const AttentionSearchOptions& options, unsigned repeats)
{
    SearchLeg leg;
    std::vector<double> best(sweep.size(),
                             std::numeric_limits<double>::infinity());
    leg.best_values.resize(sweep.size());
    leg.best_tags.resize(sweep.size());
    std::vector<std::uint64_t> points(sweep.size(), 0);
    std::vector<std::uint64_t> evaluated(sweep.size(), 0);
    for (unsigned r = 0; r < repeats; ++r) {
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            const ScopedTimer timer;
            const AttentionSearchResult result =
                search_attention(accel, sweep[i], options);
            best[i] = std::min(best[i], timer.seconds());
            points[i] = result.evaluated + result.pruned;
            evaluated[i] = result.evaluated;
            leg.best_values[i] =
                result.best.objective_value(options.objective);
            leg.best_tags[i] = result.best.dataflow.tag();
        }
    }
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        leg.seconds += best[i];
        leg.points += points[i];
        leg.evaluated += evaluated[i];
    }
    return leg;
}

void
write_leg(JsonWriter& json, const char* name, const SearchLeg& leg)
{
    json.key(name);
    json.begin_object();
    json.field("seconds", leg.seconds);
    json.field("points", leg.points);
    json.field("evaluated", leg.evaluated);
    json.field("points_per_sec", leg.points_per_sec());
    json.end_object();
}

} // namespace

int
main(int argc, char** argv)
{
    banner("Analytic mapper — full-space speedup + golden parity",
           "points/s of the exhaustive sweep vs the analytic tile "
           "mapper on identical spaces, winner-quality audit");

    unsigned repeats = 3;
    bool quick = false;
    std::string out_path = "BENCH_mapper.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
            const long parsed = std::atol(argv[++i]);
            if (parsed > 0) {
                repeats = static_cast<unsigned>(parsed);
            }
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        }
    }

    // Memory-bound, full-space workload: every registered execution
    // style, long sequences, batch 8 (the paper's serving shapes).
    const AccelConfig accel = edge_accel();
    const ModelConfig bert = bert_base();
    std::vector<AttentionDims> sweep;
    for (const std::uint64_t seq : {1024ull, 2048ull}) {
        sweep.push_back(AttentionDims::from_workload(
            make_workload(bert, /*batch=*/8, seq)));
    }

    AttentionSearchOptions options;
    options.quick = quick;
    options.fused = true;
    options.styles = {"all"};
    options.prune = true;
    options.threads = cli_threads(argc, argv);
    const unsigned threads = resolve_threads(options.threads);

    std::printf("workload: %zu dims x %u repeats, threads=%u, "
                "styles=all, %s menus\n\n",
                sweep.size(), repeats, threads,
                quick ? "quick" : "full");

    options.mode = SearchMode::kExhaustive;
    options.prune = false; // full candidate space, every point priced
    const SearchLeg exhaustive =
        run_leg(accel, sweep, options, repeats);
    print_search_stats("exhaustive (full)  ", exhaustive.evaluated,
                       exhaustive.points - exhaustive.evaluated,
                       exhaustive.seconds);

    options.prune = true; // the sweep as deployed (incumbent pruning)
    const SearchLeg pruned = run_leg(accel, sweep, options, repeats);
    print_search_stats("exhaustive (pruned)", pruned.evaluated,
                       pruned.points - pruned.evaluated,
                       pruned.seconds);

    options.mode = SearchMode::kAnalytic;
    const SearchLeg analytic = run_leg(accel, sweep, options, repeats);
    print_search_stats("analytic           ", analytic.evaluated,
                       analytic.points - analytic.evaluated,
                       analytic.seconds);

    // Allocations: one warm single-threaded pass (the first grew the
    // worker's buffers), so the count is the searches' own set-up plus
    // whatever the climb allocates per point.
    AttentionSearchOptions serial = options;
    serial.threads = 1;
    (void)run_leg(accel, sweep, serial, 1);
    const std::uint64_t allocs_before = allocations_so_far();
    const SearchLeg counted = run_leg(accel, sweep, serial, 1);
    const double allocs = static_cast<double>(allocations_so_far() -
                                              allocs_before);
    const double allocs_per_point =
        counted.evaluated > 0
            ? allocs / static_cast<double>(counted.evaluated)
            : 0.0;
    const double allocs_per_search =
        allocs / static_cast<double>(sweep.size());
    std::printf("analytic allocations (1 thread): %.2f per evaluated "
                "point, %.0f per search\n",
                allocs_per_point, allocs_per_search);

    const double speedup =
        exhaustive.points_per_sec() > 0.0
            ? analytic.points_per_sec() / exhaustive.points_per_sec()
            : 0.0;
    const double speedup_pruned =
        pruned.points_per_sec() > 0.0
            ? analytic.points_per_sec() / pruned.points_per_sec()
            : 0.0;
    std::printf("\nanalytic vs exhaustive points/s: %s full sweep, "
                "%s pruned sweep (identical spaces: %s)\n",
                fmt_x(speedup).c_str(), fmt_x(speedup_pruned).c_str(),
                exhaustive.points == analytic.points &&
                        pruned.points == analytic.points
                    ? "yes"
                    : "NO");

    // Winner quality on the sweep: the analytic pick's objective as a
    // ratio of the exhaustive optimum (1.0 = same quality).
    double worst_ratio = 1.0;
    std::size_t equal_winners = 0;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        if (exhaustive.best_values[i] > 0.0) {
            worst_ratio = std::max(worst_ratio,
                                   analytic.best_values[i] /
                                       exhaustive.best_values[i]);
        }
        equal_winners +=
            analytic.best_tags[i] == exhaustive.best_tags[i] ? 1 : 0;
    }
    std::printf("sweep winner quality: worst objective ratio %.6f, "
                "%zu/%zu identical dataflow tags\n",
                worst_ratio, equal_winners, sweep.size());

    // Golden parity: analytic_verified re-runs each catalog search in
    // both modes and reports the objective ratio (1.0 = exact).
    const std::vector<GoldenConfig>& catalog = golden_configs();
    std::size_t parity = 0;
    for (const GoldenConfig& config : catalog) {
        GoldenSearchSetup setup = golden_search_setup(config);
        setup.options.mode = SearchMode::kAnalyticVerified;
        setup.options.threads = options.threads;
        const AttentionSearchResult result =
            search_attention(setup.accel, setup.dims, setup.options);
        const bool exact = result.found && result.verified &&
                           result.verified_ratio == 1.0;
        parity += exact ? 1 : 0;
        if (!exact) {
            std::printf("golden %s: ratio %.6f (NOT exact)\n",
                        config.id.c_str(), result.verified_ratio);
        }
    }
    std::printf("golden parity: %zu/%zu exact\n\n", parity,
                catalog.size());

    JsonWriter json;
    json.begin_object();
    json.field("bench", "mapper_speedup");
    json.field("threads", static_cast<std::uint64_t>(threads));
    json.field("repeats", static_cast<std::uint64_t>(repeats));
    json.field("quick", quick);
    write_leg(json, "exhaustive", exhaustive);
    write_leg(json, "exhaustive_pruned", pruned);
    write_leg(json, "analytic", analytic);
    json.field("analytic_allocs_per_point", allocs_per_point);
    json.field("analytic_allocs_per_search", allocs_per_search);
    json.field("speedup_x", speedup);
    json.field("speedup_vs_pruned_x", speedup_pruned);
    json.field("sweep_worst_objective_ratio", worst_ratio);
    json.field("sweep_equal_winners",
               static_cast<std::uint64_t>(equal_winners));
    json.field("sweep_dims", static_cast<std::uint64_t>(sweep.size()));
    json.key("golden");
    json.begin_object();
    json.field("configs", static_cast<std::uint64_t>(catalog.size()));
    json.field("parity", static_cast<std::uint64_t>(parity));
    json.end_object();
    json.end_object();

    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    out << json.str() << '\n';
    out.close();
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
