/**
 * @file
 * Contracts of the analytic tile mapper (SearchMode::kAnalytic):
 *
 *  - the closed-form tile seeds satisfy the SL/SG footprint constraint
 *    whenever any tile pair in the menus can (and report honestly when
 *    none does);
 *  - the analytic optimum never beats the exhaustive optimum (it
 *    evaluates a subset of the same space through the same evaluator)
 *    and never undercuts its own slice lower bounds;
 *  - the result is bit-identical across thread counts and pruning
 *    settings, with evaluated + pruned equal to the exhaustive space
 *    size;
 *  - SearchMode::kAnalyticVerified reports exact objective parity
 *    (ratio == 1.0) on every config of the 12-golden catalog.
 *
 * Runs under `ctest -L mapper`.
 */
#include "dse/analytic_mapper.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/goldens.h"
#include "dse/search.h"
#include "dse/search_internal.h"
#include "scaleout/scaleout_model.h"
#include "workload/model_config.h"

namespace flat {
namespace {

AttentionDims
self_attention(std::uint64_t n)
{
    AttentionDims d;
    d.batch = 8;
    d.heads = 8;
    d.q_len = n;
    d.kv_len = n;
    d.head_dim = 64;
    return d;
}

AttentionDims
cross_attention(std::uint64_t q, std::uint64_t kv)
{
    AttentionDims d;
    d.batch = 4;
    d.heads = 12;
    d.q_len = q;
    d.kv_len = kv;
    d.head_dim = 64;
    return d;
}

struct Config {
    const char* name;
    AccelConfig accel;
    AttentionDims dims;
};

std::vector<Config>
configs()
{
    return {
        {"edge/self-1024", edge_accel(), self_attention(1024)},
        {"edge/cross-512x2048", edge_accel(),
         cross_attention(512, 2048)},
        {"cloud/self-4096", cloud_accel(), self_attention(4096)},
    };
}

AttentionSearchResult
run(const Config& cfg, SearchMode mode, Objective objective,
    unsigned threads, bool prune, bool quick)
{
    AttentionSearchOptions opt;
    opt.mode = mode;
    opt.objective = objective;
    opt.styles = {"all"};
    opt.quick = quick;
    opt.threads = threads;
    opt.prune = prune;
    return search_attention(cfg.accel, cfg.dims, opt);
}

// ---------------------------------------------------------------------
// Closed-form seed: SL/SG footprint property.
// ---------------------------------------------------------------------

TEST(AnalyticSeeds, SatisfyFootprintConstraintWheneverPossible)
{
    for (const Config& cfg : configs()) {
        SCOPED_TRACE(cfg.name);
        AttentionSearchOptions opt;
        opt.mode = SearchMode::kAnalytic;
        opt.styles = {"all"};
        const std::vector<AnalyticSliceSeed> seeds =
            analytic_tile_seeds(cfg.accel, cfg.dims, opt);
        const detail::SlicedSpace space =
            detail::build_sliced_space(cfg.accel, cfg.dims, opt);
        ASSERT_EQ(seeds.size(), space.slices.size());

        for (std::size_t si = 0; si < seeds.size(); ++si) {
            const AnalyticSliceSeed& seed = seeds[si];
            const detail::SearchSlice& slice = space.slices[si];
            SCOPED_TRACE(seed.slice_key);
            ASSERT_EQ(seed.slice_key,
                      detail::slice_journal_key(slice));

            // The stored footprint is the model's own number for the
            // pick, fully staged.
            FusedDataflow df;
            df.cross = slice.cross;
            df.l2_logit = seed.tiles.logit;
            df.stat_logit = slice.stat_logit;
            df.l2_attend = seed.tiles.attend;
            df.stat_attend = slice.stat_attend;
            EXPECT_EQ(fused_live_footprint(df, cfg.dims,
                                           cfg.accel.bytes_per_element),
                      seed.tiles.staged_footprint_bytes);
            EXPECT_EQ(seed.tiles.fits,
                      seed.tiles.staged_footprint_bytes <=
                          cfg.accel.sg_bytes);

            // When the derivation reports "does not fit", no pair in
            // the menus fits: the footprint is monotone in both tile
            // indices, so the smallest pair is the witness.
            if (!seed.tiles.fits) {
                df.l2_logit = slice.tiles_logit->front();
                df.l2_attend = slice.tiles_attend->front();
                EXPECT_GT(fused_live_footprint(
                              df, cfg.dims,
                              cfg.accel.bytes_per_element),
                          cfg.accel.sg_bytes);
                // ... and the seed flags spill the intermediate
                // instead of pretending it is resident.
                EXPECT_FALSE(seed.stage.intermediate);
            } else {
                EXPECT_TRUE(seed.stage.intermediate);
            }

            // The indices address the slice's menus.
            ASSERT_LT(seed.tiles.logit_index,
                      slice.tiles_logit->size());
            ASSERT_LT(seed.tiles.attend_index,
                      slice.tiles_attend->size());
        }
    }
}

// ---------------------------------------------------------------------
// Subset + bound properties against the exhaustive optimum.
// ---------------------------------------------------------------------

TEST(AnalyticSearch, NeverBeatsExhaustiveAndRespectsBounds)
{
    const Objective objectives[] = {Objective::kRuntime,
                                    Objective::kEnergy, Objective::kEdp};
    for (const Config& cfg : configs()) {
        for (const Objective objective : objectives) {
            SCOPED_TRACE(std::string(cfg.name) + "/obj=" +
                         std::to_string(static_cast<int>(objective)));
            const AttentionSearchResult exh =
                run(cfg, SearchMode::kExhaustive, objective, 0, true,
                    /*quick=*/true);
            const AttentionSearchResult ana =
                run(cfg, SearchMode::kAnalytic, objective, 0, true,
                    /*quick=*/true);
            ASSERT_TRUE(exh.found);
            ASSERT_TRUE(ana.found);

            const double exh_value =
                exh.best.objective_value(objective);
            const double ana_value =
                ana.best.objective_value(objective);
            // The analytic mode evaluates a subset of the same space
            // through the same evaluator: it can tie, never win.
            EXPECT_GE(ana_value, exh_value);

            // Audit identity: both modes account for the same space.
            EXPECT_EQ(ana.evaluated + ana.pruned,
                      exh.evaluated + exh.pruned);

            // The pick never undercuts its own slice lower bounds.
            AttentionSearchOptions opt;
            opt.mode = SearchMode::kAnalytic;
            opt.objective = objective;
            opt.styles = {"all"};
            opt.quick = true;
            const detail::SlicedSpace space =
                detail::build_sliced_space(cfg.accel, cfg.dims, opt);
            const EnergyTable table = EnergyTable::for_accel(cfg.accel);
            double min_lb = std::numeric_limits<double>::infinity();
            for (const detail::SearchSlice& slice : space.slices) {
                const detail::SliceBound bound = detail::make_slice_bound(
                    cfg.accel, cfg.dims, table, slice);
                for (std::size_t li = 0;
                     li < bound.logit_costs.size(); ++li) {
                    for (std::size_t ai = 0;
                         ai < bound.attend_costs.size(); ++ai) {
                        min_lb = std::min(
                            min_lb,
                            bound.lower_bound(objective, li, ai));
                    }
                }
            }
            EXPECT_LE(min_lb, ana_value);
        }
    }
}

// ---------------------------------------------------------------------
// Determinism: threads x pruning.
// ---------------------------------------------------------------------

/** Serve's traffic: a GQA decode step (one query row per sequence,
 *  four query heads per KV head). */
AttentionDims
gqa_decode(std::uint64_t batch, std::uint64_t context)
{
    AttentionDims d;
    d.batch = batch;
    d.heads = 32;
    d.kv_heads = 8;
    d.q_len = 1;
    d.kv_len = context;
    d.head_dim = 128;
    d.decode = true;
    return d;
}

TEST(AnalyticSearch, DeterministicAcrossThreadsAndPruning)
{
    // The quick-menu configs plus two full-menu ones: a GQA decode step
    // and `flatsim --model xlm --platform edge --seq 4096 --batch 8
    // --scope la --style all`, whose pick changes if the climb prunes
    // against the shared cross-slice incumbent instead of its slice's.
    struct Case {
        Config cfg;
        bool quick;
    };
    std::vector<Case> cases;
    for (const Config& cfg : configs()) {
        cases.push_back({cfg, true});
    }
    cases.push_back({{"cloud/gqa-decode-16x2048", cloud_accel(),
                      gqa_decode(16, 2048)},
                     false});
    cases.push_back(
        {{"edge/xlm-4096", edge_accel(),
          AttentionDims::from_workload(
              make_workload(model_by_name("xlm"), 8, 4096))},
         false});

    for (const Case& c : cases) {
        for (const Objective objective :
             {Objective::kRuntime, Objective::kEnergy, Objective::kEdp}) {
            SCOPED_TRACE(std::string(c.cfg.name) + " objective=" +
                         std::to_string(static_cast<int>(objective)));
            const AttentionSearchResult reference =
                run(c.cfg, SearchMode::kAnalytic, objective, 1,
                    /*prune=*/false, c.quick);
            ASSERT_TRUE(reference.found);
            const std::size_t space_points =
                reference.evaluated + reference.pruned;

            for (const unsigned threads : {1u, 8u}) {
                for (const bool prune : {false, true}) {
                    SCOPED_TRACE("threads=" + std::to_string(threads) +
                                 " prune=" + std::to_string(prune));
                    const AttentionSearchResult result =
                        run(c.cfg, SearchMode::kAnalytic, objective,
                            threads, prune, c.quick);
                    ASSERT_TRUE(result.found);
                    EXPECT_EQ(result.best.dataflow.tag(),
                              reference.best.dataflow.tag());
                    EXPECT_EQ(result.best.style, reference.best.style);
                    EXPECT_EQ(result.best.cost.cycles,
                              reference.best.cost.cycles);
                    EXPECT_EQ(result.best.energy_j,
                              reference.best.energy_j);
                    EXPECT_EQ(result.evaluated + result.pruned,
                              space_points);
                    if (!prune) {
                        // Unpruned, every climb visits the same points.
                        EXPECT_EQ(result.evaluated, reference.evaluated);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Golden-catalog parity under kAnalyticVerified.
// ---------------------------------------------------------------------

/** The (accel, dims, options) triple a golden config's quick DSE runs
 *  on — mirrors core/goldens.cc exactly (scale-out searches the
 *  per-device shard). */
struct GoldenSearch {
    AccelConfig accel;
    AttentionDims dims;
    AttentionSearchOptions opt;
};

GoldenSearch
golden_search(const GoldenConfig& config)
{
    GoldenSearch gs;
    if (config.preset == "edge") {
        gs.accel = edge_accel();
    } else if (config.preset == "cloud") {
        gs.accel = cloud_accel();
    } else {
        gs.accel = edge_accel();
        gs.accel.name = "edge-sg2";
        gs.accel.sg2_bytes = 4 * kMiB;
        gs.accel.sg2_bw = 200e9;
    }
    const ModelConfig model = model_by_name(config.model);
    gs.dims.batch = config.batch;
    gs.dims.heads = model.num_heads;
    gs.dims.q_len = config.decode ? 1 : config.seq_len;
    gs.dims.kv_len = config.seq_len;
    gs.dims.head_dim = model.head_dim();
    gs.dims.kv_heads = model.kv_heads();
    gs.dims.decode = config.decode;

    gs.opt.quick = true;
    switch (config.style) {
      case GoldenStyle::kFlat:
        gs.opt.fused = true;
        break;
      case GoldenStyle::kBaselineFull:
        gs.opt.fused = false;
        break;
      case GoldenStyle::kBaselineSerialized:
        gs.opt.fused = false;
        gs.opt.baseline_overlap = BaselineOverlap::kSerialized;
        break;
      case GoldenStyle::kPipelined:
        gs.opt.styles = {"pipelined"};
        break;
      case GoldenStyle::kFlash:
        gs.opt.styles = {"flash"};
        break;
      case GoldenStyle::kScaleOutSequence:
        gs.dims = shard_attention_dims(gs.dims, ShardAxis::kSequence,
                                       config.devices);
        gs.opt.fused = true;
        break;
      case GoldenStyle::kScaleOutHead:
        gs.dims = shard_attention_dims(gs.dims, ShardAxis::kHead,
                                       config.devices);
        gs.opt.fused = true;
        break;
    }
    return gs;
}

TEST(AnalyticVerified, ExactParityOnGoldenCatalog)
{
    const std::vector<GoldenConfig>& catalog = golden_configs();
    ASSERT_EQ(catalog.size(), 12u);
    for (const GoldenConfig& config : catalog) {
        SCOPED_TRACE(config.id);
        GoldenSearch gs = golden_search(config);
        gs.opt.mode = SearchMode::kAnalyticVerified;
        const AttentionSearchResult result =
            search_attention(gs.accel, gs.dims, gs.opt);
        ASSERT_TRUE(result.found);
        ASSERT_TRUE(result.verified);
        EXPECT_EQ(result.best.objective_value(gs.opt.objective),
                  result.verified_exhaustive_value)
            << "analytic pick missed the exhaustive optimum";
        EXPECT_EQ(result.verified_ratio, 1.0);
    }
}

} // namespace
} // namespace flat
