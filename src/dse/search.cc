#include "dse/search.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <iomanip>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/run_journal.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "costmodel/gemm_engine.h"
#include "dse/analytic_mapper.h"
#include "dse/search_internal.h"

namespace flat {
namespace {

/**
 * How far the pruned sweep's incumbent trails the schedule (see
 * search_attention): slice k prunes against slices 0 and up to
 * k - kLagSlices, so at most this many slices run at once. Shorter lags
 * prune more at one thread but make workers wait; longer ones prune
 * less. A constant, not an option, because the evaluated/pruned split
 * depends on it; EXPERIMENTS.md ("Search pruning") has the timings it
 * was chosen from.
 */
constexpr std::size_t kLagSlices = 8;

} // namespace

namespace detail {

CandidateOptions
effective_candidates(const CandidateOptions& base, bool quick)
{
    if (!quick) {
        return base;
    }
    CandidateOptions opt = base;
    if (opt.tile_budget_fractions.size() > 2) {
        opt.tile_budget_fractions = {1.0 / 4, 1.0 / 2};
    }
    if (opt.loop_orders.empty()) {
        opt.loop_orders = {LoopOrder::kMNK};
    }
    if (opt.stationarities.empty()) {
        // Output-stationary plus input-stationary: the latter is needed
        // to fill wide arrays when the GEMM's n dimension is small
        // (e.g. Attend with n = dk < array columns).
        opt.stationarities = {Stationarity::kOutputStationary,
                              Stationarity::kInputStationary};
    }
    return opt;
}

std::vector<const ExecutionStyle*>
resolve_styles(const AttentionSearchOptions& options)
{
    std::vector<const ExecutionStyle*> out;
    const auto push = [&](const ExecutionStyle* style) {
        if (std::find(out.begin(), out.end(), style) == out.end()) {
            out.push_back(style);
        }
    };
    if (options.styles.empty()) {
        push(&default_execution_style(options.fused));
        return out;
    }
    for (const std::string& name : options.styles) {
        if (to_lower(name) == "all") {
            for (const ExecutionStyle* style : execution_styles()) {
                push(style);
            }
            continue;
        }
        const ExecutionStyle* style = find_execution_style(name);
        FLAT_CHECK(style != nullptr,
                   "unknown execution style '"
                       << name << "' (see --list-styles for the "
                       << "registered ids)");
        push(style);
    }
    return out;
}

SlicedSpace
build_sliced_space(const AccelConfig& accel, const AttentionDims& dims,
                   const AttentionSearchOptions& options)
{
    const CandidateOptions cand =
        effective_candidates(options.candidates, options.quick);
    const std::vector<const ExecutionStyle*> styles =
        resolve_styles(options);

    // One raw cross-loop menu covering every granularity; each style
    // keeps the crosses its admits() accepts. The shared menu keeps
    // the slice order (and hence journal keys and the reduction order)
    // independent of which styles run.
    std::vector<CrossLoop> crosses;
    if (options.fixed_cross.has_value()) {
        crosses.push_back(*options.fixed_cross);
    } else {
        crosses = cross_loop_candidates(accel, dims.q_len, cand,
                                        /*include_row=*/true);
        const std::vector<CrossLoop> columns = column_cross_candidates(
            accel, dims.q_len, dims.kv_len, cand);
        crosses.insert(crosses.end(), columns.begin(), columns.end());
    }

    SlicedSpace space;
    if (options.fixed_flags.has_value()) {
        space.flag_sets.push_back(*options.fixed_flags);
    } else {
        space.flag_sets = stage_flag_candidates(cand);
    }
    space.orders = loop_order_candidates(cand);
    FLAT_CHECK(space.orders.size() <= kMaxLoopOrders,
               "the search enumerates " << space.orders.size()
                                        << " loop orders; it takes at most "
                                        << kMaxLoopOrders);
    const std::vector<Stationarity> stats = stationarity_candidates(cand);

    const auto menu = [&](const GemmShape& shape, Stationarity stat)
        -> const std::vector<L2Tile>* {
        const auto key = std::make_tuple(shape.m, shape.k, shape.n,
                                         static_cast<int>(stat));
        auto it = space.tile_menus.find(key);
        if (it == space.tile_menus.end()) {
            it = space.tile_menus
                     .emplace(key,
                              tile_candidates(accel, shape, cand, stat))
                     .first;
        }
        return &it->second;
    };

    // Cost tables per (shape, stationarity, array): every slice with
    // that key reads the same records. Building one validates every tile
    // of its menu (model_gemm_compute checks shape and tile), so the
    // search's blocks need not.
    const auto costs = [&](const AccelConfig& on, const GemmShape& shape,
                           Stationarity stat)
        -> const std::vector<GemmSliceCost>* {
        const auto key =
            std::make_tuple(shape.m, shape.k, shape.n,
                            static_cast<int>(stat), on.pe_rows, on.pe_cols);
        auto it = space.cost_tables.find(key);
        if (it == space.cost_tables.end()) {
            std::vector<GemmSliceCost> table;
            const std::vector<L2Tile>& tiles = *menu(shape, stat);
            table.reserve(tiles.size() * space.orders.size());
            for (const L2Tile& tile : tiles) {
                for (const LoopOrder order : space.orders) {
                    table.push_back({model_gemm_compute(on, shape, tile,
                                                        order, stat),
                                     stage_reuse(shape, tile, order)});
                }
            }
            it = space.cost_tables.emplace(key, std::move(table)).first;
        }
        return &it->second;
    };

    for (const ExecutionStyle* style : styles) {
        // A style that runs its stages on part of the array is bounded
        // by their cycles there, not on the whole array.
        const AccelConfig stage_accel = style->stage_array(accel);
        for (const CrossLoop& cross : crosses) {
            if (!style->admits(accel, dims, cross)) {
                continue; // illegal granularity (or capacity) for it
            }
            // Validates the cross loop once for all its slices. C-Gran
            // streams kv in column blocks, so its stage shapes cover
            // one block.
            const AttentionSlicePlan part =
                make_slice_plan(accel, dims, cross);
            const GemmShape& logit_shape = part.logit_shape;
            const GemmShape& attend_shape = part.attend_shape;
            for (Stationarity stat_l : stats) {
                for (Stationarity stat_a : stats) {
                    SearchSlice slice;
                    slice.style = style;
                    slice.cross = cross;
                    slice.part = part;
                    slice.stat_logit = stat_l;
                    slice.stat_attend = stat_a;
                    slice.tiles_logit = menu(logit_shape, stat_l);
                    slice.tiles_attend = menu(attend_shape, stat_a);
                    slice.logit_costs = costs(accel, logit_shape, stat_l);
                    slice.attend_costs =
                        costs(accel, attend_shape, stat_a);
                    slice.logit_stage_costs =
                        costs(stage_accel, logit_shape, stat_l);
                    slice.attend_stage_costs =
                        costs(stage_accel, attend_shape, stat_a);
                    space.slices.push_back(slice);
                }
            }
        }
    }
    return space;
}

void
bind_order_classes(SlicedSpace& space)
{
    static_assert(sizeof(GemmSliceCost) ==
                      sizeof(GemmComputeCost) + sizeof(StageReuse) &&
                  sizeof(GemmComputeCost) == 6 * 8 &&
                  sizeof(StageReuse) == 4 * 8,
                  "the order classes compare records byte for byte, so "
                  "GemmSliceCost must have no padding");
    const std::size_t n = space.orders.size();
    const auto classes = [&](const std::vector<GemmSliceCost>* whole,
                             const std::vector<GemmSliceCost>* stage)
        -> const std::vector<std::uint8_t>* {
        const auto [it, fresh] =
            space.order_classes.try_emplace({whole, stage});
        if (fresh) {
            const auto same = [&](std::size_t i, std::size_t j) {
                return std::memcmp(&(*whole)[i], &(*whole)[j],
                                   sizeof(GemmSliceCost)) == 0 &&
                       std::memcmp(&(*stage)[i], &(*stage)[j],
                                   sizeof(GemmSliceCost)) == 0;
            };
            std::vector<std::uint8_t>& first = it->second;
            first.resize(whole->size());
            for (std::size_t t = 0; t < whole->size(); t += n) {
                for (std::size_t o = 0; o < n; ++o) {
                    std::size_t f = 0;
                    while (!same(t + f, t + o)) {
                        ++f;
                    }
                    first[t + o] = static_cast<std::uint8_t>(f);
                }
            }
        }
        return &it->second;
    };
    for (SearchSlice& slice : space.slices) {
        slice.logit_order_class =
            classes(slice.logit_costs, slice.logit_stage_costs);
        slice.attend_order_class =
            classes(slice.attend_costs, slice.attend_stage_costs);
    }
}

/**
 * Visits every design point of @p slice in the deterministic serial
 * order. @p visit receives the dataflow plus the (tile, order) indices
 * of both stages (so callers can address per-slice caches).
 */
template <typename Visit>
void
for_each_slice_point(const SearchSlice& slice,
                     const std::vector<LoopOrder>& orders,
                     const std::vector<FusedStageFlags>& flag_sets,
                     Visit&& visit)
{
    // Loop orders vary innermost, as in the search's (tiles, flags)
    // blocks. Enumeration order is otherwise free — the search's total
    // order on candidates is self-consistent under any fixed order.
    const std::vector<L2Tile>& tiles_l = *slice.tiles_logit;
    const std::vector<L2Tile>& tiles_a = *slice.tiles_attend;
    for (std::size_t tl = 0; tl < tiles_l.size(); ++tl) {
        for (std::size_t ta = 0; ta < tiles_a.size(); ++ta) {
            for (const FusedStageFlags& flags : flag_sets) {
                for (std::size_t ol = 0; ol < orders.size(); ++ol) {
                    for (std::size_t oa = 0; oa < orders.size(); ++oa) {
                        FusedDataflow df;
                        df.cross = slice.cross;
                        df.l2_logit = tiles_l[tl];
                        df.order_logit = orders[ol];
                        df.stat_logit = slice.stat_logit;
                        df.l2_attend = tiles_a[ta];
                        df.order_attend = orders[oa];
                        df.stat_attend = slice.stat_attend;
                        df.stage = flags;
                        visit(df, tl, ta, ol, oa);
                    }
                }
            }
        }
    }
}

SliceBound
make_slice_bound(const AccelConfig& accel, const AttentionDims& dims,
                 const EnergyTable& energy_table, const SearchSlice& slice)
{
    SliceBound bound;
    bound.style = slice.style;
    // C-Gran's staged shapes cover one column block, so the per-slice
    // GEMM costs repeat per block: the plan's slice count has them.
    bound.slices_count = slice.part.slices;
    const double bpe = accel.bytes_per_element;
    const double bh =
        static_cast<double>(dims.batch) * static_cast<double>(dims.heads);
    const double inter_elems = bh * static_cast<double>(dims.q_len) *
                               static_cast<double>(dims.kv_len);
    bound.softmax_cycles = inter_elems / accel.sfu_lanes;
    // The plan's own cold-start fetch: its K bytes count one K/V head
    // per GQA query group. Counting per query head would lift the bound
    // above the modeled cycles and prune ties, or the optimum,
    // depending on schedule.
    bound.cold_cycles =
        (slice.part.q_bytes + slice.part.k_bytes) /
        (bound.slices_count > 0.0 ? bound.slices_count : 1.0) /
        accel.offchip_bytes_per_cycle();
    // Online-softmax rescale work: every column block after the first
    // rescales the output accumulator. The model ledgers at least this
    // much (partial passes round up there), so the bound stays below.
    const double rescale_elems =
        (slice.part.col_blocks - 1.0) * bh *
        static_cast<double>(dims.q_len) *
        static_cast<double>(dims.head_dim);
    bound.rescale_cycles = rescale_elems / accel.sfu_lanes;

    const double macs = static_cast<double>(attention_macs(dims));
    bound.fixed_energy_j = (macs * energy_table.mac_pj +
                            3.0 * macs * energy_table.sl_access_pj +
                            inter_elems * energy_table.sfu_op_pj +
                            rescale_elems * energy_table.sfu_op_pj) *
                           1e-12;
    // The softmax phase of the SG-staged styles ledgers one
    // intermediate pass in both SG directions on top of the array
    // streaming volume; flash keeps the intermediate in the register
    // tier and its hook returns zero.
    bound.inter_sg_bytes =
        slice.style->inter_sg_round_trip_bytes(inter_elems * bpe);
    bound.sg_pj_per_byte = energy_table.sg_pj_per_byte;
    bound.offchip_bytes_per_cycle = accel.offchip_bytes_per_cycle();

    bound.logit_costs = *slice.logit_costs;
    bound.attend_costs = *slice.attend_costs;
    bound.logit_stage_costs = *slice.logit_stage_costs;
    bound.attend_stage_costs = *slice.attend_stage_costs;
    return bound;
}

std::size_t
pair_candidates(const SearchSlice& slice, const SliceBound& bound,
                Objective objective, std::size_t tl, std::size_t ta,
                std::size_t n_orders, OrderCandidate* out,
                double& pair_bound)
{
    std::size_t n = 0;
    pair_bound = std::numeric_limits<double>::infinity();
    for (std::size_t ol = 0; ol < n_orders; ++ol) {
        const std::size_t li = tl * n_orders + ol;
        if ((*slice.logit_order_class)[li] != ol) {
            continue;
        }
        for (std::size_t oa = 0; oa < n_orders; ++oa) {
            const std::size_t ai = ta * n_orders + oa;
            if ((*slice.attend_order_class)[ai] != oa) {
                continue;
            }
            OrderCandidate& c = out[n++];
            c.ol = ol;
            c.oa = oa;
            c.cycles = bound.compute_cycles(li, ai);
            c.energy = objective == Objective::kRuntime
                           ? 0.0
                           : bound.energy_bound(li, ai);
            c.bound =
                SliceBound::objective_bound(objective, c.cycles, c.energy);
            pair_bound = std::min(pair_bound, c.bound);
        }
    }
    return n;
}

std::string
search_space_canonical(const AccelConfig& accel,
                       const AttentionDims& dims,
                       const AttentionSearchOptions& options)
{
    std::ostringstream text;
    text << std::setprecision(std::numeric_limits<double>::max_digits10)
         << accel.canonical() << "dims " << dims.batch << ' '
         << dims.heads << ' ' << dims.q_len << ' ' << dims.kv_len << ' '
         << dims.head_dim << " kvh=" << dims.kv_heads_eff()
         << " decode=" << dims.decode << '\n';
    text << "opt obj=" << static_cast<int>(options.objective)
         << " fused=" << options.fused << " cross="
         << (options.fixed_cross.has_value() ? options.fixed_cross->tag()
                                             : std::string("*"))
         << " flags="
         << (options.fixed_flags.has_value()
                 ? std::to_string(
                       FusedStageFlags::encode(*options.fixed_flags))
                 : std::string("*"))
         << " quick=" << options.quick
         << " overlap=" << static_cast<int>(options.baseline_overlap)
         << " mode=" << to_string(options.mode) << " styles=";
    for (const ExecutionStyle* style : resolve_styles(options)) {
        text << style->id() << ',';
    }
    text << '\n';
    const CandidateOptions& cand = options.candidates;
    text << "cand budgets=";
    for (const double f : cand.tile_budget_fractions) {
        text << f << ',';
    }
    text << " rows=";
    for (const std::uint64_t r : cand.row_candidates) {
        text << r << ',';
    }
    text << " cols=";
    for (const std::uint64_t c : cand.col_candidates) {
        text << c << ',';
    }
    text << " orders=";
    for (const LoopOrder o : cand.loop_orders) {
        text << static_cast<int>(o) << ',';
    }
    text << " stats=";
    for (const Stationarity s : cand.stationarities) {
        text << static_cast<int>(s) << ',';
    }
    text << " flags=" << cand.sweep_stage_flags;
    return text.str();
}

std::string
search_scope_key(const AccelConfig& accel, const AttentionDims& dims,
                 const AttentionSearchOptions& options)
{
    return strprintf("search:%016llx",
                     static_cast<unsigned long long>(fnv1a64(
                         search_space_canonical(accel, dims, options))));
}

std::string
slice_journal_key(const SearchSlice& slice)
{
    return strprintf("%s/%s/%s/%s", slice.style->id(),
                     slice.cross.tag().c_str(),
                     to_string(slice.stat_logit).c_str(),
                     to_string(slice.stat_attend).c_str());
}

std::string
candidate_tag(const ExecutionStyle& style, const FusedDataflow& df)
{
    std::string tag = style.id();
    tag += '/';
    tag += df.tag();
    return tag;
}

std::string_view
format_candidate_tag(char (&buffer)[kCandidateTagChars],
                     const ExecutionStyle& style, const FusedDataflow& df)
{
    const std::size_t id_chars = std::strlen(style.id());
    FLAT_ASSERT(id_chars < kCandidateTagChars - FusedDataflow::kMaxTagChars,
                "style id '" << style.id() << "' is too long for a tag");
    char* out = std::copy_n(style.id(), id_chars, buffer);
    *out++ = '/';
    return {buffer, static_cast<std::size_t>(df.write_tag(out) - buffer)};
}

std::string
encode_slice_outcome(const SliceOutcome& out)
{
    JsonWriter json;
    json.begin_object();
    json.field("found", out.found);
    json.field("evaluated", static_cast<std::uint64_t>(out.evaluated));
    json.field("pruned", static_cast<std::uint64_t>(out.pruned));
    if (out.found) {
        const FusedDataflow& df = out.best.dataflow;
        json.key("df");
        json.begin_object();
        json.field("gran",
                   static_cast<std::uint64_t>(df.cross.granularity));
        json.field("rows", df.cross.rows);
        json.field("cols", df.cross.cols);
        json.field("lm", df.l2_logit.m);
        json.field("lk", df.l2_logit.k);
        json.field("ln", df.l2_logit.n);
        json.field("lo", static_cast<std::uint64_t>(df.order_logit));
        json.field("am", df.l2_attend.m);
        json.field("ak", df.l2_attend.k);
        json.field("an", df.l2_attend.n);
        json.field("ao", static_cast<std::uint64_t>(df.order_attend));
        json.field("stage", static_cast<std::uint64_t>(
                                FusedStageFlags::encode(df.stage)));
        json.end_object();
    }
    json.end_object();
    return json.str();
}

SliceOutcome
restore_slice_outcome(const JsonValue& data, const AccelConfig& accel,
                      const AttentionDims& dims,
                      const AttentionSearchOptions& options,
                      const SlicedSpace& space, const SearchSlice& slice,
                      const EnergyTable& energy_table)
{
    const std::string key = slice_journal_key(slice);
    SliceOutcome out;
    out.evaluated =
        static_cast<std::size_t>(data.member_u64("evaluated"));
    out.pruned = static_cast<std::size_t>(data.member_u64("pruned"));
    // Compared as a difference: a huge tampered count must not wrap
    // the sum back onto the slice size.
    const std::size_t points = space.slice_points(slice);
    FLAT_CHECK(out.evaluated <= points &&
                   out.pruned == points - out.evaluated,
               "journaled slice " << key << " audits " << out.evaluated
                                  << " evaluated + " << out.pruned
                                  << " pruned points, but the slice has "
                                  << points);
    if (!data.member_bool("found")) {
        return out;
    }
    const JsonValue* df_json = data.find("df");
    FLAT_CHECK(df_json != nullptr,
               "journaled slice record has found=true but no dataflow");
    FusedDataflow df;
    df.cross.granularity =
        static_cast<Granularity>(df_json->member_u64("gran"));
    df.cross.rows = df_json->member_u64("rows");
    df.cross.cols = df_json->member_u64("cols");
    df.l2_logit.m = df_json->member_u64("lm");
    df.l2_logit.k = df_json->member_u64("lk");
    df.l2_logit.n = df_json->member_u64("ln");
    df.order_logit =
        static_cast<LoopOrder>(df_json->member_u64("lo"));
    df.stat_logit = slice.stat_logit;
    df.l2_attend.m = df_json->member_u64("am");
    df.l2_attend.k = df_json->member_u64("ak");
    df.l2_attend.n = df_json->member_u64("an");
    df.order_attend =
        static_cast<LoopOrder>(df_json->member_u64("ao"));
    df.stat_attend = slice.stat_attend;
    const std::uint64_t stage = df_json->member_u64("stage");

    // The winner must be a point of this slice: the record key names
    // the cross loop and stationarities, the space fixes the rest.
    const auto in_menu = [](const std::vector<L2Tile>& menu,
                            const L2Tile& tile) {
        return std::any_of(menu.begin(), menu.end(), [&](const L2Tile& t) {
            return t.m == tile.m && t.k == tile.k && t.n == tile.n;
        });
    };
    const auto has_order = [&](LoopOrder order) {
        return std::find(space.orders.begin(), space.orders.end(),
                         order) != space.orders.end();
    };
    const bool member =
        df.cross.granularity == slice.cross.granularity &&
        df.cross.rows == slice.cross.rows &&
        df.cross.cols == slice.cross.cols &&
        in_menu(*slice.tiles_logit, df.l2_logit) &&
        in_menu(*slice.tiles_attend, df.l2_attend) &&
        has_order(df.order_logit) && has_order(df.order_attend) &&
        std::any_of(space.flag_sets.begin(), space.flag_sets.end(),
                    [&](const FusedStageFlags& flags) {
                        return FusedStageFlags::encode(flags) == stage;
                    });
    FLAT_CHECK(member, "journaled slice "
                           << key
                           << " names a winning dataflow outside the "
                              "slice (cross loop, tiles, loop orders or "
                              "staging flags)");
    df.stage = FusedStageFlags::decode(static_cast<std::uint32_t>(stage));

    out.best.dataflow = df;
    out.best.style = slice.style;
    out.best.cost = model_attention(*slice.style, accel, dims, df,
                                    options.baseline_overlap);
    out.best.energy_j =
        estimate_energy(energy_table, out.best.cost.activity).total();
    out.value = objective_value(options.objective, out.best.cost.cycles,
                                out.best.energy_j);
    out.tag = candidate_tag(*slice.style, df);
    out.found = true;
    return out;
}

void
SliceSearch::journal_slice(const AttentionSearchOptions& options,
                           std::size_t si) const
{
    if (options.journal != nullptr) {
        options.journal->append(journal_scope,
                                slice_journal_key(space.slices[si]),
                                encode_slice_outcome(outcomes[si]));
    }
}

SliceSearch
prepare_slice_search(const AccelConfig& accel, const AttentionDims& dims,
                     const AttentionSearchOptions& options,
                     const EnergyTable& energy_table)
{
    SliceSearch search;
    search.space = build_sliced_space(accel, dims, options);
    const SlicedSpace& space = search.space;
    const std::size_t n = space.slices.size();

    // Per-slice pruning bounds: a handful of arithmetic over the
    // space's cost tables each, cheaper inline than a wake of the pool.
    search.bounds.reserve(n);
    for (const SearchSlice& slice : space.slices) {
        search.bounds.push_back(
            make_slice_bound(accel, dims, energy_table, slice));
    }

    // A slice's priority is its best compute lower bound: the sweep
    // schedules by it and the mapper also skips whole slices on it.
    search.priority.resize(n);
    for (std::size_t si = 0; si < n; ++si) {
        const SliceBound& bound = search.bounds[si];
        double best_lb = std::numeric_limits<double>::infinity();
        for (std::size_t li = 0; li < bound.logit_costs.size(); ++li) {
            for (std::size_t ai = 0; ai < bound.attend_costs.size();
                 ++ai) {
                best_lb = std::min(
                    best_lb,
                    bound.lower_bound(options.objective, li, ai));
            }
        }
        search.priority[si] = best_lb;
    }

    // Checkpoint restore: slices already in the journal are rebuilt
    // instead of searched. The scope key carries the search mode, so
    // sweep and mapper journals never mix.
    search.outcomes.resize(n);
    std::vector<char> restored(n, 0);
    if (options.journal != nullptr) {
        search.journal_scope = search_scope_key(accel, dims, options);
        for (std::size_t si = 0; si < n; ++si) {
            const JsonValue* rec = options.journal->find(
                search.journal_scope, slice_journal_key(space.slices[si]));
            if (rec == nullptr) {
                continue;
            }
            SliceOutcome& out = search.outcomes[si];
            out = restore_slice_outcome(*rec, accel, dims, options, space,
                                        space.slices[si], energy_table);
            restored[si] = 1;
            search.restored_best = std::min(search.restored_best,
                                            out.value);
        }
    }

    search.schedule.reserve(n);
    for (std::size_t si = 0; si < n; ++si) {
        if (restored[si] == 0) {
            search.schedule.push_back(si);
        }
    }
    std::stable_sort(search.schedule.begin(), search.schedule.end(),
                     [&](std::size_t a, std::size_t b) {
                         return search.priority[a] < search.priority[b];
                     });
    return search;
}

AttentionSearchResult
finish_slice_search(const SliceSearch& search,
                    const AttentionSearchOptions& options)
{
    if (options.journal != nullptr) {
        options.journal->flush();
    }
    if (options.cancel != nullptr) {
        options.cancel->poll(); // throws CancelledError when tripped
    }

    AttentionSearchResult result;
    double best_value = std::numeric_limits<double>::infinity();
    std::string best_tag;
    for (const SliceOutcome& out : search.outcomes) {
        result.evaluated += out.evaluated;
        result.pruned += out.pruned;
        if (!out.found) {
            continue;
        }
        if (!result.found ||
            improves(out.value, out.tag, best_value, best_tag)) {
            best_value = out.value;
            best_tag = out.tag;
            result.best = out.best;
            result.found = true;
        }
    }
    FLAT_CHECK(result.found, "attention DSE evaluated an empty space");
    return result;
}

AttentionBatchEvaluator&
worker_evaluator()
{
    thread_local AttentionBatchEvaluator batch;
    return batch;
}

void
price_operator_lanes(const AccelConfig& accel, const Operator& op,
                     const OperatorSearchOptions& options,
                     std::vector<OperatorDataflow>& candidates,
                     TimelineBatch& batch)
{
    const CandidateOptions cand =
        effective_candidates(options.candidates, options.quick);
    const std::vector<LoopOrder> orders = loop_order_candidates(cand);
    const GemmShape& shape = op.gemm;

    // L3 staging combinations for a single operator: none, or any of the
    // 8 per-tensor subsets (only meaningful when allowed).
    std::vector<L3StageFlags> l3_sets;
    l3_sets.push_back(L3StageFlags{});
    if (options.allow_l3) {
        for (std::uint32_t code = 1; code < 8; ++code) {
            l3_sets.push_back(L3StageFlags{(code & 1) != 0,
                                           (code & 2) != 0,
                                           (code & 4) != 0});
        }
    }

    // Every candidate's timeline has the same four-phase skeleton, so
    // all of them are lanes of one batch.
    thread_local std::vector<Phase> skeleton;
    gemm_operator_skeleton(skeleton, op);
    batch.configure(skeleton, OverlapKind::kOverlapped);
    candidates.clear();

    OperatorDataflow df;
    df.cross = {Granularity::kMulti, 0};
    std::vector<double> resident(l3_sets.size());
    for (const Stationarity stat : stationarity_candidates(cand)) {
        df.stationarity = stat;
        for (const L2Tile& tile :
             tile_candidates(accel, shape, cand, stat)) {
            if (options.cancel != nullptr) {
                options.cancel->poll();
            }
            df.l2 = tile;
            // The live footprint depends on the tile and the L3 subset,
            // not on the loop order.
            for (std::size_t s = 0; s < l3_sets.size(); ++s) {
                df.l3 = l3_sets[s];
                resident[s] = gemm_resident_fraction(
                    accel, operator_live_footprint(df, shape,
                                                   accel.bytes_per_element));
            }
            for (const LoopOrder order : orders) {
                df.order = order;
                // One record per (stationarity, tile, order) serves
                // every L3 subset.
                const GemmSliceCost record{
                    model_gemm_compute(accel, shape, tile, order, stat),
                    stage_reuse(shape, tile, order)};
                for (std::size_t s = 0; s < l3_sets.size(); ++s) {
                    df.l3 = l3_sets[s];
                    candidates.push_back(df);
                    gemm_operator_values(batch.add_lane(), accel, op, df,
                                         record, resident[s]);
                }
            }
        }
    }
    batch.evaluate(accel);
}

} // namespace detail

using namespace detail;

double
objective_value(Objective objective, double cycles, double energy_j)
{
    switch (objective) {
      case Objective::kRuntime:
        return cycles;
      case Objective::kEnergy:
        return energy_j;
      case Objective::kEdp:
        return cycles * energy_j;
    }
    return cycles;
}

Objective
parse_objective(const std::string& name)
{
    const std::string key = to_lower(name);
    if (key == "runtime") {
        return Objective::kRuntime;
    }
    if (key == "energy") {
        return Objective::kEnergy;
    }
    if (key == "edp") {
        return Objective::kEdp;
    }
    FLAT_FAIL("unknown objective '" << name
                                    << "' (runtime | energy | edp)");
}

SearchMode
parse_search_mode(const std::string& name)
{
    std::string key = to_lower(name);
    std::replace(key.begin(), key.end(), '_', '-');
    if (key == "exhaustive") {
        return SearchMode::kExhaustive;
    }
    if (key == "analytic") {
        return SearchMode::kAnalytic;
    }
    if (key == "analytic-verified") {
        return SearchMode::kAnalyticVerified;
    }
    FLAT_FAIL("unknown search mode '"
              << name << "' (exhaustive | analytic | analytic-verified)");
}

const char*
to_string(SearchMode mode)
{
    switch (mode) {
      case SearchMode::kExhaustive:
        return "exhaustive";
      case SearchMode::kAnalytic:
        return "analytic";
      case SearchMode::kAnalyticVerified:
        return "analytic-verified";
    }
    return "exhaustive";
}

double
DsePoint::objective_value(Objective objective) const
{
    return flat::objective_value(objective, cost.cycles, energy_j);
}

AttentionSearchResult
search_attention(const AccelConfig& accel, const AttentionDims& dims,
                 const AttentionSearchOptions& options)
{
    // The fault probe guards the public entry, whatever the mode: the
    // robustness suite injects here to exercise every caller's error
    // and cancellation paths, and those callers don't know (or care)
    // which mode prices their search.
    FLAT_FAULT_POINT("dse.search_attention");
    if (options.mode != SearchMode::kExhaustive) {
        // Same space, same deterministic reduction, ~2 orders of
        // magnitude fewer exact evaluations; kAnalyticVerified also
        // runs the exhaustive sweep (through this entry, with the mode
        // reset) and reports the objective ratio.
        return analytic_search_attention(accel, dims, options);
    }
    accel.validate();
    dims.validate();
    const EnergyTable energy_table = EnergyTable::for_accel(accel);
    SliceSearch search =
        prepare_slice_search(accel, dims, options, energy_table);
    bind_order_classes(search.space);
    const SlicedSpace& space = search.space;

    // Walks slice si. With pruning on, a point is skipped when its
    // bound exceeds the lower of `incumbent` and the slice's own best
    // — strictly, so a skipped point is strictly worse than a value
    // the search has reached and can never win, not even on the tag
    // tie-break. The test runs at three levels, each exact:
    //  - a tile pair is skipped when the least compute bound of its
    //    points exceeds the best at the pair's start: the best only
    //    falls, so every point would fail its own compute test;
    //  - a (tiles, flags) block prices its floor once (BlockFloor);
    //  - a point then costs a comparison and one addition.
    // Only the first loop order of each order class is priced at all
    // (pair_candidates()); the later members are counted as pruned.
    // Unpruned, every loop-order pair of every block is priced.
    const std::size_t n_orders = space.orders.size();
    std::vector<OrderCandidate> all_orders;
    for (std::size_t ol = 0; ol < n_orders; ++ol) {
        for (std::size_t oa = 0; oa < n_orders; ++oa) {
            all_orders.push_back({ol, oa});
        }
    }
    const auto walk = [&](std::size_t si, double incumbent) {
        const SearchSlice& slice = space.slices[si];
        SliceOutcome& out = search.outcomes[si];
        const SliceBound& bound = search.bounds[si];
        const std::size_t block_points = n_orders * n_orders;
        const std::size_t pair_points =
            space.flag_sets.size() * block_points;
        const std::span<const GemmSliceCost> logit_costs =
            bound.logit_costs;
        const std::span<const GemmSliceCost> attend_costs =
            bound.attend_costs;
        // The floor bounds cycles, which the energy bound ignores.
        const bool floors =
            options.prune && options.objective != Objective::kEnergy;
        // Worker-lifetime evaluation state: the pool threads are
        // persistent, so the batch evaluator reaches allocation-free
        // steady state across slices AND searches. bind_slice() takes
        // the slice part of every plan; begin() names a block, whose
        // part the table holds once any slice has bound it.
        AttentionBatchEvaluator& batch = worker_evaluator();
        batch.bind_slice(accel, dims, slice.cross, *slice.style,
                         options.baseline_overlap);

        // Batched walk of the slice: each (tiles, flags) block — its
        // loop-order pairs share a plan base — is one batch, evaluated
        // in one pass and folded in enumeration order once the block is
        // buffered. Pruning happens at add time against the slice
        // incumbent as of the previous block.
        const std::vector<L2Tile>& tiles_l = *slice.tiles_logit;
        const std::vector<L2Tile>& tiles_a = *slice.tiles_attend;
        FusedDataflow df;
        df.cross = slice.cross;
        df.stat_logit = slice.stat_logit;
        df.stat_attend = slice.stat_attend;
        OrderCandidate pruned_orders[kMaxLoopOrders * kMaxLoopOrders];
        BlockFloor floor;

        for (std::size_t tl = 0; tl < tiles_l.size(); ++tl) {
            df.l2_logit = tiles_l[tl];
            for (std::size_t ta = 0; ta < tiles_a.size(); ++ta) {
                df.l2_attend = tiles_a[ta];
                std::span<const OrderCandidate> candidates = all_orders;
                if (options.prune) {
                    double pair_bound = 0.0;
                    candidates = {pruned_orders,
                                  pair_candidates(slice, bound,
                                                  options.objective, tl,
                                                  ta, n_orders,
                                                  pruned_orders,
                                                  pair_bound)};
                    if (pair_bound > std::min(incumbent, out.value)) {
                        out.pruned += pair_points;
                        continue;
                    }
                }
                for (const FusedStageFlags& flags : space.flag_sets) {
                    if (options.cancel != nullptr &&
                        options.cancel->cancelled()) {
                        // Abandon the slice mid-walk: its partial
                        // outcome is never journaled, and
                        // finish_slice_search() turns the cancellation
                        // into CancelledError.
                        return;
                    }
                    const double best = std::min(incumbent, out.value);
                    df.stage = flags;
                    batch.begin(df);
                    bool floored = false;
                    for (const OrderCandidate& c : candidates) {
                        if (options.prune && c.bound > best) {
                            continue;
                        }
                        if (floors) {
                            if (!floored) {
                                bound.block_floor(floor, batch.dram_split(),
                                                  tl, ta, n_orders);
                                floored = true;
                            }
                            if (SliceBound::objective_bound(
                                    options.objective,
                                    std::max(c.cycles,
                                             floor.cycles(c.ol, c.oa)),
                                    c.energy) > best) {
                                continue;
                            }
                        }
                        batch.add(space.orders[c.ol], space.orders[c.oa],
                                  logit_costs[tl * n_orders + c.ol],
                                  attend_costs[ta * n_orders + c.oa]);
                    }
                    out.pruned += block_points - batch.lanes();
                    batch.evaluate();
                    for (std::size_t i = 0; i < batch.lanes(); ++i) {
                        fold_lane(batch, i, options.objective,
                                  energy_table, out);
                    }
                }
            }
        }
        // Workers journal their own complete slices, so a crash loses
        // at most the slices in flight.
        search.journal_slice(options, si);
    };

    // Thread-invariant incumbent: pruned, slice k of the schedule
    // prunes against the best of the restored slices and of schedule
    // slices 0 .. max(0, k - kLagSlices), plus its own. The first slice
    // (best bound, usually the best value) reaches every later one, and
    // the rest trail by kLagSlices. That value depends on the schedule
    // alone, so the evaluated/pruned split, not just the result, is the
    // same at any thread count; a worker that claims slice k before
    // that prefix is done waits for it (parallel_for hands slices out
    // in order, so the prefix is always in flight). Unpruned, nothing
    // waits: one plain parallel_for.
    const std::vector<std::size_t>& schedule = search.schedule;
    const std::size_t n = schedule.size();
    std::mutex mutex;
    std::condition_variable advanced;
    std::vector<char> done(n, 0);
    std::vector<double> prefix_best(n); ///< best of restored + 0..j
    std::size_t complete = 0;           ///< slices [0, complete) done
    bool failed = false; ///< a walk threw: waiters must not block
    const auto finish = [&](std::size_t k) {
        const std::lock_guard<std::mutex> lock(mutex);
        done[k] = 1;
        for (; complete < n && done[complete] != 0; ++complete) {
            prefix_best[complete] = std::min(
                complete == 0 ? search.restored_best
                              : prefix_best[complete - 1],
                search.outcomes[schedule[complete]].value);
        }
        advanced.notify_all();
    };
    parallel_for(
        n, options.threads,
        [&](std::size_t k) {
            double incumbent = search.restored_best;
            if (options.prune && k > 0) {
                const std::size_t seen =
                    k > kLagSlices ? k - kLagSlices : 0;
                std::unique_lock<std::mutex> lock(mutex);
                advanced.wait(lock,
                              [&] { return failed || complete > seen; });
                if (failed) {
                    return; // the search rethrows the first error
                }
                incumbent = prefix_best[seen];
            }
            try {
                walk(schedule[k], incumbent);
            } catch (...) {
                {
                    const std::lock_guard<std::mutex> lock(mutex);
                    failed = true;
                }
                advanced.notify_all();
                throw;
            }
            finish(k);
        },
        /*grain=*/1, options.cancel);
    return finish_slice_search(search, options);
}

std::vector<DsePoint>
explore_attention(const AccelConfig& accel, const AttentionDims& dims,
                  const AttentionSearchOptions& options)
{
    accel.validate();
    dims.validate();
    const EnergyTable energy_table = EnergyTable::for_accel(accel);
    const SlicedSpace space = build_sliced_space(accel, dims, options);

    // Per-slice collection preserves the serial enumeration order when
    // concatenated.
    std::vector<std::vector<DsePoint>> per_slice(space.slices.size());
    parallel_for(
        space.slices.size(), options.threads, [&](std::size_t si) {
            const SearchSlice& slice = space.slices[si];
            std::vector<DsePoint>& local = per_slice[si];
            for_each_slice_point(
                slice, space.orders, space.flag_sets,
                [&](const FusedDataflow& df, std::size_t, std::size_t,
                    std::size_t, std::size_t) {
                    DsePoint point;
                    point.dataflow = df;
                    point.style = slice.style;
                    point.cost =
                        model_attention(*slice.style, accel, dims, df,
                                        options.baseline_overlap);
                    point.energy_j =
                        estimate_energy(energy_table,
                                        point.cost.activity)
                            .total();
                    local.push_back(std::move(point));
                });
        });

    std::vector<DsePoint> points;
    for (std::vector<DsePoint>& local : per_slice) {
        for (DsePoint& point : local) {
            points.push_back(std::move(point));
        }
    }
    return points;
}

OperatorSearchResult
search_operator(const AccelConfig& accel, const Operator& op,
                const OperatorSearchOptions& options)
{
    accel.validate();
    FLAT_CHECK(op.kind == OpKind::kGemm,
               op.name << ": operator DSE only covers GEMMs");

    // The batch and the candidate list live as long as the worker, as
    // in the L-A walk.
    thread_local TimelineBatch batch;
    thread_local std::vector<OperatorDataflow> candidates;
    detail::price_operator_lanes(accel, op, options, candidates, batch);

    // Enumeration order under the strict <: the first candidate with
    // the lowest objective wins.
    const EnergyTable energy_table = EnergyTable::for_accel(accel);
    OperatorSearchResult result;
    result.evaluated = candidates.size();
    double best_value = std::numeric_limits<double>::infinity();
    std::size_t best = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const TimelineBatch::LaneSummary& lane = batch.summary(i);
        const double value = objective_value(
            options.objective, lane.cycles,
            estimate_energy(energy_table, lane.activity).total());
        if (value < best_value) {
            best_value = value;
            best = i;
            result.found = true;
        }
    }
    FLAT_CHECK(result.found, "operator DSE evaluated an empty space");
    // The reference model prices the winner: the same skeleton and
    // values pass through evaluate_timeline(), so its numbers are the
    // lane's bit for bit.
    result.dataflow = candidates[best];
    result.cost = model_gemm_operator(accel, op, result.dataflow);
    result.energy_j =
        estimate_energy(energy_table, result.cost.activity).total();
    return result;
}

} // namespace flat
