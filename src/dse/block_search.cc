#include "dse/block_search.h"

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace flat {

namespace {

/** Appends the object representation of @p value to @p key. */
template <typename T>
void
append_raw(std::string& key, const T& value)
{
    key.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/** Appends a length-prefixed list, so adjacent lists cannot alias. */
template <typename T>
void
append_raw(std::string& key, const std::vector<T>& values)
{
    append_raw(key, values.size());
    for (const T& value : values) {
        append_raw(key, value);
    }
}

} // namespace

const OperatorSearchResult&
GemmSearchMemo::search(const AccelConfig& accel, const Operator& op,
                       const OperatorSearchOptions& options, bool& reused)
{
    // Identical GEMM shapes share one search: Q/K/V/O are the same
    // activation-weight GEMM under MHA (GQA shrinks K/V), and decode
    // steps repeat their projection/FC shapes at every context. The
    // key is the raw bytes of everything search_operator reads, so
    // equal keys mean bit-equal inputs.
    const GemmShape& shape = op.gemm;
    const CandidateOptions& cand = options.candidates;
    std::string key;
    for (const std::uint64_t dim :
         {shape.m, shape.k, shape.n, shape.instances}) {
        append_raw(key, dim);
    }
    append_raw(key, shape.a_kind);
    append_raw(key, shape.b_kind);
    append_raw(key, options.objective);
    append_raw(key, options.allow_l3);
    append_raw(key, options.quick);
    append_raw(key, cand.tile_budget_fractions);
    append_raw(key, cand.row_candidates);
    append_raw(key, cand.col_candidates);
    append_raw(key, cand.loop_orders);
    append_raw(key, cand.stationarities);
    append_raw(key, cand.sweep_stage_flags);
    append_raw(key, accel.pe_rows);
    append_raw(key, accel.pe_cols);
    for (const std::uint64_t bytes :
         {accel.sl_bytes, accel.sg_bytes, accel.sg2_bytes, accel.rf_bytes,
          accel.dram_bytes}) {
        append_raw(key, bytes);
    }
    for (const double rate : {accel.sg2_bw, accel.onchip_bw,
                              accel.offchip_bw, accel.clock_hz,
                              accel.sfu_lanes}) {
        append_raw(key, rate);
    }
    append_raw(key, accel.bytes_per_element);
    append_raw(key, accel.distribution_noc);
    append_raw(key, accel.reduction_noc);
    append_raw(key, accel.caps.flexible_intra_dataflow);
    append_raw(key, accel.caps.l3_tiling);
    append_raw(key, accel.caps.fused_execution);
    key += accel.name;

    auto it = results_.find(key);
    reused = it != results_.end();
    if (!reused) {
        it = results_
                 .emplace(std::move(key),
                          search_operator(accel, op, options))
                 .first;
    }
    return it->second;
}

BlockLayerPlan
search_attention_layer(const AccelConfig& accel, const Workload& workload,
                       const AttentionSearchOptions& options)
{
    const AttentionSearchResult la = search_attention(
        accel, AttentionDims::from_workload(workload), options);
    BlockLayerPlan layer;
    layer.name = "L-A";
    layer.attention = true;
    layer.category = OpCategory::kLogitAttend;
    layer.la = la.best;
    layer.cost = la.best.cost;
    layer.cycles = la.best.cost.cycles;
    layer.energy_j = la.best.energy_j;
    layer.evaluated = la.evaluated;
    layer.pruned = la.pruned;
    layer.verified = la.verified;
    layer.verified_ratio = la.verified_ratio;
    return layer;
}

BlockSearchResult
search_block(const AccelConfig& accel, const Workload& workload,
             const BlockSearchOptions& options)
{
    accel.validate();
    FLAT_CHECK(!workload.ops.empty(), "block search on an empty block");

    BlockSearchResult result;
    result.blocks = workload.scope_multiplier(Scope::kModel);

    GemmSearchMemo call_memo;
    GemmSearchMemo& memo =
        options.gemm_memo != nullptr ? *options.gemm_memo : call_memo;

    bool la_done = false;
    for (const Operator& op : workload.ops) {
        if (op.category == OpCategory::kLogitAttend ||
            op.category == OpCategory::kSoftmax) {
            if (la_done) {
                continue; // L, softmax, A are one fused layer
            }
            la_done = true;
            result.layers.push_back(
                search_attention_layer(accel, workload, options.attention));
            continue;
        }
        FLAT_CHECK(op.kind == OpKind::kGemm,
                   op.name << ": unexpected non-GEMM outside the L-A "
                           << "group");
        bool reused = false;
        const OperatorSearchResult& best =
            memo.search(accel, op, options.op, reused);
        BlockLayerPlan layer;
        layer.name = op.name;
        layer.category = op.category;
        layer.dataflow = best.dataflow;
        layer.cost = best.cost;
        layer.cycles = best.cost.cycles;
        layer.energy_j = best.energy_j;
        layer.evaluated = reused ? 0 : best.evaluated;
        layer.reused = reused;
        result.layers.push_back(std::move(layer));
    }

    for (const BlockLayerPlan& layer : result.layers) {
        result.block_cycles += layer.cycles;
        result.block_energy_j += layer.energy_j;
        result.evaluated += layer.evaluated;
        result.pruned += layer.pruned;
    }
    const double blocks = static_cast<double>(result.blocks);
    result.model_cycles = result.block_cycles * blocks;
    result.model_energy_j = result.block_energy_j * blocks;
    return result;
}

} // namespace flat
