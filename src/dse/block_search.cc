#include "dse/block_search.h"

#include <map>
#include <tuple>
#include <utility>

#include "common/status.h"

namespace flat {

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

    // Identical GEMM shapes share one search: Q/K/V/O are the same
    // activation-weight GEMM under MHA (GQA shrinks K/V), so the memo
    // typically collapses four searches into one. The key is the whole
    // shape, so a reused result is the one its own search would pick.
    std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                        std::uint64_t, OperandKind, OperandKind>,
             OperatorSearchResult>
        gemm_memo;

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
        const GemmShape& shape = op.gemm;
        const auto key = std::make_tuple(shape.m, shape.k, shape.n,
                                         shape.instances, shape.a_kind,
                                         shape.b_kind);
        auto it = gemm_memo.find(key);
        const bool reused = it != gemm_memo.end();
        if (!reused) {
            it = gemm_memo
                     .emplace(key,
                              search_operator(accel, op, options.op))
                     .first;
        }
        const OperatorSearchResult& best = it->second;
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
