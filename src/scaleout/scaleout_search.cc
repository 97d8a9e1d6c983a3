#include "scaleout/scaleout_search.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>

#include "common/cancellation.h"
#include "common/status.h"
#include "energy/energy_model.h"

namespace flat {
namespace {

/** Axis enumeration order — also the deterministic tie-break order. */
constexpr ShardAxis kAxisOrder[] = {ShardAxis::kBatch, ShardAxis::kHead,
                                    ShardAxis::kSequence};

bool
axis_feasible(const AttentionDims& dims, ShardAxis axis,
              std::uint32_t devices)
{
    const std::uint64_t d = devices;
    switch (axis) {
      case ShardAxis::kBatch:
        return d <= dims.batch;
      case ShardAxis::kHead:
        return d <= dims.heads;
      case ShardAxis::kSequence:
        return d <= dims.q_len && d <= dims.kv_len;
      case ShardAxis::kAuto:
        return false;
    }
    return false;
}

} // namespace

double
ScaleOutSearchPoint::objective_value(Objective objective) const
{
    return flat::objective_value(objective, cost.cycles, total_energy_j);
}

ScaleOutSearchResult
search_scaleout(const AccelConfig& accel, const AttentionDims& dims,
                const ScaleOutSearchOptions& opt)
{
    dims.validate();
    opt.fabric.validate();

    std::vector<std::uint32_t> device_counts = opt.device_counts;
    if (device_counts.empty()) {
        device_counts.push_back(opt.fabric.devices);
    }
    std::sort(device_counts.begin(), device_counts.end());
    device_counts.erase(
        std::unique(device_counts.begin(), device_counts.end()),
        device_counts.end());

    std::vector<ShardAxis> axes;
    if (opt.fabric.axis == ShardAxis::kAuto) {
        axes.assign(std::begin(kAxisOrder), std::end(kAxisOrder));
    } else {
        axes.push_back(opt.fabric.axis);
    }

    // The scale-out model prices the FLAT style, so the inner search
    // may only pick dataflows FLAT admits, whatever styles the caller
    // searches on a single device.
    AttentionSearchOptions inner = opt.attention;
    inner.fused = true;
    inner.styles.clear();

    const EnergyTable table = EnergyTable::for_accel(accel);

    // Different (devices, axis) points often shard to the SAME
    // per-device dims (ceil_div plateaus, degenerate axes), and the
    // level-1 search depends only on those dims — memoize it per call
    // to skip whole searches.
    std::map<std::array<std::uint64_t, 5>, AttentionSearchResult>
        inner_memo;
    const auto inner_search =
        [&](const AttentionDims& device_dims) -> const AttentionSearchResult& {
        const std::array<std::uint64_t, 5> key = {
            device_dims.batch, device_dims.heads, device_dims.q_len,
            device_dims.kv_len, device_dims.head_dim};
        auto it = inner_memo.find(key);
        if (it == inner_memo.end()) {
            it = inner_memo
                     .emplace(key,
                              search_attention(accel, device_dims, inner))
                     .first;
        }
        return it->second;
    };

    ScaleOutSearchResult out;
    double best_value = 0.0;
    for (const std::uint32_t devices : device_counts) {
        FLAT_CHECK(devices >= 1,
                   "scale-out needs at least one device per point");
        for (const ShardAxis axis : axes) {
            // Cooperative cancellation between (devices x axis) points;
            // the inner searches poll at finer granularity themselves
            // (and checkpoint completed slices via inner.journal).
            if (inner.cancel != nullptr) {
                inner.cancel->poll();
            }
            if (devices > 1 && !axis_feasible(dims, axis, devices)) {
                ++out.infeasible;
                continue;
            }
            ScaleOutConfig fabric = opt.fabric;
            fabric.devices = devices;
            fabric.axis = axis;

            // Level 1: best per-device dataflow on the sharded dims
            // (deterministic for any thread count, pruning on or off).
            const AttentionDims device_dims =
                devices == 1
                    ? dims
                    : shard_attention_dims(dims, axis, devices);
            const AttentionSearchResult& found =
                inner_search(device_dims);
            if (!found.found) {
                continue;
            }

            // Level 2: end-to-end evaluation with collectives.
            ScaleOutSearchPoint point;
            point.cost = model_scaleout_attention(
                accel, dims, found.best.dataflow, fabric);
            point.dataflow = found.best.dataflow;
            point.evaluated = found.evaluated;
            point.pruned = found.pruned;
            point.total_energy_j =
                estimate_energy(table, point.cost.timeline.activity)
                    .total() *
                devices;

            const double value =
                point.objective_value(inner.objective);
            // Strict improvement keeps the earlier enumeration point
            // on ties: the order above is the tie-break.
            if (!out.found || value < best_value) {
                out.best = point;
                best_value = value;
                out.found = true;
            }
            out.points.push_back(std::move(point));

            if (devices == 1) {
                break; // every axis degenerates to the same point
            }
        }
    }
    return out;
}

} // namespace flat
