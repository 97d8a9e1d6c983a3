#include "scaleout/scaleout_model.h"

#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/status.h"

namespace flat {
namespace {

/** First group holding real (non-pace-only) work: the steady window an
 *  overlapped collective hides under. */
int
steady_group(const std::vector<Phase>& phases)
{
    for (const Phase& phase : phases) {
        if (!phase.pace_only) {
            return phase.group;
        }
    }
    return 0;
}

} // namespace

AttentionDims
shard_attention_dims(const AttentionDims& dims, ShardAxis axis,
                     std::uint32_t devices)
{
    FLAT_CHECK(devices >= 1, "scale-out needs at least one device");
    const std::uint64_t d = devices;
    AttentionDims out = dims;
    switch (axis) {
      case ShardAxis::kBatch:
        FLAT_CHECK(d <= dims.batch,
                   "cannot shard batch=" << dims.batch << " across "
                                         << devices << " devices");
        out.batch = ceil_div(dims.batch, d);
        break;
      case ShardAxis::kHead:
        FLAT_CHECK(d <= dims.heads,
                   "cannot shard heads=" << dims.heads << " across "
                                         << devices << " devices");
        out.heads = ceil_div(dims.heads, d);
        // K/V heads shard alongside; once a group spans devices each
        // keeps (at least) one replicated K/V head.
        out.kv_heads = std::min(
            out.heads,
            std::max<std::uint64_t>(1,
                                    ceil_div(dims.kv_heads_eff(), d)));
        break;
      case ShardAxis::kSequence:
        FLAT_CHECK(d <= dims.q_len && d <= dims.kv_len,
                   "cannot shard sequence (q_len="
                       << dims.q_len << ", kv_len=" << dims.kv_len
                       << ") across " << devices << " devices");
        out.q_len = ceil_div(dims.q_len, d);
        // kv stays full: the device gathers the other shards' K/V.
        break;
      case ShardAxis::kAuto:
        FLAT_FAIL("shard axis 'auto' must be resolved by the scale-out "
                  "search before sharding");
    }
    return out;
}

ScaleOutCost
model_scaleout_attention(const AccelConfig& accel,
                         const AttentionDims& dims,
                         const FusedDataflow& dataflow,
                         const ScaleOutConfig& fabric)
{
    fabric.validate();
    const ExecutionStyle& style = flat_execution_style();

    ScaleOutCost out;
    out.devices = fabric.devices;

    if (fabric.single_device()) {
        // The exact pre-scale-out path: same emitter, same evaluation,
        // no link bandwidth, zero collective phases.
        out.axis = fabric.axis == ShardAxis::kAuto ? ShardAxis::kBatch
                                                   : fabric.axis;
        out.device_dims = dims;
        out.timeline = attention_timeline(style, accel, dims, dataflow);
        out.cycles = out.timeline.cycles;
        return out;
    }

    FLAT_CHECK(fabric.axis != ShardAxis::kAuto,
               "shard axis 'auto' must be resolved by the scale-out "
               "search before modeling");
    out.axis = fabric.axis;
    out.device_dims =
        shard_attention_dims(dims, fabric.axis, fabric.devices);

    AttentionPhases emitted =
        attention_phases(style, accel, out.device_dims, dataflow);
    const int steady = steady_group(emitted.phases);
    const int epilogue = emitted.max_group() + 1;
    const double bpe = accel.bytes_per_element;

    switch (fabric.axis) {
      case ShardAxis::kBatch:
        break; // independent shards, nothing to exchange
      case ShardAxis::kHead: {
        // Gather the full attention output (B x H x N x dk) so every
        // device leaves the layer with all heads, as the following
        // output projection expects. Exposed: nothing left to hide it
        // under once the last head finishes.
        const double out_bytes = static_cast<double>(dims.batch) *
                                 dims.heads * dims.q_len *
                                 dims.head_dim * bpe;
        emitted.phases.push_back(collective_phase(
            "all-gather attention output (heads)", epilogue,
            CollectiveKind::kAllGather, fabric, accel, out_bytes));
        break;
      }
      case ShardAxis::kSequence: {
        // K and V rows live sharded; the device streams the other
        // shards in while its own L/A slices run, so the all-gather
        // joins the steady overlap group.
        const double kv_bytes = 2.0 * static_cast<double>(dims.batch) *
                                dims.heads * dims.kv_len *
                                dims.head_dim * bpe;
        emitted.phases.push_back(collective_phase(
            "all-gather K/V shards (overlapped)", steady,
            CollectiveKind::kAllGather, fabric, accel, kv_bytes));

        // Online-softmax rescale: 2 statistics (running max, running
        // sum) per local row, reduced across devices at the end.
        const double stat_bytes = 2.0 *
                                  static_cast<double>(dims.batch) *
                                  dims.heads *
                                  out.device_dims.q_len * bpe;
        emitted.phases.push_back(collective_phase(
            "all-reduce softmax stats (rescale)", epilogue,
            CollectiveKind::kAllReduce, fabric, accel, stat_bytes));
        break;
      }
      case ShardAxis::kAuto:
        break; // rejected above
    }

    out.timeline = evaluate_timeline(
        std::move(emitted.phases), accel, emitted.overlap,
        fabric.link_bytes_per_cycle(accel));
    out.cycles = out.timeline.cycles;
    out.link_bytes_per_device = out.timeline.activity.traffic.total_link();

    for (const GroupTiming& group : out.timeline.groups) {
        bool all_collective = !group.phase_indices.empty();
        bool any_collective = false;
        for (const std::size_t idx : group.phase_indices) {
            const bool is_collective =
                out.timeline.phases[idx].stage == StageTag::kCollective;
            all_collective = all_collective && is_collective;
            any_collective = any_collective || is_collective;
        }
        if (all_collective) {
            out.exposed_collective_cycles += group.latency;
        } else if (any_collective) {
            out.overlapped_link_cycles += group.lanes.link;
        }
    }
    for (const Phase& phase : out.timeline.phases) {
        if (phase.stage == StageTag::kCollective) {
            ++out.collective_phases;
        }
    }
    return out;
}

} // namespace flat
