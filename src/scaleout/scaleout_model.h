/**
 * @file
 * Multi-accelerator attention model: shards one attention layer across
 * D identical FLAT devices along the batch, head or sequence axis and
 * evaluates ONE device's timeline — per-device compute/memory phases
 * plus the collective phases the sharding implies — in the same
 * evaluate_timeline() arbitration engine as the single-device models.
 *
 * Sharding semantics (devices all execute the same shard shape, the
 * largest one when the axis does not divide evenly):
 *  - batch:    B -> ceil(B/D). Fully independent; zero collectives.
 *  - head:     H -> ceil(H/D). Each device computes full rows for its
 *              heads; the attention output is all-gathered once at the
 *              end of the layer (exposed epilogue group).
 *  - sequence: N -> ceil(N/D) query rows; K/V are sharded the same way,
 *              so each device all-gathers the full K/V tensors while
 *              the steady-state compute runs (overlapped: the
 *              collective joins the steady overlap group), and a small
 *              all-reduce of the per-row online-softmax statistics
 *              (2 elements per local row) rescales the partial results
 *              in an exposed epilogue.
 *
 * D=1 emits zero collective phases and returns the exact single-device
 * timeline, bit for bit.
 */
#ifndef FLAT_SCALEOUT_SCALEOUT_MODEL_H
#define FLAT_SCALEOUT_SCALEOUT_MODEL_H

#include <cstddef>
#include <cstdint>

#include "arch/accel_config.h"
#include "arch/scaleout_config.h"
#include "costmodel/attention_cost.h"
#include "costmodel/timeline.h"
#include "dataflow/fused_dataflow.h"
#include "scaleout/collective.h"

namespace flat {

/**
 * Shards @p dims along @p axis over @p devices devices. Throws
 * flat::Error when infeasible (more devices than the axis extent; the
 * sequence axis shards both N and kv, so both must cover D).
 */
AttentionDims shard_attention_dims(const AttentionDims& dims,
                                   ShardAxis axis, std::uint32_t devices);

/** Evaluated scale-out outcome (one device's view of the layer). */
struct ScaleOutCost {
    std::uint32_t devices = 1;
    ShardAxis axis = ShardAxis::kBatch;

    /** Per-device shard actually modeled. */
    AttentionDims device_dims;

    /** One device's evaluated timeline, collectives included. */
    TimelineResult timeline;

    /** End-to-end layer latency == timeline.cycles (one arbitration
     *  engine; devices run in lockstep on equal shards). */
    double cycles = 0.0;

    /** Latency of the exposed (non-overlapped) collective groups. */
    double exposed_collective_cycles = 0.0;

    /** Link-lane cycles inside compute groups (hidden unless the link
     *  paces the group). */
    double overlapped_link_cycles = 0.0;

    /** Fabric bytes moved per device (send + receive). */
    double link_bytes_per_device = 0.0;

    /** Number of collective phases emitted (0 when devices == 1). */
    std::size_t collective_phases = 0;
};

/**
 * Models the sharded layer on @p accel devices connected by
 * @p fabric, executing @p dataflow under the FLAT style per device
 * (scale-out shards the fused execution only). The style's emitted
 * phases are the seam: collective phases are appended to them and the
 * union runs through the same evaluate_timeline() arbitration the
 * single-device entry points use. @p fabric.axis selects the shard
 * axis and must not be kAuto (the scale-out DSE resolves kAuto). With
 * fabric.devices == 1 the result wraps attention_timeline() unchanged.
 */
ScaleOutCost model_scaleout_attention(const AccelConfig& accel,
                                      const AttentionDims& dims,
                                      const FusedDataflow& dataflow,
                                      const ScaleOutConfig& fabric);

} // namespace flat

#endif // FLAT_SCALEOUT_SCALEOUT_MODEL_H
