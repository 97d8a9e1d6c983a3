/**
 * @file
 * Scale-out DSE: extends the attention design space by the shard axis
 * and the device count. Two-level search — the per-device dataflow is
 * found by the existing search_attention() on the sharded dims
 * (inheriting its parallel sweep, lower-bound pruning and bit-identical
 * deterministic reduction), and the (axis x devices) combination is
 * then chosen serially by the end-to-end objective: collective-aware
 * layer latency and fleet-total energy.
 */
#ifndef FLAT_SCALEOUT_SCALEOUT_SEARCH_H
#define FLAT_SCALEOUT_SCALEOUT_SEARCH_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dse/search.h"
#include "scaleout/scaleout_model.h"

namespace flat {

/** Search-space description for the scale-out DSE. */
struct ScaleOutSearchOptions {
    /** Inner per-device dataflow search (objective, threads, prune,
     *  quick, candidate menus). The FLAT space is searched whatever
     *  `styles` holds: the scale-out model prices the FLAT style. */
    AttentionSearchOptions attention;

    /** Fabric description. fabric.axis == kAuto sweeps all feasible
     *  axes; a concrete axis pins it. */
    ScaleOutConfig fabric;

    /** Device counts to sweep; empty = just fabric.devices. */
    std::vector<std::uint32_t> device_counts;
};

/** One evaluated (axis x devices) combination. */
struct ScaleOutSearchPoint {
    ScaleOutCost cost;

    /** Winning per-device dataflow. */
    FusedDataflow dataflow;

    /** Fleet-total energy: one device's ledger (collective traffic
     *  included) times the device count. */
    double total_energy_j = 0.0;

    /** Inner-search accounting. */
    std::size_t evaluated = 0;
    std::size_t pruned = 0;

    /** Objective value (lower is better) under @p objective. */
    double objective_value(Objective objective) const;
};

/** Scale-out DSE outcome. */
struct ScaleOutSearchResult {
    ScaleOutSearchPoint best;
    bool found = false;

    /** Every feasible combination in deterministic enumeration order
     *  (device counts ascending; axes batch, head, seq). */
    std::vector<ScaleOutSearchPoint> points;

    /** Combinations skipped as infeasible (axis extent < devices). */
    std::size_t infeasible = 0;
};

/**
 * Sweeps (axis x devices), returning the end-to-end best combination.
 * The enumeration is serial and the inner search is bit-identical for
 * any thread count, so the whole result is deterministic; ties break
 * toward the earlier enumeration point, then the dataflow tag.
 */
ScaleOutSearchResult search_scaleout(const AccelConfig& accel,
                                     const AttentionDims& dims,
                                     const ScaleOutSearchOptions& opt);

} // namespace flat

#endif // FLAT_SCALEOUT_SCALEOUT_SEARCH_H
