/**
 * @file
 * Loop-nest reuse analysis: how many times each operand tile must be
 * (re-)fetched into the SG for a tiled GEMM, as a function of the tile
 * loop order. This is the classic "a tile stays resident across the
 * contiguous innermost loops that do not index it" model used by
 * Timeloop-class analytical frameworks.
 */
#ifndef FLAT_DATAFLOW_REUSE_H
#define FLAT_DATAFLOW_REUSE_H

#include <cstdint>

#include "dataflow/tiling.h"

namespace flat {

/** Tile-fetch counts for the three GEMM tensors of one instance. */
struct ReuseCounts {
    /** Number of A (resp. B) tile fetches from the level above. */
    std::uint64_t a_fetches = 0;
    std::uint64_t b_fetches = 0;

    /** Number of C tile write-backs. */
    std::uint64_t c_writes = 0;

    /** Number of C tile re-reads (partial-sum spills). Zero when the
     *  reduction loop is innermost. */
    std::uint64_t c_reads = 0;

    /** Number of distinct C tiles (= trips_m x trips_n). */
    std::uint64_t c_tiles = 0;
};

/**
 * Computes tile fetch/spill counts for a tiled GEMM.
 *
 * @param order   SG-level tile loop order (outermost first).
 * @param trips_m trip count of the m tile loop.
 * @param trips_k trip count of the k tile loop.
 * @param trips_n trip count of the n tile loop.
 */
ReuseCounts analyze_reuse(LoopOrder order, std::uint64_t trips_m,
                          std::uint64_t trips_k, std::uint64_t trips_n);

} // namespace flat

#endif // FLAT_DATAFLOW_REUSE_H
