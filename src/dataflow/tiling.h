/**
 * @file
 * Intra-operator tiling: L2 tile shapes, SG-level tile loop orders and
 * PE-array stationarity choices (§3.1, §4.2.2 "L2, L1 Tiling").
 */
#ifndef FLAT_DATAFLOW_TILING_H
#define FLAT_DATAFLOW_TILING_H

#include <cstdint>
#include <string>

#include "workload/gemm_shape.h"

namespace flat {

/** Which operand is pinned in the PE array's local scratchpads. */
enum class Stationarity {
    kWeightStationary, ///< B operand resident in PEs
    kInputStationary,  ///< A operand resident in PEs
    kOutputStationary, ///< C accumulates in PEs
};

std::string to_string(Stationarity stationarity);

/** Order of the (m, k, n) tile loops at the SG level, outer to inner. */
enum class LoopOrder {
    kMKN,
    kMNK,
    kKMN,
    kKNM,
    kNMK,
    kNKM,
};

std::string to_string(LoopOrder order);

/** All six orders, for DSE sweeps. */
constexpr LoopOrder kAllLoopOrders[] = {LoopOrder::kMKN, LoopOrder::kMNK,
                                        LoopOrder::kKMN, LoopOrder::kKNM,
                                        LoopOrder::kNMK, LoopOrder::kNKM};

/** Dimension tags of a GEMM loop nest. */
enum class Dim : std::uint8_t { kM = 0, kK = 1, kN = 2 };

/** The three dims of @p order from outermost to innermost. */
void loop_order_dims(LoopOrder order, Dim out[3]);

/** L2 tile shape of a GEMM: the slice streamed through the PE array. */
struct L2Tile {
    std::uint64_t m = 0;
    std::uint64_t k = 0;
    std::uint64_t n = 0;

    /** Clamp the tile to the operator's actual dimensions. */
    L2Tile clamped(const GemmShape& shape) const;

    /** Bytes of one A/B/C tile at @p bytes_per_element. */
    std::uint64_t a_bytes(std::uint32_t bytes_per_element) const;
    std::uint64_t b_bytes(std::uint32_t bytes_per_element) const;
    std::uint64_t c_bytes(std::uint32_t bytes_per_element) const;

    /** Trip counts of the three tile loops for @p shape. */
    std::uint64_t trips_m(const GemmShape& shape) const;
    std::uint64_t trips_k(const GemmShape& shape) const;
    std::uint64_t trips_n(const GemmShape& shape) const;

    /** Total tile iterations per GEMM instance. */
    std::uint64_t total_trips(const GemmShape& shape) const;

    std::string tag() const;

    /** Throws flat::Error on zero dimensions. */
    void validate() const;

    bool operator==(const L2Tile&) const = default;
};

} // namespace flat

#endif // FLAT_DATAFLOW_TILING_H
