/**
 * @file
 * The FLAT fused L-A dataflow configuration (§4): a shared cross-loop at
 * M/B/H/R granularity, per-stage intra-operator tiling, and per-tensor
 * FLAT-tile enable flags (the paper's 2^5 staging choices).
 */
#ifndef FLAT_DATAFLOW_FUSED_DATAFLOW_H
#define FLAT_DATAFLOW_FUSED_DATAFLOW_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "dataflow/granularity.h"
#include "dataflow/tiling.h"
#include "workload/attention.h"

namespace flat {

/** Attention dimensions the fused operator works over. */
struct AttentionDims {
    std::uint64_t batch = 1;    ///< B
    std::uint64_t heads = 1;    ///< H
    std::uint64_t q_len = 1;    ///< query sequence length N
    std::uint64_t kv_len = 1;   ///< key/value sequence length
    std::uint64_t head_dim = 1; ///< dk

    /**
     * K/V head count for grouped-query attention; 0 means one K/V
     * head per query head (classic MHA). Groups of
     * heads/kv_heads_eff() query heads read the same K/V slices, so
     * K/V bytes (and the KV-cache) shrink by that factor while the
     * MAC count is unchanged.
     */
    std::uint64_t kv_heads = 0;

    /**
     * Autoregressive decode step: one new query token per sequence
     * (q_len == 1) attending over a KV-cache of kv_len tokens.
     */
    bool decode = false;

    /** Effective K/V head count: kv_heads, or heads when 0. */
    std::uint64_t kv_heads_eff() const
    {
        return kv_heads != 0 ? kv_heads : heads;
    }

    /**
     * Fraction of K/V traffic relative to MHA: kv_heads_eff()/heads.
     * Exactly 1.0 for MHA, so scaling by it preserves MHA arithmetic
     * bit-for-bit.
     */
    double kv_frac() const
    {
        return static_cast<double>(kv_heads_eff()) /
               static_cast<double>(heads);
    }

    /** Extracts the dims from an instantiated workload. */
    static AttentionDims from_workload(const Workload& workload);

    void validate() const;

    bool operator==(const AttentionDims&) const = default;
};

/**
 * Per-tensor FLAT-tile staging flags. The five tensors of the fused
 * operator: the two inputs of L (Q rows, K), the second input of A (V),
 * the output of A, and the shared intermediate (logits) tensor.
 */
struct FusedStageFlags {
    bool query = true;
    bool key = true;
    bool value = true;
    bool output = true;
    bool intermediate = true;

    /** All 32 combinations, for exhaustive DSE. */
    static std::uint32_t encode(const FusedStageFlags& flags);
    static FusedStageFlags decode(std::uint32_t code);

    std::string tag() const;
};

/** Complete FLAT dataflow description for the fused L-A operator. */
struct FusedDataflow {
    /** Shared cross-operator (outer) loop. */
    CrossLoop cross;

    /** Intra-operator dataflow of the Logit stage. */
    L2Tile l2_logit;
    LoopOrder order_logit = LoopOrder::kMKN;
    Stationarity stat_logit = Stationarity::kOutputStationary;

    /** Intra-operator dataflow of the Attend stage. */
    L2Tile l2_attend;
    LoopOrder order_attend = LoopOrder::kMKN;
    Stationarity stat_attend = Stationarity::kOutputStationary;

    /** FLAT-tile enable/disable per tensor. */
    FusedStageFlags stage;

    /** Upper bound on tag().size(): "R<20 digits>C<20 digits>", two
     *  "/<m>x<k>x<n>" tiles of 20-digit dims and "/QKVOI". */
    static constexpr std::size_t kMaxTagChars = 42 + 2 * 63 + 6;

    std::string tag() const;

    /** Writes tag() into @p out (room for kMaxTagChars) without
     *  touching the heap; returns one past the last character. */
    char* write_tag(char* out) const;

    void validate() const;
};

/**
 * Live SG footprint in bytes of the fused dataflow (Table 2).
 *
 * Staged input/output tensors are double-buffered (they exchange data
 * with off-chip memory); the staged intermediate tensor is not (it never
 * leaves the chip). Non-staged tensors occupy two L2 tiles.
 */
std::uint64_t fused_live_footprint(const FusedDataflow& dataflow,
                                   const AttentionDims& dims,
                                   std::uint32_t bytes_per_element);

/** The same footprint over @p extent (cross_loop_extent() of the
 *  dataflow's cross loop), without the input checks: for callers that
 *  validated the dataflow and dims once (the search's block plans). */
std::uint64_t fused_live_footprint(const FusedDataflow& dataflow,
                                   const AttentionDims& dims,
                                   const CrossLoopExtent& extent,
                                   std::uint32_t bytes_per_element);

/**
 * Closed-form Table 2 footprints in elements, for validation:
 * M: 8BDN + BHN^2, B: 8DN + HN^2, H: 8Ndk + N^2, R: 4Rdk + 4Ndk + RN.
 */
std::uint64_t table2_footprint_elems(Granularity granularity,
                                     const AttentionDims& dims,
                                     std::uint64_t r_rows);

} // namespace flat

#endif // FLAT_DATAFLOW_FUSED_DATAFLOW_H
