/**
 * @file
 * Execution granularity of the FLAT-tile / L3 staging level (§4.2.2).
 *
 * The cross-operator (outer) loop iterates over units of work whose
 * intermediate-tensor slice is staged on-chip. From coarsest to finest:
 * Batch-Multi-Head (the whole tensor), Batch, Head, and Row (R rows of
 * one head's logits — the finest unit that keeps the softmax row
 * reduction intact).
 *
 * Column granularity goes below the R-Gran floor: an online softmax
 * (running max/sum with rescaling) removes the whole-row reduction
 * dependency, so the logits slice can be streamed C key-columns at a
 * time and the running (R x C) tile plus the output accumulator live in
 * a register-tier staging level below SL instead of the SG.
 */
#ifndef FLAT_DATAFLOW_GRANULARITY_H
#define FLAT_DATAFLOW_GRANULARITY_H

#include <cstdint>
#include <string>

namespace flat {

/** FLAT-tile granularity (M/B/H/R-Gran in the paper, plus the
 *  column-blocked level online softmax unlocks below R-Gran). */
enum class Granularity {
    kMulti,  ///< M-Gran: whole batched multi-head tensor in one pass
    kBatch,  ///< B-Gran: one batch sample (all heads) per pass
    kHead,   ///< H-Gran: one head per pass
    kRow,    ///< R-Gran: R logits rows of one head per pass
    kColumn, ///< C-Gran: R rows streamed C key-columns at a time
};

std::string to_string(Granularity granularity);

/** Cross-loop (outer loop) configuration of the fused operator. */
struct CrossLoop {
    Granularity granularity = Granularity::kMulti;

    /** Row-tile size R; meaningful only for R/C-Gran (must divide work
     *  in ceil fashion, any positive value allowed). */
    std::uint64_t rows = 0;

    /** Column-tile size C (key/value positions per streamed block);
     *  meaningful only for C-Gran. */
    std::uint64_t cols = 0;

    /** Human-readable tag, e.g. "M", "B", "H", "R64", "R64C256". */
    std::string tag() const;

    /** Throws flat::Error if the granularity is none of the five
     *  enumerators or R/C-Gran lack positive tile sizes. */
    void validate() const;

    bool operator==(const CrossLoop&) const = default;
};

/**
 * Work covered by a single cross-loop pass and the number of passes for
 * a workload of @p batch samples, @p heads heads and @p query_rows
 * logits rows per head.
 */
struct CrossLoopExtent {
    std::uint64_t passes = 1;             ///< cross-loop trip count
    std::uint64_t instances_per_pass = 1; ///< (batch x head) slices staged
    std::uint64_t rows_per_pass = 1;      ///< logits rows staged per slice
};

/** Computes the cross-loop extent for the given workload dimensions.
 *  C-Gran covers the same per-pass work as R-Gran — the column blocking
 *  subdivides each pass internally (see cross_col_blocks). */
CrossLoopExtent cross_loop_extent(const CrossLoop& cross,
                                  std::uint64_t batch, std::uint64_t heads,
                                  std::uint64_t query_rows);

/** Effective column-block width: min(C, kv_len) for C-Gran, the full
 *  key/value length otherwise. */
std::uint64_t cross_col_tile(const CrossLoop& cross, std::uint64_t kv_len);

/** Column blocks each cross-loop pass streams through: 1 for M/B/H/R,
 *  ceil(kv_len / C) for C-Gran. */
std::uint64_t cross_col_blocks(const CrossLoop& cross,
                               std::uint64_t kv_len);

/**
 * Register-tier bytes one column-blocked pass keeps below SL: the
 * (rows x cols) running logits tile, the (rows x head_dim) output
 * accumulator, and the two running softmax statistics (max, sum) per
 * row. This is the staging level online softmax adds below the SG/SL
 * hierarchy — the intermediate tensor never touches the SG at C-Gran.
 */
std::uint64_t register_tier_bytes(std::uint64_t rows, std::uint64_t cols,
                                  std::uint64_t head_dim,
                                  std::uint32_t bytes_per_element);

} // namespace flat

#endif // FLAT_DATAFLOW_GRANULARITY_H
