/**
 * @file
 * Operator IR: one node of an attention block's compute graph.
 */
#ifndef FLAT_WORKLOAD_OPERATOR_H
#define FLAT_WORKLOAD_OPERATOR_H

#include <cstdint>
#include <string>

#include "workload/gemm_shape.h"

namespace flat {

/** Categories used for the latency breakdown in Figure 11. */
enum class OpCategory {
    kLogitAttend, ///< L and A (activation-activation GEMMs)
    kProjection,  ///< Q, K, V, O (activation-weight GEMMs)
    kFeedForward, ///< the two FCs outside the attention layer
    kSoftmax,     ///< the softmax between L and A (runs on the SFU)
};

std::string to_string(OpCategory category);

/** Kinds of operator node. */
enum class OpKind {
    kGemm,
    kSoftmax,
};

/**
 * One operator of an attention block.
 *
 * GEMM operators carry a GemmShape. The softmax operator carries the
 * shape of the logits tensor it normalizes ([rows, cols] per instance,
 * reduced along cols).
 */
struct Operator {
    std::string name;
    OpKind kind = OpKind::kGemm;
    OpCategory category = OpCategory::kProjection;

    /** Valid iff kind == kGemm. */
    GemmShape gemm;

    /** Valid iff kind == kSoftmax. */
    std::uint64_t softmax_rows = 0;
    std::uint64_t softmax_cols = 0;
    std::uint64_t softmax_instances = 0;

    /** Total elements of the operator's output tensor. */
    std::uint64_t output_elems() const;

    /** Throws flat::Error if the node is malformed. */
    void validate() const;
};

/** Builds a GEMM operator node. */
Operator make_gemm_op(std::string name, OpCategory category,
                      const GemmShape& shape);

/** Builds the softmax node for a logits tensor of
 *  [instances x rows x cols]. */
Operator make_softmax_op(std::string name, std::uint64_t instances,
                         std::uint64_t rows, std::uint64_t cols);

} // namespace flat

#endif // FLAT_WORKLOAD_OPERATOR_H
