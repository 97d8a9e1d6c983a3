#include "workload/operator.h"

#include "common/status.h"

namespace flat {

std::string
to_string(OpCategory category)
{
    switch (category) {
      case OpCategory::kLogitAttend: return "L-A";
      case OpCategory::kProjection: return "Projection";
      case OpCategory::kFeedForward: return "FC";
      case OpCategory::kSoftmax: return "Softmax";
    }
    return "?";
}

std::uint64_t
Operator::output_elems() const
{
    if (kind == OpKind::kGemm) {
        return gemm.c_elems_total();
    }
    return softmax_instances * softmax_rows * softmax_cols;
}

void
Operator::validate() const
{
    FLAT_CHECK(!name.empty(), "operator must be named");
    if (kind == OpKind::kGemm) {
        gemm.validate();
    } else {
        FLAT_CHECK(softmax_rows > 0 && softmax_cols > 0 &&
                       softmax_instances > 0,
                   name << ": softmax shape must be positive");
    }
}

Operator
make_gemm_op(std::string name, OpCategory category, const GemmShape& shape)
{
    Operator op;
    op.name = std::move(name);
    op.kind = OpKind::kGemm;
    op.category = category;
    op.gemm = shape;
    op.validate();
    return op;
}

Operator
make_softmax_op(std::string name, std::uint64_t instances,
                std::uint64_t rows, std::uint64_t cols)
{
    Operator op;
    op.name = std::move(name);
    op.kind = OpKind::kSoftmax;
    op.category = OpCategory::kSoftmax;
    op.softmax_instances = instances;
    op.softmax_rows = rows;
    op.softmax_cols = cols;
    op.validate();
    return op;
}

} // namespace flat
