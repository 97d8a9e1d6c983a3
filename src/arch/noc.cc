#include "arch/noc.h"

#include "common/math_util.h"
#include "common/status.h"

namespace flat {

std::string
to_string(NocKind kind)
{
    switch (kind) {
      case NocKind::kSystolic: return "systolic";
      case NocKind::kTree: return "tree";
      case NocKind::kCrossbar: return "crossbar";
    }
    return "?";
}

NocModel::NocModel(NocKind kind, std::uint32_t rows, std::uint32_t cols)
    : kind_(kind), rows_(rows), cols_(cols)
{
    FLAT_CHECK(rows > 0 && cols > 0,
               "NoC must span a non-empty array, got " << rows << "x"
                                                       << cols);
}

std::uint64_t
NocModel::fill_latency() const
{
    switch (kind_) {
      case NocKind::kSystolic:
        return static_cast<std::uint64_t>(rows_) + cols_;
      case NocKind::kTree:
        return ilog2_ceil(rows_) + ilog2_ceil(cols_) + 1;
      case NocKind::kCrossbar:
        return 2;
    }
    return 0;
}

std::uint64_t
NocModel::drain_latency() const
{
    switch (kind_) {
      case NocKind::kSystolic:
        // Outputs ripple out along one dimension.
        return static_cast<std::uint64_t>(rows_);
      case NocKind::kTree:
        // Adder-tree depth.
        return ilog2_ceil(static_cast<std::uint64_t>(rows_) * cols_) + 1;
      case NocKind::kCrossbar:
        return 2;
    }
    return 0;
}

} // namespace flat
