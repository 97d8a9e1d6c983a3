#include "dataflow/granularity.h"

#include "common/math_util.h"
#include "common/status.h"
#include "common/string_util.h"

namespace flat {

std::string
to_string(Granularity granularity)
{
    switch (granularity) {
      case Granularity::kMulti: return "M";
      case Granularity::kBatch: return "B";
      case Granularity::kHead: return "H";
      case Granularity::kRow: return "R";
      case Granularity::kColumn: return "C";
    }
    return "?";
}

std::string
CrossLoop::tag() const
{
    if (granularity == Granularity::kRow) {
        return strprintf("R%llu", static_cast<unsigned long long>(rows));
    }
    if (granularity == Granularity::kColumn) {
        return strprintf("R%lluC%llu", static_cast<unsigned long long>(rows),
                         static_cast<unsigned long long>(cols));
    }
    return to_string(granularity);
}

void
CrossLoop::validate() const
{
    switch (granularity) {
      case Granularity::kMulti:
      case Granularity::kBatch:
      case Granularity::kHead:
      case Granularity::kRow:
      case Granularity::kColumn:
        break;
      default:
        FLAT_FAIL("unknown cross-loop granularity "
                  << static_cast<long long>(granularity));
    }
    if (granularity == Granularity::kRow) {
        FLAT_CHECK(rows > 0, "R-Gran requires a positive row-tile size");
    }
    if (granularity == Granularity::kColumn) {
        FLAT_CHECK(rows > 0 && cols > 0,
                   "C-Gran requires positive row- and column-tile sizes");
    }
}

CrossLoopExtent
cross_loop_extent(const CrossLoop& cross, std::uint64_t batch,
                  std::uint64_t heads, std::uint64_t query_rows)
{
    cross.validate();
    FLAT_CHECK(batch > 0 && heads > 0 && query_rows > 0,
               "cross-loop extent needs positive dimensions");

    CrossLoopExtent extent;
    switch (cross.granularity) {
      case Granularity::kMulti:
        extent.passes = 1;
        extent.instances_per_pass = batch * heads;
        extent.rows_per_pass = query_rows;
        break;
      case Granularity::kBatch:
        extent.passes = batch;
        extent.instances_per_pass = heads;
        extent.rows_per_pass = query_rows;
        break;
      case Granularity::kHead:
        extent.passes = batch * heads;
        extent.instances_per_pass = 1;
        extent.rows_per_pass = query_rows;
        break;
      case Granularity::kRow:
      case Granularity::kColumn:
        extent.passes = batch * heads * ceil_div(query_rows, cross.rows);
        extent.instances_per_pass = 1;
        extent.rows_per_pass = std::min(cross.rows, query_rows);
        break;
    }
    return extent;
}

std::uint64_t
cross_col_tile(const CrossLoop& cross, std::uint64_t kv_len)
{
    if (cross.granularity != Granularity::kColumn) return kv_len;
    return std::min(cross.cols, kv_len);
}

std::uint64_t
cross_col_blocks(const CrossLoop& cross, std::uint64_t kv_len)
{
    if (cross.granularity != Granularity::kColumn) return 1;
    FLAT_CHECK(kv_len > 0, "column blocking needs a positive kv length");
    return ceil_div(kv_len, std::min(cross.cols, kv_len));
}

std::uint64_t
register_tier_bytes(std::uint64_t rows, std::uint64_t cols,
                    std::uint64_t head_dim, std::uint32_t bytes_per_element)
{
    // Running (rows x cols) logits block, (rows x head_dim) output
    // accumulator, and two softmax statistics (running max, running sum)
    // per row.
    const std::uint64_t elems = rows * cols + rows * head_dim + 2 * rows;
    return elems * bytes_per_element;
}

} // namespace flat
