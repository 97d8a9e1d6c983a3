#include "dataflow/fused_dataflow.h"

#include <charconv>

#include "common/status.h"
#include "common/string_util.h"

namespace flat {

AttentionDims
AttentionDims::from_workload(const Workload& workload)
{
    AttentionDims dims;
    dims.batch = workload.batch;
    dims.heads = workload.model.num_heads;
    dims.q_len = workload.seq_len;
    dims.kv_len = workload.kv_seq_len;
    dims.head_dim = workload.model.head_dim();
    dims.kv_heads = workload.model.kv_heads();
    dims.decode = workload.decode;
    dims.validate();
    return dims;
}

void
AttentionDims::validate() const
{
    FLAT_CHECK(batch > 0 && heads > 0 && q_len > 0 && kv_len > 0 &&
                   head_dim > 0,
               "attention dims must be positive");
    // Only <= here: head-sharding across devices can leave per-device
    // counts that no longer divide evenly (kv_frac stays a plain
    // traffic ratio). ModelConfig::validate enforces divisibility at
    // the model level.
    FLAT_CHECK(kv_heads <= heads,
               "KV heads (" << kv_heads
                            << ") cannot exceed the query heads ("
                            << heads << ")");
    FLAT_CHECK(!decode || q_len == 1,
               "decode steps process one query token (q_len == "
                   << q_len << ")");
}

std::uint32_t
FusedStageFlags::encode(const FusedStageFlags& flags)
{
    return (flags.query ? 1u : 0u) | (flags.key ? 2u : 0u) |
           (flags.value ? 4u : 0u) | (flags.output ? 8u : 0u) |
           (flags.intermediate ? 16u : 0u);
}

FusedStageFlags
FusedStageFlags::decode(std::uint32_t code)
{
    FLAT_CHECK(code < 32, "stage-flag code out of range: " << code);
    FusedStageFlags flags;
    flags.query = (code & 1u) != 0;
    flags.key = (code & 2u) != 0;
    flags.value = (code & 4u) != 0;
    flags.output = (code & 8u) != 0;
    flags.intermediate = (code & 16u) != 0;
    return flags;
}

std::string
FusedStageFlags::tag() const
{
    std::string out;
    out += query ? 'Q' : '-';
    out += key ? 'K' : '-';
    out += value ? 'V' : '-';
    out += output ? 'O' : '-';
    out += intermediate ? 'I' : '-';
    return out;
}

std::string
FusedDataflow::tag() const
{
    char text[kMaxTagChars];
    return std::string(text, write_tag(text));
}

char*
FusedDataflow::write_tag(char* out) const
{
    // Byte-identical to
    //   cross.tag() + "/" + l2_logit.tag() + "/" + l2_attend.tag() +
    //   "/" + stage.tag()
    // but formatted in place with std::to_chars: the DSE tie-break
    // forms this tag for every candidate that reaches the incumbent's
    // objective value — most of the analytic mapper's lanes on serve's
    // decode steps — so it must cost neither printf's format parsing
    // nor a heap string.
    const auto put = [&](std::uint64_t value) {
        out = std::to_chars(out, out + 20, value).ptr; // <= 20 digits
    };
    if (cross.granularity == Granularity::kColumn ||
        cross.granularity == Granularity::kRow) {
        *out++ = 'R';
        put(cross.rows);
        if (cross.granularity == Granularity::kColumn) {
            *out++ = 'C';
            put(cross.cols);
        }
    } else {
        *out++ = to_string(cross.granularity)[0];
    }
    for (const L2Tile* tile : {&l2_logit, &l2_attend}) {
        *out++ = '/';
        put(tile->m);
        *out++ = 'x';
        put(tile->k);
        *out++ = 'x';
        put(tile->n);
    }
    *out++ = '/';
    *out++ = stage.query ? 'Q' : '-';
    *out++ = stage.key ? 'K' : '-';
    *out++ = stage.value ? 'V' : '-';
    *out++ = stage.output ? 'O' : '-';
    *out++ = stage.intermediate ? 'I' : '-';
    return out;
}

void
FusedDataflow::validate() const
{
    cross.validate();
    l2_logit.validate();
    l2_attend.validate();
}

std::uint64_t
fused_live_footprint(const FusedDataflow& dataflow,
                     const AttentionDims& dims,
                     std::uint32_t bytes_per_element)
{
    dataflow.validate();
    dims.validate();
    return fused_live_footprint(
        dataflow, dims,
        cross_loop_extent(dataflow.cross, dims.batch, dims.heads,
                          dims.q_len),
        bytes_per_element);
}

std::uint64_t
fused_live_footprint(const FusedDataflow& dataflow,
                     const AttentionDims& dims,
                     const CrossLoopExtent& extent,
                     std::uint32_t bytes_per_element)
{
    const std::uint64_t inst = extent.instances_per_pass;
    const std::uint64_t rows = extent.rows_per_pass;
    const std::uint64_t dk = dims.head_dim;
    const std::uint64_t kv = dims.kv_len;
    const std::uint64_t bpe = bytes_per_element;

    // Clamp the per-stage L2 tiles to the actual stage GEMM shapes so
    // oversized tiles do not inflate the footprint of disabled tensors.
    // At C-Gran each pass streams cols_eff key-columns at a time, so the
    // per-stage shapes shrink to the column block.
    const std::uint64_t cols_eff = cross_col_tile(dataflow.cross, kv);
    GemmShape logit_shape;
    logit_shape.m = rows;
    logit_shape.k = dk;
    logit_shape.n = cols_eff;
    GemmShape attend_shape;
    attend_shape.m = rows;
    attend_shape.k = cols_eff;
    attend_shape.n = dk;
    const L2Tile logit_tile = dataflow.l2_logit.clamped(logit_shape);
    const L2Tile attend_tile = dataflow.l2_attend.clamped(attend_shape);

    std::uint64_t bytes = 0;

    // Q rows: input of L, streamed from DRAM -> double buffered.
    bytes += dataflow.stage.query ? 2 * rows * dk * inst * bpe
                                  : 2 * logit_tile.a_bytes(bpe);
    // K: second input of L.
    bytes += dataflow.stage.key ? 2 * kv * dk * inst * bpe
                                : 2 * logit_tile.b_bytes(bpe);
    // V: second input of A.
    bytes += dataflow.stage.value ? 2 * kv * dk * inst * bpe
                                  : 2 * attend_tile.b_bytes(bpe);
    // Output of A, streamed back to DRAM.
    bytes += dataflow.stage.output ? 2 * rows * dk * inst * bpe
                                   : 2 * attend_tile.c_bytes(bpe);
    // Intermediate logits: single-buffered when staged (never leaves the
    // chip); when disabled it round-trips via DRAM at L2-tile size for
    // both the producer (L output) and the consumer (A input). At C-Gran
    // the running block lives in the register tier below SL, not the SG.
    const bool column = dataflow.cross.granularity == Granularity::kColumn;
    bytes += dataflow.stage.intermediate
                 ? (column ? 0 : rows * kv * inst * bpe)
                 : 2 * (logit_tile.c_bytes(bpe) +
                        attend_tile.a_bytes(bpe));
    return bytes;
}

std::uint64_t
table2_footprint_elems(Granularity granularity, const AttentionDims& dims,
                       std::uint64_t r_rows)
{
    dims.validate();
    const std::uint64_t b = dims.batch;
    const std::uint64_t h = dims.heads;
    const std::uint64_t n = dims.q_len;
    const std::uint64_t kv = dims.kv_len;
    const std::uint64_t dk = dims.head_dim;
    const std::uint64_t d = h * dk;

    switch (granularity) {
      case Granularity::kMulti:
        // 8*B*D*N + B*H*N^2 (with N == kv for self-attention).
        return 4 * b * d * n + 4 * b * d * kv + b * h * n * kv;
      case Granularity::kBatch:
        return 4 * d * n + 4 * d * kv + h * n * kv;
      case Granularity::kHead:
        return 4 * n * dk + 4 * kv * dk + n * kv;
      case Granularity::kRow:
        FLAT_CHECK(r_rows > 0, "Table 2 R-Gran needs a row count");
        return 4 * r_rows * dk + 4 * kv * dk + r_rows * kv;
      case Granularity::kColumn:
        // Table 2 predates online softmax; the column-blocked footprint
        // drops the intermediate term entirely (register-tier resident).
        FLAT_CHECK(r_rows > 0, "Table 2 C-Gran needs a row count");
        return 4 * r_rows * dk + 4 * kv * dk;
    }
    FLAT_ASSERT(false, "unreachable granularity");
    return 0;
}

} // namespace flat
