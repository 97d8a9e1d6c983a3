#include "core/goldens.h"

#include "common/status.h"
#include "common/units.h"
#include "costmodel/execution_style.h"
#include "costmodel/trace.h"
#include "dse/search.h"
#include "scaleout/scaleout_model.h"
#include "workload/model_config.h"

namespace flat {
namespace {

/** The golden's accelerator: a Figure 7(a) preset, or edge-sg2. */
AccelConfig
accel_for_preset(const std::string& preset)
{
    if (preset != "edge-sg2") {
        return accel_preset(preset);
    }
    // Edge array with a 4 MiB second-level buffer: keeps the SG2 lane
    // and its trace columns pinned by a golden.
    AccelConfig accel = edge_accel();
    accel.name = "edge-sg2";
    accel.sg2_bytes = 4 * kMiB;
    accel.sg2_bw = 200e9;
    return accel;
}

AttentionDims
dims_for(const GoldenConfig& config)
{
    const ModelConfig model = model_by_name(config.model);
    AttentionDims dims;
    dims.batch = config.batch;
    dims.heads = model.num_heads;
    dims.q_len = config.decode ? 1 : config.seq_len;
    dims.kv_len = config.seq_len;
    dims.head_dim = model.head_dim();
    dims.kv_heads = model.kv_heads();
    dims.decode = config.decode;
    return dims;
}

/** Quick deterministic DSE for the style's dataflow space. */
FusedDataflow
golden_dataflow(const AccelConfig& accel, const AttentionDims& dims,
                bool fused)
{
    AttentionSearchOptions opt;
    opt.quick = true;
    opt.fused = fused;
    const AttentionSearchResult result =
        search_attention(accel, dims, opt);
    FLAT_CHECK(result.found, "golden DSE found no feasible dataflow");
    return result.best.dataflow;
}

/** Quick DSE restricted to the flash style's column-blocked space. */
FusedDataflow
golden_flash_dataflow(const AccelConfig& accel, const AttentionDims& dims)
{
    AttentionSearchOptions opt;
    opt.quick = true;
    opt.fused = true;
    opt.styles = {"flash"};
    const AttentionSearchResult result =
        search_attention(accel, dims, opt);
    FLAT_CHECK(result.found,
               "golden DSE found no feasible flash dataflow");
    return result.best.dataflow;
}

double
passes_of(const AttentionDims& dims, const FusedDataflow& dataflow)
{
    return static_cast<double>(
        cross_loop_extent(dataflow.cross, dims.batch, dims.heads,
                          dims.q_len)
            .passes);
}

} // namespace

const std::vector<GoldenConfig>&
golden_configs()
{
    static const std::vector<GoldenConfig> configs = {
        {"edge-bert-flat", "edge", "bert", 512, 8, GoldenStyle::kFlat, 1},
        {"edge-bert-baseline", "edge", "bert", 512, 8,
         GoldenStyle::kBaselineFull, 1},
        {"edge-t5-baseline-serialized", "edge", "t5", 1024, 8,
         GoldenStyle::kBaselineSerialized, 1},
        {"edge-sg2-bert-flat", "edge-sg2", "bert", 1024, 8,
         GoldenStyle::kFlat, 1},
        {"cloud-trxl-flat", "cloud", "trxl", 2048, 16,
         GoldenStyle::kFlat, 1},
        {"cloud-trxl-pipelined", "cloud", "trxl", 2048, 16,
         GoldenStyle::kPipelined, 1},
        {"edge-bert-scaleout-seq-d4", "edge", "bert", 1024, 8,
         GoldenStyle::kScaleOutSequence, 4},
        {"cloud-xlm-scaleout-head-d8", "cloud", "xlm", 2048, 16,
         GoldenStyle::kScaleOutHead, 8},
        // Appended after the original eight so their bytes (and the
        // regen tool's file order) stay untouched.
        {"edge-bert-flash", "edge", "bert", 512, 8,
         GoldenStyle::kFlash, 1},
        {"cloud-trxl-flash", "cloud", "trxl", 2048, 16,
         GoldenStyle::kFlash, 1},
        // Decode-phase goldens (PR 9): one query token against a
        // KV-cache — classic MHA on the edge preset, grouped-query on
        // cloud. Appended after the original ten, same rationale.
        {"edge-bert-decode", "edge", "bert", 512, 8,
         GoldenStyle::kFlat, 1, true},
        {"cloud-mistral-decode-gqa", "cloud", "mistral", 2048, 16,
         GoldenStyle::kFlat, 1, true},
    };
    return configs;
}

GoldenSearchSetup
golden_search_setup(const GoldenConfig& config)
{
    GoldenSearchSetup setup;
    setup.accel = accel_for_preset(config.preset);
    setup.dims = dims_for(config);
    setup.options.quick = true;
    switch (config.style) {
      case GoldenStyle::kFlat:
      case GoldenStyle::kPipelined:
        setup.options.fused = true;
        break;
      case GoldenStyle::kBaselineFull:
      case GoldenStyle::kBaselineSerialized:
        setup.options.fused = false;
        break;
      case GoldenStyle::kFlash:
        setup.options.fused = true;
        setup.options.styles = {"flash"};
        break;
      case GoldenStyle::kScaleOutSequence:
      case GoldenStyle::kScaleOutHead:
        setup.options.fused = true;
        setup.dims = shard_attention_dims(
            setup.dims,
            config.style == GoldenStyle::kScaleOutSequence
                ? ShardAxis::kSequence
                : ShardAxis::kHead,
            config.devices);
        break;
    }
    return setup;
}

std::string
golden_trace_json(const GoldenConfig& config)
{
    const AccelConfig accel = accel_for_preset(config.preset);
    const AttentionDims dims = dims_for(config);

    switch (config.style) {
      case GoldenStyle::kFlat:
        return trace_attention(flat_execution_style(), accel, dims,
                               golden_dataflow(accel, dims, true))
            .to_json();
      case GoldenStyle::kBaselineFull:
        return trace_attention(baseline_execution_style(), accel, dims,
                               golden_dataflow(accel, dims, false),
                               BaselineOverlap::kFull)
            .to_json();
      case GoldenStyle::kBaselineSerialized:
        return trace_attention(baseline_execution_style(), accel, dims,
                               golden_dataflow(accel, dims, false),
                               BaselineOverlap::kSerialized)
            .to_json();
      case GoldenStyle::kPipelined:
        return trace_attention(pipelined_execution_style(), accel, dims,
                               golden_dataflow(accel, dims, true))
            .to_json();
      case GoldenStyle::kFlash:
        return trace_attention(flash_execution_style(), accel, dims,
                               golden_flash_dataflow(accel, dims))
            .to_json();
      case GoldenStyle::kScaleOutSequence:
      case GoldenStyle::kScaleOutHead: {
        ScaleOutConfig fabric = scaleout_preset("pod-ring");
        fabric.devices = config.devices;
        fabric.axis = config.style == GoldenStyle::kScaleOutSequence
                          ? ShardAxis::kSequence
                          : ShardAxis::kHead;
        const AttentionDims device_dims =
            shard_attention_dims(dims, fabric.axis, fabric.devices);
        const FusedDataflow dataflow =
            golden_dataflow(accel, device_dims, true);
        const ScaleOutCost cost =
            model_scaleout_attention(accel, dims, dataflow, fabric);
        return trace_from_timeline(
                   cost.timeline,
                   std::string("scaleout-") + to_string(fabric.axis),
                   dataflow.tag(),
                   passes_of(device_dims, dataflow))
            .to_json();
      }
    }
    FLAT_FAIL("unknown golden style");
}

} // namespace flat
