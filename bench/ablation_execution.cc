/**
 * @file
 * Ablation: interleaved (FLAT, §5.1 choice) vs spatially pipelined vs
 * sequential execution of the fused L-A pair, at the same granularity
 * and staging. Quantifies the §5.1 argument: interleaving avoids the
 * split-array imbalance and pipeline fill of the pipelined variant
 * while keeping the two-stage prefetch window.
 */
#include <algorithm>

#include "bench_util.h"
#include "costmodel/attention_cost.h"
#include "costmodel/execution_style.h"
#include "costmodel/gemm_engine.h"
#include "dse/search.h"

using namespace flat;
using namespace flat::bench;

namespace {

const ExecutionStyle& kBaseline = baseline_execution_style();
const ExecutionStyle& kFlat = flat_execution_style();
const ExecutionStyle& kPipelined = pipelined_execution_style();
const ExecutionStyle& kFlash = flash_execution_style();

} // namespace

int
main()
{
    banner("Ablation — execution style of the fused L-A pair",
           "Same dataflow (H-Gran / R-Gran, all tensors staged); only "
           "the execution changes");

    TextTable table({"platform", "model", "SeqLen", "granularity",
                     "sequential", "pipelined", "interleaved (FLAT)",
                     "flash (C-Gran)"});
    auto csv = open_csv("ablation_execution.csv",
                        {"platform", "model", "seq", "gran", "seq_util",
                         "seq_bound", "pipe_util", "pipe_bound",
                         "inter_util", "inter_bound", "flash_util",
                         "flash_bound", "flash_dram_ratio"});

    struct Case {
        AccelConfig accel;
        ModelConfig model;
    };
    const Case cases[] = {{edge_accel(), bert_base()},
                          {cloud_accel(), xlm()}};

    for (const Case& c : cases) {
        for (std::uint64_t n : {2048u, 8192u, 32768u}) {
            const Workload w = make_workload(c.model, kBatch, n);
            const AttentionDims dims = AttentionDims::from_workload(w);
            for (Granularity g : {Granularity::kHead, Granularity::kRow}) {
                FusedDataflow df;
                df.cross = {g, 4 * c.accel.pe_rows};
                df.l2_logit = default_l2_tile(
                    c.accel, GemmShape{256, dims.head_dim, dims.kv_len,
                                       1, OperandKind::kActivation,
                                       OperandKind::kActivation},
                    c.accel.sg_bytes / 4,
                    Stationarity::kOutputStationary);
                df.l2_attend = default_l2_tile(
                    c.accel, GemmShape{256, dims.kv_len, dims.head_dim,
                                       1, OperandKind::kActivation,
                                       OperandKind::kActivation},
                    c.accel.sg_bytes / 4,
                    Stationarity::kOutputStationary);

                // All three styles are evaluated through the one
                // timeline evaluator; the cost wrappers consume the
                // same timelines, so util() and bound_by agree.
                const double inter =
                    model_attention(kFlat, c.accel, dims, df).util();
                const std::string inter_bound = to_string(
                    attention_timeline(kFlat, c.accel, dims, df).bound_by);
                const double pipe =
                    model_attention(kPipelined, c.accel, dims, df).util();
                const std::string pipe_bound = to_string(
                    attention_timeline(kPipelined, c.accel, dims, df)
                        .bound_by);
                // Flash cannot run M/B/H/R tiles — its recurrence
                // needs column blocks — so its column shows the
                // SAME R rows streamed C = 4 x array-width key
                // columns at a time (the closest C-Gran relative of
                // the R-Gran row), on the R-Gran rows only.
                const bool has_flash = g == Granularity::kRow;
                double flash = 0.0;
                double flash_dram_ratio = 0.0;
                std::string flash_bound = "n/a";
                if (has_flash) {
                    FusedDataflow fdf = df;
                    fdf.cross = {Granularity::kColumn,
                                 4 * c.accel.pe_rows,
                                 4 * c.accel.pe_cols};
                    const std::uint64_t col_tile =
                        std::min<std::uint64_t>(fdf.cross.cols,
                                                dims.kv_len);
                    fdf.l2_logit = default_l2_tile(
                        c.accel,
                        GemmShape{256, dims.head_dim, col_tile, 1,
                                  OperandKind::kActivation,
                                  OperandKind::kActivation},
                        c.accel.sg_bytes / 4,
                        Stationarity::kOutputStationary);
                    fdf.l2_attend = default_l2_tile(
                        c.accel,
                        GemmShape{256, col_tile, dims.head_dim, 1,
                                  OperandKind::kActivation,
                                  OperandKind::kActivation},
                        c.accel.sg_bytes / 4,
                        Stationarity::kOutputStationary);
                    const OperatorCost flash_cost =
                        model_attention(kFlash, c.accel, dims, fdf);
                    flash = flash_cost.util();
                    flash_bound = to_string(
                        attention_timeline(kFlash, c.accel, dims, fdf)
                            .bound_by);
                    flash_dram_ratio =
                        flash_cost.activity.traffic.total_dram() /
                        model_attention(kFlat, c.accel, dims, df)
                            .activity.traffic.total_dram();
                }
                const bool has_seq = g != Granularity::kRow;
                const double seq =
                    has_seq // baseline cannot run row granularity
                        ? model_attention(kBaseline, c.accel, dims, df)
                              .util()
                        : 0.0;
                const std::string seq_bound =
                    has_seq ? to_string(attention_timeline(
                                            kBaseline, c.accel, dims, df,
                                            BaselineOverlap::kFull)
                                            .bound_by)
                            : "n/a";

                const auto cell = [](double util,
                                     const std::string& bound) {
                    return fmt(util, 3) + " (" + bound + ")";
                };
                table.add_row({c.accel.name, c.model.name,
                               std::to_string(n), df.cross.tag(),
                               has_seq ? cell(seq, seq_bound) : "n/a",
                               cell(pipe, pipe_bound),
                               cell(inter, inter_bound),
                               has_flash ? cell(flash, flash_bound)
                                         : "n/a"});
                if (csv) {
                    csv->add_row({c.accel.name, c.model.name,
                                  std::to_string(n), df.cross.tag(),
                                  fmt(seq, 4), seq_bound, fmt(pipe, 4),
                                  pipe_bound, fmt(inter, 4),
                                  inter_bound, fmt(flash, 4),
                                  flash_bound,
                                  fmt(flash_dram_ratio, 4)});
                }
            }
        }
    }
    table.print(std::cout);
    std::printf(
        "\nBoth fused styles keep the intermediate on-chip and beat the "
        "sequential baseline. Interleaving\nwins (or ties within noise) "
        "wherever the two stages are imbalanced — A's narrow n=dk maps "
        "poorly\non wide half-arrays (see cloud rows) — and §5.1's "
        "remaining arguments (array-split area, pipeline\nfill/drain, "
        "inefficiency on non-fused operators) all favor interleaving "
        "too; they lie outside the\nL-A scope measured here.\n");

    // Second view: let each style's DSE pick its own best dataflow.
    // The style menu comes from the registry, so a newly registered
    // execution style shows up here with no bench change. Ratios are
    // against the FLAT pick — flash earns its place on long
    // memory-bound sequences, where the R-Gran floor forces FLAT into
    // tiny row tiles or DRAM-spilled intermediates while flash streams
    // column blocks with the intermediate in the register tier.
    std::printf("\nDSE-picked optimum per registered style (edge, "
                "bert, L-A runtime; ratios vs the FLAT pick):\n");
    TextTable dse_table({"SeqLen", "style", "picked dataflow",
                         "cycles vs FLAT", "DRAM vs FLAT"});
    auto dse_csv = open_csv("ablation_execution_dse.csv",
                            {"seq", "style", "tag", "cycles_ratio",
                             "dram_ratio"});
    for (std::uint64_t n : {8192u, 32768u, 65536u}) {
        const Workload w = make_workload(bert_base(), kBatch, n);
        const AttentionDims dims = AttentionDims::from_workload(w);
        AttentionSearchOptions opt;
        opt.quick = true;
        const AttentionSearchResult flat_best =
            search_attention(edge_accel(), dims, opt);
        for (const ExecutionStyle* style : execution_styles()) {
            AttentionSearchOptions styled = opt;
            styled.fused = style->fused();
            styled.styles = {style->id()};
            const AttentionSearchResult best =
                search_attention(edge_accel(), dims, styled);
            if (!best.found) {
                dse_table.add_row({std::to_string(n), style->id(),
                                   "infeasible", "-", "-"});
                continue;
            }
            const double cycles_ratio = best.best.cost.cycles /
                                        flat_best.best.cost.cycles;
            const double dram_ratio =
                best.best.cost.activity.traffic.total_dram() /
                flat_best.best.cost.activity.traffic.total_dram();
            dse_table.add_row({std::to_string(n), style->id(),
                               best.best.dataflow.tag(),
                               fmt(cycles_ratio, 3),
                               fmt(dram_ratio, 3)});
            if (dse_csv) {
                dse_csv->add_row({std::to_string(n), style->id(),
                                  best.best.dataflow.tag(),
                                  fmt(cycles_ratio, 4),
                                  fmt(dram_ratio, 4)});
            }
        }
    }
    dse_table.print(std::cout);
    std::printf(
        "\nA ratio < 1 means flash wins outright: its online softmax "
        "legalizes C-Gran tiles below the\nR-Gran floor, so on "
        "long-sequence memory-bound shapes `--style all` picks flash "
        "and the speedup\ntracks the DRAM-traffic ratio.\n");
    return 0;
}
