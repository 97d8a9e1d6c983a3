/**
 * @file
 * An accelerator and one in-place edit per AccelConfig field, shared
 * by the tests that every field must reach: the journal hashes and the
 * GEMM memo (test_traffic_determinism.cc), and the L-A evaluator's
 * block-part table (test_timeline_batch.cc).
 */
#ifndef FLAT_TESTS_SUPPORT_ACCEL_EDITS_H
#define FLAT_TESTS_SUPPORT_ACCEL_EDITS_H

#include <utility>
#include <vector>

#include "arch/accel_config.h"

namespace flat {

/** Edge with an SG2 level, so every double field starts nonzero. */
inline AccelConfig
edit_base()
{
    AccelConfig accel = edge_accel();
    accel.sg2_bytes = 4ull << 20;
    accel.sg2_bw = 200e9;
    return accel;
}

using AccelEdit = std::pair<const char*, void (*)(AccelConfig&)>;

/** One edit per AccelConfig field of edit_base(), plus a relative
 *  1e-9 nudge of every double field: each must reach every key. */
inline const std::vector<AccelEdit>&
accel_edits()
{
    static const std::vector<AccelEdit> edits = {
        {"name", [](AccelConfig& a) { a.name = "other"; }},
        {"pe_rows", [](AccelConfig& a) { a.pe_rows = 16; }},
        {"pe_cols", [](AccelConfig& a) { a.pe_cols = 16; }},
        {"sl_bytes", [](AccelConfig& a) { a.sl_bytes *= 2; }},
        {"sg_bytes", [](AccelConfig& a) { a.sg_bytes *= 2; }},
        {"sg2_bytes", [](AccelConfig& a) { a.sg2_bytes = 1 << 26; }},
        {"rf_bytes", [](AccelConfig& a) { a.rf_bytes = 4096; }},
        {"dram_bytes", [](AccelConfig& a) { a.dram_bytes = 1 << 30; }},
        {"sg2_bw", [](AccelConfig& a) { a.sg2_bw = 60e9; }},
        {"onchip_bw", [](AccelConfig& a) { a.onchip_bw *= 2; }},
        {"offchip_bw", [](AccelConfig& a) { a.offchip_bw *= 2; }},
        {"clock_hz", [](AccelConfig& a) { a.clock_hz *= 2; }},
        {"sfu_lanes", [](AccelConfig& a) { a.sfu_lanes *= 2; }},
        {"bytes_per_element",
         [](AccelConfig& a) { a.bytes_per_element = 1; }},
        {"distribution_noc",
         [](AccelConfig& a) { a.distribution_noc = NocKind::kTree; }},
        {"reduction_noc",
         [](AccelConfig& a) { a.reduction_noc = NocKind::kTree; }},
        {"flexible_intra_dataflow",
         [](AccelConfig& a) {
             a.caps.flexible_intra_dataflow =
                 !a.caps.flexible_intra_dataflow;
         }},
        {"l3_tiling",
         [](AccelConfig& a) { a.caps.l3_tiling = !a.caps.l3_tiling; }},
        {"fused_execution",
         [](AccelConfig& a) {
             a.caps.fused_execution = !a.caps.fused_execution;
         }},
        {"sg2_bw x (1 + 1e-9)",
         [](AccelConfig& a) { a.sg2_bw *= 1 + 1e-9; }},
        {"onchip_bw x (1 + 1e-9)",
         [](AccelConfig& a) { a.onchip_bw *= 1 + 1e-9; }},
        {"offchip_bw x (1 + 1e-9)",
         [](AccelConfig& a) { a.offchip_bw *= 1 + 1e-9; }},
        {"clock_hz x (1 + 1e-9)",
         [](AccelConfig& a) { a.clock_hz *= 1 + 1e-9; }},
        {"sfu_lanes x (1 + 1e-9)",
         [](AccelConfig& a) { a.sfu_lanes *= 1 + 1e-9; }},
    };
    return edits;
}

} // namespace flat

#endif // FLAT_TESTS_SUPPORT_ACCEL_EDITS_H
