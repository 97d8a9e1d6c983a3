/**
 * @file
 * Hardware resource description of a spatial DNN accelerator (Figure 5).
 *
 * The accelerator comprises a PE array (each PE: one MAC + a local
 * scratchpad SL), a global on-chip scratchpad (SG), a special function
 * unit (SFU) for softmax/reductions, and interfaces to on-chip (SG<->PE)
 * and off-chip (DRAM<->SG) memory with bounded bandwidth.
 */
#ifndef FLAT_ARCH_ACCEL_CONFIG_H
#define FLAT_ARCH_ACCEL_CONFIG_H

#include <cstdint>
#include <string>

#include "arch/noc.h"

namespace flat {

/**
 * Dataflow-related capabilities of an accelerator (Figure 7(c)).
 *
 * These do not change the hardware resources; they restrict which
 * dataflow configurations the scheduler may use on this accelerator.
 */
struct Capabilities {
    /** Can run any intra-operator dataflow (FlexAccel/ATTACC) or only a
     *  fixed one (BaseAccel). */
    bool flexible_intra_dataflow = true;
    /** Supports an L3 staging tile in the soft-partitioned SG. */
    bool l3_tiling = true;
    /** Supports fused, interleaved execution of L-A (ATTACC only). */
    bool fused_execution = true;

    bool operator==(const Capabilities&) const = default;
};

/** Physical resources of one accelerator instance. */
struct AccelConfig {
    std::string name = "accel";

    /** PE array geometry. */
    std::uint32_t pe_rows = 32;
    std::uint32_t pe_cols = 32;

    /** Per-PE local scratchpad (SL) in bytes. */
    std::uint64_t sl_bytes = 1 * 1024;

    /** Global on-chip scratchpad (SG) in bytes. */
    std::uint64_t sg_bytes = 512 * 1024;

    /**
     * Optional second-level on-chip buffer (eDRAM/MRAM class) sitting
     * between SG and DRAM: staged tensors overflow here before
     * spilling off-chip (§3.1's multi-level hierarchy). 0 = absent.
     */
    std::uint64_t sg2_bytes = 0;

    /**
     * Aggregate register-file capacity across the PE array, the staging
     * tier below SL that column-blocked (online-softmax) styles keep the
     * running logits block and output accumulator in. 0 = derive a
     * conservative default of 64 bytes per PE (see rf_capacity_bytes()).
     */
    std::uint64_t rf_bytes = 0;

    /**
     * Off-chip DRAM/HBM capacity in bytes. Admission-only (like
     * rf_bytes): decode-phase styles reject points whose KV-cache
     * footprint cannot reside off-chip. 0 = unlimited.
     */
    std::uint64_t dram_bytes = 0;

    /** SG2 <-> SG bandwidth (bytes/s); only used when sg2_bytes > 0. */
    double sg2_bw = 0.0;

    /** SG <-> PE-array aggregate bandwidth (bytes/s). */
    double onchip_bw = 1e12;

    /** DRAM/HBM <-> SG bandwidth (bytes/s). */
    double offchip_bw = 50e9;

    /** Clock frequency (Hz). */
    double clock_hz = 1e9;

    /** SFU throughput in elements/cycle (softmax, reductions). */
    double sfu_lanes = 128.0;

    /** Element size in bytes (paper evaluates at 16-bit). */
    std::uint32_t bytes_per_element = 2;

    /** Distribution / reduction NoC families. */
    NocKind distribution_noc = NocKind::kSystolic;
    NocKind reduction_noc = NocKind::kSystolic;

    /** Dataflow capabilities (see Figure 7(c) accelerator catalog). */
    Capabilities caps;

    /** Total number of PEs. */
    std::uint64_t num_pes() const;

    /** Peak MACs per second (1 MAC/PE/cycle). */
    double peak_macs_per_sec() const;

    /** Peak MACs per cycle. */
    double macs_per_cycle() const;

    /** Seconds per cycle. */
    double cycle_time() const;

    /** Off-chip bytes transferable per cycle. */
    double offchip_bytes_per_cycle() const;

    /** On-chip bytes transferable per cycle. */
    double onchip_bytes_per_cycle() const;

    /** True iff a second-level on-chip buffer is configured. */
    bool has_sg2() const;

    /** Register-tier capacity: rf_bytes, or 64 bytes/PE when unset. */
    std::uint64_t rf_capacity_bytes() const;

    /** SG2 bytes transferable per cycle (0 when absent). */
    double sg2_bytes_per_cycle() const;

    /** NoC model instance for operand distribution. */
    NocModel distribution_model() const;

    /** NoC model instance for output reduction/collection. */
    NocModel reduction_model() const;

    /** Throws flat::Error if the configuration is inconsistent. */
    void validate() const;

    /** Every field as one '\n'-terminated line, doubles at round-trip
     *  precision: the accelerator part of every journal hash, so a
     *  change to any field makes the journal stale. */
    std::string canonical() const;

    /** Field by field: an evaluator's block-part table is valid for
     *  one accelerator by value (attention_cost.h). */
    bool operator==(const AccelConfig&) const = default;
};

/** Edge preset of Figure 7(a): 32x32 PEs, 512KB SG, 1TB/s / 50GB/s. */
AccelConfig edge_accel();

/** Cloud preset of Figure 7(a): 256x256 PEs, 32MB SG, 8TB/s / 400GB/s. */
AccelConfig cloud_accel();

/** The Figure 7(a) preset named @p name ("edge" | "cloud", any case);
 *  throws flat::Error for any other name. */
AccelConfig accel_preset(const std::string& name);

} // namespace flat

#endif // FLAT_ARCH_ACCEL_CONFIG_H
