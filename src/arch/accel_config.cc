#include "arch/accel_config.h"

#include "common/status.h"
#include "common/string_util.h"
#include "common/units.h"

namespace flat {

std::uint64_t
AccelConfig::num_pes() const
{
    return static_cast<std::uint64_t>(pe_rows) * pe_cols;
}

double
AccelConfig::peak_macs_per_sec() const
{
    return static_cast<double>(num_pes()) * clock_hz;
}

double
AccelConfig::macs_per_cycle() const
{
    return static_cast<double>(num_pes());
}

double
AccelConfig::cycle_time() const
{
    return 1.0 / clock_hz;
}

double
AccelConfig::offchip_bytes_per_cycle() const
{
    return offchip_bw / clock_hz;
}

double
AccelConfig::onchip_bytes_per_cycle() const
{
    return onchip_bw / clock_hz;
}

bool
AccelConfig::has_sg2() const
{
    return sg2_bytes > 0;
}

std::uint64_t
AccelConfig::rf_capacity_bytes() const
{
    return rf_bytes > 0 ? rf_bytes : num_pes() * 64ull;
}

double
AccelConfig::sg2_bytes_per_cycle() const
{
    return has_sg2() ? sg2_bw / clock_hz : 0.0;
}

NocModel
AccelConfig::distribution_model() const
{
    return NocModel(distribution_noc, pe_rows, pe_cols);
}

NocModel
AccelConfig::reduction_model() const
{
    return NocModel(reduction_noc, pe_rows, pe_cols);
}

void
AccelConfig::validate() const
{
    FLAT_CHECK(pe_rows > 0 && pe_cols > 0,
               name << ": PE array must be non-empty");
    FLAT_CHECK(sg_bytes > 0, name << ": SG must be non-empty");
    FLAT_CHECK(sl_bytes > 0, name << ": SL must be non-empty");
    FLAT_CHECK(onchip_bw > 0.0, name << ": on-chip BW must be positive");
    FLAT_CHECK(offchip_bw > 0.0, name << ": off-chip BW must be positive");
    if (sg2_bytes > 0) {
        FLAT_CHECK(sg2_bw > 0.0,
                   name << ": SG2 needs a positive bandwidth");
        FLAT_CHECK(sg2_bw >= offchip_bw && sg2_bw <= onchip_bw,
                   name << ": SG2 BW should sit between off-chip and "
                           "SG bandwidth");
    }
    FLAT_CHECK(offchip_bw <= onchip_bw,
               name << ": off-chip BW (" << format_bandwidth(offchip_bw)
                    << ") should not exceed on-chip BW ("
                    << format_bandwidth(onchip_bw) << ")");
    FLAT_CHECK(clock_hz > 0.0, name << ": clock must be positive");
    FLAT_CHECK(sfu_lanes > 0.0, name << ": SFU must have lanes");
    FLAT_CHECK(bytes_per_element == 1 || bytes_per_element == 2 ||
                   bytes_per_element == 4,
               name << ": unsupported element width "
                    << bytes_per_element);
}

std::string
AccelConfig::canonical() const
{
    return strprintf(
        "accel %s %ux%u sl=%llu sg=%llu sg2=%llu@%.17g rf=%llu dram=%llu "
        "on=%.17g off=%.17g clk=%.17g sfu=%.17g bpe=%u noc=%d/%d "
        "caps=%d%d%d\n",
        name.c_str(), pe_rows, pe_cols,
        static_cast<unsigned long long>(sl_bytes),
        static_cast<unsigned long long>(sg_bytes),
        static_cast<unsigned long long>(sg2_bytes), sg2_bw,
        static_cast<unsigned long long>(rf_bytes),
        static_cast<unsigned long long>(dram_bytes), onchip_bw, offchip_bw,
        clock_hz, sfu_lanes, bytes_per_element,
        static_cast<int>(distribution_noc), static_cast<int>(reduction_noc),
        static_cast<int>(caps.flexible_intra_dataflow),
        static_cast<int>(caps.l3_tiling),
        static_cast<int>(caps.fused_execution));
}

AccelConfig
edge_accel()
{
    AccelConfig cfg;
    cfg.name = "edge";
    cfg.pe_rows = 32;
    cfg.pe_cols = 32;
    cfg.sl_bytes = 1 * kKiB;
    cfg.sg_bytes = 512 * kKiB;
    cfg.onchip_bw = 1.0 * kTBps;
    cfg.offchip_bw = 50.0 * kGBps;
    cfg.clock_hz = 1.0 * kGHz;
    cfg.sfu_lanes = 256.0;
    cfg.dram_bytes = 8 * kGiB;
    return cfg;
}

AccelConfig
cloud_accel()
{
    AccelConfig cfg;
    cfg.name = "cloud";
    cfg.pe_rows = 256;
    cfg.pe_cols = 256;
    cfg.sl_bytes = 2 * kKiB;
    cfg.sg_bytes = 32 * kMiB;
    cfg.onchip_bw = 8.0 * kTBps;
    cfg.offchip_bw = 400.0 * kGBps;
    cfg.clock_hz = 1.0 * kGHz;
    cfg.sfu_lanes = 4096.0;
    cfg.dram_bytes = 80 * kGiB;
    return cfg;
}

AccelConfig
accel_preset(const std::string& name)
{
    const std::string key = to_lower(name);
    if (key == "edge") {
        return edge_accel();
    }
    if (key == "cloud") {
        return cloud_accel();
    }
    FLAT_FAIL("unknown platform '" << name << "' (edge | cloud)");
}

} // namespace flat
