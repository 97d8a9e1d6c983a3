/**
 * @file
 * Network-on-chip models for operand distribution and output reduction.
 *
 * The paper (§5.3.1) models different distribution/reduction NoC choices
 * (systolic, tree, crossbar) that trade off bandwidth against the time to
 * fill/drain the PE array when switching tiles. We capture exactly that
 * first-order effect: a per-tile-switch latency (cold start + tail) and a
 * per-element streaming cost expressed as elements/cycle into the array.
 */
#ifndef FLAT_ARCH_NOC_H
#define FLAT_ARCH_NOC_H

#include <cstdint>
#include <string>

namespace flat {

/** NoC family used for operand distribution or output collection. */
enum class NocKind {
    kSystolic, ///< store-and-forward mesh links (TPU-style)
    kTree,     ///< fat-tree distribution / adder-tree reduction (MAERI-style)
    kCrossbar, ///< all-to-all switch (small arrays only)
};

std::string to_string(NocKind kind);

/**
 * Latency/bandwidth model of one NoC instance attached to a PE array.
 *
 * All quantities are in cycles or elements/cycle; the caller converts to
 * seconds with the accelerator clock.
 */
class NocModel
{
  public:
    /**
     * @param kind NoC family.
     * @param rows PE array rows this NoC spans.
     * @param cols PE array columns this NoC spans.
     */
    NocModel(NocKind kind, std::uint32_t rows, std::uint32_t cols);

    NocKind kind() const { return kind_; }

    /**
     * Cycles to fill the array when a new tile is mapped (cold start).
     * Systolic arrays pay the wavefront skew (rows + cols); trees pay the
     * pipeline depth of the levels; crossbars a small constant.
     */
    std::uint64_t fill_latency() const;

    /** Cycles to drain the last outputs after the final MAC (tail). */
    std::uint64_t drain_latency() const;

  private:
    NocKind kind_;
    std::uint32_t rows_;
    std::uint32_t cols_;
};

} // namespace flat

#endif // FLAT_ARCH_NOC_H
