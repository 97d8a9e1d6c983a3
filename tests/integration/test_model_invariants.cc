/**
 * @file
 * Seeded random stress tests: hundreds of random (workload, dataflow,
 * accelerator) configurations are pushed through the cost model, and
 * invariants that must hold for EVERY configuration are asserted —
 * utilization bounds, compulsory-traffic lower bounds, fusion dominance
 * and buffer monotonicity.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "common/units.h"
#include "costmodel/attention_cost.h"
#include "energy/energy_model.h"

namespace flat {
namespace {

const ExecutionStyle& kBaseline = baseline_execution_style();
const ExecutionStyle& kFlat = flat_execution_style();
const ExecutionStyle& kPipelined = pipelined_execution_style();

struct RandomCase {
    AccelConfig accel;
    AttentionDims dims;
    FusedDataflow dataflow;
};

class CaseGenerator
{
  public:
    explicit CaseGenerator(std::uint32_t seed) : rng_(seed) {}

    RandomCase
    next()
    {
        RandomCase c;
        c.accel = pick({edge_accel(), cloud_accel()});
        c.accel.sg_bytes = pick<std::uint64_t>(
            {64 * kKiB, 512 * kKiB, 8 * kMiB, 64 * kMiB});
        if (flip()) {
            c.accel.sg2_bytes = pick<std::uint64_t>(
                {16 * kMiB, 128 * kMiB});
            c.accel.sg2_bw =
                std::min(4.0 * c.accel.offchip_bw, c.accel.onchip_bw);
        }

        c.dims.batch = pick<std::uint64_t>({1, 4, 32});
        c.dims.heads = pick<std::uint64_t>({1, 8, 16});
        c.dims.q_len = pick<std::uint64_t>({256, 1024, 4096, 16384});
        c.dims.kv_len = flip() ? c.dims.q_len
                               : pick<std::uint64_t>({512, 2048});
        c.dims.head_dim = pick<std::uint64_t>({32, 64, 128});

        c.dataflow.cross.granularity =
            pick({Granularity::kMulti, Granularity::kBatch,
                  Granularity::kHead, Granularity::kRow});
        c.dataflow.cross.rows = pick<std::uint64_t>({16, 64, 256});
        c.dataflow.l2_logit = random_tile();
        c.dataflow.l2_attend = random_tile();
        c.dataflow.order_logit = pick({LoopOrder::kMKN, LoopOrder::kMNK,
                                       LoopOrder::kKMN, LoopOrder::kNKM});
        c.dataflow.order_attend = pick({LoopOrder::kMNK, LoopOrder::kNMK,
                                        LoopOrder::kKNM});
        c.dataflow.stat_logit =
            pick({Stationarity::kOutputStationary,
                  Stationarity::kWeightStationary,
                  Stationarity::kInputStationary});
        c.dataflow.stat_attend =
            pick({Stationarity::kOutputStationary,
                  Stationarity::kInputStationary});
        c.dataflow.stage =
            FusedStageFlags::decode(rng_() % 32);
        return c;
    }

  private:
    template <typename T>
    T
    pick(std::initializer_list<T> options)
    {
        auto it = options.begin();
        std::advance(it, rng_() % options.size());
        return *it;
    }

    bool flip() { return (rng_() & 1u) != 0; }

    L2Tile
    random_tile()
    {
        return {pick<std::uint64_t>({16, 64, 256, 1024}),
                pick<std::uint64_t>({16, 64, 256}),
                pick<std::uint64_t>({16, 64, 256, 1024})};
    }

    std::mt19937 rng_;
};

constexpr int kCases = 300;

TEST(ModelInvariants, UtilizationBoundedAndFinite)
{
    CaseGenerator gen(1);
    for (int i = 0; i < kCases; ++i) {
        const RandomCase c = gen.next();
        const OperatorCost cost =
            model_attention(kFlat, c.accel, c.dims, c.dataflow);
        EXPECT_TRUE(std::isfinite(cost.cycles)) << "case " << i;
        EXPECT_GT(cost.util(), 0.0) << "case " << i;
        EXPECT_LE(cost.util(), 1.0 + 1e-9) << "case " << i;
        EXPECT_GE(cost.resident_fraction, 0.0);
        EXPECT_LE(cost.resident_fraction, 1.0 + 1e-9);
    }
}

TEST(ModelInvariants, TrafficAtLeastCompulsory)
{
    CaseGenerator gen(2);
    for (int i = 0; i < kCases; ++i) {
        const RandomCase c = gen.next();
        const OperatorCost cost =
            model_attention(kFlat, c.accel, c.dims, c.dataflow);
        const double bpe = c.accel.bytes_per_element;
        const double bh =
            static_cast<double>(c.dims.batch) * c.dims.heads;
        const double inputs =
            bh * (c.dims.q_len + 2.0 * c.dims.kv_len) * c.dims.head_dim *
            bpe;
        const double outputs =
            bh * c.dims.q_len * c.dims.head_dim * bpe;
        EXPECT_GE(cost.activity.traffic.dram_read, inputs - 1.0)
            << "case " << i;
        EXPECT_GE(cost.activity.traffic.dram_write, outputs - 1.0)
            << "case " << i;
    }
}

TEST(ModelInvariants, FusedNeverSlowerThanSequentialSameDataflow)
{
    CaseGenerator gen(3);
    for (int i = 0; i < kCases; ++i) {
        RandomCase c = gen.next();
        if (c.dataflow.cross.granularity == Granularity::kRow) {
            c.dataflow.cross.granularity = Granularity::kHead;
        }
        const double fused =
            model_attention(kFlat, c.accel, c.dims, c.dataflow).cycles;
        const double sequential =
            model_attention(kBaseline, c.accel, c.dims, c.dataflow).cycles;
        EXPECT_LE(fused, sequential * 1.0001) << "case " << i;
    }
}

TEST(ModelInvariants, LargerBufferNeverSlowerSameDataflow)
{
    CaseGenerator gen(4);
    for (int i = 0; i < kCases / 3; ++i) {
        const RandomCase c = gen.next();
        AccelConfig bigger = c.accel;
        bigger.sg_bytes *= 8;
        const double small_cycles =
            model_attention(kFlat, c.accel, c.dims, c.dataflow).cycles;
        const double big_cycles =
            model_attention(kFlat, bigger, c.dims, c.dataflow).cycles;
        EXPECT_LE(big_cycles, small_cycles * 1.0001) << "case " << i;
    }
}

TEST(ModelInvariants, EnergyFinitePositiveAndLinearInBlocks)
{
    CaseGenerator gen(5);
    const EnergyTable table;
    for (int i = 0; i < kCases / 3; ++i) {
        const RandomCase c = gen.next();
        const OperatorCost cost =
            model_attention(kFlat, c.accel, c.dims, c.dataflow);
        const double e = estimate_energy(table, cost.activity).total();
        EXPECT_TRUE(std::isfinite(e)) << "case " << i;
        EXPECT_GT(e, 0.0) << "case " << i;

        ActivityCounts doubled = cost.activity;
        doubled += cost.activity;
        EXPECT_NEAR(estimate_energy(table, doubled).total(), 2.0 * e,
                    1e-9 * e);
    }
}

TEST(ModelInvariants, FootprintMatchesDataflowFunction)
{
    CaseGenerator gen(6);
    for (int i = 0; i < kCases / 3; ++i) {
        const RandomCase c = gen.next();
        const OperatorCost cost =
            model_attention(kFlat, c.accel, c.dims, c.dataflow);
        EXPECT_EQ(cost.live_footprint_bytes,
                  fused_live_footprint(c.dataflow, c.dims,
                                       c.accel.bytes_per_element))
            << "case " << i;
    }
}

TEST(ModelInvariants, PipelinedAlsoBounded)
{
    CaseGenerator gen(7);
    for (int i = 0; i < kCases / 3; ++i) {
        const RandomCase c = gen.next();
        const OperatorCost cost =
            model_attention(kPipelined, c.accel, c.dims, c.dataflow);
        EXPECT_GT(cost.util(), 0.0) << "case " << i;
        EXPECT_LE(cost.util(), 1.0 + 1e-9) << "case " << i;
    }
}

} // namespace
} // namespace flat
