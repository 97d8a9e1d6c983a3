#include "common/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <new>

#include "common/diagnostics.h"

namespace flat {
namespace {

/** Every test leaves the global fault registry clean. */
class FaultInjection : public ::testing::Test
{
  protected:
    void TearDown() override { disarm_all_faults(); }
};

void
probe_once()
{
    FLAT_FAULT_POINT("test.site");
}

TEST_F(FaultInjection, UnarmedProbeIsInert)
{
    EXPECT_FALSE(fault_injection::enabled());
    EXPECT_NO_THROW(probe_once());
}

TEST_F(FaultInjection, ArmedProbeThrowsOnSeedThHit)
{
    FaultSpec spec;
    spec.seed = 2;
    arm_fault("test.site", spec);
    EXPECT_TRUE(fault_injection::enabled());
    EXPECT_NO_THROW(probe_once()); // hit 0
    EXPECT_NO_THROW(probe_once()); // hit 1
    EXPECT_THROW(probe_once(), FaultInjectedError); // hit 2 fires
    EXPECT_NO_THROW(probe_once()); // fired already, counter moved on
}

TEST_F(FaultInjection, ScopedFaultFiresOnlyInMatchingScope)
{
    FaultSpec spec;
    spec.seed = 7;
    arm_fault("test.site", spec);
    for (std::uint64_t id : {0ull, 3ull, 6ull, 8ull}) {
        FaultScope scope(id);
        EXPECT_NO_THROW(probe_once()) << "scope " << id;
    }
    {
        FaultScope scope(7);
        EXPECT_THROW(probe_once(), FaultInjectedError);
    }
}

TEST_F(FaultInjection, ScopedFiringIsRepeatableAcrossRuns)
{
    FaultSpec spec;
    spec.seed = 1;
    arm_fault("test.site", spec);
    for (int run = 0; run < 3; ++run) {
        FaultScope miss(0);
        EXPECT_NO_THROW(probe_once());
    }
    for (int run = 0; run < 3; ++run) {
        FaultScope match(1);
        EXPECT_THROW(probe_once(), FaultInjectedError);
    }
}

TEST_F(FaultInjection, ActionsMapToTaxonomy)
{
    FaultSpec spec;
    spec.action = FaultAction::kThrowInternal;
    arm_fault("test.site", spec);
    {
        FaultScope scope(0);
        EXPECT_THROW(probe_once(), InternalError);
    }
    spec.action = FaultAction::kThrowBadAlloc;
    arm_fault("test.site", spec);
    {
        FaultScope scope(0);
        EXPECT_THROW(probe_once(), std::bad_alloc);
    }
}

TEST_F(FaultInjection, DelayActionSleepsOncePerScope)
{
    FaultSpec spec;
    spec.action = FaultAction::kDelay;
    spec.delay_ms = 50;
    arm_fault("test.site", spec);
    FaultScope scope(0);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_NO_THROW(probe_once());
    EXPECT_NO_THROW(probe_once()); // second hit in the scope: no sleep
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    EXPECT_GE(ms, 50.0);
    EXPECT_LT(ms, 1000.0);
}

TEST_F(FaultInjection, CrashActionAbortsTheProcess)
{
    EXPECT_DEATH(
        {
            FaultSpec spec;
            spec.action = FaultAction::kCrash;
            arm_fault("test.site", spec);
            FaultScope scope(0);
            probe_once();
        },
        "crash fault");
}

TEST_F(FaultInjection, FiredSiteIsAttributedToDiagnostics)
{
    FaultSpec spec;
    arm_fault("test.site", spec);
    FaultScope scope(0);
    try {
        probe_once();
        FAIL() << "probe should have thrown";
    } catch (const std::exception& e) {
        const Diagnostic diag = diagnostic_from_exception(e);
        EXPECT_EQ(diag.probe_site, "test.site");
    }
}

TEST_F(FaultInjection, DisarmRestoresInertProbes)
{
    arm_fault("test.site", FaultSpec{});
    disarm_fault("test.site");
    EXPECT_FALSE(fault_injection::enabled());
    FaultScope scope(0);
    EXPECT_NO_THROW(probe_once());
}

TEST_F(FaultInjection, RegistryListsReachedSites)
{
    probe_once();
    const std::vector<std::string> sites = registered_fault_sites();
    EXPECT_NE(std::find(sites.begin(), sites.end(), "test.site"),
              sites.end());
}

TEST_F(FaultInjection, ParsesCliSpecs)
{
    {
        const auto [site, spec] = parse_fault_spec("dse.search_attention");
        EXPECT_EQ(site, "dse.search_attention");
        EXPECT_EQ(spec.seed, 0u);
        EXPECT_EQ(spec.action, FaultAction::kThrowError);
    }
    {
        const auto [site, spec] = parse_fault_spec("sweep.point:7");
        EXPECT_EQ(site, "sweep.point");
        EXPECT_EQ(spec.seed, 7u);
    }
    {
        const auto [site, spec] =
            parse_fault_spec("sweep.point:3:delay=500");
        EXPECT_EQ(spec.seed, 3u);
        EXPECT_EQ(spec.action, FaultAction::kDelay);
        EXPECT_EQ(spec.delay_ms, 500u);
    }
    {
        const auto [site, spec] = parse_fault_spec("x:1:internal");
        EXPECT_EQ(spec.action, FaultAction::kThrowInternal);
    }
    {
        const auto [site, spec] = parse_fault_spec("sweep.point:5:crash");
        EXPECT_EQ(spec.seed, 5u);
        EXPECT_EQ(spec.action, FaultAction::kCrash);
    }
    EXPECT_THROW(parse_fault_spec(""), Error);
    EXPECT_THROW(parse_fault_spec("site:abc"), Error);
    EXPECT_THROW(parse_fault_spec("site:1:frobnicate"), Error);
    EXPECT_THROW(parse_fault_spec("site:1:delay=xyz"), Error);
    EXPECT_THROW(parse_fault_spec("site:1:transient"), Error);
    EXPECT_THROW(parse_fault_spec("site:1:crash=5"), Error);
}

} // namespace
} // namespace flat
