/**
 * @file
 * Deterministic, seed-driven fault injection for robustness testing.
 *
 * Library code marks named probe sites:
 *
 *   FLAT_FAULT_POINT("gemm_engine.tile_menu");
 *
 * A probe is free when nothing is armed (one relaxed atomic load).
 * Tests and the CLI arm a site with a FaultSpec; when an armed probe
 * fires it throws (Error / InternalError / bad_alloc) or sleeps,
 * letting a harness prove that one poisoned work item degrades
 * gracefully instead of taking the whole process down.
 *
 * Determinism contract: a batch driver wraps each work item in a
 * FaultScope carrying the item's index. An armed fault fires exactly in
 * the scope whose id equals the spec's seed, so "poison point 7" means
 * point 7 on every run, for any thread count. Probes hit outside any
 * scope fire on the seed-th hit of that site (a per-site counter).
 */
#ifndef FLAT_COMMON_FAULT_INJECTION_H
#define FLAT_COMMON_FAULT_INJECTION_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace flat {

/** Thrown by an armed probe with action kThrowError. */
class FaultInjectedError : public Error
{
  public:
    FaultInjectedError(const std::string& site, const std::string& msg)
        : Error(msg), site_(site)
    {
    }

    const std::string& site() const { return site_; }

  private:
    std::string site_;
};

/** What an armed probe does when it fires. */
enum class FaultAction {
    kThrowError,    ///< throw FaultInjectedError (a flat::Error)
    kThrowInternal, ///< throw flat::InternalError
    kThrowBadAlloc, ///< throw std::bad_alloc (simulated OOM)
    kDelay,         ///< sleep delay_ms once per scope (deadline tests)
    kCrash,         ///< std::abort() mid-run (kill/resume tests)
};

/** One armed fault. */
struct FaultSpec {
    FaultAction action = FaultAction::kThrowError;

    /** FaultScope id (work-item index) the fault fires in; outside any
     *  scope, the 0-based hit number of the site that fires. */
    std::uint64_t seed = 0;

    /** Sleep duration for kDelay, in milliseconds. */
    std::uint64_t delay_ms = 0;
};

/** Arms (or re-arms) @p site with @p spec. */
void arm_fault(const std::string& site, const FaultSpec& spec);

/** Disarms @p site (no-op when not armed). */
void disarm_fault(const std::string& site);

/** Disarms everything and resets the per-site hit counters. */
void disarm_all_faults();

/**
 * Parses the CLI syntax SITE[:SEED][:ACTION[=N]], where ACTION is one
 * of error | internal | oom | delay[=MS] (default 1000) | crash
 * (std::abort() mid-run, for kill/resume testing):
 *   "dse.search_attention:7"
 *   "sweep.point:3:delay=500"
 *   "sweep.point:5:crash"
 * Throws flat::Error on malformed specs.
 */
std::pair<std::string, FaultSpec> parse_fault_spec(const std::string& text);

/** Probe sites reached at least once in this process, sorted. */
std::vector<std::string> registered_fault_sites();

/**
 * The site of the most recent fault that fired (threw or slept) on the
 * calling thread; empty when none. Consumed (cleared) by the call, so
 * diagnostics attribute a fault to exactly one record.
 */
std::string take_last_fired_fault_site();

/**
 * RAII thread-local scope id tagging the current work item (see the
 * determinism contract above). Scopes do not nest meaningfully: the
 * innermost active scope wins.
 */
class FaultScope
{
  public:
    explicit FaultScope(std::uint64_t id);
    ~FaultScope();

    FaultScope(const FaultScope&) = delete;
    FaultScope& operator=(const FaultScope&) = delete;
};

namespace fault_injection {

/** Fast-path guard: true iff at least one fault is armed. */
bool enabled();

/** Slow path behind FLAT_FAULT_POINT; may throw or sleep. */
void hit(const char* site);

/** Adds @p site to the probe registry; always returns true. */
bool register_site(const char* site);

} // namespace fault_injection
} // namespace flat

/**
 * Marks a named probe site. Near-zero cost when nothing is armed; the
 * site registers itself on first execution (thread-safe static init).
 */
#define FLAT_FAULT_POINT(site)                                               \
    do {                                                                     \
        static const bool flat_fault_registered__ =                          \
            ::flat::fault_injection::register_site(site);                    \
        (void)flat_fault_registered__;                                       \
        if (::flat::fault_injection::enabled()) {                            \
            ::flat::fault_injection::hit(site);                              \
        }                                                                    \
    } while (0)

#endif // FLAT_COMMON_FAULT_INJECTION_H
