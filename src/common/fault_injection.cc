#include "common/fault_injection.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>
#include <set>
#include <thread>

#include "common/string_util.h"

namespace flat {
namespace {

/** Number of armed sites; probes bail out when it is zero. */
std::atomic<int> g_armed_count{0};

std::mutex g_mutex;

struct ArmedFault {
    FaultSpec spec;
    /** Hits of this site outside any scope (scope-less firing rule). */
    std::uint64_t hits = 0;
};

std::map<std::string, ArmedFault>&
armed_faults()
{
    static std::map<std::string, ArmedFault> faults;
    return faults;
}

std::set<std::string>&
site_registry()
{
    static std::set<std::string> sites;
    return sites;
}

/** Thread-local work-item scope (see FaultScope). */
struct ScopeState {
    bool active = false;
    std::uint64_t id = 0;
    /** Sites already fired in this scope (fire-once semantics). */
    std::set<std::string> fired;
};

thread_local ScopeState t_scope;
thread_local std::string t_last_fired_site;

[[noreturn]] void
throw_fault(const std::string& site, const FaultSpec& spec)
{
    const std::string msg =
        strprintf("fault injected at probe '%s' (seed %llu)",
                  site.c_str(),
                  static_cast<unsigned long long>(spec.seed));
    switch (spec.action) {
      case FaultAction::kThrowInternal:
        throw InternalError(msg);
      case FaultAction::kThrowBadAlloc:
        throw std::bad_alloc();
      case FaultAction::kCrash:
        // Simulated hard crash: no unwinding, no flushing — exactly
        // what a power cut or SIGKILL leaves behind. Kill/resume tests
        // prove the journal recovers from whatever reached the disk.
        std::fprintf(stderr, "[flat] crash fault at probe '%s'\n",
                     site.c_str());
        std::abort();
      case FaultAction::kThrowError:
      case FaultAction::kDelay:
        break;
    }
    throw FaultInjectedError(site, msg);
}

} // namespace

void
arm_fault(const std::string& site, const FaultSpec& spec)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    auto [it, inserted] = armed_faults().insert_or_assign(
        site, ArmedFault{spec, 0});
    (void)it;
    if (inserted) {
        g_armed_count.fetch_add(1, std::memory_order_relaxed);
    }
}

void
disarm_fault(const std::string& site)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    if (armed_faults().erase(site) > 0) {
        g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
}

void
disarm_all_faults()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    armed_faults().clear();
    g_armed_count.store(0, std::memory_order_relaxed);
}

std::pair<std::string, FaultSpec>
parse_fault_spec(const std::string& text)
{
    const std::vector<std::string> parts = split(text, ':');
    FLAT_CHECK(!parts.empty() && !parts[0].empty() && parts.size() <= 3,
               "fault spec '" << text
                              << "' is not SITE[:SEED][:ACTION[=MS]]");
    FaultSpec spec;
    if (parts.size() >= 2) {
        std::size_t pos = 0;
        try {
            spec.seed = std::stoull(parts[1], &pos);
        } catch (const std::exception&) {
            pos = 0;
        }
        FLAT_CHECK(pos != 0 && pos == parts[1].size(),
                   "fault spec '" << text << "' has a non-numeric seed '"
                                  << parts[1] << "'");
    }
    if (parts.size() == 3) {
        std::string action = to_lower(parts[2]);
        std::string delay;
        const std::size_t eq = action.find('=');
        if (eq != std::string::npos) {
            delay = action.substr(eq + 1);
            action = action.substr(0, eq);
        }
        if (action == "error") {
            spec.action = FaultAction::kThrowError;
        } else if (action == "internal") {
            spec.action = FaultAction::kThrowInternal;
        } else if (action == "oom") {
            spec.action = FaultAction::kThrowBadAlloc;
        } else if (action == "crash") {
            spec.action = FaultAction::kCrash;
            FLAT_CHECK(delay.empty(),
                       "fault spec '" << text
                                      << "': crash takes no argument");
        } else if (action == "delay") {
            spec.action = FaultAction::kDelay;
            spec.delay_ms = 1000;
            if (!delay.empty()) {
                std::size_t pos = 0;
                try {
                    spec.delay_ms = std::stoull(delay, &pos);
                } catch (const std::exception&) {
                    pos = 0;
                }
                FLAT_CHECK(pos != 0 && pos == delay.size(),
                           "fault spec '" << text
                                          << "' has a bad delay '"
                                          << delay << "'");
            }
        } else {
            FLAT_FAIL("fault spec '"
                      << text << "' has unknown action '" << action
                      << "' (error | internal | oom | delay[=MS] | "
                         "crash)");
        }
    }
    return {parts[0], spec};
}

std::vector<std::string>
registered_fault_sites()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return {site_registry().begin(), site_registry().end()};
}

std::string
take_last_fired_fault_site()
{
    std::string site;
    site.swap(t_last_fired_site);
    return site;
}

FaultScope::FaultScope(std::uint64_t id)
{
    t_scope.active = true;
    t_scope.id = id;
    t_scope.fired.clear();
}

FaultScope::~FaultScope()
{
    t_scope.active = false;
    t_scope.fired.clear();
}

namespace fault_injection {

bool
enabled()
{
    return g_armed_count.load(std::memory_order_relaxed) > 0;
}

bool
register_site(const char* site)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    site_registry().insert(site);
    return true;
}

void
hit(const char* site)
{
    FaultSpec spec;
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        const auto it = armed_faults().find(site);
        if (it == armed_faults().end()) {
            return;
        }
        ArmedFault& armed = it->second;
        if (t_scope.active) {
            // Scoped rule: fire exactly in the work item whose id
            // matches the seed, at most once per (site, scope).
            if (t_scope.id != armed.spec.seed ||
                t_scope.fired.count(site) > 0) {
                return;
            }
            t_scope.fired.insert(site);
        } else {
            // Scope-less rule: fire on the seed-th hit of the site.
            if (armed.hits++ != armed.spec.seed) {
                return;
            }
        }
        spec = armed.spec;
    }
    t_last_fired_site = site;
    if (spec.action == FaultAction::kDelay) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(spec.delay_ms));
        return;
    }
    throw_fault(site, spec);
}

} // namespace fault_injection
} // namespace flat
