#include "dataflow/reuse.h"

#include "common/status.h"

namespace flat {
namespace {

std::uint64_t
trips_of(Dim dim, std::uint64_t tm, std::uint64_t tk, std::uint64_t tn)
{
    switch (dim) {
      case Dim::kM: return tm;
      case Dim::kK: return tk;
      case Dim::kN: return tn;
    }
    return 1;
}

/** True iff @p dim indexes the tensor described by the two flags. */
bool
indexes(Dim dim, bool uses_m, bool uses_k, bool uses_n)
{
    switch (dim) {
      case Dim::kM: return uses_m;
      case Dim::kK: return uses_k;
      case Dim::kN: return uses_n;
    }
    return false;
}

/**
 * Fetch count = total trips / product of trips of the contiguous
 * innermost loops that do not index the tensor (those iterations reuse
 * the resident tile for free).
 */
std::uint64_t
fetch_count(const Dim dims[3], std::uint64_t tm, std::uint64_t tk,
            std::uint64_t tn, bool uses_m, bool uses_k, bool uses_n)
{
    std::uint64_t fetches = 1;
    for (int i = 0; i < 3; ++i) {
        fetches *= trips_of(dims[i], tm, tk, tn);
    }
    // Contiguous innermost loops that do not index the tensor reuse the
    // resident tile for free. A degenerate loop (one trip) never forces
    // a refetch, so it does not break the contiguity either.
    std::uint64_t free_reuse = 1;
    for (int i = 2; i >= 0; --i) {
        const std::uint64_t trips = trips_of(dims[i], tm, tk, tn);
        if (trips > 1 && indexes(dims[i], uses_m, uses_k, uses_n)) {
            break;
        }
        free_reuse *= trips;
    }
    return fetches / free_reuse;
}

} // namespace

ReuseCounts
analyze_reuse(LoopOrder order, std::uint64_t trips_m, std::uint64_t trips_k,
              std::uint64_t trips_n)
{
    FLAT_CHECK(trips_m > 0 && trips_k > 0 && trips_n > 0,
               "trip counts must be positive");

    Dim dims[3];
    loop_order_dims(order, dims);

    ReuseCounts counts;
    counts.a_fetches =
        fetch_count(dims, trips_m, trips_k, trips_n, true, true, false);
    counts.b_fetches =
        fetch_count(dims, trips_m, trips_k, trips_n, false, true, true);
    counts.c_tiles = trips_m * trips_n;

    const std::uint64_t c_fetches =
        fetch_count(dims, trips_m, trips_k, trips_n, true, false, true);
    counts.c_writes = c_fetches;
    // The first residency period of each distinct C tile starts from
    // zero-initialized accumulators, so only later periods re-read.
    counts.c_reads = c_fetches - counts.c_tiles;
    return counts;
}

} // namespace flat
