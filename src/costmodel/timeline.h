/**
 * @file
 * Phase-timeline IR of the performance model.
 *
 * Every execution style (FLAT interleaved, sequential baseline,
 * spatially pipelined, and the standalone operator models) is expressed
 * as a list of Phase records — label, stage tag, compute/SFU occupancy,
 * per-interface byte vector, overlap group — and evaluated by ONE
 * engine, evaluate_timeline(), which owns the shared-bandwidth
 * arbitration, the serialized-vs-overlapped transfer policy and the
 * per-phase/per-group "which resource paces this" attribution (§4.3,
 * §5.1, Fig. 11).
 *
 * The cost models are pure *phase emitters*; the energy model, the
 * Fig. 11 breakdown and the --trace observability layer all consume the
 * same evaluated ledger, so their totals agree exactly by construction.
 */
#ifndef FLAT_COSTMODEL_TIMELINE_H
#define FLAT_COSTMODEL_TIMELINE_H

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "arch/accel_config.h"
#include "costmodel/cost_types.h"

namespace flat {

/** What a phase does in the L -> softmax -> A cascade. */
enum class StageTag {
    kPrefetch,  ///< DRAM/SG2 -> SG input transfers
    kLogit,     ///< L = Q.K^T on the PE array
    kSoftmax,   ///< softmax on the SFU
    kAttend,    ///< A = P.V on the PE array
    kWriteback, ///< SG -> DRAM output transfers
    kCompute,   ///< generic (non-fused operator) array work
    kColdStart, ///< exposed first-fetch / pipeline-fill window
    kCollective, ///< inter-device collective (all-gather / all-reduce)
};

/** Short stable name ("prefetch", "logit", ..., "collective"). */
const char* to_string(StageTag stage);

/**
 * The values of one phase: everything a Phase holds but its skeleton
 * (label, stage, group, track, pace-only flag). An execution style's
 * values pass writes these — into Phase records on the reference path,
 * straight into a TimelineBatch lane on the search path.
 */
struct PhaseValues {
    /** PE-array occupancy in cycles. */
    double compute_cycles = 0.0;

    /** SFU occupancy in cycles (serial with the array inside a track). */
    double sfu_cycles = 0.0;

    /**
     * Exposed fabric hop latency in cycles (collective startup: one
     * per-hop link latency per serialized step). Added to the group's
     * link lane on top of the byte-paced time; 0 for on-device phases.
     */
    double link_latency_cycles = 0.0;

    /**
     * Activity ledger of this phase: MACs, SL accesses, SFU elements
     * and the per-interface byte vector. The bytes both pace the
     * group's transfer lanes and feed the energy model — one ledger,
     * no separately-aggregated scalars.
     */
    ActivityCounts activity;
};

/**
 * One phase of an execution timeline: its values plus its skeleton.
 *
 * Phases with the same @ref group share one arbitration window: the
 * group's latency is decided jointly from the summed compute occupancy
 * and the summed per-interface bytes of its members. Groups execute
 * back-to-back in order of first appearance.
 */
struct Phase : PhaseValues {
    std::string label;
    StageTag stage = StageTag::kCompute;

    /** Overlap group id; groups run sequentially, members overlap. */
    int group = 0;

    /**
     * Concurrency track inside the group. -1 (default) = serial: the
     * phase's compute/SFU occupancy adds to the group's compute lane.
     * Tracks >= 0 run concurrently with each other (spatial pipelining:
     * the group's parallel contribution is the max over tracks).
     */
    int track = -1;

    /**
     * True for windows whose latency is exposed but whose bytes/work
     * are already counted by a steady-state phase (cold-start fetches,
     * pipeline fill). Pace-only phases contribute to timing, never to
     * the summed ledger.
     */
    bool pace_only = false;
};

/** How a group's compute and transfer lanes combine (§5.1(4)). */
enum class OverlapKind {
    /** Double-buffered: latency = max(compute, per-interface lanes). */
    kOverlapped,
    /** No off-chip hiding: latency = max(compute, on-chip lane)
     *  + max(off-chip lane, SG2 lane). */
    kSerialTransfers,
};

/** Cycle cost of one overlap group, per resource lane. */
struct LaneCycles {
    double compute = 0.0; ///< serial compute/SFU chain (+ max over tracks)
    double offchip = 0.0; ///< DRAM bytes / off-chip bytes-per-cycle
    double onchip = 0.0;  ///< SG bytes / on-chip bytes-per-cycle
    double sg2 = 0.0;     ///< SG2 bytes / SG2 bytes-per-cycle
    double link = 0.0;    ///< fabric bytes / link bytes-per-cycle + hops
};

/** Arbitration outcome of one overlap group. */
struct GroupTiming {
    int group = 0;
    OverlapKind overlap = OverlapKind::kOverlapped;
    LaneCycles lanes;
    double latency = 0.0;
    BoundBy bound_by = BoundBy::kCompute;
    std::vector<std::size_t> phase_indices; ///< members, emission order
};

/** Per-phase attribution (observability; totals live in GroupTiming). */
struct PhaseTiming {
    /** Time this phase occupies its own binding resource. */
    double occupancy_cycles = 0.0;

    /** Latency the phase alone would need: max of its own lanes. */
    double paced_cycles = 0.0;

    /** The phase's own pacing resource. */
    BoundBy bound_by = BoundBy::kCompute;

    /** True if the phase occupies the PE array / SFU serially. */
    bool on_critical_path = false;
};

/** Evaluated timeline: the model's single source of truth. */
struct TimelineResult {
    /** The phases as emitted (evaluation does not reorder them). */
    std::vector<Phase> phases;

    /** Parallel to @ref phases. */
    std::vector<PhaseTiming> phase_timings;

    /** One entry per overlap group, execution order. */
    std::vector<GroupTiming> groups;

    /** Total modeled cycles: sum of group latencies. */
    double cycles = 0.0;

    /** Latency of pace-only groups (cold start / pipeline fill). */
    double cold_start_cycles = 0.0;

    /** Pacing resource of the dominant group (ties -> earlier group). */
    BoundBy bound_by = BoundBy::kCompute;

    /** Ledger sum over non-pace-only phases, in emission order. */
    ActivityCounts activity;
};

/**
 * Evaluates @p phases on @p accel under one arbitration policy.
 *
 * For each overlap group, in order of first appearance:
 *   compute lane  = sum of serial (track -1) compute+SFU cycles
 *                   + max over tracks of the per-track sums;
 *   off-chip lane = sum of member DRAM bytes / off-chip BW;
 *   on-chip lane  = sum of member SG bytes / on-chip BW;
 *   SG2 lane      = sum of member SG2 bytes / SG2 BW (0 without SG2);
 *   link lane     = max(summed link_in, summed link_out) bytes /
 *                   @p link_bytes_per_cycle + summed hop latency
 *                   (full-duplex fabric; 0 without collectives);
 *   latency       = per @p overlap (see OverlapKind).
 * Total cycles = sum of group latencies. A group made only of
 * pace-only phases models an exposed warm-up window (cold start or
 * pipeline fill); its latency lands in cold_start_cycles too.
 *
 * @p link_bytes_per_cycle may stay 0 (the default) as long as no phase
 * carries link traffic; supplying link bytes without a link bandwidth
 * is a configuration error. Single-device timelines never carry link
 * traffic, so every pre-scale-out call site is unchanged bit for bit.
 */
TimelineResult evaluate_timeline(std::vector<Phase> phases,
                                 const AccelConfig& accel,
                                 OverlapKind overlap =
                                     OverlapKind::kOverlapped,
                                 double link_bytes_per_cycle = 0.0);

/**
 * Batch evaluator for summary-only timelines.
 *
 * The DSE hot path evaluates thousands of candidate plans that all
 * share one phase *structure* (same phase count, groups, tracks and
 * pace-only flags — fixed by the execution style) and differ only in
 * the per-phase *values*. configure() digests the structure once into
 * per-group member lists; each lane then holds one PhaseValues per
 * phase, contiguous (value index = lane * phase_count + phase), so a
 * values pass writes a lane in place and evaluate() costs lanes x
 * phases — a one-lane batch pays for one lane, not for a pass over
 * per-field rows.
 *
 * Bit-identity contract: evaluate() performs the exact floating-point
 * operations evaluate_timeline() performs for the summary fields, in
 * the same order per lane — each accumulator only ever combines with
 * itself, in member order, and the per-group lane/combine/bound logic
 * is the scalar engine's own. A lane's summary therefore equals the
 * scalar result bit for bit (asserted by tests/costmodel/
 * test_timeline_batch.cc across the golden catalog).
 */
class TimelineBatch
{
  public:
    /** The summary-only outputs of one lane (cf. TimelineResult). */
    struct LaneSummary {
        double cycles = 0.0;
        double cold_start_cycles = 0.0;
        BoundBy bound_by = BoundBy::kCompute;
        ActivityCounts activity;
    };

    /**
     * Rebinds the batch to @p structure's phase skeleton (group, track
     * and pace_only of each phase, plus @p overlap; labels/values are
     * ignored) and drops all lanes. When the skeleton equals the
     * current one the layout is kept as it is — the common case for a
     * search, whose slices share one style — and configure() returns
     * true; otherwise it rebuilds (reusing buffers) and returns false.
     */
    bool configure(const std::vector<Phase>& structure,
                   OverlapKind overlap);

    std::size_t phase_count() const { return skeleton_.size(); }
    std::size_t lanes() const { return lanes_; }

    /** Appends a lane and returns its phase_count() values, UNDEFINED
     *  until written; the pointer is valid until the next add_lane(). */
    PhaseValues* add_lane();

    /** Drops all lanes; structure and buffer capacity stay. */
    void clear_lanes() { lanes_ = 0; }

    /**
     * Evaluates every lane; summaries are valid until the next
     * configure()/add_lane(). @p accel must be valid: the reference
     * evaluate_timeline() checks it, the searches once at their entry.
     */
    void evaluate(const AccelConfig& accel,
                  double link_bytes_per_cycle = 0.0);

    const LaneSummary& summary(std::size_t lane) const
    {
        return summaries_[lane];
    }

  private:
    /** The part of a phase the layout depends on. */
    struct SkeletonPhase {
        int group = 0;
        int track = -1;
        bool pace_only = false;
    };

    /** One group member: its phase and track slot (-1 = serial). */
    struct Member {
        std::size_t phase = 0;
        int slot = -1;
    };

    /** Per-group structure: members_[begin, end), in phase order. */
    struct GroupShape {
        std::size_t begin = 0;
        std::size_t end = 0;
        std::size_t track_slots = 0; ///< distinct tracks, first-seen order
        bool all_pace_only = true;
    };

    std::size_t lanes_ = 0;
    OverlapKind overlap_ = OverlapKind::kOverlapped;
    std::vector<SkeletonPhase> skeleton_; ///< one per phase
    std::vector<GroupShape> groups_;      ///< execution order
    std::vector<Member> members_;         ///< group-major
    std::vector<int> track_ids_;          ///< configure() scratch
    std::vector<double> tracks_;          ///< evaluate() scratch
    std::vector<PhaseValues> values_;     ///< lane-major
    std::vector<LaneSummary> summaries_;
};

} // namespace flat

#endif // FLAT_COSTMODEL_TIMELINE_H
