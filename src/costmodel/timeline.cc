#include "costmodel/timeline.h"

#include <algorithm>

#include "common/status.h"

namespace flat {
namespace {

/** Lane with the largest cycle count; ties break toward compute, then
 *  off-chip, then on-chip, then SG2, then link (the historical
 *  attribution order; link is last because it is the newest lane). */
BoundBy
pick_bound(const LaneCycles& lanes)
{
    BoundBy bound = BoundBy::kCompute;
    double best = lanes.compute;
    if (lanes.offchip > best) {
        bound = BoundBy::kOffchip;
        best = lanes.offchip;
    }
    if (lanes.onchip > best) {
        bound = BoundBy::kOnchip;
        best = lanes.onchip;
    }
    if (lanes.sg2 > best) {
        bound = BoundBy::kSg2;
        best = lanes.sg2;
    }
    if (lanes.link > best) {
        bound = BoundBy::kLink;
        best = lanes.link;
    }
    return bound;
}

double
combine_lanes(const LaneCycles& lanes, OverlapKind overlap)
{
    if (overlap == OverlapKind::kOverlapped) {
        return std::max({lanes.compute, lanes.offchip, lanes.onchip,
                         lanes.sg2, lanes.link});
    }
    // Serialized: operand streaming inside the array still proceeds
    // with compute, but transfers below the SG (and off-device) are
    // not hidden.
    return std::max(lanes.compute, lanes.onchip) +
           std::max({lanes.offchip, lanes.sg2, lanes.link});
}

/**
 * The per-interface rates of one evaluation and the lane cycles of one
 * overlap group — shared by evaluate_timeline() and TimelineBatch, so
 * both engines perform the same operations in the same order.
 */
struct LaneRates {
    double off_bpc = 0.0;
    double on_bpc = 0.0;
    bool has_sg2 = false;
    double sg2_bpc = 0.0;
    double link_bpc = 0.0;

    LaneRates(const AccelConfig& accel, double link_bytes_per_cycle)
        : off_bpc(accel.offchip_bytes_per_cycle()),
          on_bpc(accel.onchip_bytes_per_cycle()),
          has_sg2(accel.has_sg2()),
          sg2_bpc(has_sg2 ? accel.sg2_bytes_per_cycle() : 0.0),
          link_bpc(link_bytes_per_cycle)
    {
    }

    /** The fabric is full duplex: send and receive of the same
     *  collective step proceed concurrently, so the byte-paced time is
     *  the max of the two directions, plus any exposed hop latency. */
    LaneCycles lanes(double compute, const TrafficBytes& bytes,
                     double link_latency) const
    {
        LaneCycles lanes;
        lanes.compute = compute;
        lanes.offchip = bytes.total_dram() / off_bpc;
        lanes.onchip = bytes.total_sg() / on_bpc;
        lanes.sg2 = has_sg2 ? bytes.total_sg2() / sg2_bpc : 0.0;
        const double link_bytes = std::max(bytes.link_in, bytes.link_out);
        if (link_bytes > 0.0 || link_latency > 0.0) {
            FLAT_CHECK(link_bpc > 0.0,
                       "timeline carries link traffic ("
                           << link_bytes << " B, " << link_latency
                           << " latency cycles) but no link bandwidth "
                              "was supplied to the timeline evaluator");
            lanes.link = link_bytes / link_bpc + link_latency;
        }
        return lanes;
    }
};

} // namespace

const char*
to_string(StageTag stage)
{
    switch (stage) {
      case StageTag::kPrefetch:
        return "prefetch";
      case StageTag::kLogit:
        return "logit";
      case StageTag::kSoftmax:
        return "softmax";
      case StageTag::kAttend:
        return "attend";
      case StageTag::kWriteback:
        return "writeback";
      case StageTag::kCompute:
        return "compute";
      case StageTag::kColdStart:
        return "cold-start";
      case StageTag::kCollective:
        return "collective";
    }
    return "compute";
}

TimelineResult
evaluate_timeline(std::vector<Phase> phases, const AccelConfig& accel,
                  OverlapKind overlap, double link_bytes_per_cycle)
{
    accel.validate();

    TimelineResult out;
    out.phases = std::move(phases);
    const std::vector<Phase>& emitted = out.phases;
    out.phase_timings.resize(emitted.size());

    const LaneRates rates(accel, link_bytes_per_cycle);

    // Group discovery in order of first appearance; evaluation never
    // reorders what the emitter laid out.
    std::vector<int> group_order;
    for (const Phase& phase : emitted) {
        if (std::find(group_order.begin(), group_order.end(),
                      phase.group) == group_order.end()) {
            group_order.push_back(phase.group);
        }
    }

    out.groups.resize(group_order.size());
    std::vector<std::pair<int, double>> track_cycles;
    for (std::size_t gi = 0; gi < group_order.size(); ++gi) {
        const int group_id = group_order[gi];
        GroupTiming& timing = out.groups[gi];
        timing.group = group_id;
        timing.overlap = overlap;

        // Serial phases chain on the array/SFU; tracks >= 0 run
        // side by side (spatial pipelining), so only the slowest
        // track adds to the group's compute lane.
        double serial_cycles = 0.0;
        track_cycles.clear();
        TrafficBytes bytes;
        double link_latency = 0.0;
        bool all_pace_only = true;
        for (std::size_t i = 0; i < emitted.size(); ++i) {
            const Phase& phase = emitted[i];
            if (phase.group != group_id) {
                continue;
            }
            timing.phase_indices.push_back(i);
            const double occupancy =
                phase.compute_cycles + phase.sfu_cycles;
            if (phase.track < 0) {
                serial_cycles += occupancy;
            } else {
                auto it = std::find_if(
                    track_cycles.begin(), track_cycles.end(),
                    [&](const auto& t) {
                        return t.first == phase.track;
                    });
                if (it == track_cycles.end()) {
                    track_cycles.emplace_back(phase.track, occupancy);
                } else {
                    it->second += occupancy;
                }
            }
            bytes += phase.activity.traffic;
            link_latency += phase.link_latency_cycles;
            all_pace_only = all_pace_only && phase.pace_only;
        }
        double parallel_cycles = 0.0;
        for (const auto& [track, cycles] : track_cycles) {
            parallel_cycles = std::max(parallel_cycles, cycles);
        }

        timing.lanes = rates.lanes(serial_cycles + parallel_cycles, bytes,
                                   link_latency);
        timing.latency = combine_lanes(timing.lanes, overlap);
        timing.bound_by = pick_bound(timing.lanes);
        out.cycles += timing.latency;
        if (all_pace_only) {
            out.cold_start_cycles += timing.latency;
        }
    }

    for (std::size_t i = 0; i < emitted.size(); ++i) {
        const Phase& phase = emitted[i];
        PhaseTiming& timing = out.phase_timings[i];
        timing.occupancy_cycles = phase.compute_cycles + phase.sfu_cycles;
        const LaneCycles lanes =
            rates.lanes(timing.occupancy_cycles, phase.activity.traffic,
                        phase.link_latency_cycles);
        timing.paced_cycles = combine_lanes(lanes, overlap);
        timing.bound_by = pick_bound(lanes);
        timing.on_critical_path = timing.occupancy_cycles > 0.0;
        if (!phase.pace_only) {
            out.activity += phase.activity;
        }
    }

    // The whole timeline is attributed to the lane that paces its
    // slowest group (ties break toward the earlier group).
    double slowest = -1.0;
    for (const GroupTiming& group : out.groups) {
        if (group.latency > slowest) {
            slowest = group.latency;
            out.bound_by = group.bound_by;
        }
    }
    return out;
}

bool
TimelineBatch::configure(const std::vector<Phase>& structure,
                         OverlapKind overlap)
{
    lanes_ = 0;
    const auto same_phase = [](const SkeletonPhase& kept,
                               const Phase& phase) {
        return kept.group == phase.group && kept.track == phase.track &&
               kept.pace_only == phase.pace_only;
    };
    if (overlap_ == overlap &&
        std::equal(skeleton_.begin(), skeleton_.end(), structure.begin(),
                   structure.end(), same_phase)) {
        return true; // the layout is a function of the skeleton alone
    }
    overlap_ = overlap;
    skeleton_.clear();
    for (const Phase& phase : structure) {
        skeleton_.push_back({phase.group, phase.track, phase.pace_only});
    }

    // Groups in order of first appearance and, per group, its members
    // in phase order with their track slots in first-seen order — the
    // same discovery rule as evaluate_timeline(). Runs once per new
    // skeleton, so quadratic scans over a handful of phases are fine;
    // cleared buffers keep their capacity, so a style switch in the
    // middle of a search allocates nothing in steady state.
    groups_.clear();
    members_.clear();
    std::size_t max_slots = 0;
    for (std::size_t first = 0; first < skeleton_.size(); ++first) {
        const int id = skeleton_[first].group;
        bool seen = false;
        for (std::size_t i = 0; i < first && !seen; ++i) {
            seen = skeleton_[i].group == id;
        }
        if (seen) {
            continue;
        }
        GroupShape group;
        group.begin = members_.size();
        track_ids_.clear();
        for (std::size_t i = first; i < skeleton_.size(); ++i) {
            const SkeletonPhase& phase = skeleton_[i];
            if (phase.group != id) {
                continue;
            }
            Member member;
            member.phase = i;
            if (phase.track >= 0) {
                auto it = std::find(track_ids_.begin(), track_ids_.end(),
                                    phase.track);
                if (it == track_ids_.end()) {
                    track_ids_.push_back(phase.track);
                    it = track_ids_.end() - 1;
                }
                member.slot = static_cast<int>(it - track_ids_.begin());
            }
            group.all_pace_only = group.all_pace_only && phase.pace_only;
            members_.push_back(member);
        }
        group.end = members_.size();
        group.track_slots = track_ids_.size();
        max_slots = std::max(max_slots, group.track_slots);
        groups_.push_back(group);
    }
    tracks_.resize(max_slots);
    return false;
}

PhaseValues*
TimelineBatch::add_lane()
{
    const std::size_t phases = skeleton_.size();
    const std::size_t end = (lanes_ + 1) * phases;
    if (values_.size() < end) {
        values_.resize(end);
    }
    return values_.data() + lanes_++ * phases;
}

void
TimelineBatch::evaluate(const AccelConfig& accel,
                        double link_bytes_per_cycle)
{
    const LaneRates rates(accel, link_bytes_per_cycle);
    const std::size_t phases = skeleton_.size();
    if (summaries_.size() < lanes_) {
        summaries_.resize(lanes_);
    }
    for (std::size_t l = 0; l < lanes_; ++l) {
        const PhaseValues* row = values_.data() + l * phases;
        LaneSummary sum; // a local: no stores that could alias the row
        double slowest = -1.0;
        for (const GroupShape& group : groups_) {
            // evaluate_timeline()'s group pass over one lane's values:
            // the same accumulators, fed in the same member order.
            double serial = 0.0;
            std::fill_n(tracks_.begin(), group.track_slots, 0.0);
            TrafficBytes bytes;
            double link_latency = 0.0;
            for (std::size_t m = group.begin; m < group.end; ++m) {
                const Member& member = members_[m];
                const PhaseValues& phase = row[member.phase];
                const double occupancy =
                    phase.compute_cycles + phase.sfu_cycles;
                if (member.slot < 0) {
                    serial += occupancy;
                } else {
                    tracks_[static_cast<std::size_t>(member.slot)] +=
                        occupancy;
                }
                bytes += phase.activity.traffic;
                link_latency += phase.link_latency_cycles;
            }
            double parallel = 0.0;
            for (std::size_t slot = 0; slot < group.track_slots; ++slot) {
                parallel = std::max(parallel, tracks_[slot]);
            }
            const LaneCycles lanes =
                rates.lanes(serial + parallel, bytes, link_latency);
            const double latency = combine_lanes(lanes, overlap_);
            sum.cycles += latency;
            if (group.all_pace_only) {
                sum.cold_start_cycles += latency;
            }
            if (latency > slowest) {
                slowest = latency;
                sum.bound_by = pick_bound(lanes);
            }
        }
        // Ledger sum over non-pace-only phases, in phase order — the
        // scalar `activity += phase.activity` chain.
        for (std::size_t p = 0; p < phases; ++p) {
            if (!skeleton_[p].pace_only) {
                sum.activity += row[p].activity;
            }
        }
        summaries_[l] = sum;
    }
}

} // namespace flat
