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

    const double off_bpc = accel.offchip_bytes_per_cycle();
    const double on_bpc = accel.onchip_bytes_per_cycle();
    const bool has_sg2 = accel.has_sg2();
    const double sg2_bpc = has_sg2 ? accel.sg2_bytes_per_cycle() : 0.0;
    const double link_bpc = link_bytes_per_cycle;

    // The fabric is full duplex: send and receive of the same
    // collective step proceed concurrently, so the byte-paced time is
    // the max of the two directions, plus any exposed hop latency.
    const auto lanes_of = [&](double compute, const TrafficBytes& bytes,
                              double link_latency) {
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
                              "was supplied to evaluate_timeline()");
            lanes.link = link_bytes / link_bpc + link_latency;
        }
        return lanes;
    };

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

        timing.lanes =
            lanes_of(serial_cycles + parallel_cycles, bytes, link_latency);
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
            lanes_of(timing.occupancy_cycles, phase.activity.traffic,
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
                         OverlapKind overlap, std::size_t lane_capacity)
{
    FLAT_CHECK(lane_capacity > 0,
               "TimelineBatch needs at least one lane of capacity");
    lanes_ = 0;
    const auto same_phase = [](const SkeletonPhase& kept,
                               const Phase& phase) {
        return kept.group == phase.group && kept.track == phase.track &&
               kept.pace_only == phase.pace_only;
    };
    if (capacity_ >= lane_capacity && overlap_ == overlap &&
        std::equal(skeleton_.begin(), skeleton_.end(), structure.begin(),
                   structure.end(), same_phase)) {
        return true; // the layout is a function of the skeleton alone
    }
    overlap_ = overlap;
    capacity_ = lane_capacity;

    skeleton_.resize(structure.size());
    // Group ids and per-group track ids in first-appearance order —
    // the same discovery rule as evaluate_timeline(), so track slot 0 is
    // the first distinct track a group's member order encounters.
    // Retired GroupShape entries and the discovery scratch are reused
    // in place (no destroy/rebuild): reconfiguring per (tiles, flags)
    // block is the DSE hot path and must not allocate in steady state.
    group_count_ = 0;
    group_ids_.clear();
    for (std::size_t i = 0; i < structure.size(); ++i) {
        const Phase& phase = structure[i];
        skeleton_[i] = {phase.group, phase.track, phase.pace_only};
        std::size_t gi = 0;
        while (gi < group_ids_.size() && group_ids_[gi] != phase.group) {
            ++gi;
        }
        if (gi == group_ids_.size()) {
            group_ids_.push_back(phase.group);
            if (track_ids_.size() <= gi) {
                track_ids_.emplace_back();
            }
            track_ids_[gi].clear();
            if (groups_.size() <= gi) {
                groups_.emplace_back();
            }
            GroupShape& fresh = groups_[gi];
            fresh.member_phases.clear();
            fresh.serial_phases.clear();
            fresh.track_phases.clear();
            fresh.track_slots = 0;
            fresh.members = 0;
            fresh.all_pace_only = true;
            ++group_count_;
        }
        GroupShape& group = groups_[gi];
        ++group.members;
        group.member_phases.push_back(i);
        group.all_pace_only = group.all_pace_only && phase.pace_only;
        if (phase.track < 0) {
            group.serial_phases.push_back(i);
        } else {
            std::vector<int>& tracks = track_ids_[gi];
            std::size_t slot = 0;
            while (slot < tracks.size() && tracks[slot] != phase.track) {
                ++slot;
            }
            if (slot == tracks.size()) {
                tracks.push_back(phase.track);
                group.track_slots = tracks.size();
            }
            group.track_phases.emplace_back(i, slot);
        }
    }

    const std::size_t values = skeleton_.size() * capacity_;
    occupancy_.resize(values);
    link_latency_.resize(values);
    macs_.resize(values);
    sl_accesses_.resize(values);
    sfu_elems_.resize(values);
    dram_read_.resize(values);
    dram_write_.resize(values);
    sg_read_.resize(values);
    sg_write_.resize(values);
    sg2_read_.resize(values);
    sg2_write_.resize(values);
    link_in_.resize(values);
    link_out_.resize(values);
    summaries_.resize(capacity_);
    return false;
}

std::size_t
TimelineBatch::add_lane()
{
    FLAT_CHECK(lanes_ < capacity_,
               "TimelineBatch overflow: " << capacity_
                                          << " lanes already added");
    return lanes_++;
}

void
TimelineBatch::clear_lanes()
{
    lanes_ = 0;
}

void
TimelineBatch::set_phase(std::size_t lane, std::size_t phase,
                         double compute_cycles, double sfu_cycles,
                         double link_latency_cycles,
                         const ActivityCounts& activity)
{
    const std::size_t i = phase * capacity_ + lane;
    // Same single addition evaluate_timeline() performs per phase.
    occupancy_[i] = compute_cycles + sfu_cycles;
    link_latency_[i] = link_latency_cycles;
    macs_[i] = activity.macs;
    sl_accesses_[i] = activity.sl_accesses;
    sfu_elems_[i] = activity.sfu_elems;
    dram_read_[i] = activity.traffic.dram_read;
    dram_write_[i] = activity.traffic.dram_write;
    sg_read_[i] = activity.traffic.sg_read;
    sg_write_[i] = activity.traffic.sg_write;
    sg2_read_[i] = activity.traffic.sg2_read;
    sg2_write_[i] = activity.traffic.sg2_write;
    link_in_[i] = activity.traffic.link_in;
    link_out_[i] = activity.traffic.link_out;
}

void
TimelineBatch::evaluate(const AccelConfig& accel,
                        double link_bytes_per_cycle)
{
    accel.validate();
    const std::size_t n = lanes_;
    if (n == 0) {
        return;
    }

    const double off_bpc = accel.offchip_bytes_per_cycle();
    const double on_bpc = accel.onchip_bytes_per_cycle();
    const bool has_sg2 = accel.has_sg2();
    const double sg2_bpc = has_sg2 ? accel.sg2_bytes_per_cycle() : 0.0;
    const double link_bpc = link_bytes_per_cycle;

    std::size_t max_slots = 0;
    for (std::size_t g = 0; g < group_count_; ++g) {
        max_slots = std::max(max_slots, groups_[g].track_slots);
    }
    serial_.resize(capacity_);
    tracks_.resize(max_slots * capacity_);
    acc_bytes_.resize(8 * capacity_);
    acc_link_latency_.resize(capacity_);
    slowest_.resize(capacity_);

    for (std::size_t l = 0; l < n; ++l) {
        summaries_[l] = LaneSummary{};
        slowest_[l] = -1.0;
    }

    // The 8 interface rows of acc_bytes_, in TrafficBytes field order.
    const std::vector<double>* const byte_fields[8] = {
        &dram_read_, &dram_write_, &sg_read_,  &sg_write_,
        &sg2_read_,  &sg2_write_,  &link_in_,  &link_out_};

    for (std::size_t g = 0; g < group_count_; ++g) {
        const GroupShape& group = groups_[g];
        std::fill_n(serial_.begin(), n, 0.0);
        std::fill_n(acc_link_latency_.begin(), n, 0.0);
        for (std::size_t slot = 0; slot < group.track_slots; ++slot) {
            std::fill_n(tracks_.begin() + slot * capacity_, n, 0.0);
        }
        for (std::size_t f = 0; f < 8; ++f) {
            std::fill_n(acc_bytes_.begin() + f * capacity_, n, 0.0);
        }

        // Lane-innermost accumulation over contiguous rows — the SIMD
        // meat. Each accumulator only ever combines with itself across
        // phases, in member order, so the per-lane FP sequence is the
        // scalar engine's.
        for (const std::size_t p : group.serial_phases) {
            const double* src = occupancy_.data() + p * capacity_;
            double* dst = serial_.data();
            for (std::size_t l = 0; l < n; ++l) {
                dst[l] += src[l];
            }
        }
        for (const auto& [p, slot] : group.track_phases) {
            const double* src = occupancy_.data() + p * capacity_;
            double* dst = tracks_.data() + slot * capacity_;
            for (std::size_t l = 0; l < n; ++l) {
                dst[l] += src[l];
            }
        }
        for (const std::size_t p : group.member_phases) {
            for (std::size_t f = 0; f < 8; ++f) {
                const double* src =
                    byte_fields[f]->data() + p * capacity_;
                double* dst = acc_bytes_.data() + f * capacity_;
                for (std::size_t l = 0; l < n; ++l) {
                    dst[l] += src[l];
                }
            }
            const double* src = link_latency_.data() + p * capacity_;
            double* dst = acc_link_latency_.data();
            for (std::size_t l = 0; l < n; ++l) {
                dst[l] += src[l];
            }
        }

        // Per-lane arbitration: the scalar engine's lanes_of /
        // combine_lanes / pick_bound sequence, streamed over lanes.
        for (std::size_t l = 0; l < n; ++l) {
            double parallel = 0.0;
            for (std::size_t slot = 0; slot < group.track_slots;
                 ++slot) {
                parallel = std::max(parallel,
                                    tracks_[slot * capacity_ + l]);
            }
            LaneCycles lanes;
            lanes.compute = serial_[l] + parallel;
            lanes.offchip = (acc_bytes_[0 * capacity_ + l] +
                             acc_bytes_[1 * capacity_ + l]) /
                            off_bpc;
            lanes.onchip = (acc_bytes_[2 * capacity_ + l] +
                            acc_bytes_[3 * capacity_ + l]) /
                           on_bpc;
            lanes.sg2 = has_sg2 ? (acc_bytes_[4 * capacity_ + l] +
                                   acc_bytes_[5 * capacity_ + l]) /
                                      sg2_bpc
                                : 0.0;
            const double link_bytes =
                std::max(acc_bytes_[6 * capacity_ + l],
                         acc_bytes_[7 * capacity_ + l]);
            const double link_latency = acc_link_latency_[l];
            if (link_bytes > 0.0 || link_latency > 0.0) {
                FLAT_CHECK(link_bpc > 0.0,
                           "timeline carries link traffic ("
                               << link_bytes << " B, " << link_latency
                               << " latency cycles) but no link "
                                  "bandwidth was supplied to "
                                  "TimelineBatch::evaluate()");
                lanes.link = link_bytes / link_bpc + link_latency;
            }
            const double latency = combine_lanes(lanes, overlap_);
            LaneSummary& sum = summaries_[l];
            sum.cycles += latency;
            if (group.all_pace_only && group.members > 0) {
                sum.cold_start_cycles += latency;
            }
            if (latency > slowest_[l]) {
                slowest_[l] = latency;
                sum.bound_by = pick_bound(lanes);
            }
        }
    }

    // Ledger sum over non-pace-only phases, phase order per lane —
    // field-for-field the scalar `activity += phase.activity` chain.
    for (std::size_t p = 0; p < skeleton_.size(); ++p) {
        if (skeleton_[p].pace_only) {
            continue;
        }
        const std::size_t base = p * capacity_;
        for (std::size_t l = 0; l < n; ++l) {
            ActivityCounts& act = summaries_[l].activity;
            act.macs += macs_[base + l];
            act.sl_accesses += sl_accesses_[base + l];
            act.sfu_elems += sfu_elems_[base + l];
            act.traffic.dram_read += dram_read_[base + l];
            act.traffic.dram_write += dram_write_[base + l];
            act.traffic.sg_read += sg_read_[base + l];
            act.traffic.sg_write += sg_write_[base + l];
            act.traffic.sg2_read += sg2_read_[base + l];
            act.traffic.sg2_write += sg2_write_[base + l];
            act.traffic.link_in += link_in_[base + l];
            act.traffic.link_out += link_out_[base + l];
        }
    }
}

} // namespace flat
