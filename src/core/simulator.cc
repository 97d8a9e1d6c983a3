#include "core/simulator.h"

#include <algorithm>

#include "common/status.h"
#include "common/string_util.h"
#include "costmodel/attention_cost.h"
#include "costmodel/execution_style.h"
#include "costmodel/timeline.h"

namespace flat {
namespace {

/** Folds an evaluated L-A timeline into the per-stage ledger view. */
LaStageBreakdown
fold_la_stages(const TimelineResult& timeline)
{
    LaStageBreakdown out;
    for (std::size_t i = 0; i < timeline.phases.size(); ++i) {
        const Phase& phase = timeline.phases[i];
        if (phase.pace_only) {
            continue; // warm-up windows live in cold_start_cycles
        }
        const double paced = timeline.phase_timings[i].paced_cycles;
        switch (phase.stage) {
          case StageTag::kPrefetch: out.prefetch_cycles += paced; break;
          case StageTag::kLogit: out.logit_cycles += paced; break;
          case StageTag::kSoftmax: out.softmax_cycles += paced; break;
          case StageTag::kAttend: out.attend_cycles += paced; break;
          case StageTag::kWriteback: out.writeback_cycles += paced; break;
          case StageTag::kCompute:
          case StageTag::kColdStart:
          case StageTag::kCollective:
            break; // not emitted by the single-device attention models
        }
    }
    out.cold_start_cycles = timeline.cold_start_cycles;
    out.bound_by = to_string(timeline.bound_by);
    return out;
}

} // namespace

std::string
SimOptions::canonical() const
{
    return strprintf("sim objective=%d mode=%s quick=%d overlap=%d "
                     "styles=%s\n",
                     static_cast<int>(objective), to_string(search_mode),
                     static_cast<int>(quick),
                     static_cast<int>(baseline_overlap),
                     join(styles, ",").c_str());
}

CandidateOptions
fixed_policy_candidates()
{
    CandidateOptions cand;
    cand.tile_budget_fractions = {1.0 / 4};
    cand.loop_orders = {LoopOrder::kMNK};
    // Two stationarities so a fixed policy can still map narrow GEMMs
    // (n = dk) onto wide arrays; the better of the two is used.
    cand.stationarities = {Stationarity::kOutputStationary,
                           Stationarity::kInputStationary};
    cand.sweep_stage_flags = false;
    return cand;
}

AttentionSearchOptions
attention_options(const DataflowPolicy& policy, const SimOptions& options)
{
    AttentionSearchOptions out;
    out.objective = options.objective;
    out.mode = options.search_mode;
    out.quick = options.quick;
    out.baseline_overlap = options.baseline_overlap;
    out.threads = options.threads;
    out.prune = options.prune;
    out.journal = options.journal;
    out.cancel = options.cancel;
    out.fused = policy.fused();
    out.styles = options.styles;

    if (policy.searched()) {
        return out; // full sweep
    }

    out.fixed_cross = policy.fixed_cross();
    out.candidates = fixed_policy_candidates();
    if (policy.kind == PolicyKind::kBase) {
        // Plain Base: no L3 staging at all.
        out.fixed_flags = FusedStageFlags::decode(0);
    } else {
        // Base-X / FLAT-X / FLAT-Rx: every tensor staged.
        out.fixed_flags = FusedStageFlags{};
    }
    return out;
}

AttentionSearchOptions
attention_options(const AcceleratorSpec& spec, const SimOptions& options)
{
    const DataflowPolicy policy = spec.la_policy();
    AttentionSearchOptions out;
    out.objective = options.objective;
    out.mode = options.search_mode;
    out.quick = options.quick;
    out.baseline_overlap = options.baseline_overlap;
    out.threads = options.threads;
    out.prune = options.prune;
    out.journal = options.journal;
    out.cancel = options.cancel;
    out.fused = policy.fused();
    out.styles = options.styles;

    switch (spec.kind) {
      case AcceleratorKind::kBaseAccel:
        // Fixed Base dataflow, nothing tunable.
        return attention_options(policy, options);
      case AcceleratorKind::kFlexAccelM:
      case AcceleratorKind::kAttAccM:
      case AcceleratorKind::kAttAccR:
        // Full DSE with the cross loop pinned. Staging is always on:
        // a fixed-granularity accelerator stages its tensors at that
        // granularity by construction (it cannot fall back to pure
        // streaming), which is what bends FlexAccel-M below FlexAccel
        // when the M-Gran footprint outgrows the buffer (Fig. 12(a)).
        out.fixed_cross = policy.fixed_cross();
        out.fixed_flags = FusedStageFlags{};
        return out;
      case AcceleratorKind::kFlexAccel:
      case AcceleratorKind::kAttAcc:
        return out; // full sweep
    }
    return out;
}

OperatorSearchOptions
operator_options(const DataflowPolicy&, const SimOptions& options)
{
    OperatorSearchOptions out;
    out.objective = options.objective;
    out.quick = options.quick;
    out.cancel = options.cancel;
    return out;
}

OperatorSearchOptions
operator_options(const AcceleratorSpec& spec, const SimOptions& options)
{
    OperatorSearchOptions out =
        operator_options(spec.la_policy(), options);
    out.allow_l3 = spec.allows_l3();
    if (!spec.flexible()) {
        out.candidates = fixed_policy_candidates();
        out.allow_l3 = false;
    }
    return out;
}

Simulator::Simulator(AccelConfig accel) : accel_(std::move(accel))
{
    accel_.validate();
}

ScopeReport
Simulator::run(const Workload& workload, Scope scope,
               const DataflowPolicy& policy,
               const SimOptions& options) const
{
    return run_impl(workload, scope,
                    {attention_options(policy, options),
                     operator_options(policy, options), options.gemm_memo},
                    policy.name());
}

ScopeReport
Simulator::run(const Workload& workload, Scope scope,
               const AcceleratorSpec& spec, const SimOptions& options) const
{
    return run_impl(workload, scope,
                    {attention_options(spec, options),
                     operator_options(spec, options), options.gemm_memo},
                    spec.name());
}

ScopeReport
Simulator::run_impl(const Workload& workload, Scope scope,
                    const BlockSearchOptions& search_options,
                    const std::string& policy_name) const
{
    const AttentionSearchOptions& la_options = search_options.attention;

    ScopeReport report;
    report.scope = scope;
    report.policy_name = policy_name;

    // One decomposition: the L-A layer alone at L-A scope, every layer
    // of the block (search_block) at block and model scope.
    if (scope == Scope::kLogitAttend) {
        report.block.layers.push_back(
            search_attention_layer(accel_, workload, la_options));
    } else {
        report.block = search_block(accel_, workload, search_options);
    }
    const std::vector<BlockLayerPlan>& layers = report.block.layers;

    // L-A pipeline (always present at every scope).
    const auto la_layer = std::find_if(
        layers.begin(), layers.end(),
        [](const BlockLayerPlan& layer) { return layer.attention; });
    FLAT_CHECK(la_layer != layers.end(), "workload has no L-A layer");
    DsePoint& la = report.la_winner;
    la = la_layer->la;
    if (la.style == nullptr) {
        la.style = &default_execution_style(la_options.fused);
    }
    report.breakdown.la_cycles = la.cost.cycles;
    report.breakdown.la_ideal = la.cost.ideal_cycles;
    report.breakdown.la_energy_j = la.energy_j;
    report.la_footprint_bytes = la.cost.live_footprint_bytes;
    report.la_resident_fraction = la.cost.resident_fraction;
    // Keep the historical "fused:"/"seq:" prefixes for the two original
    // styles; newer styles are prefixed by their registry id.
    const std::string style_prefix =
        (la.style == &flat_execution_style())       ? "fused:"
        : (la.style == &baseline_execution_style())
            ? "seq:"
            : std::string(la.style->id()) + ":";
    report.la_dataflow_tag = style_prefix + la.dataflow.tag();
    report.la_points_evaluated = la_layer->evaluated;
    report.la_points_pruned = la_layer->pruned;
    report.la_verified = la_layer->verified;
    report.la_verified_ratio = la_layer->verified_ratio;
    report.traffic += la.cost.activity.traffic;

    // Re-evaluate the winning dataflow's timeline for the per-stage
    // view (the cost model consumed the same timeline, so cycles agree
    // exactly with breakdown.la_cycles before scaling).
    const TimelineResult la_timeline = attention_timeline(
        *la.style, accel_, AttentionDims::from_workload(workload),
        la.dataflow, la_options.baseline_overlap);
    report.la_stages = fold_la_stages(la_timeline);

    // Projections and FCs, summed per category in op order.
    for (const BlockLayerPlan& layer : layers) {
        if (layer.attention) {
            continue;
        }
        if (layer.category == OpCategory::kProjection) {
            report.breakdown.proj_cycles += layer.cost.cycles;
            report.breakdown.proj_ideal += layer.cost.ideal_cycles;
            report.breakdown.proj_energy_j += layer.energy_j;
        } else {
            report.breakdown.fc_cycles += layer.cost.cycles;
            report.breakdown.fc_ideal += layer.cost.ideal_cycles;
            report.breakdown.fc_energy_j += layer.energy_j;
        }
        report.traffic += layer.cost.activity.traffic;
    }

    const double mult =
        static_cast<double>(workload.scope_multiplier(scope));
    report.breakdown.la_cycles *= mult;
    report.breakdown.la_ideal *= mult;
    report.breakdown.la_energy_j *= mult;
    report.breakdown.proj_cycles *= mult;
    report.breakdown.proj_ideal *= mult;
    report.breakdown.proj_energy_j *= mult;
    report.breakdown.fc_cycles *= mult;
    report.breakdown.fc_ideal *= mult;
    report.breakdown.fc_energy_j *= mult;
    report.la_stages.prefetch_cycles *= mult;
    report.la_stages.logit_cycles *= mult;
    report.la_stages.softmax_cycles *= mult;
    report.la_stages.attend_cycles *= mult;
    report.la_stages.writeback_cycles *= mult;
    report.la_stages.cold_start_cycles *= mult;

    report.cycles = report.breakdown.la_cycles +
                    report.breakdown.proj_cycles +
                    report.breakdown.fc_cycles;
    report.ideal_cycles = report.breakdown.la_ideal +
                          report.breakdown.proj_ideal +
                          report.breakdown.fc_ideal;
    report.energy_j = report.breakdown.la_energy_j +
                      report.breakdown.proj_energy_j +
                      report.breakdown.fc_energy_j;
    report.runtime_s = report.cycles * accel_.cycle_time();
    return report;
}

} // namespace flat
