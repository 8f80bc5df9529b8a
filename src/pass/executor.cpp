#include "pass/executor.hpp"

#include <chrono>
#include <optional>

#include "absint/certificate.hpp"
#include "absint/reachability.hpp"
#include "absint/token_intervals.hpp"
#include "analysis/throughput.hpp"
#include "sdf/repetition.hpp"
#include "sdf/schedule.hpp"

namespace sdf {

namespace {

using Clock = std::chrono::steady_clock;

const char* outcome_name(ThroughputOutcome outcome) {
    switch (outcome) {
        case ThroughputOutcome::deadlocked: return "deadlocked";
        case ThroughputOutcome::unbounded: return "unbounded";
        case ThroughputOutcome::finite: return "finite";
    }
    return "unknown";
}

/// The part of the pipeline budget the passes so far have not consumed.
/// Throws BudgetExceeded up front when nothing is left, so a drained
/// budget cannot be reset to a fresh slice.
ExecutionBudget remaining_slice(const ExecutionBudget& total,
                                const ResourceUsage& used,
                                Clock::time_point started,
                                const std::string& next_pass) {
    ExecutionBudget slice;
    if (total.deadline) {
        const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - started);
        if (elapsed >= *total.deadline) {
            throw BudgetExceeded(BudgetCause::deadline,
                                 "pipeline deadline exhausted before pass '" +
                                     next_pass + "'");
        }
        slice.deadline = *total.deadline - elapsed;
    }
    if (total.max_steps) {
        if (used.steps >= *total.max_steps) {
            throw BudgetExceeded(BudgetCause::steps,
                                 "pipeline step budget exhausted before pass '" +
                                     next_pass + "'");
        }
        slice.max_steps = *total.max_steps - used.steps;
    }
    if (total.max_bytes) {
        if (used.accounted_bytes >= *total.max_bytes) {
            throw BudgetExceeded(BudgetCause::memory,
                                 "pipeline memory budget exhausted before pass '" +
                                     next_pass + "'");
        }
        slice.max_bytes = *total.max_bytes - used.accounted_bytes;
    }
    return slice;
}

[[noreturn]] void violation(const std::string& invocation, const std::string& what) {
    throw PipelineVerificationError("pass '" + invocation + "' violated its declaration: " +
                                    what);
}

/// Checks the pass's period contract: before/after are the graphs around
/// one changed pass.  Contracts quantify over consistent inputs; anything
/// else is outside their domain and skipped.
void check_period_contract(const Graph& before, const Graph& after,
                           const PassInvocation& step, const std::string& invocation) {
    const PeriodContract contract = step.pass->period_contract(step.params);
    if (contract == PeriodContract::none || !is_consistent(before) ||
        !is_consistent(after)) {
        return;
    }
    const auto pre = cached_throughput(before);
    const auto post = cached_throughput(after);
    switch (contract) {
        case PeriodContract::none:
            return;
        case PeriodContract::preserves:
            if (pre->outcome != post->outcome) {
                violation(invocation, std::string("claimed to preserve the period but "
                                                  "the outcome moved ") +
                                          outcome_name(pre->outcome) + " -> " +
                                          outcome_name(post->outcome));
            }
            if (pre->is_finite() && pre->period != post->period) {
                violation(invocation, "claimed to preserve the period but " +
                                          pre->period.to_string() + " became " +
                                          post->period.to_string());
            }
            return;
        case PeriodContract::scales_by_n: {
            // Proposition 2 is stated for homogeneous inputs; outside that
            // domain the contract makes no claim.
            if (!before.is_homogeneous()) {
                return;
            }
            const Int n = step.params.at("n");
            if (pre->outcome != post->outcome) {
                violation(invocation, std::string("claimed the period scales by n but "
                                                  "the outcome moved ") +
                                          outcome_name(pre->outcome) + " -> " +
                                          outcome_name(post->outcome));
            }
            if (pre->is_finite() && post->period != pre->period * Rational(n)) {
                violation(invocation,
                          "claimed the period scales by n=" + std::to_string(n) +
                              " but " + pre->period.to_string() + " became " +
                              post->period.to_string());
            }
            return;
        }
        case PeriodContract::not_faster:
            // Deadlock is the slowest outcome, so it is always admissible
            // after; unbounded after a finite period would mean a speedup.
            if (pre->is_finite()) {
                if (post->outcome == ThroughputOutcome::unbounded) {
                    violation(invocation, "claimed not-faster but a finite period "
                                          "became unbounded throughput");
                }
                if (post->is_finite() && post->period < pre->period) {
                    violation(invocation, "claimed not-faster but the period shrank " +
                                              pre->period.to_string() + " -> " +
                                              post->period.to_string());
                }
            }
            return;
    }
}

/// Recomputes one preserved analysis on `after` and compares it against the
/// value cached for `before`.  Returns false when the slot was not cached
/// (nothing to check), throws on a mismatch.
bool check_preserved_slot(const std::string& name, const Graph& before,
                          const Graph& after, const std::string& invocation) {
    const AnalysisManager& cache = *before.analyses();
    if (name == RepetitionVectorAnalysis::kName) {
        const auto cached = cache.cached<RepetitionVectorAnalysis>();
        if (!cached) {
            return false;
        }
        if (*cached != *after.analyses()->get<RepetitionVectorAnalysis>(after)) {
            violation(invocation, "preserved analysis 'repetition' changed");
        }
        return true;
    }
    if (name == ConsistencyAnalysis::kName) {
        const auto cached = cache.cached<ConsistencyAnalysis>();
        if (!cached) {
            return false;
        }
        if (*cached != *after.analyses()->get<ConsistencyAnalysis>(after)) {
            violation(invocation, "preserved analysis 'consistency' changed");
        }
        return true;
    }
    if (name == SequentialScheduleAnalysis::kName) {
        const auto cached = cache.cached<SequentialScheduleAnalysis>();
        if (!cached) {
            return false;
        }
        if (*cached != *after.analyses()->get<SequentialScheduleAnalysis>(after)) {
            violation(invocation, "preserved analysis 'schedule' changed");
        }
        return true;
    }
    if (name == LivenessAnalysis::kName) {
        const auto cached = cache.cached<LivenessAnalysis>();
        if (!cached) {
            return false;
        }
        if (*cached != *after.analyses()->get<LivenessAnalysis>(after)) {
            violation(invocation, "preserved analysis 'liveness' changed");
        }
        return true;
    }
    if (name == ThroughputAnalysis::kName) {
        const auto cached = cache.cached<ThroughputAnalysis>();
        if (!cached) {
            return false;
        }
        const auto recomputed = cached_throughput(after);
        if (cached->outcome != recomputed->outcome ||
            cached->period != recomputed->period ||
            cached->per_actor != recomputed->per_actor) {
            violation(invocation, "preserved analysis 'throughput' changed");
        }
        return true;
    }
    if (name == absint::TokenIntervalsAnalysis::kName) {
        const auto cached = cache.cached<absint::TokenIntervalsAnalysis>();
        if (!cached) {
            return false;
        }
        if (*cached != *after.analyses()->get<absint::TokenIntervalsAnalysis>(after)) {
            violation(invocation, "preserved analysis 'token-intervals' changed");
        }
        return true;
    }
    if (name == absint::ReachabilityAnalysis::kName) {
        const auto cached = cache.cached<absint::ReachabilityAnalysis>();
        if (!cached) {
            return false;
        }
        if (*cached != *after.analyses()->get<absint::ReachabilityAnalysis>(after)) {
            violation(invocation, "preserved analysis 'reachability' changed");
        }
        return true;
    }
    if (name == absint::BufferBoundsAnalysis::kName) {
        const auto cached = cache.cached<absint::BufferBoundsAnalysis>();
        if (!cached) {
            return false;
        }
        if (*cached != *after.analyses()->get<absint::BufferBoundsAnalysis>(after)) {
            violation(invocation, "preserved analysis 'buffer-bounds' changed");
        }
        return true;
    }
    // A pass naming an analysis the executor cannot recompute is itself a
    // declaration bug under verification.
    violation(invocation, "declares unknown preserved analysis '" + name + "'");
}

/// The declared preservation set as concrete slot names.
std::vector<std::string> preserved_names(const PassInvocation& step,
                                         const AnalysisManager& before) {
    const Preservation preservation = step.pass->preserved(step.params);
    if (!preservation.all) {
        return preservation.analyses;
    }
    std::vector<std::string> names;
    for (const AnalysisSlotStats& slot : before.stats()) {
        if (slot.cached) {
            names.push_back(slot.analysis);
        }
    }
    return names;
}

}  // namespace

PipelineRun PipelineExecutor::run(const Pipeline& pipeline, Graph graph) const {
    PipelineRun run;
    const Clock::time_point started = Clock::now();
    for (const PassInvocation& step : pipeline.steps) {
        PassReport report;
        report.invocation = step.to_string();

        // Snapshot the entry state: the copy shares the entry manager, so
        // verification can recompute "before" values lazily and adoption
        // can pull cached slots even after the pass replaced the graph.
        const Graph before = graph;

        std::optional<Governor> governor;
        std::optional<GovernorScope> scope;
        if (!options_.budget.unlimited()) {
            governor.emplace(
                remaining_slice(options_.budget, run.total, started, report.invocation),
                options_.token);
            scope.emplace(*governor);
        }
        const Clock::time_point pass_started = Clock::now();
        PassResult result = step.pass->run(graph, step.params, *before.analyses());
        report.used.wall_ms = std::chrono::duration<double, std::milli>(
                                  Clock::now() - pass_started)
                                  .count();
        if (governor) {
            const ResourceUsage used = governor->usage();
            report.used.steps = used.steps;
            report.used.accounted_bytes = used.accounted_bytes;
        }
        scope.reset();
        governor.reset();

        report.changed = result.changed;
        report.stats = std::move(result.stats);
        report.actors = graph.actor_count();
        report.channels = graph.channel_count();
        run.total.steps += report.used.steps;
        run.total.accounted_bytes += report.used.accounted_bytes;
        run.total.wall_ms += report.used.wall_ms;

        if (result.changed) {
            const std::vector<std::string> names = preserved_names(step, *before.analyses());
            if (options_.verify_each) {
                report.verified = true;
                check_period_contract(before, graph, step, report.invocation);
                for (const std::string& name : names) {
                    if (check_preserved_slot(name, before, graph, report.invocation)) {
                        report.carried.push_back(name);
                    }
                }
            } else if (!names.empty()) {
                graph.analyses()->adopt(*before.analyses(), names);
                for (const std::string& name : names) {
                    if (before.analyses()->has(name)) {
                        report.carried.push_back(name);
                    }
                }
            }
        }

        if (options_.verify_each && options_.verify_hook) {
            report.verified = true;
            options_.verify_hook(graph, report);
        }
        if (options_.after_pass) {
            options_.after_pass(graph, report);
        }
        run.reports.push_back(std::move(report));
    }
    run.graph = std::move(graph);
    return run;
}

}  // namespace sdf
