// Tests for the resource-governance layer (src/robust) and the anytime
// degradation ladder (analysis/governed).  Covers: budget trips of every
// cause, cancellation, the exact/degraded/aborted contract, conservativity
// of degraded bounds against the exact analysis, deterministic fault
// injection sweeps over the bundled models (with retry-identity), typed
// capacity refusals in the converters, and the governed-bound oracle over
// hundreds of random graphs (the acceptance criterion of the robustness
// milestone).
#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "analysis/governed.hpp"
#include "analysis/throughput.hpp"
#include "base/errors.hpp"
#include "gen/random_sdf.hpp"
#include "gen/structured.hpp"
#include "io/text.hpp"
#include "io/xml.hpp"
#include "robust/budget.hpp"
#include "robust/fault.hpp"
#include "sdf/simulate.hpp"
#include "transform/hsdf_classic.hpp"
#include "transform/hsdf_reduced.hpp"
#include "transform/unfold.hpp"
#include "verify/oracles.hpp"

namespace sdf {
namespace {

const std::string kDataDir = SDFRED_DATA_DIR;

bool has_suffix(const std::string& text, const std::string& suffix) {
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Graph load_model(const std::string& name) {
    const std::string path = kDataDir + "/" + name;
    return has_suffix(name, ".xml") ? read_xml_file(path) : read_text_file(path);
}

/// The paper's Figure 1 shape in miniature: two coupled cycles.
Graph small_cyclic() {
    Graph g("small");
    const ActorId a = g.add_actor("a", 2);
    const ActorId b = g.add_actor("b", 3);
    const ActorId c = g.add_actor("c", 1);
    g.add_channel(a, b, 0);
    g.add_channel(b, c, 0);
    g.add_channel(c, a, 1);
    g.add_channel(b, a, 1);
    return g;
}

/// Asserts `bound` never over-claims against `exact` (the ladder's core
/// soundness contract).
void expect_conservative(const Graph& g, const ThroughputResult& exact,
                         const ThroughputResult& bound, const std::string& context) {
    if (exact.outcome == ThroughputOutcome::unbounded) {
        return;
    }
    ASSERT_NE(bound.outcome, ThroughputOutcome::unbounded) << context;
    if (exact.outcome == ThroughputOutcome::deadlocked) {
        for (const Rational& rate : bound.per_actor) {
            EXPECT_TRUE(rate.is_zero()) << context;
        }
        return;
    }
    if (bound.outcome != ThroughputOutcome::finite) {
        return;  // a zero claim is below any finite throughput
    }
    EXPECT_LE(exact.period, bound.period) << context;
    ASSERT_EQ(bound.per_actor.size(), exact.per_actor.size()) << context;
    for (ActorId a = 0; a < g.actor_count(); ++a) {
        EXPECT_LE(bound.per_actor[a], exact.per_actor[a])
            << context << " actor " << g.actor(a).name;
    }
}

// ---- Governor mechanics ------------------------------------------------

TEST(Governor, StepBudgetTripsWithTypedCause) {
    ExecutionBudget budget;
    budget.max_steps = 3;
    Governor governor(budget);
    const GovernorScope scope(governor);
    try {
        for (int i = 0; i < 100; ++i) {
            SDFRED_CHECKPOINT();
        }
        FAIL() << "step budget never tripped";
    } catch (const BudgetExceeded& e) {
        EXPECT_EQ(e.cause(), BudgetCause::steps);
    }
    EXPECT_GE(governor.usage().steps, 3u);
}

TEST(Governor, DeadlineTrips) {
    ExecutionBudget budget;
    budget.deadline = std::chrono::milliseconds(1);
    Governor governor(budget);
    const GovernorScope scope(governor);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    try {
        // The deadline is consulted on the slow path (every 64th tick).
        for (int i = 0; i < 1000; ++i) {
            SDFRED_CHECKPOINT();
        }
        FAIL() << "deadline never tripped";
    } catch (const BudgetExceeded& e) {
        EXPECT_EQ(e.cause(), BudgetCause::deadline);
    }
}

TEST(Governor, MemoryBudgetTripsOnAccountedBytes) {
    ExecutionBudget budget;
    budget.max_bytes = 1024;
    Governor governor(budget);
    const GovernorScope scope(governor);
    robust_account_bytes(512);  // within budget
    try {
        robust_account_bytes(4096);
        FAIL() << "memory budget never tripped";
    } catch (const BudgetExceeded& e) {
        EXPECT_EQ(e.cause(), BudgetCause::memory);
    }
    EXPECT_GE(governor.usage().accounted_bytes, 1024u);
}

TEST(Governor, CancellationTokenTrips) {
    CancellationToken token;
    Governor governor(ExecutionBudget{}, token);
    const GovernorScope scope(governor);
    token.request_cancel();
    try {
        for (int i = 0; i < 1000; ++i) {
            SDFRED_CHECKPOINT();
        }
        FAIL() << "cancellation never observed";
    } catch (const BudgetExceeded& e) {
        EXPECT_EQ(e.cause(), BudgetCause::cancelled);
    }
}

TEST(Governor, UngovernedCheckpointsAreNoOps) {
    EXPECT_EQ(current_governor(), nullptr);
    for (int i = 0; i < 100; ++i) {
        SDFRED_CHECKPOINT();  // must not throw without an installed governor
    }
    robust_account_bytes(std::uint64_t{1} << 40);
}

TEST(Governor, ScopeInstallsAndRestores) {
    EXPECT_EQ(current_governor(), nullptr);
    Governor governor(ExecutionBudget{});
    {
        const GovernorScope scope(governor);
        EXPECT_EQ(current_governor(), &governor);
    }
    EXPECT_EQ(current_governor(), nullptr);
}

// ---- Kernel integration ------------------------------------------------

TEST(Governed, SimulationThrowsTypedBudgetExceeded) {
    // A graph whose recurrent state takes more events than the cap: the old
    // untyped overflow error is now a BudgetExceeded with cause `steps`.
    Graph g = small_cyclic();
    try {
        simulate_throughput(g, 2);
        FAIL() << "event budget never tripped";
    } catch (const BudgetExceeded& e) {
        EXPECT_EQ(e.cause(), BudgetCause::steps);
    }
}

TEST(Governed, UnfoldRefusesHugeFactorBeforeAllocating) {
    const Graph g = small_cyclic();
    EXPECT_THROW(unfold(g, Int{1} << 40), ResourceLimitError);
}

TEST(Governed, ClassicExpansionRefusesHugeIterationLength) {
    Graph g("huge");
    const Int scale = 5'000'000;
    const ActorId a = g.add_actor("a", 1);
    const ActorId b = g.add_actor("b", 1);
    g.add_channel(a, b, scale, 1, 0);       // q = (1, scale)
    g.add_channel(b, a, 1, scale, scale);   // back edge, one full iteration
    EXPECT_THROW(to_hsdf_classic(g), ResourceLimitError);
}

TEST(Governed, SymbolicRouteHonoursStepBudget) {
    const Graph g = load_model("modem.xml");
    ExecutionBudget budget;
    budget.max_steps = 10;
    Governor governor(budget);
    const GovernorScope scope(governor);
    EXPECT_THROW(throughput_symbolic(g), BudgetExceeded);
}

TEST(Governed, SparseIterationMatrixFitsAMemoryBudget) {
    // 8003 initial tokens: a dense int64 iteration matrix alone would be
    // 512 MB.  The symbolic route and the reduced conversion keep it
    // sparse (~40k finite entries), so a 64 MB budget is plenty.
    const Graph g = fork_join_graph(8000, 3);
    const ThroughputResult reference = throughput_via_classic_hsdf(g);
    ExecutionBudget budget;
    budget.max_bytes = std::uint64_t{64} << 20;
    Governor governor(budget);
    const GovernorScope scope(governor);
    const ThroughputResult symbolic = throughput_symbolic(g);
    const Graph reduced = to_hsdf_reduced(g);
    ASSERT_TRUE(reference.is_finite());
    ASSERT_TRUE(symbolic.is_finite());
    EXPECT_EQ(symbolic.period, reference.period);
    EXPECT_GT(reduced.actor_count(), 0u);
    EXPECT_LT(governor.usage().accounted_bytes, *budget.max_bytes);
}

// ---- The degradation ladder --------------------------------------------

TEST(Governed, GenerousBudgetIsExact) {
    const Graph g = load_model("modem.xml");
    const ThroughputResult exact = throughput_symbolic(g);
    GovernOptions options;
    options.budget.deadline = std::chrono::milliseconds(60'000);
    const Governed<ThroughputResult> result = governed_throughput(g, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.status, GovernedStatus::exact);
    EXPECT_EQ(result.method, "symbolic-exact");
    ASSERT_EQ(result.value->outcome, exact.outcome);
    EXPECT_EQ(result.value->period, exact.period);
    EXPECT_EQ(result.value->per_actor, exact.per_actor);
    EXPECT_GT(result.used.steps, 0u);
}

TEST(Governed, UnlimitedBudgetIsExactToo) {
    const Graph g = small_cyclic();
    const ThroughputResult exact = throughput_symbolic(g);
    const Governed<ThroughputResult> result = governed_throughput(g, {});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.status, GovernedStatus::exact);
    EXPECT_EQ(result.value->period, exact.period);
}

TEST(Governed, StarvedBudgetDegradesToConservativeBound) {
    for (const std::string name :
         {"figure1_n6.sdf", "modem.xml", "samplerate.xml", "satellite.xml"}) {
        const Graph g = load_model(name);
        const ThroughputResult exact = throughput_symbolic(g);
        GovernOptions options;
        options.budget.max_steps = 1;  // starve the exact rung immediately
        const Governed<ThroughputResult> result = governed_throughput(g, options);
        ASSERT_TRUE(result.ok()) << name;
        EXPECT_EQ(result.cause, BudgetCause::steps) << name;
        ASSERT_TRUE(result.value.has_value()) << name;
        if (result.status == GovernedStatus::degraded) {
            expect_conservative(g, exact, *result.value, name);
        }
    }
}

TEST(Governed, DegradeNeverAborts) {
    const Graph g = load_model("figure1_n6.sdf");
    GovernOptions options;
    options.budget.max_steps = 1;
    options.degrade = DegradeMode::never;
    const Governed<ThroughputResult> result = governed_throughput(g, options);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status, GovernedStatus::aborted);
    EXPECT_EQ(result.cause, BudgetCause::steps);
    EXPECT_FALSE(result.value.has_value());
}

TEST(Governed, CancelledBeforeStartAborts) {
    const Graph g = load_model("figure1_n6.sdf");
    GovernOptions options;
    options.token.request_cancel();
    options.degrade = DegradeMode::never;
    const Governed<ThroughputResult> result = governed_throughput(g, options);
    EXPECT_EQ(result.status, GovernedStatus::aborted);
    EXPECT_EQ(result.cause, BudgetCause::cancelled);
}

TEST(Governed, SemanticErrorsPropagateUnchanged) {
    // An inconsistent graph must raise its typed error from the governed
    // entry point, never "degrade" into a bound.
    Graph g("inconsistent");
    const ActorId a = g.add_actor("a", 1);
    const ActorId b = g.add_actor("b", 1);
    g.add_channel(a, b, 2, 1, 0);
    g.add_channel(b, a, 2, 1, 0);
    EXPECT_THROW(governed_throughput(g, {}), InconsistentGraphError);
}

TEST(Governed, DeadlockedGraphReportsExactZero) {
    Graph g("dead");
    const ActorId a = g.add_actor("a", 1);
    const ActorId b = g.add_actor("b", 1);
    g.add_channel(a, b, 0);
    g.add_channel(b, a, 0);  // no tokens anywhere: deadlock
    GovernOptions options;
    options.budget.max_steps = 1;
    const Governed<ThroughputResult> result = governed_throughput(g, options);
    ASSERT_TRUE(result.ok());
    // Deadlock detection via the sequential schedule is exact, not a bound.
    EXPECT_EQ(result.status, GovernedStatus::exact);
    EXPECT_EQ(result.value->outcome, ThroughputOutcome::deadlocked);
}

TEST(Governed, DeadlineKeepsWallClockBounded) {
    // A graph large enough that the exact route cannot finish in 25 ms, on
    // a budget that forces degradation: the ladder must come back quickly
    // (the ~2x-deadline contract, asserted here with a wide CI margin).
    std::mt19937 rng(7);
    RandomSdfOptions big;
    big.min_actors = 12;
    big.max_actors = 16;
    big.max_repetition = 6;
    const Graph g = random_sdf(rng, big);
    GovernOptions options;
    options.budget.deadline = std::chrono::milliseconds(25);
    const auto started = std::chrono::steady_clock::now();
    const Governed<ThroughputResult> result = governed_throughput(g, options);
    const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - started)
                                  .count();
    ASSERT_TRUE(result.ok());
    // 2x deadline plus generous slack for loaded CI machines.
    EXPECT_LT(elapsed_ms, 2000.0);
}

// ---- Fault injection ---------------------------------------------------

TEST(FaultInjection, SpecParsingAndArming) {
    EXPECT_FALSE(fault_injection_armed());
    {
        const FaultInjectionScope scope("alloc:2|step:5,deadline:1");
        EXPECT_TRUE(fault_injection_armed());
    }
    EXPECT_FALSE(fault_injection_armed());
    EXPECT_THROW(set_fault_injection("alloc:x"), Error);
    EXPECT_THROW(set_fault_injection("frobnicate:3"), Error);
    clear_fault_injection();
}

TEST(FaultInjection, FiresOnlyUnderGovernance) {
    const Graph g = small_cyclic();
    const ThroughputResult exact = throughput_symbolic(g);
    const FaultInjectionScope scope("alloc:1|step:1|deadline:1");
    // No governor installed: the armed faults must not perturb plain use.
    const ThroughputResult again = throughput_symbolic(g);
    EXPECT_EQ(again.period, exact.period);
}

TEST(FaultInjection, SweepOverBundledModels) {
    // The satellite (c) sweep: fail the K-th governed allocation for
    // K = 1..kAllocSweep (and the K-th checkpoint for the step/deadline
    // kinds) on each bundled model.  Every outcome must be a conservative
    // result or a clean abort, the library state must survive (retry
    // identity), and under ASan nothing may leak.
    constexpr int kAllocSweep = 25;
    constexpr int kCheckpointSweep = 8;
    for (const std::string name : {"figure1_n6.sdf", "modem.xml", "samplerate.xml"}) {
        const Graph g = load_model(name);
        const ThroughputResult exact = throughput_symbolic(g);
        std::vector<std::string> specs;
        for (int k = 1; k <= kAllocSweep; ++k) {
            specs.push_back("alloc:" + std::to_string(k));
        }
        for (int k = 1; k <= kCheckpointSweep; ++k) {
            specs.push_back("step:" + std::to_string(k));
            specs.push_back("deadline:" + std::to_string(k));
        }
        for (const std::string& spec : specs) {
            {
                const FaultInjectionScope fault(spec);
                const Governed<ThroughputResult> result = governed_throughput(g, {});
                if (result.ok() && result.status == GovernedStatus::degraded) {
                    expect_conservative(g, exact, *result.value, name + " " + spec);
                } else if (result.ok()) {
                    EXPECT_EQ(result.value->period, exact.period)
                        << name << " " << spec;
                }
            }
            // Retry identity: the fault must not have corrupted anything.
            const ThroughputResult retry = throughput_symbolic(g);
            ASSERT_EQ(retry.outcome, exact.outcome) << name << " " << spec;
            EXPECT_EQ(retry.period, exact.period) << name << " " << spec;
            EXPECT_EQ(retry.per_actor, exact.per_actor) << name << " " << spec;
        }
    }
}

// ---- The governed-bound oracle -----------------------------------------

TEST(GovernedOracle, RegisteredAndListed) {
    ASSERT_NE(find_oracle("governed-bound"), nullptr);
}

TEST(GovernedOracle, OracleBudgetGovernsTheRun) {
    const Graph g = load_model("modem.xml");
    const Oracle* oracle = find_oracle("throughput-routes");
    ASSERT_NE(oracle, nullptr);
    OracleLimits limits;
    limits.budget.max_steps = 5;
    const Verdict verdict = run_oracle(*oracle, g, limits);
    EXPECT_EQ(verdict.status, VerdictStatus::reject) << verdict.describe();
}

TEST(GovernedOracle, HoldsOverRandomGraphSweep) {
    // Acceptance criterion: over >= 200 random graphs, every degraded
    // result is a true lower bound and injected faults never corrupt state.
    const Oracle* oracle = find_oracle("governed-bound");
    ASSERT_NE(oracle, nullptr);
    int checked = 0;
    for (std::uint64_t seed = 1; seed <= 220; ++seed) {
        std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
        const Graph g = random_sdf(rng);
        const Verdict verdict = run_oracle(*oracle, g);
        EXPECT_NE(verdict.status, VerdictStatus::fail)
            << "seed " << seed << ": " << verdict.describe();
        if (verdict.status == VerdictStatus::pass) {
            ++checked;
        }
    }
    // The generator emits consistent live graphs, so the vast majority
    // must actually exercise the pass path rather than skip or reject.
    EXPECT_GE(checked, 150);
}

}  // namespace
}  // namespace sdf
