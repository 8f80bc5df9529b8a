// Tests for src/pass: the pipeline parser (grammar, canonical form, typed
// errors), the registry, and the PipelineExecutor (analysis adoption,
// budget slicing, --verify-each declaration checking, route equivalence
// over the bundled models).
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/throughput.hpp"
#include "io/text.hpp"
#include "io/xml.hpp"
#include "pass/executor.hpp"
#include "pass/pipeline.hpp"
#include "pass/registry.hpp"
#include "sdf/repetition.hpp"
#include "sdf/schedule.hpp"
#include "transform/selfloops.hpp"

namespace sdf {
namespace {

// A consistent, live multi-rate graph: A =2/1=> B with a token-carrying
// back channel (its closure has a finite period).
Graph multirate() {
    Graph g("multirate");
    const ActorId a = g.add_actor("A", 3);
    const ActorId b = g.add_actor("B", 2);
    g.add_channel(a, b, 2, 1, 0);
    g.add_channel(b, a, 1, 2, 4);
    return g;
}

// A homogeneous ring of `n` actors with one token: period == sum of times.
Graph ring(std::size_t n, Int time = 1) {
    Graph g("ring" + std::to_string(n));
    for (std::size_t i = 0; i < n; ++i) {
        g.add_actor("a" + std::to_string(i), time);
    }
    for (std::size_t i = 0; i < n; ++i) {
        g.add_channel(static_cast<ActorId>(i), static_cast<ActorId>((i + 1) % n), 1,
                      1, i == 0 ? 1 : 0);
    }
    return g;
}

PipelineErrorKind kind_of(const std::string& spec) {
    try {
        (void)parse_pipeline(spec);
    } catch (const PipelineParseError& e) {
        return e.kind();
    }
    ADD_FAILURE() << "spec '" << spec << "' parsed cleanly";
    return PipelineErrorKind::empty;
}

// ---- registry ---------------------------------------------------------

TEST(PassRegistry, BuiltinsResolveAndHiddenStaysOutOfTheCatalogue) {
    const PassRegistry& registry = PassRegistry::instance();
    for (const char* name :
         {"selfloops", "prune", "retiming", "hsdf-classic", "hsdf-reduced",
          "abstraction", "sdf-abstraction", "unfold", "scenario-envelope"}) {
        EXPECT_NE(registry.find(name), nullptr) << name;
    }
    // The unsound self-test pass resolves but is not advertised.
    EXPECT_NE(registry.find("selftest-unsound"), nullptr);
    for (const Pass* pass : registry.list()) {
        EXPECT_NE(pass->name(), "selftest-unsound");
    }
    bool listed_hidden = false;
    for (const Pass* pass : registry.list(/*include_hidden=*/true)) {
        listed_hidden = listed_hidden || pass->name() == "selftest-unsound";
    }
    EXPECT_TRUE(listed_hidden);
}

// ---- parser: valid specs ----------------------------------------------

TEST(PipelineParser, RoundTripsToCanonicalForm) {
    const Pipeline p =
        parse_pipeline("  selfloops ,prune , unfold( 2 ) ,hsdf-reduced ");
    EXPECT_EQ(p.to_string(), "selfloops,prune,unfold(2),hsdf-reduced");
    ASSERT_EQ(p.steps.size(), 4u);
    EXPECT_EQ(p.steps[2].params.at("n"), 2);
    // Canonical text re-parses to the same canonical text (fixpoint).
    EXPECT_EQ(parse_pipeline(p.to_string()).to_string(), p.to_string());
}

TEST(PipelineParser, DefaultedParametersAreFilledAndOmittedFromCanonicalForm) {
    const Pipeline defaulted = parse_pipeline("selfloops");
    EXPECT_EQ(defaulted.steps[0].params.at("tokens"), 1);
    EXPECT_EQ(defaulted.to_string(), "selfloops");
    // Explicit default prints the same.
    EXPECT_EQ(parse_pipeline("selfloops(1)").to_string(), "selfloops");
    EXPECT_EQ(parse_pipeline("selfloops()").to_string(), "selfloops");
    // Keyword form canonicalises to positional for a single parameter.
    EXPECT_EQ(parse_pipeline("selfloops(tokens=2)").to_string(), "selfloops(2)");
}

// ---- parser: typed errors ---------------------------------------------

TEST(PipelineParser, EmptyPipelines) {
    EXPECT_EQ(kind_of(""), PipelineErrorKind::empty);
    EXPECT_EQ(kind_of("   "), PipelineErrorKind::empty);
}

TEST(PipelineParser, UnknownPassNames) {
    EXPECT_EQ(kind_of("bogus"), PipelineErrorKind::unknown_pass);
    EXPECT_EQ(kind_of("prune,bogus"), PipelineErrorKind::unknown_pass);
    // The message lists the catalogue so the CLI error is actionable.
    try {
        (void)parse_pipeline("bogus");
        FAIL();
    } catch (const PipelineParseError& e) {
        EXPECT_NE(std::string(e.what()).find("hsdf-reduced"), std::string::npos);
        EXPECT_GT(std::string(pipeline_error_kind_name(e.kind())).size(), 0u);
    }
}

TEST(PipelineParser, MalformedParameters) {
    EXPECT_EQ(kind_of("unfold"), PipelineErrorKind::malformed_parameter);  // required
    EXPECT_EQ(kind_of("unfold()"), PipelineErrorKind::malformed_parameter);
    EXPECT_EQ(kind_of("unfold(x)"), PipelineErrorKind::malformed_parameter);
    EXPECT_EQ(kind_of("unfold(0)"), PipelineErrorKind::malformed_parameter);  // min 1
    EXPECT_EQ(kind_of("selfloops(0)"), PipelineErrorKind::malformed_parameter);
    EXPECT_EQ(kind_of("prune(1)"), PipelineErrorKind::malformed_parameter);  // arity
    EXPECT_EQ(kind_of("unfold(k=2)"), PipelineErrorKind::malformed_parameter);
}

TEST(PipelineParser, DuplicateParameters) {
    EXPECT_EQ(kind_of("unfold(2,n=3)"), PipelineErrorKind::duplicate_parameter);
    EXPECT_EQ(kind_of("unfold(n=2,n=3)"), PipelineErrorKind::duplicate_parameter);
}

TEST(PipelineParser, SyntaxErrors) {
    EXPECT_EQ(kind_of("prune,,selfloops"), PipelineErrorKind::syntax);
    EXPECT_EQ(kind_of("prune,"), PipelineErrorKind::syntax);
    EXPECT_EQ(kind_of("unfold(2"), PipelineErrorKind::syntax);
    EXPECT_EQ(kind_of("prune)"), PipelineErrorKind::syntax);
    EXPECT_EQ(kind_of("prune selfloops"), PipelineErrorKind::syntax);
}

TEST(PipelineParser, ErrorsCarryThePosition) {
    try {
        (void)parse_pipeline("prune,bogus");
        FAIL();
    } catch (const PipelineParseError& e) {
        EXPECT_EQ(e.position(), 6u);
    }
}

TEST(PipelineParser, NestedAndUnbalancedParentheses) {
    // '(' is not special inside an argument, so nesting lands in the value
    // token and fails the integer parse, never the tokenizer.
    EXPECT_EQ(kind_of("unfold((2))"), PipelineErrorKind::malformed_parameter);
    EXPECT_EQ(kind_of("unfold((n=2)"), PipelineErrorKind::malformed_parameter);
    // A stray closing paren after a complete call is a missing separator.
    EXPECT_EQ(kind_of("unfold(2))"), PipelineErrorKind::syntax);
}

TEST(PipelineParser, TrailingCommaVariants) {
    EXPECT_EQ(kind_of("prune,"), PipelineErrorKind::syntax);
    EXPECT_EQ(kind_of("selfloops,prune,  "), PipelineErrorKind::syntax);
    EXPECT_EQ(kind_of("unfold(2,)"), PipelineErrorKind::syntax);
}

TEST(PipelineParser, EmptyAndDoubledParameterValues) {
    // "n=" reads an empty value token; that is a malformed parameter (the
    // message names the parameter), not a tokenizer crash.
    EXPECT_EQ(kind_of("unfold(n=)"), PipelineErrorKind::malformed_parameter);
    EXPECT_EQ(kind_of("unfold(n=2=3)"), PipelineErrorKind::syntax);
}

TEST(PipelineParser, EveryRegisteredPassRoundTripsWithNonDefaultParams) {
    // For every pass (hidden ones included): build a keyword-form spec with
    // every parameter set off its default, and require parse -> to_string
    // to be a fixpoint that preserves the chosen values.
    for (const Pass* pass : PassRegistry::instance().list(/*include_hidden=*/true)) {
        std::string spec = pass->name();
        std::vector<std::pair<std::string, Int>> chosen;
        const std::vector<PassParamSpec> params = pass->params();
        if (!params.empty()) {
            spec += "(";
            for (std::size_t i = 0; i < params.size(); ++i) {
                const PassParamSpec& p = params[i];
                Int value = p.default_value.value_or(p.minimum.value_or(0)) + 1;
                if (p.minimum && value < *p.minimum) {
                    value = *p.minimum + 1;
                }
                chosen.emplace_back(p.name, value);
                spec += (i == 0 ? "" : ",") + p.name + "=" + std::to_string(value);
            }
            spec += ")";
        }
        const Pipeline parsed = parse_pipeline(spec);
        ASSERT_EQ(parsed.steps.size(), 1u) << spec;
        for (const auto& [name, value] : chosen) {
            EXPECT_EQ(parsed.steps[0].params.at(name), value) << spec;
        }
        const std::string canonical = parsed.to_string();
        EXPECT_EQ(parse_pipeline(canonical).to_string(), canonical) << spec;
        for (const auto& [name, value] : chosen) {
            EXPECT_EQ(parse_pipeline(canonical).steps[0].params.at(name), value)
                << canonical;
        }
    }
}

// ---- executor: analysis threading -------------------------------------

TEST(PipelineExecutor, AdoptsDeclaredPreservedAnalyses) {
    Graph g = multirate();
    const std::vector<Int> reps = repetition_vector(g);  // warm the cache
    const PipelineRun run =
        PipelineExecutor().run(parse_pipeline("selfloops"), g);
    ASSERT_EQ(run.reports.size(), 1u);
    EXPECT_TRUE(run.reports[0].changed);
    // The repetition vector survived the rewrite without recomputation...
    ASSERT_TRUE(run.graph.analyses()->is_cached<RepetitionVectorAnalysis>());
    EXPECT_EQ(*run.graph.analyses()->cached<RepetitionVectorAnalysis>(), reps);
    const auto carried = run.reports[0].carried;
    EXPECT_NE(std::find(carried.begin(), carried.end(), "repetition"),
              carried.end());
    // ...and it is the correct repetition vector of the result.
    EXPECT_EQ(repetition_vector(run.graph), reps);
    // Adoption is visible in the slot statistics.
    for (const AnalysisSlotStats& slot : run.graph.analyses()->stats()) {
        if (slot.analysis == "repetition") {
            EXPECT_EQ(slot.adopted, 1u);
            EXPECT_EQ(slot.misses, 0u);
        }
    }
}

TEST(PipelineExecutor, RetimingCarriesTheFullThroughputResult) {
    // Equal times with one token, and times 1..4 with three tokens on the
    // closing channel (enough slack that retiming spreads them).
    Graph uneven("ring4");
    for (Int time = 1; time <= 4; ++time) {
        uneven.add_actor("a" + std::to_string(time), time);
    }
    for (ActorId a = 0; a < 4; ++a) {
        uneven.add_channel(a, (a + 1) % 4, a == 3 ? 3 : 0);
    }
    for (const Graph& input : {ring(4, 2), uneven}) {
        SCOPED_TRACE(input.name());
        Graph g = input;
        const auto before = cached_throughput(g);  // warm the timed slot
        ASSERT_TRUE(before->is_finite());
        const PipelineRun run = PipelineExecutor().run(parse_pipeline("retiming"), g);
        if (run.reports[0].changed) {
            ASSERT_TRUE(run.graph.analyses()->is_cached<ThroughputAnalysis>());
            const auto adopted = run.graph.analyses()->cached<ThroughputAnalysis>();
            EXPECT_EQ(adopted->period, before->period);
            // The adopted value matches a from-scratch recomputation.
            EXPECT_EQ(throughput_symbolic(run.graph).period, before->period);
        }
    }
}

TEST(PipelineExecutor, RetimingDropsTheSymbolicIteration) {
    // Both tokens on one edge of the ring: retiming spreads them, so the
    // iteration matrix (indexed by the tokens) must not cross the rewrite.
    Graph g = ring(4, 2);
    g.set_initial_tokens(0, 2);
    (void)cached_throughput(g);
    ASSERT_TRUE(g.analyses()->has("symbolic-iteration"));
    const PipelineRun run = PipelineExecutor().run(parse_pipeline("retiming"), g);
    ASSERT_TRUE(run.reports[0].changed);
    EXPECT_FALSE(run.graph.analyses()->has("symbolic-iteration"));
    EXPECT_EQ(cached_throughput(run.graph)->period, cached_throughput(g)->period);
}

TEST(PipelineExecutor, UnchangedPassKeepsTheWholeCache) {
    Graph g = add_self_loops(multirate(), 1);
    repetition_vector(g);
    sequential_schedule(g);
    const auto manager = g.analyses();
    const PipelineRun run = PipelineExecutor().run(parse_pipeline("selfloops"), g);
    EXPECT_FALSE(run.reports[0].changed);
    // No mutation, no manager swap: every slot survives trivially.
    EXPECT_EQ(run.graph.analyses(), manager);
    EXPECT_TRUE(run.graph.analyses()->is_cached<SequentialScheduleAnalysis>());
}

// ---- executor: route equivalence over the bundled models --------------

TEST(PipelineExecutor, PipelineRouteMatchesDirectRouteOnEveryBundledModel) {
    const std::filesystem::path data_dir(SDFRED_DATA_DIR);
    const Pipeline pipeline = parse_pipeline("selfloops,prune,hsdf-reduced");
    std::size_t models = 0;
    for (const auto& entry : std::filesystem::directory_iterator(data_dir)) {
        if (!entry.is_regular_file()) {
            continue;  // bad/ and corpus/ are covered by their own suites
        }
        const std::string path = entry.path().string();
        const Graph model = entry.path().extension() == ".xml"
                                ? read_xml_file(path)
                                : read_text_file(path);
        const ThroughputResult direct =
            throughput_symbolic(add_self_loops(model, 1));
        const PipelineRun run = PipelineExecutor().run(pipeline, model);
        const ThroughputResult via = throughput_symbolic(run.graph);
        EXPECT_EQ(via.outcome, direct.outcome) << path;
        if (direct.is_finite()) {
            EXPECT_EQ(via.period, direct.period) << path;  // exact rationals
        }
        ++models;
    }
    EXPECT_GE(models, 10u);  // every bundled model took part
}

// ---- executor: verification -------------------------------------------

TEST(PipelineExecutor, VerifyEachAcceptsSoundPipelines) {
    ExecutorOptions options;
    options.verify_each = true;
    const PipelineRun run = PipelineExecutor(std::move(options))
                                .run(parse_pipeline("selfloops,prune,unfold(2),"
                                                    "hsdf-reduced"),
                                     ring(3, 2));
    for (const PassReport& report : run.reports) {
        // Declaration checks run on every pass that rewrote the graph; a
        // no-op pass has nothing to verify.
        EXPECT_EQ(report.verified, report.changed) << report.invocation;
    }
    EXPECT_TRUE(throughput_symbolic(run.graph).is_finite());
}

TEST(PipelineExecutor, VerifyEachCatchesTheUnsoundSelfTestPass) {
    ExecutorOptions options;
    options.verify_each = true;
    EXPECT_THROW((void)PipelineExecutor(std::move(options))
                     .run(parse_pipeline("selftest-unsound"), ring(3, 2)),
                 PipelineVerificationError);
}

TEST(PipelineExecutor, WithoutVerificationTheUnsoundPassSlipsThrough) {
    // The point of --verify-each: the same pipeline is NOT caught without it.
    const PipelineRun run =
        PipelineExecutor().run(parse_pipeline("selftest-unsound"), ring(3, 2));
    EXPECT_TRUE(run.reports[0].changed);
}

TEST(PipelineExecutor, VerifyHookFiresAndCanFailThePipeline) {
    ExecutorOptions options;
    options.verify_each = true;
    std::size_t calls = 0;
    options.verify_hook = [&calls](const Graph&, const PassReport&) { ++calls; };
    (void)PipelineExecutor(std::move(options)).run(parse_pipeline("selfloops,prune"),
                                                   multirate());
    EXPECT_EQ(calls, 2u);

    ExecutorOptions failing;
    failing.verify_each = true;
    failing.verify_hook = [](const Graph&, const PassReport& report) {
        throw PipelineVerificationError("vetoed after " + report.invocation);
    };
    EXPECT_THROW((void)PipelineExecutor(std::move(failing))
                     .run(parse_pipeline("selfloops"), multirate()),
                 PipelineVerificationError);
}

// ---- executor: budget slicing -----------------------------------------

TEST(PipelineExecutor, BudgetAbortsAndAccountsPerPass) {
    ExecutorOptions tiny;
    tiny.budget.max_steps = 3;
    EXPECT_THROW((void)PipelineExecutor(std::move(tiny))
                     .run(parse_pipeline("selfloops,hsdf-reduced"), ring(40, 1)),
                 BudgetExceeded);

    ExecutorOptions roomy;
    roomy.budget.max_steps = 1u << 22;
    const PipelineRun run =
        PipelineExecutor(std::move(roomy))
            .run(parse_pipeline("selfloops,hsdf-reduced"), ring(40, 1));
    EXPECT_GT(run.total.steps, 0u);
    std::uint64_t summed = 0;
    for (const PassReport& report : run.reports) {
        summed += report.used.steps;
    }
    EXPECT_EQ(summed, run.total.steps);
}

TEST(PipelineExecutor, AfterPassHookSeesEveryStep) {
    std::vector<std::string> seen;
    ExecutorOptions options;
    options.after_pass = [&seen](const Graph&, const PassReport& report) {
        seen.push_back(report.invocation);
    };
    (void)PipelineExecutor(std::move(options))
        .run(parse_pipeline("selfloops,prune,unfold(2)"), ring(3, 1));
    EXPECT_EQ(seen, (std::vector<std::string>{"selfloops", "prune", "unfold(2)"}));
}

}  // namespace
}  // namespace sdf
