// sdfred_cli — command-line front end to the sdfred library.
//
// The command table (kCommands, at the end of this file) names every
// command with its synopsis, its positionals, the flag groups it takes and
// its run function; the flag table (kFlags) says where each flag writes.
// usage() prints the synopses.  A flag the command does not take is a bad
// invocation, as is a --list form with positionals.
//
// Resource governance (docs/ROBUSTNESS.md): --timeout-ms N, --max-steps N
// and --max-memory-mb N put the command under an ExecutionBudget.  analyze
// degrades to a certified throughput lower bound when the exact route
// blows the budget (--degrade never turns that into exit code 4); analyze
// --certify, convert, pipeline and unfold are cut off with exit code 4;
// fuzz turns a tripped budget into a typed reject verdict; serve makes the
// budget the default of every request.  The environment variable
// SDFRED_FAULT_INJECT=alloc:N|step:N|deadline:N arms one-shot
// deterministic faults for robustness testing.
//
// Exit codes: 0 success (for lint: nothing at/above --fail-on), 1 analysis
// failure or lint findings, 2 bad invocation, 3 unparseable input file,
// 4 aborted by resource budget.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>
#include <new>
#include <optional>
#include <string>
#include <vector>

#ifndef SDFRED_VERSION
#define SDFRED_VERSION "unknown"
#endif

#include "analysis/deadlock.hpp"
#include "analysis/latency.hpp"
#include "analysis/liveness.hpp"
#include "analysis/pareto.hpp"
#include "analysis/sensitivity.hpp"
#include "analysis/static_schedule.hpp"
#include "analysis/storage.hpp"
#include "analysis/throughput.hpp"
#include "base/cpudispatch.hpp"
#include "base/errors.hpp"
#include "base/signals.hpp"
#include "base/string_util.hpp"
#include "csdf/analysis.hpp"
#include "io/csdf_xml.hpp"
#include "io/dot.hpp"
#include "io/source_map.hpp"
#include "io/text.hpp"
#include "io/xml.hpp"
#include "lint/lint.hpp"
#include "lint/registry.hpp"
#include "lint/render.hpp"
#include "pass/executor.hpp"
#include "pass/pipeline.hpp"
#include "pass/registry.hpp"
#include "robust/budget.hpp"
#include "robust/fault.hpp"
#include "sdf/properties.hpp"
#include "sdf/repetition.hpp"
#include "serve/ops.hpp"
#include "serve/oracle.hpp"
#include "serve/server.hpp"
#include "verify/fuzz.hpp"
#include "verify/oracles.hpp"

namespace {

using namespace sdf;

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
    std::string joined;
    for (const std::string& part : parts) {
        if (!joined.empty()) {
            joined += sep;
        }
        joined += part;
    }
    return joined;
}

Graph load(const std::string& path, SourceMap* locations = nullptr) {
    return path.ends_with(".xml") ? read_xml_file(path, locations)
                                  : read_text_file(path, locations);
}

/// Writes `graph` to `out`, or to stdout when absent, as `format` (text,
/// xml or dot).  An empty format picks by the extension of `out` (.xml,
/// .dot, anything else: text); stdout then gets text.
void save(const Graph& graph, const std::optional<std::string>& out,
          std::string format = "") {
    if (format.empty()) {
        format = out && out->ends_with(".xml")   ? "xml"
                 : out && out->ends_with(".dot") ? "dot"
                                                 : "text";
    }
    if (!out) {
        if (format == "xml") {
            std::cout << write_xml_string(graph);
        } else if (format == "dot") {
            std::cout << write_dot_string(graph);
        } else {
            write_text(std::cout, graph);
        }
        return;
    }
    if (format == "xml") {
        write_xml_file(*out, graph);
    } else if (format == "dot") {
        write_dot_file(*out, graph);
    } else {
        write_text_file(*out, graph);
    }
    std::cout << "wrote " << *out << "\n";
}

int usage();

/// One parsed command line: the positionals, and the option structs the
/// commands consume directly.  kFlags says where each flag writes.
struct Invocation {
    std::vector<std::string> positional;
    std::optional<Graph> model;  ///< see model()
    bool guard = false;          ///< --lint
    bool list = false;           ///< --list: the reference table, no positionals
    GovernOptions govern;        ///< the budget flags and --degrade
    bool governed = false;       ///< any of them given: analyze prints its status
    bool certify = false;
    bool json = false;
    std::optional<std::string> to;   ///< convert --to
    std::optional<std::string> out;  ///< -o
    std::optional<std::string> passes;
    std::optional<std::string> dump_after;
    bool time_passes = false;
    bool verify_each = false;
    std::optional<std::string> format;  ///< lint: report format; convert: --to alias
    std::vector<std::string> rules;
    Severity fail_on = Severity::error;
    FuzzOptions fuzz;
    bool self_test = false;
    serve::ServeOptions serve;
    serve::ServerOptions server;
    std::optional<std::string> socket;       ///< serve --socket PATH (Unix)
    std::optional<unsigned short> tcp_port;  ///< serve --tcp PORT (127.0.0.1)
};

/// The model named by the last positional, parsed once: the --lint guard
/// fills `locations` and the command reuses the graph.
const Graph& model(Invocation& inv, SourceMap* locations = nullptr) {
    if (!inv.model) {
        inv.model = load(inv.positional.back(), locations);
    }
    return *inv.model;
}

int cmd_sensitivity(const Graph& g) {
    const SensitivityReport report = sensitivity_analysis(g);
    std::cout << "iteration period: " << report.period.to_string() << "\n";
    std::cout << "per-actor sensitivity (+1 execution time => period delta):\n";
    for (ActorId a = 0; a < g.actor_count(); ++a) {
        std::cout << "  " << g.actor(a).name << ": +" << report.delta[a].to_string();
        if (report.critical[a]) {
            std::cout << "  [critical]";
        } else {
            std::cout << "  (slack " << report.slack[a].to_string() << ")";
        }
        std::cout << "\n";
    }
    return 0;
}

int cmd_storage(const Graph& g) {
    const std::vector<Int> marks = self_timed_storage(g);
    std::cout << "self-timed storage requirement per channel:\n";
    for (ChannelId c = 0; c < g.channel_count(); ++c) {
        const Channel& ch = g.channel(c);
        std::cout << "  " << g.actor(ch.src).name << " -> " << g.actor(ch.dst).name
                  << ": " << marks[c] << " tokens"
                  << (ch.is_self_loop() ? "  (self-loop)" : "") << "\n";
    }
    std::cout << "total (excluding self-loops): " << self_timed_storage_total(g)
              << "\n";
    return 0;
}

int cmd_pareto(const Graph& g) {
    std::cout << "throughput/buffer trade-off (greedy Pareto ascent):\n";
    std::cout << "  total buffer   period\n";
    for (const ParetoPoint& point : buffer_throughput_tradeoff(g)) {
        std::cout << "  " << point.total_buffer << "\t\t"
                  << point.period.to_string() << "\n";
    }
    return 0;
}

int cmd_csdf_analyze(const CsdfGraph& g) {
    const std::vector<Int> cycles = csdf_repetition(g);
    std::cout << "cycle repetition vector:\n";
    for (CsdfActorId a = 0; a < g.actor_count(); ++a) {
        std::cout << "  " << g.actor(a).name << ": " << cycles[a] << " ("
                  << g.actor(a).phase_count() << " phases)\n";
    }
    const CsdfThroughput t = csdf_throughput(g);
    if (t.deadlocked) {
        std::cout << "throughput: graph deadlocks (0)\n";
        return 0;
    }
    if (t.unbounded) {
        std::cout << "throughput: unbounded (no constraining cycle)\n";
        return 0;
    }
    std::cout << "iteration period: " << t.period.to_string() << "\n";
    std::cout << "cycles per time unit per actor:\n";
    for (CsdfActorId a = 0; a < g.actor_count(); ++a) {
        std::cout << "  " << g.actor(a).name << ": " << t.per_actor[a].to_string()
                  << "\n";
    }
    return 0;
}

int cmd_info(const Graph& g) {
    std::cout << "graph      : " << (g.name().empty() ? "(unnamed)" : g.name()) << "\n";
    std::cout << "actors     : " << g.actor_count() << "\n";
    std::cout << "channels   : " << g.channel_count() << "\n";
    std::cout << "tokens     : " << g.total_initial_tokens() << "\n";
    std::cout << "homogeneous: " << (g.is_homogeneous() ? "yes" : "no") << "\n";
    std::cout << "consistent : " << (is_consistent(g) ? "yes" : "no") << "\n";
    if (is_consistent(g)) {
        std::cout << "iteration  : " << iteration_length(g) << " firings\n";
        std::cout << "live       : " << (is_live(g) ? "yes" : "no") << "\n";
    }
    std::cout << "strongly connected: " << (is_strongly_connected(g) ? "yes" : "no")
              << "\n";
    return 0;
}

/// `analyze`: the repetition vector, then the throughput op.  Under budget
/// flags (`governed`) it also reports the analysis status and resources:
/// exact when the budget fits, a certified lower bound when degraded, exit
/// code 4 when no result was obtainable.
int cmd_analyze(const Graph& g, const GovernOptions& options, bool governed) {
    const std::vector<Int> q = repetition_vector(g);
    std::cout << "repetition vector:\n";
    for (ActorId a = 0; a < g.actor_count(); ++a) {
        std::cout << "  " << g.actor(a).name << ": " << q[a] << "\n";
    }
    // Unbudgeted, this is served from the graph's AnalysisManager: a
    // preceding consumer of the symbolic route (the --lint guard, a
    // wrapping tool) pays nothing twice.
    const serve::ops::ThroughputReport report = serve::ops::throughput(g, options);
    const Governed<ThroughputResult>& result = report.governed;
    if (governed) {
        std::cout << "analysis status: " << governed_status_name(result.status);
        if (result.ok()) {
            std::cout << " (method: " << result.method << ")";
        }
        std::cout << "\n";
        if (result.cause != BudgetCause::none) {
            std::cout << "budget trip: " << budget_cause_name(result.cause);
            if (!result.detail.empty()) {
                std::cout << " — " << result.detail;
            }
            std::cout << "\n";
        }
        std::cout << "resources: " << result.used.steps << " steps, "
                  << result.used.accounted_bytes << " accounted bytes, "
                  << result.used.wall_ms << " ms\n";
    }
    if (!result.ok()) {
        std::cout << "no result obtainable within the budget\n";
        return report.exit_code;
    }
    const ThroughputResult& t = *result.value;
    const bool bound = result.status == GovernedStatus::degraded;
    switch (t.outcome) {
        case ThroughputOutcome::deadlocked:
            std::cout << "throughput: graph deadlocks (0)\n";
            return 0;
        case ThroughputOutcome::unbounded:
            std::cout << "throughput: unbounded (no constraining cycle)\n";
            return 0;
        case ThroughputOutcome::finite:
            break;
    }
    std::cout << (bound ? "iteration period upper bound: " : "iteration period: ")
              << t.period.to_string() << "\n";
    std::cout << (bound ? "throughput lower bound per actor (firings/time):\n"
                        : "throughput per actor (firings/time):\n");
    for (ActorId a = 0; a < g.actor_count(); ++a) {
        std::cout << "  " << g.actor(a).name << ": " << t.per_actor[a].to_string()
                  << "\n";
    }
    if (!bound) {
        std::cout << "iteration makespan: " << iteration_makespan(g) << "\n";
    }
    return 0;
}

/// `analyze --certify [--json]`: the certify op — token intervals,
/// reachability firing bounds and machine-checked buffer-bound
/// certificates.  Budget flags govern the solver through its per-transfer
/// checkpoints, so exhaustion surfaces as BudgetExceeded and exit code 4
/// via the outer handler.  Exit 1 when the certificate fails its
/// independent checker or the analysis proves the graph broken
/// (inconsistent rates, a dead actor, or a firing bound below the
/// repetition count — guaranteed deadlock).
int cmd_analyze_absint(const Graph& g, bool json, bool certify,
                       const ExecutionBudget& budget) {
    const serve::ops::CertifyReport report =
        serve::ops::certify(g, budget, CancellationToken{}, certify);
    if (json) {
        std::cout << report.json.dump_report();
        return report.exit_code;
    }
    const absint::TokenIntervals& ti = report.intervals;
    const absint::Reachability& reach = report.reach;
    std::cout << "token intervals (per channel, over every admissible execution):\n";
    for (ChannelId c = 0; c < g.channel_count(); ++c) {
        const Channel& ch = g.channel(c);
        std::cout << "  #" << c << " " << g.actor(ch.src).name << " -> "
                  << g.actor(ch.dst).name << ": " << ti.channels[c].to_string();
        if (ti.caps[c].has_value()) {
            std::cout << "  (structural cap " << *ti.caps[c] << ")";
        }
        std::cout << "\n";
    }
    std::cout << "cycle invariants proving the caps: " << ti.invariants.size()
              << " (solver steps: " << ti.solver_steps << ")\n";
    std::cout << "reachability (firing bounds over any admissible execution):\n";
    for (ActorId a = 0; a < g.actor_count(); ++a) {
        std::cout << "  " << g.actor(a).name << ": ";
        if (!reach.max_firings[a].has_value()) {
            std::cout << "unbounded\n";
        } else {
            std::cout << "at most " << *reach.max_firings[a]
                      << (reach.never_fires(a) ? " (dead)" : "") << "\n";
        }
    }
    if (report.certified) {
        std::cout << "certified buffer bounds:\n";
        for (const absint::BoundCertificate& cert : report.certified->certificates) {
            const Channel& ch = g.channel(cert.channel);
            std::cout << "  #" << cert.channel << " " << g.actor(ch.src).name
                      << " -> " << g.actor(ch.dst).name << ": "
                      << (cert.bound ? std::to_string(*cert.bound) : "unbounded")
                      << "\n";
        }
        std::cout << "certificate: "
                  << (report.check.ok ? "VERIFIED (independent checker accepts)"
                                      : "REJECTED: " + report.check.reason)
                  << "\n";
    }
    if (!report.inconsistency.empty()) {
        std::cout << "consistency: inconsistent — " << report.inconsistency << "\n";
    }
    if (report.dead_actor) {
        std::cout << "verdict: at least one actor provably never fires\n";
    }
    if (report.guaranteed_deadlock) {
        std::cout << "verdict: a firing bound is below the repetition count — "
                     "no iteration can complete\n";
    }
    return report.exit_code;
}

int cmd_deadlock(const Graph& g) {
    std::cout << diagnose_deadlock(g).describe(g);
    return 0;
}

int cmd_schedule(const Graph& g) {
    const PeriodicSchedule schedule = periodic_schedule(g);
    std::cout << "period: " << schedule.period.to_string() << "\n";
    std::cout << "start offsets (firing k of actor starts at offset + k*period):\n";
    for (ActorId a = 0; a < g.actor_count(); ++a) {
        std::cout << "  " << g.actor(a).name << ": " << schedule.start[a].to_string()
                  << "\n";
    }
    return 0;
}

int cmd_convert(Invocation& inv) {
    // --format doubles as the lint report format; convert reads it as an
    // alias of --to.
    const std::optional<std::string> format = inv.to ? inv.to : inv.format;
    if (!format) {
        std::cerr << "error: convert requires an output format\n"
                     "  add --to FMT (alias: --format FMT) with FMT one of:\n"
                     "  hsdf | reduced-hsdf | abstract | abstract-sdf | "
                     "text | xml | dot\n";
        return 2;
    }
    const Graph& g = model(inv);
    // The graph-rewriting formats are one-pass pipelines: convert rides the
    // same executor as `pipeline`, so budget slicing and analysis adoption
    // behave identically on both entry points.
    std::string spec;
    if (*format == "hsdf") {
        spec = "hsdf-classic";
    } else if (*format == "reduced-hsdf") {
        spec = "hsdf-reduced";
    } else if (*format == "abstract") {
        spec = "abstraction";
    } else if (*format == "abstract-sdf") {
        spec = "sdf-abstraction";
    }
    if (!spec.empty()) {
        ExecutorOptions options;
        options.budget = inv.govern.budget;
        save(PipelineExecutor(std::move(options)).run(parse_pipeline(spec), g).graph,
             inv.out);
        return 0;
    }
    if (*format != "text" && *format != "xml" && *format != "dot") {
        return usage();
    }
    save(g, inv.out, *format);
    return 0;
}

int cmd_pipeline_list() {
    std::cout << "pass                     contract     preserves            summary\n";
    for (const Pass* pass : PassRegistry::instance().list()) {
        std::string name = pass->name();
        const std::vector<PassParamSpec> params = pass->params();
        if (!params.empty()) {
            name += "(";
            for (std::size_t i = 0; i < params.size(); ++i) {
                name += (i > 0 ? "," : "") + params[i].name;
                if (params[i].default_value) {
                    name += "=" + std::to_string(*params[i].default_value);
                }
            }
            name += ")";
        }
        name.resize(std::max<std::size_t>(name.size(), 23), ' ');
        // Contracts and preservation sets may be parameter-dependent;
        // the catalogue shows them for the default parameter values.
        PassParams defaults;
        for (const PassParamSpec& param : params) {
            defaults.set(param.name, param.default_value.value_or(param.minimum.value_or(1)));
        }
        std::string contract = period_contract_name(pass->period_contract(defaults));
        contract.resize(11, ' ');
        const Preservation preserved = pass->preserved(defaults);
        std::string kept = preserved.all ? "all" : join(preserved.analyses, ",");
        if (kept.empty()) {
            kept = "-";
        }
        kept.resize(std::max<std::size_t>(kept.size(), 19), ' ');
        std::cout << name << "  " << contract << "  " << kept << "  "
                  << pass->summary() << "\n";
    }
    std::cout << "\nspec grammar: NAME[(ARG,...)] joined by ','; ARG is INT or "
                 "name=INT\nexample: --passes \"selfloops,prune,unfold(2),"
                 "hsdf-reduced\"  (docs/PIPELINE.md)\n";
    return 0;
}

int cmd_pipeline(Invocation& inv) {
    if (inv.list) {
        return cmd_pipeline_list();
    }
    if (!inv.passes) {
        std::cerr << "error: pipeline requires --passes \"SPEC\", e.g. "
                     "--passes \"selfloops,prune,hsdf-reduced\"\n"
                     "see: sdfred_cli pipeline --list\n";
        return 2;
    }
    Pipeline pipeline;
    try {
        pipeline = parse_pipeline(*inv.passes);
    } catch (const PipelineParseError& e) {
        std::cerr << "pipeline spec error [" << pipeline_error_kind_name(e.kind())
                  << "]: " << e.what() << "\n"
                  << "see: sdfred_cli pipeline --list\n";
        return 2;
    }
    // Conversions have no bound to degrade to: the budget either fits or
    // the pipeline aborts with exit code 4.
    ExecutorOptions options;
    options.budget = inv.govern.budget;
    options.verify_each = inv.verify_each;
    if (inv.dump_after) {
        options.after_pass = [&dump_after = *inv.dump_after](const Graph& graph,
                                                              const PassReport& report) {
            const std::string name =
                report.invocation.substr(0, report.invocation.find('('));
            if (name == dump_after) {
                std::cout << "--- after " << report.invocation << " ---\n";
                write_text(std::cout, graph);
                std::cout << "--- end ---\n";
            }
        };
    }
    if (inv.verify_each) {
        // Beyond the executor's built-in contract/preservation checks, put
        // the intermediate graph of every step through the full differential
        // oracle registry; a failing verdict aborts the pipeline loudly.
        options.verify_hook = [](const Graph& graph, const PassReport& report) {
            for (const Oracle& oracle : oracle_registry()) {
                const Verdict verdict = run_oracle(oracle, graph);
                if (verdict.failed()) {
                    throw PipelineVerificationError(
                        "oracle '" + oracle.id + "' failed after pass '" +
                        report.invocation + "':\n" + verdict.describe());
                }
            }
        };
    }
    const PipelineRun run = PipelineExecutor(std::move(options)).run(pipeline, model(inv));
    std::cout << "pipeline: " << pipeline.to_string() << "\n";
    for (const PassReport& report : run.reports) {
        std::cout << "  " << report.invocation << ": "
                  << (report.changed ? "changed" : "no change");
        for (const auto& [key, value] : report.stats) {
            std::cout << ", " << key << "=" << value;
        }
        std::cout << " -> " << report.actors << " actors, " << report.channels
                  << " channels";
        if (!report.carried.empty()) {
            std::cout << "  [carried: " << join(report.carried, ", ") << "]";
        }
        if (report.verified) {
            std::cout << "  [verified]";
        }
        if (inv.time_passes) {
            std::cout << "  (" << report.used.wall_ms << " ms";
            if (report.used.steps > 0) {
                std::cout << ", " << report.used.steps << " steps";
            }
            if (report.used.accounted_bytes > 0) {
                std::cout << ", " << report.used.accounted_bytes << " bytes";
            }
            std::cout << ")";
        }
        std::cout << "\n";
    }
    if (inv.time_passes) {
        std::cout << "total: " << run.total.wall_ms << " ms, " << run.total.steps
                  << " steps, " << run.total.accounted_bytes << " accounted bytes\n";
        for (const AnalysisSlotStats& slot : run.graph.analyses()->stats()) {
            if (slot.hits + slot.misses + slot.adopted + slot.kept + slot.refined == 0) {
                continue;
            }
            std::cout << "cache " << slot.analysis << ": " << slot.hits << " hits, "
                      << slot.misses << " misses, " << slot.adopted << " adopted, "
                      << slot.kept << " kept, " << slot.refined << " refined\n";
        }
    }
    std::cout << "final graph: " << run.graph.actor_count() << " actors, "
              << run.graph.channel_count() << " channels\n";
    if (!is_consistent(run.graph)) {
        std::cout << "final graph is inconsistent: no throughput\n";
        return 1;
    }
    const auto throughput = cached_throughput(run.graph);
    switch (throughput->outcome) {
        case ThroughputOutcome::deadlocked:
            std::cout << "throughput: graph deadlocks (0)\n";
            break;
        case ThroughputOutcome::unbounded:
            std::cout << "throughput: unbounded (no constraining cycle)\n";
            break;
        case ThroughputOutcome::finite:
            std::cout << "iteration period: " << throughput->period.to_string()
                      << "\n";
            break;
    }
    if (inv.out) {
        save(run.graph, inv.out);
    }
    return 0;
}

int cmd_lint_list() {
    std::cout << "id      severity  title                        summary\n";
    for (const Rule& rule : lint_rules()) {
        std::string severity = severity_name(rule.severity);
        severity.resize(8, ' ');
        std::string title = rule.title;
        title.resize(27, ' ');
        std::cout << rule.id << "  " << severity << "  " << title << "  "
                  << rule.summary << "\n";
    }
    return 0;
}

int cmd_lint(Invocation& inv) {
    const std::string format = inv.format.value_or("text");
    if (format != "text" && format != "json") {
        return usage();
    }
    if (inv.list) {
        return cmd_lint_list();
    }
    const std::string& path = inv.positional[0];
    SourceMap locations;
    const Graph& graph = model(inv, &locations);
    LintOptions options;
    for (const std::string& id : inv.rules) {
        if (find_rule(id) == nullptr) {
            std::cerr << "error: unknown lint rule '" << id
                      << "' (see: sdfred_cli lint --list)\n";
            return 2;
        }
        options.rules.push_back(id);
    }
    const LintReport report = lint_graph(graph, &locations, options);
    if (format == "json") {
        std::cout << serve::ops::lint_json(report, path, graph.name()).dump_report();
    } else {
        std::cout << render_text(report, path);
        std::cout << path << ": " << report.count(Severity::error) << " errors, "
                  << report.count(Severity::warning) << " warnings, "
                  << report.count(Severity::note) << " notes\n";
    }
    return report.has_at_least(inv.fail_on) ? 1 : 0;
}

int cmd_fuzz_list() {
    std::cout << "id                 invariant\n";
    for (const Oracle& oracle : oracle_registry()) {
        std::string id = oracle.id;
        id.resize(17, ' ');
        std::cout << id << "  " << oracle.invariant << "\n";
        std::cout << std::string(19, ' ') << oracle.summary << "\n";
    }
    return 0;
}

void print_fuzz_report(const FuzzReport& report) {
    std::cout << report.iterations << " iterations, " << report.checks
              << " oracle checks: " << report.passes << " pass, " << report.skips
              << " skip, " << report.rejects << " reject, " << report.failures.size()
              << " fail\n";
    for (const auto& [id, tally] : report.by_oracle) {
        std::string padded = id;
        padded.resize(17, ' ');
        std::cout << "  " << padded << "  " << tally[0] << " pass, " << tally[1]
                  << " skip, " << tally[2] << " reject, " << tally[3] << " fail\n";
    }
}

int cmd_fuzz_self_test(FuzzOptions options) {
    const SelfTestReport self_test = run_fuzz_self_test(std::move(options));
    print_fuzz_report(self_test.report);
    std::cout << "injected bug found: " << (self_test.bug_found ? "yes" : "NO") << "\n";
    if (self_test.bug_found) {
        std::cout << "shrunk repro: " << self_test.shrunk_actors << " actors, minimal "
                  << (self_test.shrunk_minimal ? "yes" : "NO") << "\n";
    }
    std::cout << "self-test " << (self_test.ok() ? "passed" : "FAILED") << "\n";
    return self_test.ok() ? 0 : 1;
}

int cmd_fuzz(Invocation& inv) {
    if (inv.list) {
        return cmd_fuzz_list();
    }
    FuzzOptions& options = inv.fuzz;
    options.log = &std::cout;
    // Each oracle run is governed; a tripped budget surfaces as a typed
    // reject verdict, not a lost fuzzing campaign.
    options.limits.budget = inv.govern.budget;
    if (inv.self_test) {
        return cmd_fuzz_self_test(std::move(options));
    }
    // A misspelt oracle id is a bad invocation, like --rules SDF999.
    for (const std::string& id : options.oracles) {
        if (find_oracle(id) == nullptr) {
            std::cerr << "error: unknown oracle '" << id
                      << "' (see: sdfred_cli fuzz --list)\n";
            return 2;
        }
    }
    const FuzzReport report = run_fuzz(options);
    print_fuzz_report(report);
    if (!report.clean()) {
        std::cout << "repro artifacts under " << options.failures_dir << "/\n";
        return 1;
    }
    return 0;
}

/// `serve`: the concurrent analysis daemon (docs/SERVE.md).  Budget flags
/// become the default per-request budget; requests may override it.
int cmd_serve(Invocation& inv) {
    // Daemon-grade signal discipline before the first connection: SIGTERM/
    // SIGINT request a graceful drain (stop accepting, finish in-flight,
    // fsync the cache index), SIGPIPE becomes a per-connection EPIPE.
    install_shutdown_signal_handlers();
    ignore_sigpipe();
    inv.serve.default_budget = inv.govern.budget;
    serve::ServeCore core(inv.serve);
    serve::Server server(core, inv.server);
    if (inv.socket) {
        return server.run_unix(*inv.socket);
    }
    if (inv.tcp_port) {
        return server.run_tcp(*inv.tcp_port);
    }
    return server.run_stdio(std::cin, std::cout);
}

/// `unfold N FILE`: the unfold(N) pass, run by the executor so budget flags
/// govern it like every other transformation.
int cmd_unfold(Invocation& inv) {
    const auto n = parse_int(inv.positional[0]);
    if (!n || *n <= 0) {
        return usage();
    }
    ExecutorOptions options;
    options.budget = inv.govern.budget;
    const Pipeline unfold = parse_pipeline("unfold(" + std::to_string(*n) + ")");
    save(PipelineExecutor(std::move(options)).run(unfold, model(inv)).graph, inv.out);
    return 0;
}

/// The --lint guard: lints the model before the command runs and reports
/// whether errors block it.  It lints a rebuilt copy, so the analyses the
/// rules cache stay out of the command's graph: a pipeline then carries
/// only what it computed itself, as without the guard.
bool lint_guard_passes(Invocation& inv) {
    SourceMap locations;
    const Graph& parsed = model(inv, &locations);
    Graph copy(parsed.name());
    for (const Actor& actor : parsed.actors()) {
        copy.add_actor(actor.name, actor.execution_time);
    }
    for (const Channel& ch : parsed.channels()) {
        copy.add_channel(ch.src, ch.dst, ch.production, ch.consumption,
                         ch.initial_tokens);
    }
    const LintReport report = lint_graph(copy, &locations);
    if (!report.has_at_least(Severity::error)) {
        return true;
    }
    const std::string& path = inv.positional.back();
    std::cerr << render_text(report, path);
    std::cerr << "error: model has lint errors; aborting (rerun without --lint "
                 "to force, or fix the model)\n";
    return false;
}

/// The one rule of the integer flags: a decimal in [min, max], stored in
/// `slot`.  False is a bad invocation.
template <typename Slot>
bool number(const std::string& text, Slot& slot, Int min = 1,
            Int max = std::numeric_limits<Int>::max()) {
    const std::optional<Int> n = parse_int(text);
    if (!n || *n < min || *n > max) {
        return false;
    }
    slot = Slot(*n);
    return true;
}

/// A text flag's value, stored in `slot`.
template <typename Slot>
bool store(const std::string& text, Slot& slot) {
    slot = text;
    return true;
}

/// A list flag's comma-separated ids, appended to `ids` (empty ones
/// skipped).
bool store(const std::string& text, std::vector<std::string>& ids) {
    for (const std::string& id : split(text, ',')) {
        if (!id.empty()) {
            ids.push_back(id);
        }
    }
    return true;
}

/// Flag groups: a command takes a flag when it takes the flag's group.
enum Group : unsigned {
    kGuard = 1U << 0,     ///< --lint
    kBudget = 1U << 1,    ///< --timeout-ms --max-steps --max-memory-mb
    kDegrade = 1U << 2,   ///< --degrade
    kCertify = 1U << 3,   ///< --certify --json
    kTo = 1U << 4,        ///< --to
    kFormat = 1U << 5,    ///< --format
    kOut = 1U << 6,       ///< -o
    kPipeline = 1U << 7,  ///< --passes --dump-after --time-passes --verify-each
    kList = 1U << 8,      ///< --list
    kLint = 1U << 9,      ///< --rules --fail-on
    kFuzz = 1U << 10,     ///< the seven fuzz flags and --self-test
    kServe = 1U << 11,    ///< the ten serve flags
};

/// One flag: a switch (`on`) or a flag that takes a value (`set`, which
/// returns false on a bad value).  A `joined` flag also reads
/// SPELLING=VALUE.
struct Flag {
    const char* spelling;
    unsigned group;
    void (*on)(Invocation&);
    bool (*set)(Invocation&, const std::string& value);
    bool joined = false;
};

const Flag kFlags[] = {
    {"--lint", kGuard, [](auto& in) { in.guard = true; }, nullptr},
    {"--list", kList, [](auto& in) { in.list = true; }, nullptr},
    {"--timeout-ms", kBudget, nullptr,
     [](auto& in, auto& v) { return number(v, in.govern.budget.deadline); }},
    {"--max-steps", kBudget, nullptr,
     [](auto& in, auto& v) { return number(v, in.govern.budget.max_steps); }},
    {"--max-memory-mb", kBudget, nullptr,
     [](auto& in, auto& v) {
         std::uint64_t mb = 0;
         const bool ok = number(v, mb);
         in.govern.budget.max_bytes = mb * 1024 * 1024;
         return ok;
     }},
    {"--degrade", kDegrade, nullptr,
     [](auto& in, auto& v) {
         in.govern.degrade = v == "never" ? DegradeMode::never : DegradeMode::auto_;
         return v == "never" || v == "auto";
     }},
    {"--certify", kCertify, [](auto& in) { in.certify = true; }, nullptr},
    {"--json", kCertify, [](auto& in) { in.json = true; }, nullptr},
    {"--to", kTo, nullptr, [](auto& in, auto& v) { return store(v, in.to); }},
    {"--format", kFormat, nullptr, [](auto& in, auto& v) { return store(v, in.format); }},
    {"-o", kOut, nullptr, [](auto& in, auto& v) { return store(v, in.out); }},
    {"--passes", kPipeline, nullptr,
     [](auto& in, auto& v) { return store(v, in.passes); }, true},
    {"--dump-after", kPipeline, nullptr,
     [](auto& in, auto& v) { return store(v, in.dump_after); }, true},
    {"--time-passes", kPipeline, [](auto& in) { in.time_passes = true; }, nullptr},
    {"--verify-each", kPipeline, [](auto& in) { in.verify_each = true; }, nullptr},
    {"--rules", kLint, nullptr, [](auto& in, auto& v) { return store(v, in.rules); }},
    {"--fail-on", kLint, nullptr,
     [](auto& in, auto& v) {
         const std::optional<Severity> severity = parse_severity(v);
         in.fail_on = severity.value_or(in.fail_on);
         return severity.has_value();
     }},
    {"--iterations", kFuzz, nullptr,
     [](auto& in, auto& v) { return number(v, in.fuzz.iterations, 0); }},
    {"--seed", kFuzz, nullptr,
     [](auto& in, auto& v) { return number(v, in.fuzz.seed, 0); }},
    {"--oracles", kFuzz, nullptr,
     [](auto& in, auto& v) { return store(v, in.fuzz.oracles); }},
    {"--corpus", kFuzz, nullptr,
     [](auto& in, auto& v) { return store(v, in.fuzz.corpus_dir); }},
    {"--failures", kFuzz, nullptr,
     [](auto& in, auto& v) { return store(v, in.fuzz.failures_dir); }},
    {"--max-mutations", kFuzz, nullptr,
     [](auto& in, auto& v) { return number(v, in.fuzz.max_mutations, 0); }},
    {"--no-shrink", kFuzz, [](auto& in) { in.fuzz.shrink = false; }, nullptr},
    {"--self-test", kFuzz, [](auto& in) { in.self_test = true; }, nullptr},
    {"--stdio", kServe,
     [](auto& in) {
         in.socket.reset();
         in.tcp_port.reset();
     },
     nullptr},
    {"--socket", kServe, nullptr, [](auto& in, auto& v) { return store(v, in.socket); }},
    {"--tcp", kServe, nullptr,
     [](auto& in, auto& v) { return number(v, in.tcp_port, 1, 65535); }},
    {"--threads", kServe, nullptr,
     [](auto& in, auto& v) { return number(v, in.server.threads); }},
    {"--cache-entries", kServe, nullptr,
     [](auto& in, auto& v) { return number(v, in.serve.cache_graphs); }},
    {"--max-queue", kServe, nullptr,
     [](auto& in, auto& v) { return number(v, in.server.max_queue); }},
    {"--timings", kServe, [](auto& in) { in.serve.timings = true; }, nullptr},
    {"--cache-dir", kServe, nullptr,
     [](auto& in, auto& v) { return store(v, in.serve.cache_dir); }},
    {"--request-deadline-ms", kServe, nullptr,
     [](auto& in, auto& v) { return number(v, in.serve.request_deadline); }},
    {"--max-line-bytes", kServe, nullptr,
     [](auto& in, auto& v) { return number(v, in.serve.max_line_bytes); }},
};

/// Runs a command that reads nothing but the model.
template <int (*command)(const Graph&)>
int on_model(Invocation& inv) {
    return command(model(inv));
}

/// One command: its synopsis (the forms after "sdfred_cli NAME", one per
/// line; a line that starts with a space continues the form above), its
/// positionals outside the --list form, the flag groups it takes, and
/// what runs it.  Under --lint (group kGuard) the guard runs first.
struct Command {
    const char* name;
    const char* synopsis;
    std::size_t positionals;
    unsigned groups;
    int (*run)(Invocation&);
};

const Command kCommands[] = {
    {"info", "FILE [--lint]", 1, kGuard, on_model<cmd_info>},
    {"analyze",
     "FILE [BUDGET] [--degrade auto|never] [--lint]\n"
     "FILE --certify [--json] [BUDGET] [--lint]",
     1, kGuard | kBudget | kDegrade | kCertify,
     [](Invocation& in) {
         const Graph& g = model(in);
         return in.certify || in.json
                    ? cmd_analyze_absint(g, in.json, in.certify, in.govern.budget)
                    : cmd_analyze(g, in.govern, in.governed);
     }},
    {"deadlock", "FILE [--lint]", 1, kGuard, on_model<cmd_deadlock>},
    {"schedule", "FILE [--lint]", 1, kGuard, on_model<cmd_schedule>},
    {"convert", "--to FMT FILE [-o OUT] [BUDGET] [--lint]", 1,
     kGuard | kBudget | kTo | kFormat | kOut, cmd_convert},
    {"pipeline",
     "FILE --passes \"SPEC\" [-o OUT] [--time-passes]\n"
     " [--verify-each] [--dump-after PASS] [BUDGET] [--lint]\n"
     "--list",
     1, kGuard | kBudget | kPipeline | kOut | kList, cmd_pipeline},
    {"unfold", "N FILE [-o OUT] [BUDGET] [--lint]", 2, kGuard | kBudget | kOut,
     cmd_unfold},
    {"sensitivity", "FILE [--lint]", 1, kGuard, on_model<cmd_sensitivity>},
    {"storage", "FILE [--lint]", 1, kGuard, on_model<cmd_storage>},
    {"pareto", "FILE [--lint]", 1, kGuard, on_model<cmd_pareto>},
    {"csdf-analyze", "FILE.xml", 1, 0,
     [](Invocation& in) { return cmd_csdf_analyze(read_csdf_xml_file(in.positional[0])); }},
    {"csdf-reduce", "FILE.xml [-o OUT]", 1, kOut,
     [](Invocation& in) {
         save(csdf_to_reduced_hsdf(read_csdf_xml_file(in.positional[0])), in.out);
         return 0;
     }},
    {"lint",
     "FILE [--format text|json] [--rules ID,...]\n"
     " [--fail-on note|warning|error]\n"
     "--list",
     1, kFormat | kLint | kList, cmd_lint},
    {"fuzz",
     "[--iterations N] [--seed S] [--oracles ID,...]\n"
     " [--corpus DIR] [--failures DIR] [--max-mutations N]\n"
     " [--no-shrink] [BUDGET]\n"
     "--self-test | --list",
     0, kFuzz | kList | kBudget, cmd_fuzz},
    {"serve",
     "[--stdio | --socket PATH | --tcp PORT] [--threads N]\n"
     " [--cache-entries N] [--max-queue N] [--timings]\n"
     " [--cache-dir DIR] [--request-deadline-ms N]\n"
     " [--max-line-bytes N] [BUDGET]",
     0, kServe | kBudget, cmd_serve},
};

int usage() {
    const char* lead = "usage: ";
    for (const Command& command : kCommands) {
        for (const std::string& line : split(command.synopsis, '\n')) {
            if (starts_with(line, " ")) {
                std::cerr << std::string(18, ' ') << line.substr(1) << "\n";
                continue;
            }
            std::cerr << lead << "sdfred_cli " << command.name << " " << line << "\n";
            lead = "       ";
        }
    }
    std::cerr << "       sdfred_cli --version\n"
                 "FMT: hsdf | reduced-hsdf | abstract | abstract-sdf | text | xml | dot\n"
                 "--lint aborts the command when the model has lint errors\n"
                 "BUDGET: --timeout-ms N | --max-steps N | --max-memory-mb N put the\n"
                 "command under a resource budget; --degrade {auto|never} picks\n"
                 "between a certified throughput lower bound and exit code 4\n"
                 "when analyze blows it (docs/ROBUSTNESS.md)\n";
    return 2;
}

/// Parses the arguments after the command name into `inv` and returns 0, or
/// prints usage and returns 2 for a bad invocation: a flag the command does
/// not take, a value flag with nothing after it, a bad value, or the wrong
/// number of positionals.  A token that is no flag is a positional.
int parse(const Command& command, const std::vector<std::string>& args, Invocation& inv) {
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string& token = args[i];
        const auto named = [&token](const Flag& row) {
            return token == row.spelling ||
                   (row.joined && starts_with(token, std::string(row.spelling) + "="));
        };
        const Flag* flag = std::find_if(std::begin(kFlags), std::end(kFlags), named);
        if (flag == std::end(kFlags)) {
            inv.positional.push_back(token);
            continue;
        }
        if ((command.groups & flag->group) == 0) {
            std::cerr << "error: " << command.name << " does not take " << flag->spelling
                      << "\n";
            return usage();
        }
        const bool joined = token != flag->spelling;
        if (flag->set != nullptr && !joined && i + 1 == args.size()) {
            std::cerr << "error: " << flag->spelling << " needs a value\n";
            return usage();
        }
        inv.governed = inv.governed || (flag->group & (kBudget | kDegrade)) != 0;
        if (flag->on != nullptr) {
            flag->on(inv);
        } else if (!flag->set(inv, joined ? token.substr(token.find('=') + 1)
                                          : args[++i])) {
            return usage();
        }
    }
    return inv.positional.size() == (inv.list ? 0 : command.positionals) ? 0 : usage();
}

}  // namespace

int main(int argc, char** argv) {
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        return usage();
    }
    if (args[0] == "--version" || args[0] == "version") {
        std::cout << "sdfred_cli " << SDFRED_VERSION << "\n";
        return 0;
    }
    try {
        // SDFRED_FAULT_INJECT=alloc:N|step:N|deadline:N arms deterministic
        // one-shot faults inside governed code (robustness testing).
        install_fault_injection_from_env();
        // Contribute the serve-route and crash-restart oracles so `fuzz`
        // sweeps the daemon stack — including its crash-safe persistence —
        // alongside the built-in battery (src/serve/oracle.hpp).
        serve::register_serve_oracle();
        serve::register_crash_restart_oracle();
        // Resolve the SDFRED_ISA kernel-dispatch override up front: a typo'd
        // tier must fail fast as a bad invocation, not silently no-op on
        // invocations that never reach a SIMD kernel.
        try {
            active_isa_tier();
        } catch (const Error& e) {
            std::cerr << "error: " << e.what() << "\n";
            return 2;
        }
        const Command* found = std::find_if(
            std::begin(kCommands), std::end(kCommands),
            [&args](const Command& row) { return args[0] == row.name; });
        if (found == std::end(kCommands)) {
            return usage();
        }
        Invocation inv;
        if (const int invalid = parse(*found, args, inv)) {
            return invalid;
        }
        // The --lint guard: validate the model before the command touches it.
        if (inv.guard && !inv.list && !lint_guard_passes(inv)) {
            return 1;
        }
        return found->run(inv);
    } catch (const ParseError& e) {
        // Bad input file: distinct from bad invocation (2) and failed
        // analysis (1) so scripts and CI can triage without text matching.
        std::cerr << "parse error: " << e.what() << "\n";
        return 3;
    } catch (const BudgetExceeded& e) {
        std::cerr << "aborted by resource budget (" << budget_cause_name(e.cause())
                  << "): " << e.what() << "\n";
        return 4;
    } catch (const Error& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    } catch (const std::bad_alloc&) {
        std::cerr << "aborted by resource budget (memory): allocation failed\n";
        return 4;
    }
}
