// sdfred_cli — command-line front end to the sdfred library.
//
//   sdfred_cli info       FILE            structure, consistency, liveness
//   sdfred_cli analyze    FILE            repetition vector, period, throughput,
//                                         makespan, response latencies
//   sdfred_cli analyze    FILE --certify [--json]
//                                         abstract interpretation: token
//                                         intervals, reachability bounds and
//                                         machine-checked buffer-bound
//                                         certificates (docs/ABSINT.md)
//   sdfred_cli deadlock   FILE            deadlock diagnosis with witness
//   sdfred_cli schedule   FILE            rate-optimal static periodic schedule
//   sdfred_cli convert --to FMT FILE [-o OUT]
//                                         FMT: hsdf | reduced-hsdf | abstract |
//                                              abstract-sdf | text | xml | dot
//                                         (--format is accepted as an alias)
//   sdfred_cli pipeline FILE --passes "SPEC" [-o OUT] [--time-passes]
//                       [--verify-each] [--dump-after PASS]
//                                         composable pass pipeline, e.g.
//                                         --passes "selfloops,prune,hsdf-reduced"
//                                         (docs/PIPELINE.md)
//   sdfred_cli pipeline --list            pass catalogue
//   sdfred_cli unfold N   FILE [-o OUT]   Definition 5 unfolding
//   sdfred_cli sensitivity FILE           critical actors and slack
//   sdfred_cli storage     FILE           self-timed channel storage marks
//   sdfred_cli pareto      FILE           throughput/buffer trade-off curve
//   sdfred_cli csdf-analyze FILE.xml      cyclo-static analysis
//   sdfred_cli csdf-reduce  FILE.xml [-o OUT]
//                                         reduced HSDF of a CSDF graph
//   sdfred_cli lint FILE [--format text|json] [--rules ID,ID,...]
//                        [--fail-on note|warning|error]
//                                         static diagnostics (docs/LINT_RULES.md)
//   sdfred_cli lint --list                rule reference table
//   sdfred_cli fuzz [--iterations N] [--seed S] [--oracles ID,ID,...]
//                   [--corpus DIR] [--failures DIR] [--max-mutations N]
//                   [--no-shrink]         differential fuzzing across the
//                                         oracle registry (docs/FUZZING.md)
//   sdfred_cli fuzz --self-test           plant an off-by-one, require the
//                                         harness to find and shrink it
//   sdfred_cli fuzz --list                oracle reference table
//   sdfred_cli serve [--stdio | --socket PATH | --tcp PORT] [--threads N]
//                    [--cache-entries N] [--max-queue N] [--timings]
//                                         newline-delimited-JSON analysis
//                                         daemon with a content-addressed
//                                         result cache (docs/SERVE.md)
//
// Graphs load from SDF3-style XML (*.xml) or the plain-text format
// (anything else); CSDF commands take csdf-typed XML.  convert --to
// text|xml|dot writes that format, to -o OUT or stdout.  Everywhere else
// -o picks the output format by extension (.xml, .dot, anything else:
// text) and stdout gets the text format.  --lint runs the linter as a
// guard before any other command and aborts on errors; --version prints
// the build id.
//
// Resource governance (docs/ROBUSTNESS.md): --timeout-ms N, --max-steps N
// and --max-memory-mb N put the command under an ExecutionBudget.  analyze
// degrades to a certified throughput lower bound when the exact route
// blows the budget (--degrade never disables that); convert and fuzz are
// cut off with exit code 4 / a typed reject respectively.  The environment
// variable SDFRED_FAULT_INJECT=alloc:N|step:N|deadline:N arms one-shot
// deterministic faults for robustness testing.
//
// Exit codes: 0 success (for lint: nothing at/above --fail-on), 1 analysis
// failure or lint findings, 2 bad invocation, 3 unparseable input file,
// 4 aborted by resource budget.
#include <algorithm>
#include <chrono>
#include <iostream>
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

bool has_suffix(const std::string& text, const std::string& suffix) {
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

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
    return has_suffix(path, ".xml") ? read_xml_file(path, locations)
                                    : read_text_file(path, locations);
}

/// Writes `graph` to `out`, or to stdout when absent, as `format` (text,
/// xml or dot).  An empty format picks by the extension of `out` (.xml,
/// .dot, anything else: text); stdout then gets text.
void save(const Graph& graph, const std::optional<std::string>& out,
          std::string format = "") {
    if (format.empty()) {
        format = out && has_suffix(*out, ".xml")   ? "xml"
                 : out && has_suffix(*out, ".dot") ? "dot"
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

int usage() {
    std::cerr << "usage: sdfred_cli {info|analyze|deadlock|schedule} FILE\n"
                 "       sdfred_cli analyze FILE --certify [--json]\n"
                 "       sdfred_cli convert --to FMT FILE [-o OUT]\n"
                 "       sdfred_cli pipeline FILE --passes \"SPEC\" [-o OUT]\n"
                 "                  [--time-passes] [--verify-each] [--dump-after PASS]\n"
                 "       sdfred_cli pipeline --list\n"
                 "       sdfred_cli unfold N FILE [-o OUT]\n"
                 "       sdfred_cli csdf-analyze FILE.xml\n"
                 "       sdfred_cli csdf-reduce FILE.xml [-o OUT]\n"
                 "       sdfred_cli lint FILE [--format text|json] [--rules ID,...]\n"
                 "                        [--fail-on note|warning|error]\n"
                 "       sdfred_cli lint --list\n"
                 "       sdfred_cli fuzz [--iterations N] [--seed S] [--oracles ID,...]\n"
                 "                       [--corpus DIR] [--failures DIR]\n"
                 "                       [--max-mutations N] [--no-shrink]\n"
                 "       sdfred_cli fuzz --self-test | --list\n"
                 "       sdfred_cli serve [--stdio | --socket PATH | --tcp PORT]\n"
                 "                        [--threads N] [--cache-entries N]\n"
                 "                        [--max-queue N] [--timings]\n"
                 "                        [--cache-dir DIR] [--request-deadline-ms N]\n"
                 "                        [--max-line-bytes N]\n"
                 "       sdfred_cli --version\n"
                 "FMT: hsdf | reduced-hsdf | abstract | abstract-sdf | text | xml | dot\n"
                 "--lint before any command aborts it when the model has lint errors\n"
                 "--timeout-ms N | --max-steps N | --max-memory-mb N put analyze,\n"
                 "convert and fuzz under a resource budget; --degrade {auto|never}\n"
                 "picks between a certified throughput lower bound and exit code 4\n"
                 "when analyze blows it (docs/ROBUSTNESS.md)\n";
    return 2;
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

int cmd_convert(const Graph& g, const std::string& format,
                const std::optional<std::string>& out,
                const ExecutionBudget& budget) {
    // The graph-rewriting formats are one-pass pipelines: convert rides the
    // same executor as `pipeline`, so budget slicing and analysis adoption
    // behave identically on both entry points.
    std::string spec;
    if (format == "hsdf") {
        spec = "hsdf-classic";
    } else if (format == "reduced-hsdf") {
        spec = "hsdf-reduced";
    } else if (format == "abstract") {
        spec = "abstraction";
    } else if (format == "abstract-sdf") {
        spec = "sdf-abstraction";
    }
    if (!spec.empty()) {
        ExecutorOptions options;
        options.budget = budget;
        save(PipelineExecutor(std::move(options)).run(parse_pipeline(spec), g).graph,
             out);
        return 0;
    }
    if (format != "text" && format != "xml" && format != "dot") {
        return usage();
    }
    save(g, out, format);
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

int cmd_pipeline(const std::string& path, const std::string& spec, bool verify_each,
                 bool time_passes, const std::optional<std::string>& dump_after,
                 const std::optional<std::string>& out,
                 const ExecutionBudget& budget) {
    Pipeline pipeline;
    try {
        pipeline = parse_pipeline(spec);
    } catch (const PipelineParseError& e) {
        std::cerr << "pipeline spec error [" << pipeline_error_kind_name(e.kind())
                  << "]: " << e.what() << "\n"
                  << "see: sdfred_cli pipeline --list\n";
        return 2;
    }
    const Graph input = load(path);
    ExecutorOptions options;
    options.budget = budget;
    options.verify_each = verify_each;
    if (dump_after) {
        options.after_pass = [&dump_after](const Graph& graph,
                                           const PassReport& report) {
            const std::string name =
                report.invocation.substr(0, report.invocation.find('('));
            if (name == *dump_after) {
                std::cout << "--- after " << report.invocation << " ---\n";
                write_text(std::cout, graph);
                std::cout << "--- end ---\n";
            }
        };
    }
    if (verify_each) {
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
    const PipelineRun run = PipelineExecutor(std::move(options)).run(pipeline, input);
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
        if (time_passes) {
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
    if (time_passes) {
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
    if (out) {
        save(run.graph, out);
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

int cmd_lint(const std::string& path, const std::string& format,
             const std::vector<std::string>& rules, Severity fail_on) {
    SourceMap locations;
    const Graph graph = load(path, &locations);
    LintOptions options;
    for (const std::string& id : rules) {
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
    return report.has_at_least(fail_on) ? 1 : 0;
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

int cmd_fuzz(const FuzzOptions& options) {
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

/// `serve`: the concurrent analysis daemon (docs/SERVE.md).  Budget flags
/// become the default per-request budget; requests may override it.
struct ServeCliOptions {
    std::optional<std::string> socket;       ///< --socket PATH (Unix)
    std::optional<unsigned short> tcp_port;  ///< --tcp PORT (127.0.0.1)
    std::size_t threads = 4;
    std::size_t cache_entries = 64;
    std::size_t max_queue = 64;
    bool timings = false;
    std::string cache_dir;                   ///< --cache-dir DIR (persistent)
    std::optional<std::uint64_t> deadline_ms;  ///< --request-deadline-ms N
    std::optional<std::size_t> max_line_bytes;  ///< --max-line-bytes N
};

int cmd_serve(const ServeCliOptions& options, const GovernOptions& govern,
              bool governed) {
    // Daemon-grade signal discipline before the first connection: SIGTERM/
    // SIGINT request a graceful drain (stop accepting, finish in-flight,
    // fsync the cache index), SIGPIPE becomes a per-connection EPIPE.
    install_shutdown_signal_handlers();
    ignore_sigpipe();
    serve::ServeOptions core_options;
    core_options.cache_graphs = options.cache_entries;
    if (governed) {
        core_options.default_budget = govern.budget;
    }
    core_options.timings = options.timings;
    core_options.cache_dir = options.cache_dir;
    if (options.deadline_ms) {
        core_options.request_deadline =
            std::chrono::milliseconds(*options.deadline_ms);
    }
    if (options.max_line_bytes) {
        core_options.max_line_bytes = *options.max_line_bytes;
    }
    serve::ServeCore core(core_options);
    serve::ServerOptions server_options;
    server_options.threads = options.threads;
    server_options.max_queue = options.max_queue;
    serve::Server server(core, server_options);
    if (options.socket) {
        return server.run_unix(*options.socket);
    }
    if (options.tcp_port) {
        return server.run_tcp(*options.tcp_port);
    }
    return server.run_stdio(std::cin, std::cout);
}

/// The --lint guard: lints `path` before an analysis command runs and
/// reports whether errors block it.
bool lint_guard_passes(const std::string& path) {
    SourceMap locations;
    const Graph graph = load(path, &locations);
    const LintReport report = lint_graph(graph, &locations);
    if (!report.has_at_least(Severity::error)) {
        return true;
    }
    std::cerr << render_text(report, path);
    std::cerr << "error: model has lint errors; aborting (rerun without --lint "
                 "to force, or fix the model)\n";
    return false;
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
        const std::string& command = args[0];
        // Gather positional arguments and options.
        std::optional<std::string> out;
        std::optional<std::string> format;
        std::optional<std::string> lint_format;
        std::vector<std::string> lint_rule_ids;
        Severity fail_on = Severity::error;
        bool guard = false;
        bool list_rules = false;
        bool self_test = false;
        GovernOptions govern_options;
        bool governed = false;  // any budget flag seen
        FuzzOptions fuzz_options;
        fuzz_options.log = &std::cout;
        std::optional<std::string> passes_spec;
        std::optional<std::string> dump_after;
        bool time_passes = false;
        bool verify_each = false;
        bool absint_json = false;
        bool certify = false;
        ServeCliOptions serve_options;
        std::vector<std::string> positional;
        for (std::size_t i = 1; i < args.size(); ++i) {
            if (args[i] == "-o" && i + 1 < args.size()) {
                out = args[++i];
            } else if (args[i] == "--to" && i + 1 < args.size()) {
                format = args[++i];
            } else if (args[i] == "--iterations" && i + 1 < args.size()) {
                const auto n = parse_int(args[++i]);
                if (!n || *n < 0) {
                    return usage();
                }
                fuzz_options.iterations = static_cast<std::uint64_t>(*n);
            } else if (args[i] == "--seed" && i + 1 < args.size()) {
                const auto n = parse_int(args[++i]);
                if (!n || *n < 0) {
                    return usage();
                }
                fuzz_options.seed = static_cast<std::uint64_t>(*n);
            } else if (args[i] == "--oracles" && i + 1 < args.size()) {
                for (const std::string& id : split(args[++i], ',')) {
                    if (!id.empty()) {
                        fuzz_options.oracles.push_back(id);
                    }
                }
            } else if (args[i] == "--corpus" && i + 1 < args.size()) {
                fuzz_options.corpus_dir = args[++i];
            } else if (args[i] == "--failures" && i + 1 < args.size()) {
                fuzz_options.failures_dir = args[++i];
            } else if (args[i] == "--max-mutations" && i + 1 < args.size()) {
                const auto n = parse_int(args[++i]);
                if (!n || *n < 0) {
                    return usage();
                }
                fuzz_options.max_mutations = static_cast<int>(*n);
            } else if (args[i] == "--timeout-ms" && i + 1 < args.size()) {
                const auto n = parse_int(args[++i]);
                if (!n || *n <= 0) {
                    return usage();
                }
                govern_options.budget.deadline = std::chrono::milliseconds(*n);
                governed = true;
            } else if (args[i] == "--max-steps" && i + 1 < args.size()) {
                const auto n = parse_int(args[++i]);
                if (!n || *n <= 0) {
                    return usage();
                }
                govern_options.budget.max_steps = static_cast<std::uint64_t>(*n);
                governed = true;
            } else if (args[i] == "--max-memory-mb" && i + 1 < args.size()) {
                const auto n = parse_int(args[++i]);
                if (!n || *n <= 0) {
                    return usage();
                }
                govern_options.budget.max_bytes =
                    static_cast<std::uint64_t>(*n) * 1024 * 1024;
                governed = true;
            } else if (args[i] == "--degrade" && i + 1 < args.size()) {
                const std::string& mode = args[++i];
                if (mode == "never") {
                    govern_options.degrade = DegradeMode::never;
                } else if (mode == "auto") {
                    govern_options.degrade = DegradeMode::auto_;
                } else {
                    return usage();
                }
                governed = true;
            } else if (args[i] == "--passes" && i + 1 < args.size()) {
                passes_spec = args[++i];
            } else if (args[i].rfind("--passes=", 0) == 0) {
                passes_spec = args[i].substr(9);
            } else if (args[i] == "--dump-after" && i + 1 < args.size()) {
                dump_after = args[++i];
            } else if (args[i].rfind("--dump-after=", 0) == 0) {
                dump_after = args[i].substr(13);
            } else if (args[i] == "--time-passes") {
                time_passes = true;
            } else if (args[i] == "--verify-each") {
                verify_each = true;
            } else if (args[i] == "--json") {
                absint_json = true;
            } else if (args[i] == "--certify") {
                certify = true;
            } else if (args[i] == "--no-shrink") {
                fuzz_options.shrink = false;
            } else if (args[i] == "--self-test") {
                self_test = true;
            } else if (args[i] == "--format" && i + 1 < args.size()) {
                // For lint this picks the report format; for convert it is
                // an alias of --to (a format of the output graph).
                lint_format = args[++i];
                if (command == "lint" && *lint_format != "text" &&
                    *lint_format != "json") {
                    return usage();
                }
            } else if (args[i] == "--rules" && i + 1 < args.size()) {
                for (const std::string& id : split(args[++i], ',')) {
                    if (!id.empty()) {
                        lint_rule_ids.push_back(id);
                    }
                }
            } else if (args[i] == "--fail-on" && i + 1 < args.size()) {
                const auto severity = parse_severity(args[++i]);
                if (!severity) {
                    return usage();
                }
                fail_on = *severity;
            } else if (args[i] == "--lint") {
                guard = true;
            } else if (args[i] == "--list") {
                list_rules = true;
            } else if (args[i] == "--stdio") {
                serve_options.socket.reset();
                serve_options.tcp_port.reset();
            } else if (args[i] == "--socket" && i + 1 < args.size()) {
                serve_options.socket = args[++i];
            } else if (args[i] == "--tcp" && i + 1 < args.size()) {
                const auto n = parse_int(args[++i]);
                if (!n || *n <= 0 || *n > 65535) {
                    return usage();
                }
                serve_options.tcp_port = static_cast<unsigned short>(*n);
            } else if (args[i] == "--threads" && i + 1 < args.size()) {
                const auto n = parse_int(args[++i]);
                if (!n || *n <= 0) {
                    return usage();
                }
                serve_options.threads = static_cast<std::size_t>(*n);
            } else if (args[i] == "--cache-entries" && i + 1 < args.size()) {
                const auto n = parse_int(args[++i]);
                if (!n || *n <= 0) {
                    return usage();
                }
                serve_options.cache_entries = static_cast<std::size_t>(*n);
            } else if (args[i] == "--max-queue" && i + 1 < args.size()) {
                const auto n = parse_int(args[++i]);
                if (!n || *n <= 0) {
                    return usage();
                }
                serve_options.max_queue = static_cast<std::size_t>(*n);
            } else if (args[i] == "--timings") {
                serve_options.timings = true;
            } else if (args[i] == "--cache-dir" && i + 1 < args.size()) {
                serve_options.cache_dir = args[++i];
            } else if (args[i] == "--request-deadline-ms" && i + 1 < args.size()) {
                const auto n = parse_int(args[++i]);
                if (!n || *n <= 0) {
                    return usage();
                }
                serve_options.deadline_ms = static_cast<std::uint64_t>(*n);
            } else if (args[i] == "--max-line-bytes" && i + 1 < args.size()) {
                const auto n = parse_int(args[++i]);
                if (!n || *n <= 0) {
                    return usage();
                }
                serve_options.max_line_bytes = static_cast<std::size_t>(*n);
            } else {
                positional.push_back(args[i]);
            }
        }
        if (command == "serve" && positional.empty()) {
            return cmd_serve(serve_options, govern_options, governed);
        }
        if (command == "lint" && list_rules && positional.empty()) {
            return cmd_lint_list();
        }
        if (command == "fuzz" && positional.empty()) {
            if (list_rules) {
                return cmd_fuzz_list();
            }
            if (governed) {
                // Each oracle run is governed; a tripped budget surfaces as
                // a typed reject verdict, not a lost fuzzing campaign.
                fuzz_options.limits.budget = govern_options.budget;
            }
            return self_test ? cmd_fuzz_self_test(std::move(fuzz_options))
                             : cmd_fuzz(fuzz_options);
        }
        if (command == "lint" && positional.size() == 1) {
            return cmd_lint(positional[0], lint_format.value_or("text"),
                            lint_rule_ids, fail_on);
        }
        // The --lint guard: validate the model before the requested
        // analysis touches it.
        if (guard && positional.size() == 1 && command != "csdf-analyze" &&
            command != "csdf-reduce" && !lint_guard_passes(positional[0])) {
            return 1;
        }
        if (command == "info" && positional.size() == 1) {
            return cmd_info(load(positional[0]));
        }
        if (command == "analyze" && positional.size() == 1) {
            const Graph g = load(positional[0]);
            if (certify || absint_json) {
                return cmd_analyze_absint(g, absint_json, certify,
                                          govern_options.budget);
            }
            return cmd_analyze(g, govern_options, governed);
        }
        if (command == "deadlock" && positional.size() == 1) {
            return cmd_deadlock(load(positional[0]));
        }
        if (command == "schedule" && positional.size() == 1) {
            return cmd_schedule(load(positional[0]));
        }
        if (command == "pipeline" && list_rules && positional.empty()) {
            return cmd_pipeline_list();
        }
        if (command == "pipeline" && positional.size() == 1) {
            if (!passes_spec) {
                std::cerr << "error: pipeline requires --passes \"SPEC\", e.g. "
                             "--passes \"selfloops,prune,hsdf-reduced\"\n"
                             "see: sdfred_cli pipeline --list\n";
                return 2;
            }
            // Conversions have no bound to degrade to: the budget either
            // fits or the pipeline aborts with exit code 4.
            return cmd_pipeline(positional[0], *passes_spec, verify_each, time_passes,
                                dump_after, out, govern_options.budget);
        }
        if (command == "convert" && positional.size() == 1) {
            if (!format) {
                // --format doubles as the lint report format, so it lands in
                // lint_format; accept it as the conversion target here.
                format = lint_format;
            }
            if (!format) {
                std::cerr << "error: convert requires an output format\n"
                             "  add --to FMT (alias: --format FMT) with FMT one of:\n"
                             "  hsdf | reduced-hsdf | abstract | abstract-sdf | "
                             "text | xml | dot\n";
                return 2;
            }
            return cmd_convert(load(positional[0]), *format, out,
                               govern_options.budget);
        }
        if (command == "pareto" && positional.size() == 1) {
            return cmd_pareto(load(positional[0]));
        }
        if (command == "sensitivity" && positional.size() == 1) {
            return cmd_sensitivity(load(positional[0]));
        }
        if (command == "storage" && positional.size() == 1) {
            return cmd_storage(load(positional[0]));
        }
        if (command == "csdf-analyze" && positional.size() == 1) {
            return cmd_csdf_analyze(read_csdf_xml_file(positional[0]));
        }
        if (command == "csdf-reduce" && positional.size() == 1) {
            save(csdf_to_reduced_hsdf(read_csdf_xml_file(positional[0])), out);
            return 0;
        }
        if (command == "unfold" && positional.size() == 2) {
            const auto n = parse_int(positional[0]);
            if (!n || *n <= 0) {
                return usage();
            }
            if (guard && !lint_guard_passes(positional[1])) {
                return 1;
            }
            // Unfolding is the unfold(n) pass: ride the executor so budget
            // flags govern it like every other transformation.
            ExecutorOptions options;
            options.budget = govern_options.budget;
            save(PipelineExecutor(std::move(options))
                     .run(parse_pipeline("unfold(" + std::to_string(*n) + ")"),
                          load(positional[1]))
                     .graph,
                 out);
            return 0;
        }
        return usage();
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
