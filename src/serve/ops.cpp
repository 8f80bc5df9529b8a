#include "serve/ops.hpp"

#include "analysis/throughput.hpp"
#include "robust/budget.hpp"
#include "sdf/repetition.hpp"

namespace sdf {
namespace serve {
namespace ops {

namespace {

Json json_opt_int(const std::optional<Int>& value) {
    return value.has_value() ? Json::integer(*value) : Json::make_null();
}

Json json_count(std::size_t value) {
    return Json::integer(static_cast<std::int64_t>(value));
}

const char* outcome_name(ThroughputOutcome outcome) {
    switch (outcome) {
        case ThroughputOutcome::deadlocked: return "deadlocked";
        case ThroughputOutcome::unbounded: return "unbounded";
        case ThroughputOutcome::finite: return "finite";
    }
    return "?";
}

}  // namespace

ThroughputReport throughput(const Graph& graph, const GovernOptions& options) {
    ThroughputReport report;
    Governed<ThroughputResult>& governed = report.governed;
    if (options.budget.unlimited()) {
        governed.method = "symbolic-exact";
        governed.value = *cached_throughput(graph);
    } else {
        governed = governed_throughput(graph, options);
    }
    if (!governed.ok()) {
        report.exit_code = 4;
        report.cacheable = false;
        return report;
    }
    report.cacheable = governed.status == GovernedStatus::exact;

    const ThroughputResult& t = *governed.value;
    Json& json = report.json = Json::object();
    json.set("status", Json::string(governed_status_name(governed.status)));
    json.set("method", Json::string(governed.method));
    if (governed.cause != BudgetCause::none) {
        json.set("cause", Json::string(budget_cause_name(governed.cause)));
    }
    json.set("outcome", Json::string(outcome_name(t.outcome)));
    if (t.outcome == ThroughputOutcome::finite) {
        json.set("period", Json::string(t.period.to_string()));
    }
    Json actors = Json::array();
    if (t.outcome != ThroughputOutcome::unbounded) {
        for (ActorId a = 0; a < graph.actor_count(); ++a) {
            Json entry = Json::object();
            entry.set("actor", Json::string(graph.actor(a).name));
            entry.set("throughput", Json::string(t.per_actor[a].to_string()));
            actors.push_back(std::move(entry));
        }
    }
    json.set("actors", std::move(actors));
    return report;
}

CertifyReport certify(const Graph& graph, const ExecutionBudget& budget,
                      const CancellationToken& token, bool with_certificate) {
    std::optional<Governor> governor;
    std::optional<GovernorScope> scope;
    if (!budget.unlimited()) {
        governor.emplace(budget, token);
        scope.emplace(*governor);
    }
    CertifyReport report;
    report.intervals = absint::token_intervals(graph);
    report.reach = absint::compute_reachability(graph);
    if (with_certificate) {
        report.certified = absint::certify_buffer_bounds(graph, report.intervals);
        report.check = absint::verify_certificate(graph, *report.certified);
    }
    std::optional<std::vector<Int>> q;
    if (graph.actor_count() > 0) {
        try {
            q = repetition_vector(graph);
        } catch (const Error& e) {
            report.inconsistency = e.what();
        }
    }
    const absint::Reachability& reach = report.reach;
    for (ActorId a = 0; a < graph.actor_count(); ++a) {
        report.dead_actor = report.dead_actor || reach.never_fires(a);
        report.guaranteed_deadlock =
            report.guaranteed_deadlock ||
            (q && reach.max_firings[a].has_value() && *reach.max_firings[a] < (*q)[a]);
    }
    const bool broken = !report.check.ok || !report.inconsistency.empty() ||
                        report.dead_actor || report.guaranteed_deadlock;
    report.exit_code = broken ? 1 : 0;

    const absint::TokenIntervals& intervals = report.intervals;
    Json& json = report.json = Json::object();
    json.set("graph", Json::string(graph.name()));
    json.set("consistent", Json::boolean(report.inconsistency.empty()));
    json.set("solver_steps", Json::integer(static_cast<std::int64_t>(
                                 intervals.solver_steps)));
    Json channels = Json::array();
    for (ChannelId c = 0; c < graph.channel_count(); ++c) {
        const Channel& channel = graph.channel(c);
        Json entry = Json::object();
        entry.set("id", json_count(c));
        entry.set("src", Json::string(graph.actor(channel.src).name));
        entry.set("dst", Json::string(graph.actor(channel.dst).name));
        entry.set("lo", Json::integer(intervals.channels[c].lo));
        entry.set("hi", json_opt_int(intervals.channels[c].hi));
        entry.set("cap", json_opt_int(intervals.caps[c]));
        if (report.certified) {
            entry.set("certified_bound",
                      json_opt_int(report.certified->certificates[c].bound));
        }
        channels.push_back(std::move(entry));
    }
    json.set("channels", std::move(channels));
    Json actors = Json::array();
    for (ActorId a = 0; a < graph.actor_count(); ++a) {
        Json entry = Json::object();
        entry.set("name", Json::string(graph.actor(a).name));
        entry.set("possibly_enabled", Json::boolean(intervals.possibly_enabled[a]));
        entry.set("max_firings", json_opt_int(reach.max_firings[a]));
        actors.push_back(std::move(entry));
    }
    json.set("actors", std::move(actors));
    json.set("invariants", json_count(intervals.invariants.size()));
    if (report.certified) {
        Json certificate = Json::object();
        certificate.set("verified", Json::boolean(report.check.ok));
        certificate.set("reason", Json::string(report.check.reason));
        json.set("certificate", std::move(certificate));
    }
    Json verdicts = Json::object();
    verdicts.set("dead_actor", Json::boolean(report.dead_actor));
    verdicts.set("guaranteed_deadlock", Json::boolean(report.guaranteed_deadlock));
    json.set("verdicts", std::move(verdicts));
    return report;
}

Json lint_json(const LintReport& report, const std::string& file,
               const std::string& graph_name) {
    Json json = Json::object();
    json.set("file", Json::string(file));
    json.set("graph", Json::string(graph_name));
    Json diagnostics = Json::array();
    for (const Diagnostic& d : report.diagnostics) {
        Json entry = Json::object();
        entry.set("rule", Json::string(d.rule));
        entry.set("severity", Json::string(severity_name(d.severity)));
        if (d.location.known()) {
            entry.set("line", Json::integer(d.location.line));
            entry.set("column", Json::integer(d.location.column));
        }
        entry.set("message", Json::string(d.message));
        if (!d.hint.empty()) {
            entry.set("hint", Json::string(d.hint));
        }
        diagnostics.push_back(std::move(entry));
    }
    json.set("diagnostics", std::move(diagnostics));
    const auto worst = report.worst();
    const Json errors = json_count(report.count(Severity::error));
    const Json warnings = json_count(report.count(Severity::warning));
    const Json notes = json_count(report.count(Severity::note));
    Json summary = Json::object();
    summary.set("total", json_count(report.diagnostics.size()));
    summary.set("worst",
                Json::string(worst.has_value() ? severity_name(*worst) : "clean"));
    summary.set("error", errors);
    summary.set("warning", warnings);
    summary.set("note", notes);
    json.set("summary", std::move(summary));
    Json counts = Json::object();
    counts.set("error", errors);
    counts.set("warning", warnings);
    counts.set("note", notes);
    json.set("counts", std::move(counts));
    return json;
}

}  // namespace ops
}  // namespace serve
}  // namespace sdf
