// protocol.hpp — the request/response shapes of `sdfred serve`.
//
// The daemon speaks newline-delimited JSON: one request object per line in,
// one response object per line out, matched by the request's `id` (echoed
// verbatim, so clients may pipeline and reorder).  docs/SERVE.md is the
// normative spec; the committed goldens under data/serve/ pin every shape.
//
// A request names an operation, a model (inline text or a file path), an
// optional pass pipeline to run first, and an optional resource budget:
//
//   {"id":1,"op":"throughput","model":"graph g\nactor a 1\n...",
//    "pipeline":"selfloops,prune","budget":{"max_steps":10000}}
//
// Responses carry a CLI-equivalent exit code next to an HTTP-flavoured
// error code, so scripted clients can triage exactly like scripted CLI
// callers do: exit 0/1 success (1 = analysis verdict "broken"/lint errors),
// 2 bad request (code 400), 3 unparseable model (code 422), 4 refused by
// resource governance (code 429 budget, code 503 admission control).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "base/checked.hpp"
#include "robust/budget.hpp"
#include "serve/json.hpp"

namespace sdf {
namespace serve {

/// A structurally invalid request (unknown op, missing model, bad budget
/// field, malformed pipeline spec).  Maps to code 400 / exit 2.
class BadRequestError : public Error {
public:
    explicit BadRequestError(const std::string& what) : Error(what) {}
};

/// The operations the service dispatches.  `throughput`, `lint`, `certify`
/// and `fuzz_smoke` analyse a model; the rest are control-plane.
enum class Op {
    throughput,  ///< repetition vector + iteration period (governed ladder)
    lint,        ///< diagnostic rules over the parsed graph
    certify,     ///< abstract interpretation + machine-checked bounds
    fuzz_smoke,  ///< one pass of the differential oracle registry
    edit,        ///< derive a child graph from a parent by an edit script
    stats,       ///< server counters (cache, queue, request tallies)
    health,      ///< supervision probe: queue depth, reaps, persistence state
    ping,        ///< liveness probe
    shutdown,    ///< stop accepting; drain; exit
};

/// Stable wire name ("throughput", "fuzz-smoke", ...).
const char* op_name(Op op);

/// The op a wire name denotes; throws BadRequestError on unknown names.
Op parse_op(const std::string& name);

/// One step of an `edit` request's script.  The wire shape is one object
/// per step, discriminated by "set":
///
///   {"set":"execution-time","actor":"w3","time":4}
///   {"set":"initial-tokens","channel":2,"tokens":1}
///   {"set":"rates","channel":2,"production":2,"consumption":3}
///
/// Steps apply in order through the Graph mutators, so every step records a
/// MutationEvent and the derived graph's analyses are REFINED from the
/// parent's instead of recomputed (sdf/mutation.hpp has the protocol).
struct EditStep {
    enum class Kind { execution_time, initial_tokens, rates };
    Kind kind = Kind::execution_time;
    std::string actor;          ///< execution-time: target actor name
    std::uint64_t channel = 0;  ///< initial-tokens / rates: channel index
    Int value = 0;              ///< new execution time / token count
    Int production = 0;         ///< rates only
    Int consumption = 0;        ///< rates only
};

/// Parses the "edits" member (an array of step objects, shape above).
/// Throws BadRequestError on any structural or range violation.
std::vector<EditStep> parse_edits(const Json& json);

/// The canonical JSON spelling of an edit script: fixed member order and
/// names, independent of how the client spelt the request.  Json::dump of
/// this array is the script's identity in result-cache keys and persisted
/// lineage records.
Json edits_json(const std::vector<EditStep>& steps);

/// One parsed request line.
struct Request {
    Json id;                       ///< echoed verbatim; null when absent
    Op op = Op::ping;
    std::string model;             ///< inline model text ("" = none)
    std::string model_path;        ///< file path alternative ("" = none)
    std::string pipeline;          ///< pass spec to run before analysis
    ExecutionBudget budget;        ///< unlimited when the request has none
    bool has_budget = false;
    std::optional<bool> degrade;   ///< throughput ladder: auto (true) / never
    bool no_cache = false;         ///< bypass the result cache for this request
    std::string parent;            ///< edit: display id of the parent graph
    std::vector<EditStep> edits;   ///< edit: the script, in application order
    bool has_edits = false;        ///< edit: "edits" member was present
    std::string then_op;           ///< edit: follow-on analysis on the child

    [[nodiscard]] bool needs_model() const {
        return op == Op::throughput || op == Op::lint || op == Op::certify ||
               op == Op::fuzz_smoke;
    }
};

/// Parses a decoded request object.  Throws BadRequestError on unknown or
/// ill-typed fields; unknown *ops* name the valid ones in the message.
Request parse_request(const Json& json);

/// Response skeleton in canonical member order: id, ok, op, exit, cache.
/// Callers then attach "result" or "error" and optionally "wall_ms".
Json make_response(const Json& id, bool ok, Op op, int exit_code,
                   const std::string& cache);

/// The structured error member: {"code":N,"kind":"...","message":"..."}
/// plus "cause" for budget refusals ("steps", "deadline", ...).
Json make_error(int code, const std::string& kind, const std::string& message,
                const std::string& cause = "");

/// A complete failure response.  `op_echo` is the op as typed by the client
/// (a string) when it parsed, null before that point (malformed JSON,
/// unknown op).
Json make_error_response(const Json& id, const Json& op_echo, int exit_code,
                         const std::string& cache, Json error);

}  // namespace serve
}  // namespace sdf
