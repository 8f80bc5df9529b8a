#include "serve/protocol.hpp"

#include <chrono>

namespace sdf {
namespace serve {

const char* op_name(Op op) {
    switch (op) {
        case Op::throughput: return "throughput";
        case Op::lint: return "lint";
        case Op::certify: return "certify";
        case Op::fuzz_smoke: return "fuzz-smoke";
        case Op::edit: return "edit";
        case Op::stats: return "stats";
        case Op::health: return "health";
        case Op::ping: return "ping";
        case Op::shutdown: return "shutdown";
    }
    return "?";
}

Op parse_op(const std::string& name) {
    if (name == "throughput") {
        return Op::throughput;
    }
    if (name == "lint") {
        return Op::lint;
    }
    if (name == "certify") {
        return Op::certify;
    }
    if (name == "fuzz-smoke") {
        return Op::fuzz_smoke;
    }
    if (name == "edit") {
        return Op::edit;
    }
    if (name == "stats") {
        return Op::stats;
    }
    if (name == "health") {
        return Op::health;
    }
    if (name == "ping") {
        return Op::ping;
    }
    if (name == "shutdown") {
        return Op::shutdown;
    }
    throw BadRequestError("unknown analysis \"" + name +
                          "\" (valid: throughput, lint, certify, fuzz-smoke, "
                          "edit, stats, health, ping, shutdown)");
}

namespace {

std::uint64_t positive_integer(const Json& value, const char* field) {
    if (!value.is_integer() || value.as_integer() <= 0) {
        throw BadRequestError(std::string("budget field \"") + field +
                              "\" must be a positive integer");
    }
    return static_cast<std::uint64_t>(value.as_integer());
}

ExecutionBudget parse_budget(const Json& json) {
    ExecutionBudget budget;
    for (const auto& [key, value] : json.members()) {
        if (key == "timeout_ms") {
            budget.deadline =
                std::chrono::milliseconds(positive_integer(value, "timeout_ms"));
        } else if (key == "max_steps") {
            budget.max_steps = positive_integer(value, "max_steps");
        } else if (key == "max_memory_mb") {
            budget.max_bytes = positive_integer(value, "max_memory_mb") * 1024 * 1024;
        } else {
            throw BadRequestError("unknown budget field \"" + key +
                                  "\" (valid: timeout_ms, max_steps, max_memory_mb)");
        }
    }
    return budget;
}

/// A non-negative integer member of an edit step.
Int step_integer(const Json& value, const char* field, Int minimum) {
    if (!value.is_integer() || value.as_integer() < minimum) {
        throw BadRequestError(std::string("edit field \"") + field +
                              "\" must be an integer >= " + std::to_string(minimum));
    }
    return value.as_integer();
}

EditStep parse_edit_step(const Json& json, std::size_t index) {
    const std::string at = " in edit #" + std::to_string(index);
    if (!json.is_object()) {
        throw BadRequestError("each edit must be a JSON object (edit #" +
                              std::to_string(index) + ")");
    }
    EditStep step;
    bool saw_set = false;
    bool saw_actor = false;
    bool saw_channel = false;
    bool saw_value = false;
    bool saw_production = false;
    bool saw_consumption = false;
    for (const auto& [key, value] : json.members()) {
        if (key == "set") {
            if (!value.is_string()) {
                throw BadRequestError("\"set\" must be a string" + at);
            }
            const std::string& name = value.as_string();
            if (name == "execution-time") {
                step.kind = EditStep::Kind::execution_time;
            } else if (name == "initial-tokens") {
                step.kind = EditStep::Kind::initial_tokens;
            } else if (name == "rates") {
                step.kind = EditStep::Kind::rates;
            } else {
                throw BadRequestError(
                    "unknown edit \"" + name +
                    "\" (valid: execution-time, initial-tokens, rates)" + at);
            }
            saw_set = true;
        } else if (key == "actor") {
            if (!value.is_string() || value.as_string().empty()) {
                throw BadRequestError("\"actor\" must be a non-empty string" + at);
            }
            step.actor = value.as_string();
            saw_actor = true;
        } else if (key == "channel") {
            step.channel =
                static_cast<std::uint64_t>(step_integer(value, "channel", 0));
            saw_channel = true;
        } else if (key == "time" || key == "tokens") {
            step.value = step_integer(value, key.c_str(), 0);
            saw_value = true;
        } else if (key == "production") {
            step.production = step_integer(value, "production", 1);
            saw_production = true;
        } else if (key == "consumption") {
            step.consumption = step_integer(value, "consumption", 1);
            saw_consumption = true;
        } else {
            throw BadRequestError("unknown edit field \"" + key + "\"" + at);
        }
    }
    if (!saw_set) {
        throw BadRequestError("edit is missing \"set\"" + at);
    }
    switch (step.kind) {
        case EditStep::Kind::execution_time:
            if (!saw_actor || !saw_value || saw_channel || saw_production ||
                saw_consumption) {
                throw BadRequestError(
                    "execution-time edits take exactly \"actor\" and \"time\"" + at);
            }
            break;
        case EditStep::Kind::initial_tokens:
            if (!saw_channel || !saw_value || saw_actor || saw_production ||
                saw_consumption) {
                throw BadRequestError(
                    "initial-tokens edits take exactly \"channel\" and \"tokens\"" +
                    at);
            }
            break;
        case EditStep::Kind::rates:
            if (!saw_channel || !saw_production || !saw_consumption || saw_actor ||
                saw_value) {
                throw BadRequestError(
                    "rates edits take exactly \"channel\", \"production\" and "
                    "\"consumption\"" +
                    at);
            }
            break;
    }
    return step;
}

}  // namespace

std::vector<EditStep> parse_edits(const Json& json) {
    if (!json.is_array()) {
        throw BadRequestError("\"edits\" must be an array of edit objects");
    }
    const std::vector<Json>& items = json.items();
    std::vector<EditStep> steps;
    steps.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        steps.push_back(parse_edit_step(items[i], i));
    }
    return steps;
}

Json edits_json(const std::vector<EditStep>& steps) {
    Json out = Json::array();
    for (const EditStep& step : steps) {
        Json entry = Json::object();
        switch (step.kind) {
            case EditStep::Kind::execution_time:
                entry.set("set", Json::string("execution-time"));
                entry.set("actor", Json::string(step.actor));
                entry.set("time", Json::integer(step.value));
                break;
            case EditStep::Kind::initial_tokens:
                entry.set("set", Json::string("initial-tokens"));
                entry.set("channel",
                          Json::integer(static_cast<std::int64_t>(step.channel)));
                entry.set("tokens", Json::integer(step.value));
                break;
            case EditStep::Kind::rates:
                entry.set("set", Json::string("rates"));
                entry.set("channel",
                          Json::integer(static_cast<std::int64_t>(step.channel)));
                entry.set("production", Json::integer(step.production));
                entry.set("consumption", Json::integer(step.consumption));
                break;
        }
        out.push_back(std::move(entry));
    }
    return out;
}

Request parse_request(const Json& json) {
    if (!json.is_object()) {
        throw BadRequestError("request must be a JSON object");
    }
    Request request;
    bool saw_op = false;
    for (const auto& [key, value] : json.members()) {
        if (key == "id") {
            if (!value.is_null() && !value.is_string() && !value.is_integer()) {
                throw BadRequestError("\"id\" must be a string or an integer");
            }
            request.id = value;
        } else if (key == "op") {
            if (!value.is_string()) {
                throw BadRequestError("\"op\" must be a string");
            }
            request.op = parse_op(value.as_string());
            saw_op = true;
        } else if (key == "model") {
            if (!value.is_string()) {
                throw BadRequestError("\"model\" must be a string");
            }
            request.model = value.as_string();
        } else if (key == "model_path") {
            if (!value.is_string()) {
                throw BadRequestError("\"model_path\" must be a string");
            }
            request.model_path = value.as_string();
        } else if (key == "pipeline") {
            if (!value.is_string()) {
                throw BadRequestError("\"pipeline\" must be a string");
            }
            request.pipeline = value.as_string();
        } else if (key == "budget") {
            if (!value.is_object()) {
                throw BadRequestError("\"budget\" must be an object");
            }
            request.budget = parse_budget(value);
            request.has_budget = !request.budget.unlimited();
        } else if (key == "degrade") {
            if (!value.is_string() ||
                (value.as_string() != "auto" && value.as_string() != "never")) {
                throw BadRequestError("\"degrade\" must be \"auto\" or \"never\"");
            }
            request.degrade = value.as_string() == "auto";
        } else if (key == "no_cache") {
            if (!value.is_boolean()) {
                throw BadRequestError("\"no_cache\" must be a boolean");
            }
            request.no_cache = value.as_boolean();
        } else if (key == "parent") {
            if (!value.is_string() || value.as_string().empty()) {
                throw BadRequestError("\"parent\" must be a non-empty string");
            }
            request.parent = value.as_string();
        } else if (key == "edits") {
            request.edits = parse_edits(value);
            request.has_edits = true;
        } else if (key == "then") {
            if (!value.is_string()) {
                throw BadRequestError("\"then\" must be a string");
            }
            const std::string& then = value.as_string();
            if (then != "throughput" && then != "lint" && then != "certify") {
                throw BadRequestError(
                    "\"then\" must name an analysis op (valid: throughput, "
                    "lint, certify)");
            }
            request.then_op = then;
        } else {
            throw BadRequestError("unknown request field \"" + key + "\"");
        }
    }
    if (!saw_op) {
        throw BadRequestError("request is missing \"op\"");
    }
    if (request.op == Op::edit) {
        if (!request.has_edits) {
            throw BadRequestError("op \"edit\" requires \"edits\"");
        }
        const int sources = (request.parent.empty() ? 0 : 1) +
                            (request.model.empty() ? 0 : 1) +
                            (request.model_path.empty() ? 0 : 1);
        if (sources != 1) {
            throw BadRequestError(
                "op \"edit\" requires exactly one of \"parent\", \"model\" or "
                "\"model_path\"");
        }
    } else if (!request.parent.empty() || request.has_edits ||
               !request.then_op.empty()) {
        throw BadRequestError(
            "\"parent\", \"edits\" and \"then\" are only valid with op \"edit\"");
    }
    if (request.needs_model()) {
        if (request.model.empty() && request.model_path.empty()) {
            throw BadRequestError(std::string("op \"") + op_name(request.op) +
                                  "\" requires \"model\" or \"model_path\"");
        }
        if (!request.model.empty() && !request.model_path.empty()) {
            throw BadRequestError("\"model\" and \"model_path\" are mutually exclusive");
        }
    }
    return request;
}

Json make_response(const Json& id, bool ok, Op op, int exit_code,
                   const std::string& cache) {
    Json response = Json::object();
    response.set("id", id);
    response.set("ok", Json::boolean(ok));
    response.set("op", Json::string(op_name(op)));
    response.set("exit", Json::integer(exit_code));
    response.set("cache", Json::string(cache));
    return response;
}

Json make_error(int code, const std::string& kind, const std::string& message,
                const std::string& cause) {
    Json error = Json::object();
    error.set("code", Json::integer(code));
    error.set("kind", Json::string(kind));
    if (!cause.empty()) {
        error.set("cause", Json::string(cause));
    }
    error.set("message", Json::string(message));
    return error;
}

Json make_error_response(const Json& id, const Json& op_echo, int exit_code,
                         const std::string& cache, Json error) {
    Json response = Json::object();
    response.set("id", id);
    response.set("ok", Json::boolean(false));
    response.set("op", op_echo);
    response.set("exit", Json::integer(exit_code));
    response.set("cache", Json::string(cache));
    response.set("error", std::move(error));
    return response;
}

}  // namespace serve
}  // namespace sdf
