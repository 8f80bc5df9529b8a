// bench_e2e — the end-to-end benchmark of record (README.md).
//
//   bench_e2e --workload NAME --seed S [--seconds T] [--trace FILE] [--json OUT]
//   bench_e2e --seed S --repeat N [--workload NAME]
//   bench_e2e --self-test
//
// Paths default to this build's tree: --cli FILE (sdfred_cli), --data DIR
// (the repository's data/), --expected FILE (expected/table1.txt),
// --scratch DIR (where the daemon's socket goes; default ".").
//
// A run measures one workload for --seconds and checks every answer.  With
// --trace it is the per-layer run instead, and FILE receives the spans as
// Chrome trace-event JSON.  Without --workload every workload runs, each in
// a process of its own.  --repeat runs each workload N times on seeds S,
// S+1, ... and prints the median, quartiles and spread of every metric.
// --self-test plants one wrong expected period and must fail.
//
// The last line of stdout is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"latency_p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
// Exit status: 0 when every answer checked out, 1 on a wrong answer, 2 when
// the run could not be made.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/cpudispatch.hpp"
#include "base/string_util.hpp"
#include "base/thread_pool.hpp"
#include "process.hpp"
#include "referee.hpp"
#include "serve/json.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;

struct Workload {
    const char* name;
    Result (*run)(const Context&);
    Result (*trace)(const Context&);
};

// README.md gives the reason for each workload.
const Workload kWorkloads[] = {
    {"cli_table1", run_cli_table1, trace_cli_table1},
    {"cold_large", run_cold_large, trace_cold_large},
    {"serve_mix", run_serve_mix, trace_serve_mix},
    {"serve_edit", run_serve_edit, trace_serve_edit},
};

const Workload* find_workload(const std::string& name) {
    for (const Workload& w : kWorkloads) {
        if (name == w.name) return &w;
    }
    return nullptr;
}

int usage() {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload NAME --seed S [--seconds T] [--trace FILE]\n"
                 "                 [--json OUT]\n"
                 "       bench_e2e --seed S --repeat N [--workload NAME]\n"
                 "       bench_e2e --self-test\n"
                 "paths: --cli FILE --data DIR --expected FILE --scratch DIR\n"
                 "workloads: cli_table1 cold_large serve_mix serve_edit\n");
    return 2;
}

std::string number(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::string result_line(const Result& result) {
    std::string line = std::string("{\"correct\": ") + (result.correct() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(result.attempted) +
                       ", \"failed\": " + std::to_string(result.failures.count) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric& m = result.metrics[i];
        line += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + number(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    return line + "}}";
}

std::string cpu_model() {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        const std::size_t colon = line.find(':');
        if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
            return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/// What the numbers ran on: the CPU, the kernel ISA tier dispatched, the
/// analysis pool's size (and SDFRED_THREADS as set), nproc and build type.
std::string machine_block() {
    using sdf::serve::Json;
    Json block = Json::object();
    block.set("cpu", Json::string(cpu_model()));
    block.set("isa", Json::string(sdf::isa_tier_name(sdf::active_isa_tier())));
    block.set("threads",
              Json::integer(static_cast<std::int64_t>(sdf::global_thread_pool().size())));
    const char* threads_env = std::getenv("SDFRED_THREADS");
    block.set("threads_env", threads_env != nullptr ? Json::string(threads_env) : Json());
    block.set("nproc", Json::integer(std::thread::hardware_concurrency()));
    block.set("build_type", Json::string(E2E_BUILD_TYPE));
    return block.dump();
}

void write_report(const std::string& path, const std::string& workload, const Options& options,
                  const Result& result) {
    std::ofstream out(path);
    out << "{\n  \"bench\": \"bench_e2e\",\n";
    out << "  \"machine\": " << machine_block() << ",\n";
    out << "  \"workload\": \"" << workload << "\",\n";
    out << "  \"seed\": " << options.seed << ",\n";
    out << "  \"seconds\": " << number(options.seconds) << ",\n";
    out << "  \"traced\": " << (options.trace_path.empty() ? "false" : "true") << ",\n";
    out << "  \"failure_reasons\": [";
    for (std::size_t i = 0; i < result.failures.reasons.size(); ++i) {
        out << (i > 0 ? ", " : "") << sdf::serve::Json::string(result.failures.reasons[i]).dump();
    }
    out << "],\n  \"result\": " << result_line(result) << "\n}\n";
}

/// One workload in this process: human-readable lines, then the result
/// line last.
int run_workload(const Context& ctx, const Workload& workload, const std::string& json_path) {
    const bool traced = !ctx.options.trace_path.empty();
    const Result result = traced ? workload.trace(ctx) : workload.run(ctx);
    std::printf("workload %s, seed %llu, %s run: %llu ops, %llu failed\n", workload.name,
                static_cast<unsigned long long>(ctx.options.seed), traced ? "traced" : "timed",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failures.count));
    for (const std::string& why : result.failures.reasons) {
        std::printf("  FAILED %s\n", why.c_str());
    }
    const double error_rate = result.attempted > 0
                                  ? static_cast<double>(result.failures.count) /
                                        static_cast<double>(result.attempted)
                                  : 1.0;
    std::printf("  %-46s %14.6g %s\n", "error_rate", error_rate, "ratio");
    for (const Metric& m : result.metrics) {
        std::printf("  %-46s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (!json_path.empty()) write_report(json_path, workload.name, ctx.options, result);
    std::printf("%s\n", result_line(result).c_str());
    std::fflush(stdout);
    return result.correct() ? 0 : 1;
}

/// Arguments that make a child run see the same tree as this process.
std::vector<std::string> child_args(const Options& options, const std::string& workload,
                                    std::uint64_t seed) {
    return {self_executable(), "--workload", workload,
            "--seed", std::to_string(seed),
            "--seconds", number(options.seconds),
            "--cli", options.cli, "--data", options.data,
            "--expected", options.expected,
            "--scratch", options.scratch};
}

/// The result line of a child run, parsed; nullopt when it printed none.
std::optional<sdf::serve::Json> child_result(const ChildResult& child) {
    const std::size_t end = child.out.find_last_not_of('\n');
    if (end == std::string::npos) return std::nullopt;
    const std::size_t begin = child.out.rfind('\n', end);
    try {
        return sdf::serve::Json::parse(
            child.out.substr(begin == std::string::npos ? 0 : begin + 1));
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

/// Every workload, each in its own process; the last line sums them up
/// with metric names prefixed by the workload.
int run_all(const Options& options) {
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::string metrics;
    for (const Workload& workload : kWorkloads) {
        const ChildResult child =
            run_child(child_args(options, workload.name, options.seed), 900.0);
        std::fputs(child.out.c_str(), stdout);
        const auto parsed = child_result(child);
        if (!parsed) {
            std::fprintf(stderr, "error: %s printed no result\n", workload.name);
            return 2;
        }
        correct = correct && parsed->find("correct")->as_boolean();
        attempted += parsed->find("attempted")->as_integer();
        failed += parsed->find("failed")->as_integer();
        for (const auto& [name, metric] : parsed->find("metrics")->members()) {
            metrics += (metrics.empty() ? "\"" : ", \"") + std::string(workload.name) + "." +
                       name + "\": " + metric.dump();
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed), metrics.c_str());
    return correct ? 0 : 1;
}

/// N runs per workload on consecutive seeds; prints, per metric, the
/// median, the quartiles and the spread (max − min, and the quartile
/// distance, each over the median).
int repeat(const Options& options, int times) {
    bool correct = true;
    std::printf("%-12s %-44s %12s %12s %12s %9s %9s\n", "workload", "metric", "median", "q1",
                "q3", "spread", "iqr");
    for (const Workload& workload : kWorkloads) {
        if (!options.workload.empty() && options.workload != workload.name) continue;
        std::map<std::string, std::vector<double>> values;
        std::vector<std::string> order;
        for (int k = 0; k < times; ++k) {
            const ChildResult child = run_child(
                child_args(options, workload.name, options.seed + static_cast<std::uint64_t>(k)),
                900.0);
            const auto parsed = child_result(child);
            if (!parsed || !parsed->find("correct")->as_boolean()) {
                std::fprintf(stderr, "error: %s seed %llu failed\n%s", workload.name,
                             static_cast<unsigned long long>(options.seed + k),
                             child.out.c_str());
                correct = false;
                continue;
            }
            for (const auto& [name, metric] : parsed->find("metrics")->members()) {
                if (values.find(name) == values.end()) order.push_back(name);
                values[name].push_back(metric.find("value")->as_real());
            }
        }
        for (const std::string& name : order) {
            std::vector<double> v = values[name];
            std::sort(v.begin(), v.end());
            const double mid = median(v);
            // Quartile i of 4 as Python's statistics.quantiles(v, n=4)
            // computes it (the default "exclusive" method), so the iqr
            // column is the spread a comparison script would compute.
            const auto quartile = [&](std::size_t i) {
                const std::size_t n = v.size();
                if (n < 2) return v.front();
                const std::size_t j = std::clamp<std::size_t>(i * (n + 1) / 4, 1, n - 1);
                const double delta = static_cast<double>(i * (n + 1)) - 4.0 * static_cast<double>(j);
                return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            };
            const double scale = mid != 0 ? std::abs(mid) : 1.0;
            std::printf("%-12s %-44s %12.6g %12.6g %12.6g %8.2f%% %8.2f%%\n", workload.name,
                        name.c_str(), mid, quartile(1), quartile(3),
                        100.0 * (v.back() - v.front()) / scale,
                        100.0 * (quartile(3) - quartile(1)) / scale);
        }
    }
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    options.cli = E2E_DEFAULT_CLI;
    options.data = E2E_DEFAULT_DATA;
    options.expected = E2E_DEFAULT_EXPECTED;
    options.scratch = ".";
    std::string json_path;
    int repeat_times = 0;
    bool self_test = false;
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() == 1 && args[0] == "--setup-probe") return cold_setup_probe();
    if (args.size() == 1 && args[0] == "--peak-probe") return cold_peak_probe();
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& flag = args[i];
        if (flag == "--self-test") {
            self_test = true;
            continue;
        }
        if (i + 1 >= args.size()) return usage();
        const std::string& value = args[++i];
        const auto count = sdf::parse_int(value);
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed" && count && *count >= 0) {
            options.seed = static_cast<std::uint64_t>(*count);
        } else if (flag == "--seconds") {
            options.seconds = std::atof(value.c_str());
        } else if (flag == "--trace") {
            options.trace_path = value;
        } else if (flag == "--json") {
            json_path = value;
        } else if (flag == "--repeat" && count && *count > 0) {
            repeat_times = static_cast<int>(*count);
        } else if (flag == "--cli") {
            options.cli = value;
        } else if (flag == "--data") {
            options.data = value;
        } else if (flag == "--expected") {
            options.expected = value;
        } else if (flag == "--scratch") {
            options.scratch = value;
        } else {
            return usage();
        }
    }
    if (!(options.seconds > 0) ||
        (!options.workload.empty() && find_workload(options.workload) == nullptr)) {
        return usage();
    }
    try {
        if (repeat_times > 0) return repeat(options, repeat_times);
        Context ctx{options, load_table1(options.expected)};
        if (self_test) {
            // A wrong expected period for the first model must surface as
            // failed ops (its `analyze` answers) and as a referee rejection.
            Table1Model& planted = ctx.table1.front();
            planted.period = (parse_rational(planted.period) + sdf::Rational(1)).to_string();
            ctx.options.max_ops = 2 * ctx.table1.size();
            return run_workload(ctx, *find_workload("cli_table1"), json_path);
        }
        if (options.workload.empty()) return run_all(options);
        return run_workload(ctx, *find_workload(options.workload), json_path);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
