// bench_conversion_runtime — checks the Section 7 run-time claim ("The
// run-time of the algorithms is a few milliseconds") and records the sparse
// symbolic engine against the dense baseline in the same run.
//
// The bundled model set is the eight Table 1 applications plus three large
// fork/join graphs whose initial-token counts (258..1030) are where the
// sparse engine's O(support)-per-firing cost separates from the dense
// engine's O(N): on the largest bundled model the report carries both
// engines' wall-time stats and the resulting speedup.
//
// It also records the text I/O of the reduced HSDF (the Figure-4 graph a
// user reads and writes): the median write_text_string and
// read_text_string time on each Table 1 model and on fork_join(256, 3) and
// fork_join(1024, 3), the models of the cold path's largest and smallest
// width.
//
// Flags (see docs/PERFORMANCE.md):
//   --json FILE   write BENCH_conversion_runtime.json-style report and skip
//                 the google-benchmark run
//   --reps N      repetitions per measurement (default 5)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "base/thread_pool.hpp"
#include "gen/benchmarks.hpp"
#include "gen/structured.hpp"
#include "io/text.hpp"
#include "sdf/repetition.hpp"
#include "transform/hsdf_classic.hpp"
#include "transform/hsdf_reduced.hpp"
#include "transform/symbolic.hpp"

namespace {

using namespace sdf;

/// Table 1 plus the large fork/join scaling models.  The largest bundled
/// model (by initial tokens, the symbolic engines' problem size) is
/// fork_join(1024): 1030 initial tokens.
std::vector<BenchmarkCase> bundled_models() {
    std::vector<BenchmarkCase> cases = table1_benchmarks();
    cases.push_back(BenchmarkCase{"fork_join(256)", fork_join_graph(256, 5, 4)});
    cases.push_back(BenchmarkCase{"fork_join(512)", fork_join_graph(512, 5, 4)});
    cases.push_back(BenchmarkCase{"fork_join(1024)", fork_join_graph(1024, 5, 4)});
    return cases;
}

struct ModelReport {
    std::string name;
    std::size_t actors = 0;
    std::size_t channels = 0;
    std::size_t initial_tokens = 0;
    Int iterations = 0;
    double matrix_density = 0;
    sdfbench::Stats baseline_dense;    // dense/serial symbolic iteration
    sdfbench::Stats optimized_sparse;  // sparse symbolic iteration
    sdfbench::Stats traditional;       // classical SDF->HSDF expansion
    sdfbench::Stats reduced;           // full reduced conversion (sparse)
    double speedup = 0;                // dense median / sparse median
};

ModelReport measure_model(const BenchmarkCase& bench, int reps) {
    ModelReport r;
    r.name = bench.label;
    r.actors = bench.graph.actor_count();
    r.channels = bench.graph.channel_count();
    r.iterations = iteration_length(bench.graph);

    // Warm the per-graph memo so neither engine pays the one-off schedule
    // derivation inside its timed region.
    const SymbolicIteration warm = symbolic_iteration(bench.graph);
    r.initial_tokens = warm.tokens.size();
    r.matrix_density = warm.matrix.density();

    r.baseline_dense = sdfbench::measure_ms(reps, [&] {
        benchmark::DoNotOptimize(symbolic_iteration_dense(bench.graph));
    });
    r.optimized_sparse = sdfbench::measure_ms(reps, [&] {
        benchmark::DoNotOptimize(symbolic_iteration(bench.graph));
    });
    r.traditional = sdfbench::measure_ms(reps, [&] {
        benchmark::DoNotOptimize(to_hsdf_classic(bench.graph));
    });
    // The whole conversion, token game included: to_hsdf_reduced would
    // serve every repetition after the first from the graph's cached
    // symbolic-iteration slot.
    r.reduced = sdfbench::measure_ms(reps, [&] {
        benchmark::DoNotOptimize(
            reduced_hsdf_from_matrix(symbolic_iteration(bench.graph).matrix, "r"));
    });
    r.speedup = r.optimized_sparse.median_ms > 0
                    ? r.baseline_dense.median_ms / r.optimized_sparse.median_ms
                    : 0;
    return r;
}

/// Text render and parse of one model's reduced HSDF.
struct TextIoReport {
    std::string name;
    std::size_t actors = 0;
    std::size_t channels = 0;
    std::size_t bytes = 0;
    sdfbench::Stats render;  // write_text_string
    sdfbench::Stats parse;   // read_text_string
};

std::vector<BenchmarkCase> text_io_models() {
    std::vector<BenchmarkCase> cases = table1_benchmarks();
    cases.push_back(BenchmarkCase{"fork_join(256, 3)", fork_join_graph(256, 3)});
    cases.push_back(BenchmarkCase{"fork_join(1024, 3)", fork_join_graph(1024, 3)});
    return cases;
}

TextIoReport measure_text_io(const BenchmarkCase& bench, int reps) {
    const Graph reduced = to_hsdf_reduced(bench.graph);
    const std::string text = write_text_string(reduced);
    TextIoReport r;
    r.name = bench.label;
    r.actors = reduced.actor_count();
    r.channels = reduced.channel_count();
    r.bytes = text.size();
    r.render = sdfbench::measure_ms(reps, [&] {
        benchmark::DoNotOptimize(write_text_string(reduced));
    });
    r.parse = sdfbench::measure_ms(reps, [&] {
        benchmark::DoNotOptimize(read_text_string(text));
    });
    return r;
}

void print_text_io(const std::vector<TextIoReport>& reports) {
    std::printf("Text I/O of the reduced HSDF (medians)\n");
    std::printf("%-22s %8s %9s %10s %12s %12s\n", "test case", "actors", "channels",
                "bytes", "render", "parse");
    for (const TextIoReport& r : reports) {
        std::printf("%-22s %8zu %9zu %10zu %10.3fms %10.3fms\n", r.name.c_str(), r.actors,
                    r.channels, r.bytes, r.render.median_ms, r.parse.median_ms);
    }
    std::printf("\n");
}

std::string text_io_json(const TextIoReport& r) {
    std::string out = "    {\n";
    out += "      \"name\": \"" + sdfbench::json_escape(r.name) + "\",\n";
    out += "      \"reduced_actors\": " + std::to_string(r.actors) + ",\n";
    out += "      \"reduced_channels\": " + std::to_string(r.channels) + ",\n";
    out += "      \"text_bytes\": " + std::to_string(r.bytes) + ",\n";
    out += "      \"render_median_ms\": " + sdfbench::json_num(r.render.median_ms) + ",\n";
    out += "      \"parse_median_ms\": " + sdfbench::json_num(r.parse.median_ms) + ",\n";
    out += "      \"render\": " + sdfbench::stats_json(r.render) + ",\n";
    out += "      \"parse\": " + sdfbench::stats_json(r.parse) + "\n";
    out += "    }";
    return out;
}

void print_report(const std::vector<ModelReport>& reports) {
    std::printf("Section 7 run-time claim: conversions take a few milliseconds\n");
    std::printf("(medians over repeated runs; dense = serial baseline engine)\n");
    std::printf("%-22s %8s %8s %12s %12s %12s %12s %8s\n", "test case", "tokens",
                "density", "traditional", "dense sym", "sparse sym", "new (total)",
                "speedup");
    for (const ModelReport& r : reports) {
        std::printf("%-22s %8zu %7.3f%% %10.3fms %10.3fms %10.3fms %10.3fms %7.2fx\n",
                    r.name.c_str(), r.initial_tokens, r.matrix_density * 100.0,
                    r.traditional.median_ms, r.baseline_dense.median_ms,
                    r.optimized_sparse.median_ms, r.reduced.median_ms, r.speedup);
    }
    std::printf("\n");
}

const ModelReport& largest_model(const std::vector<ModelReport>& reports) {
    const ModelReport* best = &reports.front();
    for (const ModelReport& r : reports) {
        if (r.initial_tokens > best->initial_tokens) {
            best = &r;
        }
    }
    return *best;
}

std::string model_json(const ModelReport& r) {
    std::string out = "    {\n";
    out += "      \"name\": \"" + sdfbench::json_escape(r.name) + "\",\n";
    out += "      \"actors\": " + std::to_string(r.actors) + ",\n";
    out += "      \"channels\": " + std::to_string(r.channels) + ",\n";
    out += "      \"initial_tokens\": " + std::to_string(r.initial_tokens) + ",\n";
    out += "      \"iteration_length\": " + std::to_string(r.iterations) + ",\n";
    out += "      \"matrix_density\": " + sdfbench::json_num(r.matrix_density) + ",\n";
    out += "      \"baseline_dense_symbolic\": " + sdfbench::stats_json(r.baseline_dense) +
           ",\n";
    out += "      \"optimized_sparse_symbolic\": " +
           sdfbench::stats_json(r.optimized_sparse) + ",\n";
    out += "      \"traditional_conversion\": " + sdfbench::stats_json(r.traditional) +
           ",\n";
    out += "      \"reduced_conversion\": " + sdfbench::stats_json(r.reduced) + ",\n";
    out += "      \"speedup_sparse_vs_dense\": " + sdfbench::json_num(r.speedup) + "\n";
    out += "    }";
    return out;
}

void write_json(const std::string& path, const std::vector<ModelReport>& reports,
                const std::vector<TextIoReport>& text_io, int reps) {
    const ModelReport& largest = largest_model(reports);
    std::ofstream out(path);
    out << "{\n";
    out << "  \"bench\": \"bench_conversion_runtime\",\n";
    out << "  \"machine\": " << sdfbench::machine_json() << ",\n";
    out << "  \"threads\": " << global_thread_pool().size() << ",\n";
    out << "  \"reps\": " << reps << ",\n";
    out << "  \"models\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        out << model_json(reports[i]) << (i + 1 < reports.size() ? ",\n" : "\n");
    }
    out << "  ],\n";
    out << "  \"text_io\": [\n";
    for (std::size_t i = 0; i < text_io.size(); ++i) {
        out << text_io_json(text_io[i]) << (i + 1 < text_io.size() ? ",\n" : "\n");
    }
    out << "  ],\n";
    out << "  \"largest_model\": {\n";
    out << "    \"name\": \"" << sdfbench::json_escape(largest.name) << "\",\n";
    out << "    \"initial_tokens\": " << largest.initial_tokens << ",\n";
    out << "    \"baseline_dense_median_ms\": "
        << sdfbench::json_num(largest.baseline_dense.median_ms) << ",\n";
    out << "    \"optimized_sparse_median_ms\": "
        << sdfbench::json_num(largest.optimized_sparse.median_ms) << ",\n";
    out << "    \"speedup_sparse_vs_dense\": " << sdfbench::json_num(largest.speedup)
        << "\n";
    out << "  }\n";
    out << "}\n";
    std::printf("wrote %s (largest model %s: %.2fx sparse over dense)\n", path.c_str(),
                largest.name.c_str(), largest.speedup);
}

void BM_SymbolicIterationSparse(benchmark::State& state) {
    const auto cases = bundled_models();
    const BenchmarkCase& bench = cases[static_cast<std::size_t>(state.range(0))];
    for (auto _ : state) {
        benchmark::DoNotOptimize(symbolic_iteration(bench.graph));
    }
    state.SetLabel(bench.label);
}

void BM_SymbolicIterationDense(benchmark::State& state) {
    const auto cases = bundled_models();
    const BenchmarkCase& bench = cases[static_cast<std::size_t>(state.range(0))];
    for (auto _ : state) {
        benchmark::DoNotOptimize(symbolic_iteration_dense(bench.graph));
    }
    state.SetLabel(bench.label);
}

BENCHMARK(BM_SymbolicIterationSparse)->DenseRange(0, 10);
BENCHMARK(BM_SymbolicIterationDense)->DenseRange(0, 10);

}  // namespace

int main(int argc, char** argv) {
    const std::string json_path = sdfbench::consume_flag(argc, argv, "--json", "");
    const int reps = std::max(1, std::atoi(
        sdfbench::consume_flag(argc, argv, "--reps", "5").c_str()));

    std::vector<ModelReport> reports;
    for (const BenchmarkCase& bench : bundled_models()) {
        reports.push_back(measure_model(bench, reps));
    }
    print_report(reports);
    std::vector<TextIoReport> text_io;
    for (const BenchmarkCase& bench : text_io_models()) {
        text_io.push_back(measure_text_io(bench, reps));
    }
    print_text_io(text_io);

    if (!json_path.empty()) {
        write_json(json_path, reports, text_io, reps);
        return 0;
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
