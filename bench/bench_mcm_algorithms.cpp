// bench_mcm_algorithms — the max-cycle solver against its reference (the
// paper cites Dasdan/Irani/Gupta [5] for this design space): Howard's exact
// policy iteration, which every throughput route runs, versus Karp's
// algorithm, kept as the reference.  Per model:
//
//   * the cycle mean of the iteration matrix's precedence graph, by Karp
//     and by Howard, which must be bit-identical (`bit_identical`);
//   * Howard's cycle ratio on the dependency digraph of the reduced HSDF,
//     which must reach the same λ.
//
// Flags (see docs/PERFORMANCE.md):
//   --json FILE   write BENCH_mcm.json-style report and skip the
//                 google-benchmark run
//   --reps N      repetitions per measurement (default 5)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "gen/benchmarks.hpp"
#include "gen/structured.hpp"
#include "maxplus/mcm.hpp"
#include "sdf/properties.hpp"
#include "transform/hsdf_reduced.hpp"
#include "transform/symbolic.hpp"

namespace {

using namespace sdf;

struct Prepared {
    std::string label;
    Digraph matrix_graph;   // precedence graph of the iteration matrix
    Digraph reduced_graph;  // dependency digraph of the reduced HSDF
};

std::vector<Prepared> prepare() {
    std::vector<Prepared> out;
    std::vector<BenchmarkCase> cases = table1_benchmarks();
    // The large case, where the solver dominates a cold throughput solve.
    cases.push_back(BenchmarkCase{"fork_join(1024)", fork_join_graph(1024, 5, 4)});
    for (const BenchmarkCase& bench : cases) {
        const SymbolicIteration it = symbolic_iteration(bench.graph);
        out.push_back(Prepared{
            bench.label,
            it.matrix.precedence_graph(),
            dependency_digraph(reduced_hsdf_from_matrix(it.matrix, "r")),
        });
    }
    return out;
}

bool same_metric(const CycleMetric& a, const CycleMetric& b) {
    return a.outcome == b.outcome && (!a.is_finite() || a.value == b.value);
}

std::string metric_text(const CycleMetric& m) {
    return m.is_finite() ? m.value.to_string() : "-";
}

/// Prints the three answers per model; exits 1 when Howard's mean is not
/// bit-identical to Karp's or its ratio on the reduced HSDF differs.
void print_agreement(const std::vector<Prepared>& prepared) {
    std::printf("Max-cycle solvers on the benchmark suite (must agree)\n");
    std::printf("%-26s %16s %16s %16s\n", "test case", "Karp (mean)", "Howard (mean)",
                "Howard (ratio)");
    for (const Prepared& p : prepared) {
        const CycleMetric karp = max_cycle_mean_karp(p.matrix_graph);
        const CycleMetric howard = max_cycle_mean(p.matrix_graph);
        const CycleMetric ratio = max_cycle_ratio_exact(p.reduced_graph);
        std::printf("%-26s %16s %16s %16s\n", p.label.c_str(), metric_text(karp).c_str(),
                    metric_text(howard).c_str(), metric_text(ratio).c_str());
        if (!same_metric(karp, howard) || !same_metric(karp, ratio)) {
            std::printf("ERROR: Howard disagrees with the Karp reference on %s\n",
                        p.label.c_str());
            std::exit(1);
        }
    }
    std::printf("\n");
}

struct McmReport {
    std::string name;
    std::size_t nodes = 0;
    std::size_t edges = 0;
    std::size_t reduced_nodes = 0;
    std::size_t reduced_edges = 0;
    sdfbench::Stats karp;          // max_cycle_mean_karp on the matrix graph
    sdfbench::Stats howard_mean;   // max_cycle_mean on the matrix graph
    sdfbench::Stats howard_ratio;  // max_cycle_ratio_exact on the reduced graph
    double speedup = 0;            // Karp median / Howard mean median
    bool bit_identical = false;
};

McmReport measure(const Prepared& p, int reps) {
    McmReport r;
    r.name = p.label;
    r.nodes = p.matrix_graph.node_count();
    r.edges = p.matrix_graph.edge_count();
    r.reduced_nodes = p.reduced_graph.node_count();
    r.reduced_edges = p.reduced_graph.edge_count();
    r.bit_identical = same_metric(max_cycle_mean_karp(p.matrix_graph),
                                  max_cycle_mean(p.matrix_graph));
    r.karp = sdfbench::measure_ms(reps, [&] {
        benchmark::DoNotOptimize(max_cycle_mean_karp(p.matrix_graph));
    });
    r.howard_mean = sdfbench::measure_ms(reps, [&] {
        benchmark::DoNotOptimize(max_cycle_mean(p.matrix_graph));
    });
    r.howard_ratio = sdfbench::measure_ms(reps, [&] {
        benchmark::DoNotOptimize(max_cycle_ratio_exact(p.reduced_graph));
    });
    r.speedup = r.howard_mean.median_ms > 0 ? r.karp.median_ms / r.howard_mean.median_ms : 0;
    return r;
}

void write_json(const std::string& path, const std::vector<McmReport>& reports,
                int reps) {
    std::ofstream out(path);
    out << "{\n";
    out << "  \"bench\": \"bench_mcm_algorithms\",\n";
    out << "  \"machine\": " << sdfbench::machine_json() << ",\n";
    out << "  \"reps\": " << reps << ",\n";
    out << "  \"models\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const McmReport& r = reports[i];
        out << "    {\n";
        out << "      \"name\": \"" << sdfbench::json_escape(r.name) << "\",\n";
        out << "      \"precedence_nodes\": " << r.nodes << ",\n";
        out << "      \"precedence_edges\": " << r.edges << ",\n";
        out << "      \"reduced_nodes\": " << r.reduced_nodes << ",\n";
        out << "      \"reduced_edges\": " << r.reduced_edges << ",\n";
        out << "      \"reference_karp_mean\": " << sdfbench::stats_json(r.karp) << ",\n";
        out << "      \"howard_mean\": " << sdfbench::stats_json(r.howard_mean) << ",\n";
        out << "      \"howard_ratio_reduced\": " << sdfbench::stats_json(r.howard_ratio)
            << ",\n";
        out << "      \"speedup_howard_vs_karp\": " << sdfbench::json_num(r.speedup) << ",\n";
        out << "      \"bit_identical\": " << (r.bit_identical ? "true" : "false") << "\n";
        out << "    }" << (i + 1 < reports.size() ? ",\n" : "\n");
    }
    out << "  ]\n";
    out << "}\n";
    std::printf("wrote %s\n", path.c_str());
}

void BM_KarpReference(benchmark::State& state) {
    const auto prepared = prepare();
    const Prepared& p = prepared[static_cast<std::size_t>(state.range(0))];
    for (auto _ : state) {
        benchmark::DoNotOptimize(max_cycle_mean_karp(p.matrix_graph));
    }
    state.SetLabel(p.label);
}

void BM_HowardMean(benchmark::State& state) {
    const auto prepared = prepare();
    const Prepared& p = prepared[static_cast<std::size_t>(state.range(0))];
    for (auto _ : state) {
        benchmark::DoNotOptimize(max_cycle_mean(p.matrix_graph));
    }
    state.SetLabel(p.label);
}

void BM_HowardRatio(benchmark::State& state) {
    const auto prepared = prepare();
    const Prepared& p = prepared[static_cast<std::size_t>(state.range(0))];
    for (auto _ : state) {
        benchmark::DoNotOptimize(max_cycle_ratio_exact(p.reduced_graph));
    }
    state.SetLabel(p.label);
}

BENCHMARK(BM_KarpReference)->DenseRange(0, 8);
BENCHMARK(BM_HowardMean)->DenseRange(0, 8);
BENCHMARK(BM_HowardRatio)->DenseRange(0, 8);

}  // namespace

int main(int argc, char** argv) {
    const std::string json_path = sdfbench::consume_flag(argc, argv, "--json", "");
    const int reps = std::max(1, std::atoi(
        sdfbench::consume_flag(argc, argv, "--reps", "5").c_str()));

    const std::vector<Prepared> prepared = prepare();
    print_agreement(prepared);

    if (!json_path.empty()) {
        std::vector<McmReport> reports;
        for (const Prepared& p : prepared) {
            reports.push_back(measure(p, reps));
        }
        write_json(json_path, reports, reps);
        return 0;
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
