// bench_table1 — reproduces Table 1 and Figure 6 of the paper:
// "HSDF Transformations Compared" on the 8 SDF3 benchmark applications.
//
// Prints the table rows (test case, traditional-conversion actors, new-
// conversion actors, ratio) next to the paper's published numbers, then the
// Figure 6 series (the same data as the log-scale bar chart), and finally
// times both conversions with google-benchmark (Section 7: "The run-time of
// the algorithms is a few milliseconds").
#include <benchmark/benchmark.h>

#include <cstdio>

#include "gen/benchmarks.hpp"
#include "transform/hsdf_classic.hpp"
#include "transform/hsdf_reduced.hpp"
#include "transform/symbolic.hpp"

namespace {

using namespace sdf;

void print_table1() {
    std::printf("Table 1: HSDF Transformations Compared\n");
    std::printf("%-26s | %12s | %10s | %7s || %12s | %10s | %7s\n", "test case",
                "traditional", "new conv.", "ratio", "paper trad.", "paper new",
                "p.ratio");
    std::printf("%-26s | %12s | %10s | %7s || %12s | %10s | %7s\n", "",
                "actors", "actors", "", "actors", "actors", "");
    std::printf("---------------------------+--------------+------------+---------"
                "++--------------+------------+--------\n");
    for (const BenchmarkCase& bench : table1_benchmarks()) {
        const ClassicHsdf classic = to_hsdf_classic(bench.graph);
        const Graph reduced = to_hsdf_reduced(bench.graph);
        const double ratio = static_cast<double>(classic.graph.actor_count()) /
                             static_cast<double>(reduced.actor_count());
        const double paper_ratio = static_cast<double>(bench.paper_traditional) /
                                   static_cast<double>(bench.paper_new);
        std::printf("%-26s | %12zu | %10zu | %7.2f || %12ld | %10ld | %7.2f\n",
                    bench.label.c_str(), classic.graph.actor_count(),
                    reduced.actor_count(), ratio,
                    static_cast<long>(bench.paper_traditional),
                    static_cast<long>(bench.paper_new), paper_ratio);
    }
    std::printf("\nFigure 6 series (number of actors, log scale in the paper):\n");
    std::printf("%-26s %14s %14s\n", "test case", "traditional", "new");
    for (const BenchmarkCase& bench : table1_benchmarks()) {
        const ClassicHsdf classic = to_hsdf_classic(bench.graph);
        const Graph reduced = to_hsdf_reduced(bench.graph);
        std::printf("%-26s %14zu %14zu\n", bench.label.c_str(),
                    classic.graph.actor_count(), reduced.actor_count());
    }
    std::printf("\n");
}

void BM_TraditionalConversion(benchmark::State& state) {
    const auto cases = table1_benchmarks();
    const BenchmarkCase& bench = cases[static_cast<std::size_t>(state.range(0))];
    for (auto _ : state) {
        benchmark::DoNotOptimize(to_hsdf_classic(bench.graph));
    }
    state.SetLabel(bench.label);
}

void BM_NewConversion(benchmark::State& state) {
    const auto cases = table1_benchmarks();
    const BenchmarkCase& bench = cases[static_cast<std::size_t>(state.range(0))];
    // Uncached: to_hsdf_reduced would reuse the graph's symbolic-iteration
    // slot after the first run.
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            reduced_hsdf_from_matrix(symbolic_iteration(bench.graph).matrix, "r"));
    }
    state.SetLabel(bench.label);
}

BENCHMARK(BM_TraditionalConversion)->DenseRange(0, 7);
BENCHMARK(BM_NewConversion)->DenseRange(0, 7);

}  // namespace

int main(int argc, char** argv) {
    print_table1();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
