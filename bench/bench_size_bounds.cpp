// bench_size_bounds — validates the Section 6 size claims: the reduced
// HSDF has at most N(N+2) actors, N(2N+1) edges and N initial tokens,
// where N is the number of initial tokens of the source graph, and "in
// practice this matrix is often quite sparse".  Prints the bound versus the
// measured sizes for the benchmark suite and for random graphs of growing
// token count, then times the construction as a function of N.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <random>

#include "gen/benchmarks.hpp"
#include "gen/random_sdf.hpp"
#include "transform/hsdf_reduced.hpp"
#include "transform/symbolic.hpp"

namespace {

using namespace sdf;

void print_row(const char* label, const Graph& g) {
    const SymbolicIteration it = symbolic_iteration(g);
    const Int n = static_cast<Int>(it.tokens.size());
    const Graph reduced = reduced_hsdf_from_matrix(it.matrix, "r");
    std::printf("%-26s %4ld %8zu %10ld %8zu %10ld %8zu %9.1f%%\n", label,
                static_cast<long>(n), reduced.actor_count(),
                static_cast<long>(n * (n + 2)), reduced.channel_count(),
                static_cast<long>(n * (2 * n + 1)),
                it.matrix.finite_entry_count(),
                n == 0 ? 0.0
                       : 100.0 * static_cast<double>(it.matrix.finite_entry_count()) /
                             (static_cast<double>(n) * static_cast<double>(n)));
}

void print_bounds() {
    std::printf("Section 6 size bounds: actors <= N(N+2), edges <= N(2N+1)\n");
    std::printf("%-26s %4s %8s %10s %8s %10s %8s %10s\n", "graph", "N", "actors",
                "bound", "edges", "bound", "nnz", "density");
    for (const BenchmarkCase& bench : table1_benchmarks()) {
        print_row(bench.label.c_str(), bench.graph);
    }
    std::mt19937 rng(2009);
    for (const Int actors : {6, 10, 14}) {
        RandomSdfOptions options;
        options.min_actors = actors;
        options.max_actors = actors;
        const Graph g = random_sdf(rng, options);
        const std::string label = "random (" + std::to_string(actors) + " actors)";
        print_row(label.c_str(), g);
    }
    std::printf("\n");
}

void BM_ReducedConstructionByTokenCount(benchmark::State& state) {
    // A ring of k actors with one token each: N = k, tridiagonal-ish matrix.
    const Int k = state.range(0);
    Graph g;
    std::vector<ActorId> ids;
    for (Int i = 0; i < k; ++i) {
        ids.push_back(g.add_actor("a" + std::to_string(i), 3));
    }
    for (Int i = 0; i < k; ++i) {
        g.add_channel(ids[static_cast<std::size_t>(i)],
                      ids[static_cast<std::size_t>((i + 1) % k)], 1);
    }
    // Uncached: to_hsdf_reduced would reuse g's symbolic-iteration slot.
    for (auto _ : state) {
        benchmark::DoNotOptimize(reduced_hsdf_from_matrix(symbolic_iteration(g).matrix, "r"));
    }
    state.SetComplexityN(k);
}

BENCHMARK(BM_ReducedConstructionByTokenCount)
    ->RangeMultiplier(2)
    ->Range(4, 256)
    ->Complexity();

}  // namespace

int main(int argc, char** argv) {
    print_bounds();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
