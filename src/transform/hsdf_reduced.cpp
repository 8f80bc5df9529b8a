#include "transform/hsdf_reduced.hpp"

#include <vector>

#include "base/errors.hpp"
#include "transform/symbolic.hpp"

namespace sdf {

Graph reduced_hsdf_from_matrix(const MpSparseMatrix& matrix, const std::string& name,
                               const ReducedHsdfOptions& options) {
    require(matrix.rows() == matrix.cols(), "iteration matrix must be square");
    const std::size_t n = matrix.rows();
    const std::vector<std::size_t>& col_ptr = matrix.col_ptr();
    const std::vector<Int>& value = matrix.values();
    // Finite entries per row (fan-out of old token j), in column order;
    // column k's entries (fan-in of new token k) are CSC positions
    // col_ptr[k] .. col_ptr[k+1].
    const MpSparseMatrix::RowMajor rows = matrix.row_major();
    const auto row_size = [&](std::size_t j) { return rows.row_ptr[j + 1] - rows.row_ptr[j]; };
    const auto col_size = [&](std::size_t k) { return col_ptr[k + 1] - col_ptr[k]; };
    Graph graph(name);

    constexpr ActorId kNone = static_cast<ActorId>(-1);

    // Matrix actors, row-major; cell[e] is the actor of CSC entry e.
    std::vector<ActorId> cell(matrix.finite_entry_count(), kNone);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = rows.row_ptr[j]; i < rows.row_ptr[j + 1]; ++i) {
            const std::size_t e = rows.entry[i];
            cell[e] = graph.add_actor(
                "g_" + std::to_string(j) + "_" + std::to_string(rows.col[i]), value[e]);
        }
    }

    // Demux actor of row j: needed when more than one matrix actor reads
    // token j (or unconditionally when elision is off and the row is used).
    std::vector<ActorId> demux(n, kNone);
    for (std::size_t j = 0; j < n; ++j) {
        const bool needed =
            options.elide_single_client_muxes ? row_size(j) > 1 : row_size(j) > 0;
        if (needed) {
            demux[j] = graph.add_actor("dmx_" + std::to_string(j), 0);
            for (std::size_t i = rows.row_ptr[j]; i < rows.row_ptr[j + 1]; ++i) {
                graph.add_channel(demux[j], cell[rows.entry[i]], 0);
            }
        }
    }

    // Mux actor of column k: needed when more than one matrix actor must
    // synchronise to produce token k.
    std::vector<ActorId> producer(n, kNone);  // node that emits new token k
    for (std::size_t k = 0; k < n; ++k) {
        const bool needed =
            options.elide_single_client_muxes ? col_size(k) > 1 : col_size(k) > 0;
        if (needed) {
            producer[k] = graph.add_actor("mux_" + std::to_string(k), 0);
            for (std::size_t e = col_ptr[k]; e < col_ptr[k + 1]; ++e) {
                graph.add_channel(cell[e], producer[k], 0);
            }
        } else if (col_size(k) == 1) {
            producer[k] = cell[col_ptr[k]];
        } else if (row_size(k) > 0) {
            // Column k is all −∞: the new token depends on no initial token
            // and is available immediately each iteration.  A zero-time
            // actor recycling its own token models the unconstrained source
            // (only required when somebody consumes token k).
            producer[k] = graph.add_actor("src_" + std::to_string(k), 0);
            graph.add_channel(producer[k], producer[k], 1);
        }
    }

    // Token edges: one initial token per (used) initial token k, from the
    // producer of the new token k to the consumer side of the old token k.
    for (std::size_t k = 0; k < n; ++k) {
        if (producer[k] == kNone) {
            continue;
        }
        if (demux[k] != kNone) {
            graph.add_channel(producer[k], demux[k], 1);
        } else if (row_size(k) == 1) {
            graph.add_channel(producer[k], cell[rows.entry[rows.row_ptr[k]]], 1);
        }
        // Row k all −∞ and not a src_ self-loop: the token is reproduced
        // every iteration but constrains nothing; it can be dropped without
        // affecting any cycle.
    }
    return graph;
}

Graph to_hsdf_reduced(const Graph& graph, const ReducedHsdfOptions& options) {
    const auto iteration = graph.analyses()->get<SymbolicIterationAnalysis>(graph);
    return reduced_hsdf_from_matrix(iteration->matrix, graph.name() + "_rhsdf", options);
}

}  // namespace sdf
