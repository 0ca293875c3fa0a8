#ifndef PERFBENCH_REPLICA_H
#define PERFBENCH_REPLICA_H

/**
 * @file
 * A stage-by-stage replica of nassc::transpile() that times each call.
 *
 * traced_transpile() makes the same public calls, in the same order,
 * as src/nassc/transpile/transpile.cc, and records the wall time and
 * the returned work counts of each one from outside the library.  The
 * compile workloads compare its output fingerprint with transpile()'s
 * on every cell and fail the run on a mismatch, so a change that
 * reorders the pipeline has to update this file too.
 */

#include "nassc/route/sabre.h"
#include "nassc/service/distance_cache.h"
#include "nassc/transpile/transpile.h"

namespace perfbench {

/** Stage times (ms) and work counts summed over traced transpiles. */
struct PipelineTrace
{
    double wall_ms = 0;
    double lower_ms = 0;
    double pre_opt_ms = 0;
    double distance_resolve_ms = 0;
    double layout_ms = 0;
    double route_ms = 0;
    double swap_expand_ms = 0;
    double basis_ms = 0;
    double opt_loop_ms = 0;

    double loop_optimize_1q_ms = 0;
    double loop_cancel_ms = 0;
    double loop_consolidate_ms = 0;
    double loop_basis_ms = 0;

    long loop_rounds = 0;
    long loop_useful_rounds = 0; ///< rounds that lowered the CX count
    long blocks_considered = 0;  ///< over every consolidate_2q_blocks call
    long blocks_replaced = 0;
    long cancel_removed = 0;
    long optimize_1q_removed = 0; ///< over every run_optimize_1q call
    long swaps_expanded = 0;
    long full_passes = 0;
    nassc::RoutingStats routing;

    /** Sum of the named stage times; within a few % of wall_ms. */
    double stage_sum_ms() const;
};

nassc::TranspileResult traced_transpile(const nassc::QuantumCircuit &qc,
                                        const nassc::Backend &backend,
                                        const nassc::TranspileOptions &opts,
                                        nassc::DistanceCache &cache,
                                        PipelineTrace &trace);

} // namespace perfbench

#endif // PERFBENCH_REPLICA_H
