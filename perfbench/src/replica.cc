#include "replica.h"

#include <optional>

#include "common.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/passes/cancellation.h"
#include "nassc/passes/collect_blocks.h"
#include "nassc/passes/decompose_swaps.h"
#include "nassc/passes/optimize_1q.h"
#include "nassc/route/layout_search.h"
#include "nassc/service/scheduler.h"

namespace perfbench {

using namespace nassc;

double
PipelineTrace::stage_sum_ms() const
{
    return lower_ms + pre_opt_ms + distance_resolve_ms + layout_ms +
           route_ms + swap_expand_ms + basis_ms + opt_loop_ms;
}

namespace {

void
add_routing_stats(RoutingStats &into, const RoutingStats &from)
{
    into.num_swaps += from.num_swaps;
    into.flagged_swaps += from.flagged_swaps;
    into.c2q_hits += from.c2q_hits;
    into.commute1_hits += from.commute1_hits;
    into.commute2_hits += from.commute2_hits;
    into.moved_1q += from.moved_1q;
    into.forced_moves += from.forced_moves;
}

void
count_consolidation(PipelineTrace &tr, const ConsolidateStats &s)
{
    tr.blocks_considered += s.blocks_considered;
    tr.blocks_replaced += s.blocks_replaced;
}

/** The post-routing optimization loop of transpile.cc, call by call. */
void
traced_optimization_loop(QuantumCircuit &qc, int rounds, PipelineTrace &tr)
{
    int last_size = -1;
    for (int r = 0; r < rounds; ++r) {
        const int cx_before = qc.cx_count();
        auto t = Clock::now();
        tr.optimize_1q_removed += run_optimize_1q(qc, Basis1q::kZsx);
        auto t1 = Clock::now();
        tr.loop_optimize_1q_ms += ms_between(t, t1);
        tr.cancel_removed += run_commutative_cancellation_to_fixpoint(qc);
        auto t2 = Clock::now();
        tr.loop_cancel_ms += ms_between(t1, t2);
        count_consolidation(tr, consolidate_2q_blocks(qc, Basis1q::kZsx));
        auto t3 = Clock::now();
        tr.loop_consolidate_ms += ms_between(t2, t3);
        qc = translate_to_basis(qc);
        auto t4 = Clock::now();
        tr.loop_basis_ms += ms_between(t3, t4);
        tr.optimize_1q_removed += run_optimize_1q(qc, Basis1q::kZsx);
        tr.loop_optimize_1q_ms += ms_between(t4, Clock::now());

        ++tr.loop_rounds;
        if (qc.cx_count() < cx_before)
            ++tr.loop_useful_rounds;
        int size = static_cast<int>(qc.size());
        if (size == last_size)
            break;
        last_size = size;
    }
}

} // namespace

TranspileResult
traced_transpile(const QuantumCircuit &qc, const Backend &backend,
                 const TranspileOptions &opts, DistanceCache &cache,
                 PipelineTrace &tr)
{
    const auto t0 = Clock::now();

    std::optional<Scheduler::DeadlineScope> budget;
    if (opts.deadline_ms > 0)
        budget.emplace(t0 + std::chrono::milliseconds(opts.deadline_ms));

    // 1. Lower to <= 2q gates.
    auto t = Clock::now();
    QuantumCircuit c = decompose_to_2q(qc);
    tr.lower_ms += ms_between(t, Clock::now());

    // 2. Pre-routing optimization.
    t = Clock::now();
    tr.optimize_1q_removed += run_optimize_1q(c, Basis1q::kUGate);
    count_consolidation(tr, consolidate_2q_blocks(c, Basis1q::kUGate));
    tr.pre_opt_ms += ms_between(t, Clock::now());

    // 3. Distances.
    t = Clock::now();
    DistanceRequest dreq = opts.noise_aware ? DistanceRequest::noise()
                                            : DistanceRequest::hops();
    if (backend.coupling.num_qubits() > opts.sparse_distance_threshold)
        dreq = dreq.as_sparse(opts.distance_row_budget_bytes);
    SharedDistanceProvider dist_shared = cache.provider(backend, dreq);
    const DistanceProvider &dist = *dist_shared;
    tr.distance_resolve_ms += ms_between(t, Clock::now());

    // 4. Initial layout.
    RoutingOptions ropts;
    ropts.algorithm = opts.router;
    ropts.extended_size = opts.extended_size;
    ropts.extended_weight = opts.extended_weight;
    ropts.enable_c2q = opts.enable_c2q;
    ropts.enable_commute1 = opts.enable_commute1;
    ropts.enable_commute2 = opts.enable_commute2;
    ropts.use_decay = opts.use_decay;
    ropts.seed = opts.seed;
    ropts.layout_trials = opts.layout_trials;
    ropts.layout_threads = opts.layout_threads;
    ropts.reuse_routing = opts.reuse_routing;
    ropts.region_radius = opts.region_radius;

    const auto tl0 = Clock::now();
    LayoutSearchResult search = search_and_route(
        c, backend.coupling, dist, ropts, opts.layout_iterations);
    const auto tl1 = Clock::now();
    tr.layout_ms += ms_between(tl0, tl1);

    // 5. Routing (skipped when the search's winning pass is reused).
    const bool reused = search.routed.has_value();
    RoutingResult routed =
        reused ? std::move(*search.routed)
               : route_circuit(c, backend.coupling, dist, search.initial,
                               ropts);
    QuantumCircuit phys = std::move(routed.circuit);
    tr.route_ms += ms_between(tl1, Clock::now());

    // 6. SWAP handling.
    t = Clock::now();
    if (opts.router == RoutingAlgorithm::kNassc) {
        count_consolidation(tr, consolidate_2q_blocks(phys, Basis1q::kUGate));
        tr.swaps_expanded +=
            decompose_swaps(phys, opts.orientation_aware_decomposition);
    } else {
        tr.swaps_expanded += decompose_swaps(phys, /*orientation_aware=*/false);
    }
    tr.swap_expand_ms += ms_between(t, Clock::now());

    // 7. Basis translation + optimization loop.
    t = Clock::now();
    phys = translate_to_basis(phys);
    auto tb = Clock::now();
    tr.basis_ms += ms_between(t, tb);
    traced_optimization_loop(phys, opts.opt_loop_rounds, tr);
    const auto t1 = Clock::now();
    tr.opt_loop_ms += ms_between(tb, t1);

    TranspileResult res;
    res.circuit = std::move(phys);
    res.initial_l2p = std::move(routed.initial_l2p);
    res.final_l2p = std::move(routed.final_l2p);
    res.routing_stats = routed.stats;
    res.cx_total = res.circuit.cx_count();
    res.depth = res.circuit.depth();
    res.seconds = seconds_between(t0, t1);
    res.layout_seconds = seconds_between(tl0, tl1);
    res.reused_search_route = reused;
    res.full_route_passes = search.scoring_passes + (reused ? 0 : 1);
    res.degraded = search.deadline_hit;
    res.layout_trials_consumed = search.trials_consumed;

    tr.full_passes += res.full_route_passes;
    add_routing_stats(tr.routing, res.routing_stats);
    tr.wall_ms += ms_between(t0, Clock::now());
    return res;
}

} // namespace perfbench
