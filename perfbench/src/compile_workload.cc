// The compile workloads: table1_montreal and heavy_hex_scale.
//
// A run sets the inputs up three times (setup_s is the median), then
// transpiles the workload's cells one at a time, in one thread, through
// TranspileContext::transpile, pass after pass until --seconds have
// gone by (at least kMinPasses whole passes).  Pass p runs each cell on its
// circuit's quality seed p mod count, so later passes also average the
// timing over layout seeds.  Everything else happens after the timed
// window: the quality seeds no pass reached, and the checks.
//
// With --trace 1, passes at the run seed alternate with passes of the
// stage-by-stage replica (replica.h), whose output must match
// transpile()'s bit for bit on every cell.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "replica.h"
#include "workloads.h"
#include "nassc/circuits/library.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/sim/verify.h"
#include "nassc/transpile/context.h"

namespace perfbench {

using namespace nassc;

namespace {

/** Largest active-wire count verify_transpilation accepts. */
constexpr std::size_t kMaxVerifyWires = 20;

/**
 * Whole passes a timed window runs at least, whatever --seconds says.
 * A cell's time varies by ~15% from one layout seed to the next, so
 * every cell is timed on at least two seeds.
 */
constexpr int kMinPasses = 2;

struct Cell
{
    std::size_t circuit = 0;
    std::size_t backend = 0;
    RoutingAlgorithm router = RoutingAlgorithm::kSabre;
    std::string name;
};

struct CompileInputs
{
    std::vector<BenchmarkCase> circuits;
    std::vector<Backend> backends;
    std::vector<Cell> cells;
    /** optimize_only() CX per circuit: the paper's CNOT_add baseline.
     *  Empty on workloads the paper's metrics do not apply to. */
    std::vector<int> baseline_cx;
    /** Layout seeds each circuit's CX and depth are averaged over. */
    std::vector<int> quality_seeds;
    /** A one-shot compile against a large device pays for its
     *  distance rows every time: each pass gets a fresh cache. */
    bool fresh_cache_per_pass = false;
};

const char *
router_name(RoutingAlgorithm r)
{
    return r == RoutingAlgorithm::kNassc ? "nassc" : "sabre";
}

void
add_cells(CompileInputs &in)
{
    for (std::size_t b = 0; b < in.backends.size(); ++b)
        for (std::size_t c = 0; c < in.circuits.size(); ++c)
            for (RoutingAlgorithm r :
                 {RoutingAlgorithm::kSabre, RoutingAlgorithm::kNassc}) {
                Cell cell;
                cell.circuit = c;
                cell.backend = b;
                cell.router = r;
                cell.name = in.circuits[c].name + "/" + router_name(r);
                if (in.backends.size() > 1)
                    cell.name += "@" + in.backends[b].name;
                in.cells.push_back(std::move(cell));
            }
}

CompileInputs
table1_inputs(bool quick)
{
    CompileInputs in;
    in.circuits = table_benchmarks();
    if (quick)
        in.circuits.resize(2);
    in.backends.push_back(montreal_backend());
    add_cells(in);
    for (const BenchmarkCase &bc : in.circuits) {
        const int base = optimize_only(bc.circuit).cx_total;
        in.baseline_cx.push_back(base);
        // The NASSC/SABRE CX ratio of one layout seed varies by about
        // 1.5% on the four large circuits (sqn_258, rd84_253, co14_215,
        // sym9_193) but by 4-20% on the small ones, which are also the
        // cheap ones: the smaller the circuit, the more seeds it gets.
        in.quality_seeds.push_back(quick         ? 2
                                   : base < 250  ? 32
                                   : base < 2000 ? 8
                                                 : kMinPasses);
    }
    return in;
}

CompileInputs
heavy_hex_inputs(bool quick)
{
    CompileInputs in;
    in.circuits.push_back({"ghz_n24", ghz(24)});
    in.circuits.push_back({"qft_n16", qft(16)});
    in.backends.push_back(heavy_hex_backend(21));
    if (!quick)
        in.backends.push_back(heavy_hex_backend(41));
    add_cells(in);
    // Four seeds: what the timed passes reach in 10-15 s, so no
    // heavy-hex transpile is left for after the window.
    in.quality_seeds.assign(in.circuits.size(), quick ? 2 : 4);
    in.fresh_cache_per_pass = true;
    return in;
}

CompileInputs
make_inputs(const Args &args)
{
    return args.workload == "table1_montreal" ? table1_inputs(args.quick)
                                              : heavy_hex_inputs(args.quick);
}

/** Seed j of a run: j = 0 is the run seed itself. */
unsigned
layout_seed(unsigned run_seed, int j)
{
    if (j == 0)
        return run_seed;
    return static_cast<unsigned>(
        mix64((static_cast<std::uint64_t>(run_seed) << 16) |
              static_cast<std::uint64_t>(j)));
}

TranspileOptions
cell_options(const Cell &cell, unsigned seed)
{
    TranspileOptions opts; // default options: the paper's settings
    opts.router = cell.router;
    opts.seed = seed;
    return opts;
}

std::unique_ptr<TranspileContext>
fresh_context()
{
    TranspileContext::Config config;
    config.distances = std::make_shared<DistanceCache>();
    return std::make_unique<TranspileContext>(config);
}

std::size_t
active_wires(const TranspileResult &res)
{
    std::vector<bool> seen(res.circuit.num_qubits(), false);
    std::size_t n = 0;
    auto touch = [&](int p) {
        if (p >= 0 && p < static_cast<int>(seen.size()) && !seen[p]) {
            seen[p] = true;
            ++n;
        }
    };
    for (int p : res.initial_l2p)
        touch(p);
    for (int p : res.final_l2p)
        touch(p);
    for (const Gate &g : res.circuit.gates())
        for (int q : g.qubits)
            touch(q);
    return n;
}

/** Cheap output check: basis gates only, on the device's couplings. */
bool
structurally_valid(const TranspileResult &res, const Backend &backend)
{
    if (res.circuit.num_qubits() != backend.coupling.num_qubits() ||
        !is_basis_circuit(res.circuit))
        return false;
    for (const Gate &g : res.circuit.gates())
        if (g.qubits.size() == 2 &&
            !backend.coupling.connected(g.qubits[0], g.qubits[1]))
            return false;
    return res.cx_total == res.circuit.cx_count();
}

/** What a run keeps of one (cell, layout seed) output. */
struct SeedOutput
{
    bool have = false;
    std::uint64_t fingerprint = 0;
    double cx = 0.0;
    double depth = 0.0;
};

struct Outputs
{
    /** The run seed's output per cell, for the unitary check. */
    std::vector<TranspileResult> first;
    /** [cell][j] for the cell's quality seeds j. */
    std::vector<std::vector<SeedOutput>> seeds;
    std::vector<std::vector<double>> samples_ms;

    explicit Outputs(const CompileInputs &in)
        : first(in.cells.size()), seeds(in.cells.size()),
          samples_ms(in.cells.size())
    {
        for (std::size_t c = 0; c < in.cells.size(); ++c)
            seeds[c].resize(in.quality_seeds[in.cells[c].circuit]);
    }
};

/**
 * Keep what the run needs of `res`, the output of cell c on quality
 * seed j; returns false if the output is not structurally valid.  A
 * repeat must reproduce the first output of (c, j) exactly.
 */
bool
record(const CompileInputs &in, std::size_t c, int j, TranspileResult &&res,
       Outputs &out, Report *report)
{
    const Cell &cell = in.cells[c];
    SeedOutput &slot = out.seeds[c][j];
    const std::uint64_t fp = res.circuit.fingerprint();
    if (slot.have) {
        if (fp != slot.fingerprint && report)
            report->fail(cell.name + ": output differs between passes");
        return true;
    }
    if (!structurally_valid(res, in.backends[cell.backend]))
        return false;
    slot.have = true;
    slot.fingerprint = fp;
    slot.cx = res.cx_total;
    slot.depth = res.depth;
    if (j == 0)
        out.first[c] = std::move(res);
    return true;
}

/** One untraced, timed transpile of cell c on quality seed j. */
void
timed_cell(const CompileInputs &in, std::size_t c, int j, unsigned run_seed,
           const TranspileContext &ctx, Outputs &out, Report &report)
{
    const Cell &cell = in.cells[c];
    report.attempt();
    try {
        const auto t0 = Clock::now();
        TranspileResult res = ctx.transpile(
            in.circuits[cell.circuit].circuit, in.backends[cell.backend],
            cell_options(cell, layout_seed(run_seed, j)));
        out.samples_ms[c].push_back(ms_between(t0, Clock::now()));
        if (!record(in, c, j, std::move(res), out, &report))
            report.fail(cell.name + ": output uses a non-basis gate or an "
                                    "uncoupled pair");
    } catch (const std::exception &e) {
        report.fail(cell.name + ": transpile threw: " + e.what());
    }
}

/**
 * Everything after the timed window, on all cores: the unitary check
 * of every run-seed output with <= 20 active wires (longest first, so
 * the slowest check does not start last), then the quality seeds the
 * timed passes did not reach.
 */
void
untimed_work(const CompileInputs &in, unsigned run_seed, Outputs &out,
             Report &report)
{
    struct Job
    {
        std::size_t cell;
        int j; ///< 0 = verify the run seed's output; > 0 = quality seed j
    };
    std::vector<Job> jobs;
    std::vector<double> cost(in.cells.size(), 0.0);
    long unverifiable = 0;
    for (std::size_t c = 0; c < in.cells.size(); ++c) {
        if (!out.seeds[c][0].have)
            continue;
        const std::size_t wires = active_wires(out.first[c]);
        if (wires > kMaxVerifyWires) {
            ++unverifiable;
            continue;
        }
        cost[c] = std::ldexp(static_cast<double>(out.first[c].circuit.size()),
                             static_cast<int>(wires));
        jobs.push_back({c, 0});
    }
    std::sort(jobs.begin(), jobs.end(), [&](const Job &a, const Job &b) {
        return cost[a.cell] > cost[b.cell];
    });
    const std::size_t verify_jobs = jobs.size();
    for (std::size_t c = 0; c < in.cells.size(); ++c)
        for (std::size_t j = 1; j < out.seeds[c].size(); ++j)
            if (!out.seeds[c][j].have)
                jobs.push_back({c, static_cast<int>(j)});
    report.attempt(static_cast<long>(jobs.size() - verify_jobs));

    std::unique_ptr<TranspileContext> ctx = fresh_context();
    std::vector<char> ok(jobs.size(), 0);
    const std::vector<std::string> errors =
        parallel_for(jobs.size(), check_threads(), [&](std::size_t i) {
            const Cell &cell = in.cells[jobs[i].cell];
            const QuantumCircuit &logical = in.circuits[cell.circuit].circuit;
            if (jobs[i].j == 0) {
                ok[i] = verify_transpilation(logical, out.first[jobs[i].cell],
                                             /*num_states=*/1);
                return;
            }
            // Each job owns its (cell, j) slot, so no lock is needed.
            ok[i] = record(in, jobs[i].cell, jobs[i].j,
                           ctx->transpile(logical, in.backends[cell.backend],
                                          cell_options(cell,
                                                       layout_seed(run_seed,
                                                                   jobs[i].j))),
                           out, nullptr);
        });

    long verified = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        std::string name = in.cells[jobs[i].cell].name;
        if (jobs[i].j > 0)
            name += " seed#" + std::to_string(jobs[i].j);
        if (!errors[i].empty())
            report.fail(name + ": threw: " + errors[i]);
        else if (!ok[i])
            report.fail(name + (jobs[i].j == 0
                                    ? ": output is not equivalent to the input"
                                    : ": output uses a non-basis gate or an "
                                      "uncoupled pair"));
        else if (jobs[i].j == 0)
            ++verified;
    }
    report.set("check.verified", verified);
    report.set("check.unverifiable", unverifiable);
    std::printf("verified %ld output(s), %ld unverifiable (> %zu active "
                "wires)\n",
                verified, unverifiable, kMaxVerifyWires);
}

/** A cell's CX (or depth) averaged over its quality seeds. */
double
seed_mean(const std::vector<SeedOutput> &seeds, double SeedOutput::*field)
{
    double s = 0.0;
    for (const SeedOutput &o : seeds)
        s += o.*field;
    return seeds.empty() ? 0.0 : s / static_cast<double>(seeds.size());
}

/** The paper's DeltaCNOT_total and DeltaCNOT_add (geomeans, in %). */
void
paper_metrics(const CompileInputs &in, const Outputs &out, Report &report)
{
    double log_total = 0.0, log_add = 0.0;
    int n_total = 0, n_add = 0;
    for (std::size_t i = 0; i < in.circuits.size(); ++i) {
        double sabre = 0.0, nassc = 0.0;
        for (std::size_t c = 0; c < in.cells.size(); ++c) {
            if (in.cells[c].circuit != i)
                continue;
            (in.cells[c].router == RoutingAlgorithm::kNassc ? nassc : sabre) =
                seed_mean(out.seeds[c], &SeedOutput::cx);
        }
        // Degenerate cells are skipped, as in bench/bench_common.h.
        if (sabre > 0.0 && nassc > 0.0) {
            log_total += std::log(nassc / sabre);
            ++n_total;
        }
        const double base = in.baseline_cx[i];
        if (sabre - base > 0.0 && nassc - base > 0.0) {
            log_add += std::log((nassc - base) / (sabre - base));
            ++n_add;
        }
    }
    report.set("cx_reduction_pct",
               n_total ? 100.0 * (1.0 - std::exp(log_total / n_total)) : 0.0);
    report.set("cx_add_reduction_pct",
               n_add ? 100.0 * (1.0 - std::exp(log_add / n_add)) : 0.0);
}

/** Untraced run: the end-to-end metrics. */
void
run_untraced(const Args &args, const CompileInputs &in, Report &report)
{
    Outputs out(in);
    std::unique_ptr<TranspileContext> ctx = fresh_context();
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds));
    int passes = 0;
    for (bool done = false; !done; ++passes) {
        if (in.fresh_cache_per_pass && passes > 0)
            ctx = fresh_context();
        for (std::size_t c = 0; c < in.cells.size(); ++c) {
            if (passes >= kMinPasses && Clock::now() >= deadline) {
                done = true;
                break;
            }
            // Pass p times each cell on its quality seed p mod count,
            // so the timing averages over layout seeds as well.
            const int j = passes % static_cast<int>(out.seeds[c].size());
            timed_cell(in, c, j, args.seed, *ctx, out, report);
        }
        done = done || (passes + 1 >= kMinPasses && Clock::now() >= deadline);
    }
    const double window_s = seconds_between(start, Clock::now());
    report.set("peak_rss_mb", peak_rss_mb());
    std::printf("pass times (s):");
    for (int p = 0; p < passes; ++p) {
        double sum = 0.0;
        std::size_t cells = 0;
        for (const std::vector<double> &samples : out.samples_ms)
            if (static_cast<int>(samples.size()) > p) {
                sum += samples[p];
                ++cells;
            }
        std::printf(" %.3f%s", sum / 1000.0,
                    cells < in.cells.size() ? " (partial)" : "");
    }
    std::printf("\n");

    std::vector<double> cell_ms;
    double pass_ms = 0.0;
    for (std::size_t c = 0; c < in.cells.size(); ++c) {
        const double m = median(out.samples_ms[c]);
        cell_ms.push_back(m);
        pass_ms += m;
    }
    report.set("compile_s", pass_ms / 1000.0);
    report.set("requests_per_s",
               pass_ms > 0.0 ? 1000.0 * in.cells.size() / pass_ms : 0.0);
    report.set("request_ms_p50", quantile(cell_ms, 0.50));
    report.set("request_ms_p99", quantile(cell_ms, 0.99));
    std::printf("timed window: %.2f s, %d pass(es) started over %zu cells\n",
                window_s, passes, in.cells.size());

    const auto u0 = Clock::now();
    untimed_work(in, args.seed, out, report);
    std::printf("checks and quality samples: %.2f s\n",
                seconds_between(u0, Clock::now()));
    double cx_total = 0.0, depth_total = 0.0;
    for (std::size_t c = 0; c < in.cells.size(); ++c) {
        cx_total += seed_mean(out.seeds[c], &SeedOutput::cx);
        depth_total += seed_mean(out.seeds[c], &SeedOutput::depth);
    }
    report.set("cx_total", cx_total);
    report.set("depth_total", depth_total);
    if (!in.baseline_cx.empty()) {
        paper_metrics(in, out, report);
    } else {
        report.set("cx_reduction_pct", kNotApplicable);
        report.set("cx_add_reduction_pct", kNotApplicable);
    }
}

/** Traced run: each cell untraced and through the replica, adjacent. */
void
run_traced(const Args &args, const CompileInputs &in, Report &report)
{
    Outputs out(in);
    std::unique_ptr<TranspileContext> ctx = fresh_context();
    PipelineTrace total, warm;
    DistanceCache::Stats dist_stats;
    int rounds = 0;
    const auto start = Clock::now();
    do {
        // The replica runs cold against its own fresh cache where the
        // workload uses one per pass, else on the run's warm cache.
        std::unique_ptr<TranspileContext> replica_ctx;
        if (in.fresh_cache_per_pass) {
            if (rounds > 0)
                ctx = fresh_context();
            replica_ctx = fresh_context();
        }
        DistanceCache &cache =
            replica_ctx ? replica_ctx->distances() : ctx->distances();
        for (std::size_t c = 0; c < in.cells.size(); ++c) {
            const Cell &cell = in.cells[c];
            const QuantumCircuit &logical = in.circuits[cell.circuit].circuit;
            const TranspileOptions opts = cell_options(cell, args.seed);
            // Untraced and traced runs of a cell are adjacent, in
            // alternating order, so both see the same machine state.
            const bool replica_first = (c + rounds) % 2 == 1;
            if (!replica_first)
                timed_cell(in, c, 0, args.seed, *ctx, out, report);
            report.attempt();
            const DistanceCache::Stats before = cache.stats();
            const std::uint64_t fp =
                traced_transpile(logical, in.backends[cell.backend], opts,
                                 cache, total)
                    .circuit.fingerprint();
            const DistanceCache::Stats after = cache.stats();
            dist_stats.rows_computed +=
                after.rows_computed - before.rows_computed;
            dist_stats.row_hits += after.row_hits - before.row_hits;
            dist_stats.row_bytes_peak =
                std::max(dist_stats.row_bytes_peak, after.row_bytes_peak);
            if (replica_first)
                timed_cell(in, c, 0, args.seed, *ctx, out, report);
            if (!out.seeds[c][0].have || fp != out.seeds[c][0].fingerprint)
                report.fail(cell.name + ": replica output differs from "
                                        "transpile() -- update replica.cc");
            // The same cell again on the now-warm cache: the difference
            // in layout and routing time is what computing rows cost.
            if (replica_ctx)
                traced_transpile(logical, in.backends[cell.backend], opts,
                                 cache, warm);
        }
        ++rounds;
    } while (seconds_between(start, Clock::now()) < args.seconds);

    const double n = rounds;
    double untraced_ms = 0.0;
    for (const std::vector<double> &samples : out.samples_ms)
        for (double ms : samples)
            untraced_ms += ms;
    report.set("passes.lower_ms", total.lower_ms / n);
    report.set("passes.pre_opt_ms", total.pre_opt_ms / n);
    report.set("passes.swap_expand_ms", total.swap_expand_ms / n);
    report.set("passes.basis_ms", total.basis_ms / n);
    report.set("passes.opt_loop_ms", total.opt_loop_ms / n);
    report.set("passes.opt_loop.optimize_1q_ms", total.loop_optimize_1q_ms / n);
    report.set("passes.opt_loop.cancel_ms", total.loop_cancel_ms / n);
    report.set("passes.opt_loop.consolidate_ms", total.loop_consolidate_ms / n);
    report.set("passes.opt_loop.basis_ms", total.loop_basis_ms / n);
    report.set("passes.opt_loop.rounds", total.loop_rounds / n);
    report.set("passes.opt_loop.useful_round_ratio",
               total.loop_rounds ? static_cast<double>(total.loop_useful_rounds) /
                                       total.loop_rounds
                                 : 0.0);
    report.set("passes.consolidate.blocks_considered",
               total.blocks_considered / n);
    report.set("passes.consolidate.blocks_replaced", total.blocks_replaced / n);
    report.set("passes.consolidate.replace_ratio",
               total.blocks_considered
                   ? static_cast<double>(total.blocks_replaced) /
                         total.blocks_considered
                   : 0.0);
    report.set("passes.cancel.gates_removed", total.cancel_removed / n);
    report.set("passes.optimize_1q.gates_removed",
               total.optimize_1q_removed / n);
    report.set("passes.swaps_expanded", total.swaps_expanded / n);
    report.set("route.layout_ms", total.layout_ms / n);
    report.set("route.route_ms", total.route_ms / n);
    report.set("route.swaps", total.routing.num_swaps / n);
    report.set("route.flagged_swaps", total.routing.flagged_swaps / n);
    report.set("route.c2q_hits", total.routing.c2q_hits / n);
    report.set("route.commute1_hits", total.routing.commute1_hits / n);
    report.set("route.commute2_hits", total.routing.commute2_hits / n);
    report.set("route.forced_moves", total.routing.forced_moves / n);
    report.set("route.full_passes", total.full_passes / n);
    report.set("topo.distance_resolve_ms", total.distance_resolve_ms / n);
    report.set("topo.rows_computed", dist_stats.rows_computed / n);
    report.set("topo.row_hits", dist_stats.row_hits / n);
    report.set("topo.peak_distance_bytes",
               static_cast<double>(dist_stats.row_bytes_peak));
    report.set("topo.row_compute_ms",
               in.fresh_cache_per_pass
                   ? (total.layout_ms + total.route_ms - warm.layout_ms -
                      warm.route_ms) /
                         n
                   : 0.0);
    report.set("trace.replica_ms", total.wall_ms / n);
    report.set("trace.stage_coverage_pct",
               total.wall_ms > 0.0
                   ? 100.0 * total.stage_sum_ms() / total.wall_ms
                   : 0.0);
    report.set("trace.overhead_pct",
               untraced_ms > 0.0 ? 100.0 * (total.wall_ms / untraced_ms - 1.0)
                                 : 0.0);
    std::printf("traced: %d round(s) of one untraced and one replica pass; "
                "replica %.1f ms/pass, untraced %.1f ms/pass\n",
                rounds, total.wall_ms / n, untraced_ms / n);

    // The traced run checks the run seed's outputs only.
    for (std::vector<SeedOutput> &seeds : out.seeds)
        seeds.resize(1);
    untimed_work(in, args.seed, out, report);
}

} // namespace

void
run_compile_workload(const Args &args, Report &report)
{
    std::vector<double> setup_s;
    CompileInputs in;
    for (int i = 0; i < 3; ++i) {
        const auto t0 = Clock::now();
        in = make_inputs(args);
        setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    report.set("setup_s", median(setup_s));
    std::printf("%s: %zu cells, seed %u, %.0f s\n", args.workload.c_str(),
                in.cells.size(), args.seed, args.seconds);

    if (args.trace)
        run_traced(args, in, report);
    else
        run_untraced(args, in, report);
}

} // namespace perfbench
