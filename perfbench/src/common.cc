#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

struct MetricSpec
{
    const char *name;
    const char *unit;
};

// Mirrors BENCHMARK.json's "end_to_end" list; run.py checks that the
// printed names equal the file's.
const MetricSpec kEndToEnd[] = {
    {"compile_s", "s"},
    {"cx_total", "count"},
    {"depth_total", "count"},
    {"cx_reduction_pct", "%"},
    {"cx_add_reduction_pct", "%"},
    {"requests_per_s", "1/s"},
    {"request_ms_p50", "ms"},
    {"request_ms_p99", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Mirrors BENCHMARK.json's "per_layer" list.  A layer a workload does
// not exercise reports 0.
const MetricSpec kPerLayer[] = {
    {"passes.lower_ms", "ms"},
    {"passes.pre_opt_ms", "ms"},
    {"passes.swap_expand_ms", "ms"},
    {"passes.basis_ms", "ms"},
    {"passes.opt_loop_ms", "ms"},
    {"passes.opt_loop.optimize_1q_ms", "ms"},
    {"passes.opt_loop.cancel_ms", "ms"},
    {"passes.opt_loop.consolidate_ms", "ms"},
    {"passes.opt_loop.basis_ms", "ms"},
    {"passes.opt_loop.rounds", "count"},
    {"passes.opt_loop.useful_round_ratio", "ratio"},
    {"passes.consolidate.blocks_considered", "count"},
    {"passes.consolidate.blocks_replaced", "count"},
    {"passes.consolidate.replace_ratio", "ratio"},
    {"passes.cancel.gates_removed", "count"},
    {"passes.optimize_1q.gates_removed", "count"},
    {"passes.swaps_expanded", "count"},
    {"route.layout_ms", "ms"},
    {"route.route_ms", "ms"},
    {"route.swaps", "count"},
    {"route.flagged_swaps", "count"},
    {"route.c2q_hits", "count"},
    {"route.commute1_hits", "count"},
    {"route.commute2_hits", "count"},
    {"route.forced_moves", "count"},
    {"route.full_passes", "count"},
    {"topo.distance_resolve_ms", "ms"},
    {"topo.rows_computed", "count"},
    {"topo.row_hits", "count"},
    {"topo.peak_distance_bytes", "bytes"},
    {"topo.row_compute_ms", "ms"},
    {"service.hit_ratio", "ratio"},
    {"service.coalesced", "count"},
    {"service.transpiles", "count"},
    {"service.failed", "count"},
    {"serve.hit_ms_p50", "ms"},
    {"serve.hit_ms_p99", "ms"},
    {"serve.miss_ms_p50", "ms"},
    {"serve.miss_ms_p99", "ms"},
    {"serve.request_bytes_mean", "bytes"},
    {"serve.response_bytes_mean", "bytes"},
    {"ir.qasm_parse_ms", "ms"},
    {"ir.qasm_emit_ms", "ms"},
    {"ir.fingerprint_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.replica_ms", "ms"},
    {"trace.stage_coverage_pct", "%"},
    {"check.verified", "count"},
    {"check.unverifiable", "count"},
};

std::string
format_number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    return 0.0;
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

int
check_threads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 4u));
}

std::vector<std::string>
parallel_for(std::size_t n, int threads,
             const std::function<void(std::size_t)> &fn)
{
    std::vector<std::string> errors(n);
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (const std::exception &e) {
                errors[i] = e.what();
                if (errors[i].empty())
                    errors[i] = "exception";
            }
        }
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
    return errors;
}

Report::Report(bool trace) : trace_(trace) {}

void
Report::set(const std::string &name, double value)
{
    values_[name] = value;
}

void
Report::fail(const std::string &what)
{
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

bool
Report::print() const
{
    bool correct = failed_ == 0 && attempted_ > 0;
    std::string metrics;
    auto emit = [&](const MetricSpec &spec, double value) {
        if (!std::isfinite(value)) {
            std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                         spec.name);
            correct = false;
            value = 0.0;
        }
        std::printf("%-40s %20.6f %s\n", spec.name, value, spec.unit);
        if (!metrics.empty())
            metrics += ", ";
        metrics += "\"" + std::string(spec.name) + "\": {\"value\": " +
                   format_number(value) + ", \"unit\": \"" + spec.unit +
                   "\"}";
    };
    if (trace_) {
        for (const MetricSpec &spec : kPerLayer) {
            auto it = values_.find(spec.name);
            emit(spec, it == values_.end() ? 0.0 : it->second);
        }
    } else {
        for (const MetricSpec &spec : kEndToEnd) {
            auto it = values_.find(spec.name);
            if (it == values_.end()) {
                std::fprintf(stderr, "perfbench: metric %s was not set\n",
                             spec.name);
                correct = false;
                emit(spec, 0.0);
            } else {
                emit(spec, it->second);
            }
        }
    }
    const double failed_pct =
        attempted_ > 0 ? 100.0 * static_cast<double>(failed_) /
                             static_cast<double>(attempted_)
                       : 0.0;
    std::printf("%-40s %20.6f %s\n", "failed_pct", failed_pct, "%");
    std::printf("correct: %s (%ld attempted, %ld failed)\n",
                correct ? "yes" : "NO", attempted_, failed_);
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", std::max(attempted_, 1L),
                failed_, metrics.c_str());
    std::fflush(stdout);
    return correct;
}

} // namespace perfbench
