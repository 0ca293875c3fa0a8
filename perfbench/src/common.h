#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

/**
 * @file
 * Shared pieces of the benchmark driver: arguments, the metric report
 * and its JSON line, timing and order statistics, and a small
 * fork-join helper for the checks that run outside the timed window.
 */

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Args
{
    std::string workload;
    unsigned seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Minimum-size inputs: used by run.py's self-check only. */
    bool quick = false;
};

/** Quantile with linear interpolation between order statistics. */
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/** The process's peak resident set size (VmHWM), in MiB. */
double peak_rss_mb();

/** splitmix64: the benchmark's only source of derived randomness. */
std::uint64_t mix64(std::uint64_t x);

/**
 * Run fn(i) for i in [0, n) on up to `threads` threads, claiming
 * indices in order; exceptions are caught per index and reported
 * through the returned vector (empty string = no error).
 */
std::vector<std::string> parallel_for(std::size_t n, int threads,
                                      const std::function<void(std::size_t)> &fn);

/** Worker threads for the untimed checks (the machine's cores, <= 4). */
int check_threads();

/**
 * One run's verdict and metrics.  Names and units come from the tables
 * in common.cc, which mirror BENCHMARK.json.  The untraced run must set
 * every end-to-end metric; a per-layer metric the traced run does not
 * set reports 0.
 */
class Report
{
  public:
    explicit Report(bool trace);

    void set(const std::string &name, double value);
    /** Record a failed operation, with a reason printed to stderr. */
    void fail(const std::string &what);
    /** Record attempted operations. */
    void attempt(long n = 1) { attempted_ += n; }

    /**
     * Human-readable metric lines, then the JSON line, on stdout.
     * Returns the verdict: nothing failed, something was attempted,
     * and every metric is set and finite.
     */
    bool print() const;

  private:
    bool trace_;
    long attempted_ = 0;
    long failed_ = 0;
    std::map<std::string, double> values_;
};

/** Value reported for a metric that does not apply to a workload. */
inline constexpr double kNotApplicable = 100.0;

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
