#pragma once

// The benchmark's own arithmetic, kept free of simulator types so
// logic_test.cpp can pin it on synthetic inputs: the metric dictionary,
// the knee search, the tail-percentile rule and failure accounting.

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Whether a metric is measured in simulated time (deterministic for a
/// seed) or on the host running the simulator (process CPU time, noisy).
enum class Clock { kSim, kHost };

/// A metric's direction (higher or lower is better) is declared once, in
/// BENCHMARK.json; run.py checks the units here against it.
struct MetricDef {
    std::string_view name;
    std::string_view unit;
    Clock clock;
};

/// End-to-end metrics, printed by every --trace 0 run. `gated` marks the
/// ones BENCHMARK.json lists, which the result line carries. failed_frac is
/// printed but not gated: it is 0 on every workload, and a spread relative
/// to a zero median is undefined; failures reach the result line as its
/// `failed` count instead.
struct EndToEndDef {
    MetricDef def;
    bool gated;
};
inline constexpr std::array<EndToEndDef, 8> kEndToEnd{{
    {{"kops", "kops/s", Clock::kSim}, true},
    {{"knee_kops", "kops/s", Clock::kSim}, true},
    {{"p50_us", "us", Clock::kSim}, true},
    {{"p99_us", "us", Clock::kSim}, true},
    {{"p999_us", "us", Clock::kSim}, true},
    {{"failed_frac", "ratio", Clock::kSim}, false},
    {{"setup_s", "s", Clock::kHost}, true},
    {{"peak_rss_mb", "MiB", Clock::kHost}, true},
}};

/// Per-layer metrics of the --trace 1 run, named <layer>.<metric> after the
/// repository's modules. sim_ops_per_host_s, the simulator's speed, is
/// here rather than gated end to end: on a shared host its spread between
/// runs minutes apart (up to ~45%) is wider than any useful regression
/// bound. --trace 0 prints it too.
inline constexpr std::array<MetricDef, 35> kPerLayer{{
    {"sim_ops_per_host_s", "ops/s", Clock::kHost},
    {"sim.events_per_op", "count", Clock::kSim},
    {"sim.host_ns_per_event", "ns", Clock::kHost},
    {"sim.queue_ns", "ns", Clock::kHost},
    {"cpu.master_util", "ratio", Clock::kSim},
    {"cpu.master_busy_us_per_op", "us", Clock::kSim},
    {"cpu.master_tasks_per_op", "count", Clock::kSim},
    {"cpu.slave_util_max", "ratio", Clock::kSim},
    {"kv.exec_ns", "ns", Clock::kHost},
    {"kv.execs_per_op", "count", Clock::kSim},
    {"kv.bytes_per_key", "B", Clock::kHost},
    {"kv.preload_s", "s", Clock::kHost},
    {"net.msgs_per_op", "count", Clock::kSim},
    {"net.bytes_per_op", "B", Clock::kSim},
    {"net.drops", "count", Clock::kSim},
    {"rdma.wr_posts_per_op", "count", Clock::kSim},
    {"rdma.write_us", "us", Clock::kSim},
    {"rdma.reply_us", "us", Clock::kSim},
    {"nic.arm_util_max", "ratio", Clock::kSim},
    {"nic.fanout_sends_per_write", "count", Clock::kSim},
    {"nic.offload_request_us", "us", Clock::kSim},
    {"nic.fanout_us", "us", Clock::kSim},
    {"server.apply_us", "us", Clock::kSim},
    {"server.slave_ack_us", "us", Clock::kSim},
    {"server.writes_parked_frac", "ratio", Clock::kSim},
    {"server.wait_timeouts", "count", Clock::kSim},
    {"server.retransmits", "count", Clock::kSim},
    {"server.repl_sends_per_write", "count", Clock::kSim},
    {"skv.start_s", "s", Clock::kHost},
    {"workload.gen_ns", "ns", Clock::kHost},
    {"workload.peak_queued", "count", Clock::kSim},
    {"workload.retries", "count", Clock::kSim},
    {"obs.trace_overhead_pct", "%", Clock::kHost},
    {"obs.stage_tiling_err_pct", "%", Clock::kSim},
    {"host.other_ns_per_op", "ns", Clock::kHost},
}};

/// The naming rule for BENCHMARK.json metrics: 1-64 of [A-Za-z0-9_.-],
/// starting with a letter or digit.
constexpr bool valid_metric_name(std::string_view s) {
    if (s.empty() || s.size() > 64) return false;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                           (c >= '0' && c <= '9');
        if (alnum) continue;
        if (i == 0 || (c != '_' && c != '.' && c != '-')) return false;
    }
    return true;
}

/// A percentile the simulator's histograms report, as an exact fraction.
struct Quantile {
    std::uint64_t num;
    std::uint64_t den;
    std::string_view label;
};

/// Candidates for the reported tail, highest first.
inline constexpr std::array<Quantile, 4> kTailLadder{{
    {999, 1000, "p99.9"},
    {99, 100, "p99"},
    {95, 100, "p95"},
    {50, 100, "p50"},
}};

/// Samples strictly beyond quantile q of n samples: n - ceil(n * q).
constexpr std::uint64_t samples_beyond(std::uint64_t n, const Quantile& q) {
    return (n * (q.den - q.num)) / q.den;
}

/// The highest ladder percentile with at least `min_beyond` samples beyond
/// it; p50 when even that has too few (tiny runs).
constexpr Quantile tail_quantile(std::uint64_t n,
                                 std::uint64_t min_beyond = 10) {
    for (const auto& q : kTailLadder) {
        if (samples_beyond(n, q) >= min_beyond) return q;
    }
    return kTailLadder.back();
}

/// (failed + timed out) / attempted. An op that timed out may have
/// applied, but the client saw no answer, so it counts as failed.
constexpr double failed_frac(std::uint64_t attempted, std::uint64_t failed,
                             std::uint64_t timed_out) {
    if (attempted == 0) return 1.0;
    return static_cast<double>(failed + timed_out) /
           static_cast<double>(attempted);
}

/// One open-loop probe of the knee search.
struct KneeProbe {
    double offered_kops = 0;
    double p99_us = 0;
    std::uint64_t arrivals = 0;  // arrivals in the measurement window
    std::uint64_t completed = 0; // of those, completed before the cap
    std::uint64_t failed = 0;    // failed + timed out
};

struct KneeSlo {
    double p99_us = 100.0;
    /// Completed share of the window's arrivals. Taken against realized
    /// Poisson arrivals, not the nominal rate, so arrival noise alone can
    /// never fail a probe.
    double min_achieved = 0.99;
};

constexpr bool meets_slo(const KneeProbe& p, const KneeSlo& slo) {
    return p.failed == 0 && p.p99_us <= slo.p99_us &&
           static_cast<double>(p.completed) >=
               slo.min_achieved * static_cast<double>(p.arrivals);
}

struct KneeResult {
    double knee_kops = 0; // last passing midpoint; `lo` when none passed
    std::vector<KneeProbe> probes;
};

/// Fixed-resolution bisection of [lo, hi] in `steps` halvings
/// (resolution (hi - lo) / 2^steps). `lo` is taken to pass and `hi` to
/// fail without probing them. On a non-monotone ladder the result is a
/// rate that passed whose upper neighbour at the final resolution failed:
/// a local knee, found with the same probe sequence every time.
template <typename ProbeFn> // KneeProbe(double offered_kops)
KneeResult find_knee(double lo, double hi, int steps, const KneeSlo& slo,
                     ProbeFn&& probe) {
    KneeResult r;
    for (int i = 0; i < steps; ++i) {
        const double mid = (lo + hi) / 2.0;
        KneeProbe p = probe(mid);
        p.offered_kops = mid;
        if (meets_slo(p, slo)) {
            lo = mid;
        } else {
            hi = mid;
        }
        r.probes.push_back(p);
    }
    r.knee_kops = lo;
    return r;
}

/// The q-quantile of a sample, interpolating linearly between order
/// statistics (q = 0.5 is the median, mean of the middle pair for even
/// counts); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    if (lo + 1 >= v.size()) return v.back();
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[lo + 1] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
inline double lower_quartile(std::vector<double> v) {
    return quantile(std::move(v), 0.25);
}

} // namespace perfbench
