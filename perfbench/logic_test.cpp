// Tests of the benchmark's own logic (bench_logic.hpp) on synthetic
// inputs. Build and run from the repository root (README.md, "Tests"):
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target perfbench_logic_test
//   ctest --test-dir .bench_build/perfbench

#include <cstdio>
#include <set>
#include <string>
#include <string_view>

#include "bench_logic.hpp"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                        \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
            ++g_failures;                                                   \
        }                                                                   \
    } while (0)

using perfbench::KneeProbe;
using perfbench::KneeSlo;

/// A probe answering from a latency ladder: every arrival completes, none
/// fail, p99 = ladder(rate).
template <typename Ladder>
auto ladder_probe(Ladder ladder) {
    return [ladder](double kops) {
        KneeProbe p;
        p.p99_us = ladder(kops);
        p.arrivals = 10'000;
        p.completed = 10'000;
        return p;
    };
}

void knee_on_monotone_ladder() {
    // p99 crosses 100 us at 266.7 kops; 7 halvings of [0, 640] resolve 5.
    const auto r = perfbench::find_knee(
        0.0, 640.0, 7, KneeSlo{},
        ladder_probe([](double k) { return 20.0 + 0.3 * k; }));
    EXPECT(r.knee_kops == 265.0);
    EXPECT(r.probes.size() == 7);
    const double expected[] = {320, 160, 240, 280, 260, 270, 265};
    for (std::size_t i = 0; i < r.probes.size(); ++i) {
        EXPECT(r.probes[i].offered_kops == expected[i]);
    }
}

void knee_on_non_monotone_ladders() {
    // A stall spike at exactly 160 kops hides the passing region above it:
    // the search settles on the local knee just below the spike.
    const auto spike = perfbench::find_knee(
        0.0, 640.0, 7, KneeSlo{}, ladder_probe([](double k) {
            return k == 160.0 ? 2000.0 : 20.0 + 0.3 * k;
        }));
    EXPECT(spike.knee_kops == 155.0);

    // Pass below 100, fail in (100, 200], pass again in (200, 260].
    const auto dip = perfbench::find_knee(
        0.0, 640.0, 7, KneeSlo{}, ladder_probe([](double k) {
            return (k <= 100.0 || (k > 200.0 && k <= 260.0)) ? 50.0 : 500.0;
        }));
    EXPECT(dip.knee_kops == 100.0);
    // Whatever the ladder, the result passed and its upper neighbour at
    // the final resolution failed (or was never a candidate).
    bool knee_passed = false;
    bool above_failed = false;
    for (const auto& p : dip.probes) {
        if (p.offered_kops == dip.knee_kops) {
            knee_passed = perfbench::meets_slo(p, KneeSlo{});
        }
        if (p.offered_kops == dip.knee_kops + 5.0) {
            above_failed = !perfbench::meets_slo(p, KneeSlo{});
        }
    }
    EXPECT(knee_passed);
    EXPECT(above_failed);

    // Nothing passes: the knee is the lower bracket.
    const auto none = perfbench::find_knee(0.0, 640.0, 7, KneeSlo{},
                                           ladder_probe([](double) { return 1e6; }));
    EXPECT(none.knee_kops == 0.0);
}

void slo_conditions() {
    KneeProbe p;
    p.p99_us = 50;
    p.arrivals = 10'000;
    p.completed = 9'900; // exactly 99% of realized arrivals
    EXPECT(perfbench::meets_slo(p, KneeSlo{}));
    p.completed = 9'899;
    EXPECT(!perfbench::meets_slo(p, KneeSlo{}));
    p.completed = 10'000;
    p.failed = 1; // one failed op fails the probe whatever the latency
    EXPECT(!perfbench::meets_slo(p, KneeSlo{}));
    p.failed = 0;
    p.p99_us = 100.0;
    EXPECT(perfbench::meets_slo(p, KneeSlo{}));
    p.p99_us = 100.001;
    EXPECT(!perfbench::meets_slo(p, KneeSlo{}));
}

void tail_rule() {
    using perfbench::samples_beyond;
    using perfbench::tail_quantile;
    EXPECT(tail_quantile(10'000).label == "p99.9");
    EXPECT(samples_beyond(10'000, tail_quantile(10'000)) == 10);
    EXPECT(tail_quantile(9'999).label == "p99"); // 9 beyond p99.9
    EXPECT(tail_quantile(1'000).label == "p99");
    EXPECT(tail_quantile(999).label == "p95");
    EXPECT(tail_quantile(200).label == "p95");
    EXPECT(tail_quantile(199).label == "p50");
    EXPECT(tail_quantile(20).label == "p50");
    EXPECT(tail_quantile(0).label == "p50"); // fallback, not an error
    EXPECT(samples_beyond(132'571, tail_quantile(132'571)) == 132);
    EXPECT(tail_quantile(5'000, 5).label == "p99.9");
}

void failure_accounting() {
    EXPECT(perfbench::failed_frac(1000, 0, 0) == 0.0);
    EXPECT(perfbench::failed_frac(1000, 10, 0) == 0.01);
    // A timeout counts as a failure even though the write may have applied.
    EXPECT(perfbench::failed_frac(1000, 0, 20) == 0.02);
    EXPECT(perfbench::failed_frac(1000, 10, 20) == 0.03);
    EXPECT(perfbench::failed_frac(0, 0, 0) == 1.0);
}

void metric_names() {
    std::set<std::string_view> seen;
    const auto check = [&](const perfbench::MetricDef& d) {
        EXPECT(perfbench::valid_metric_name(d.name));
        EXPECT(seen.insert(d.name).second); // each name used once
        EXPECT(!d.unit.empty() && d.unit.size() <= 16);
    };
    for (const auto& e : perfbench::kEndToEnd) check(e.def);
    for (const auto& d : perfbench::kPerLayer) check(d);
    EXPECT(perfbench::valid_metric_name("p99_us"));
    EXPECT(perfbench::valid_metric_name("sim.queue_ns"));
    EXPECT(perfbench::valid_metric_name("9-lives"));
    EXPECT(!perfbench::valid_metric_name(""));
    EXPECT(!perfbench::valid_metric_name("_leading"));
    EXPECT(!perfbench::valid_metric_name(".leading"));
    EXPECT(!perfbench::valid_metric_name("has space"));
    EXPECT(!perfbench::valid_metric_name("kops/s"));
    EXPECT(!perfbench::valid_metric_name(std::string(65, 'a')));
    EXPECT(perfbench::valid_metric_name(std::string(64, 'a')));
}

void quantiles() {
    EXPECT(perfbench::median({}) == 0.0);
    EXPECT(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
    EXPECT(perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.5);
    EXPECT(perfbench::lower_quartile({5.0, 1.0, 4.0, 2.0, 3.0}) == 2.0);
    EXPECT(perfbench::lower_quartile({4.0, 1.0, 3.0, 2.0}) == 1.75);
    EXPECT(perfbench::lower_quartile({7.0}) == 7.0);
    EXPECT(perfbench::quantile({1.0, 2.0}, 1.0) == 2.0);
}

} // namespace

int main() {
    knee_on_monotone_ladder();
    knee_on_non_monotone_ladders();
    slo_conditions();
    tail_rule();
    failure_accounting();
    metric_names();
    quantiles();
    if (g_failures != 0) {
        std::printf("%d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("perfbench logic tests passed\n");
    return 0;
}
