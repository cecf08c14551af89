// The SKV benchmark. One process runs one workload for one seed:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every cluster it builds is 1 master + 3 slaves with 64 B values, built
// from the seed alone, and driven through the public closed-loop
// (workload::run_workload) and open-loop (ycsb::run_open_loop) drivers.
// Nothing inside the simulator is instrumented for the benchmark: layer
// numbers come from public counters and core accessors read around each
// window, and from timing standalone calls into each layer.
//
// Two kinds of numbers are kept apart (README.md has the dictionary):
//  - modeled numbers, in simulated time, identical for a given seed;
//  - host numbers, in process CPU time, measuring the simulator itself.
//
// Modeled metrics come from one long window. A short timed window is then
// repeated on fresh, identically seeded clusters until --seconds of CPU
// time are spent; every repetition must reproduce the first one's trace
// digest, and host metrics are the lower quartile over them.
//
// --trace 0 prints the end-to-end metrics (tracer off) and searches the
// capacity knee. --trace 1 repeats
// the window with the cluster tracer on, alternating with untraced
// repetitions, and prints the per-layer metrics, the host-time
// attribution and a per-resource utilisation table. Both modes run the
// correctness gate and exit non-zero naming any check that failed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_logic.hpp"
#include "kv/command.hpp"
#include "kv/db.hpp"
#include "kv/object.hpp"
#include "sim/event_queue.hpp"
#include "skv/cluster.hpp"
#include "workload/runner.hpp"
#include "workload/ycsb/open_loop.hpp"

namespace {

using namespace skv;
using perfbench::KneeProbe;
using workload::KeyDist;
using workload::ycsb::Workload;

// --- host clocks -------------------------------------------------------

double cpu_now_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double current_rss_bytes() {
    std::ifstream statm("/proc/self/statm");
    long pages = 0;
    long resident = 0;
    statm >> pages >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE));
}

// --- workloads ---------------------------------------------------------

constexpr int kSlaves = 3;
constexpr std::size_t kValueBytes = 64;
constexpr int kClosedClients = 8;
constexpr int kOpenConnections = 256;
constexpr double kGatedOfferedKops = 200.0;
const sim::Duration kWarmup = sim::milliseconds(20);
// The timed window, repeated on fresh clusters for the host metrics.
const sim::Duration kTimedMeasure = sim::milliseconds(60);
// After each window: clients are stopped, replication catches up, then
// the convergence and replica-equality checks run.
const sim::Duration kSettle = sim::milliseconds(20);

// Knee search: open-loop probes on fresh clusters, bisecting [0, 640]
// kops in 7 halvings (5 kops resolution).
constexpr double kKneeHi = 640.0;
constexpr int kKneeSteps = 7;
// Long enough for all connections to dial before the window opens.
const sim::Duration kProbeWarmup = sim::milliseconds(30);
const sim::Duration kProbeMeasure = sim::milliseconds(100);
const sim::Duration kProbeDrainCap = sim::milliseconds(5);

struct WorkloadDef {
    std::string_view name;
    bool offload = true;
    /// Open-loop YCSB at kGatedOfferedKops with commit gating
    /// (wait_for_slaves=1, ack_on_apply, no stale reads). Otherwise
    /// closed-loop redis-benchmark clients, ungated.
    bool open_loop_gated = false;
    double set_ratio = 1.0;
    std::uint64_t keys = 10'000;
    /// The open-loop mix: the measured stream of the open-loop workload,
    /// and for closed-loop workloads the nearest standard YCSB mix, used
    /// only by the knee search (run_open_loop drives YCSB mixes).
    Workload mix = Workload::kA;
    KeyDist dist = KeyDist::kUniform;
    /// The modeled window (--trace 0): long enough that p99.9 has hundreds
    /// of samples beyond it and the seed-to-seed spread of the tail stays
    /// within a third of its bound. Open-loop YCSB's tail needs twice the
    /// closed-loop window.
    sim::Duration modeled{sim::seconds(1)};
};

// Why these four: README.md, "Workloads".
const std::vector<WorkloadDef>& workloads() {
    static const std::vector<WorkloadDef> defs = {
        {"set_nic_fanout", true, false, 1.0, 10'000, Workload::kA,
         KeyDist::kUniform},
        {"set_host_fanout", false, false, 1.0, 10'000, Workload::kA,
         KeyDist::kUniform},
        {"get_large_keyspace", true, false, 0.0, 100'000, Workload::kC,
         KeyDist::kUniform},
        {"ycsb_a_gated", true, true, 0.5, 10'000, Workload::kA,
         KeyDist::kZipfian, sim::seconds(2)},
    };
    return defs;
}

workload::WorkloadSpec closed_spec(const WorkloadDef& w) {
    workload::WorkloadSpec spec;
    spec.set_ratio = w.set_ratio;
    spec.key_count = w.keys;
    spec.key_dist = KeyDist::kUniform;
    spec.value_bytes = kValueBytes;
    return spec;
}

workload::ycsb::YcsbOptions mix_options(const WorkloadDef& w) {
    auto y = workload::ycsb::YcsbOptions::standard(w.mix);
    y.record_count = w.keys;
    y.request_dist = w.dist;
    y.value_bytes = kValueBytes;
    return y;
}

offload::ClusterConfig cluster_config(const WorkloadDef& w,
                                      std::uint64_t seed) {
    offload::ClusterConfig cfg;
    cfg.seed = seed;
    cfg.n_slaves = kSlaves;
    cfg.offload = w.offload;
    if (w.open_loop_gated) {
        // The bench_ycsb / chaos-suite gating idiom.
        cfg.server_tmpl.ack_interval = sim::milliseconds(20);
        cfg.server_tmpl.ack_on_apply = true;
        cfg.server_tmpl.wait_for_slaves = 1;
        cfg.server_tmpl.wait_timeout = sim::milliseconds(150);
        cfg.server_tmpl.serve_stale_reads = false;
    }
    return cfg;
}

// --- cluster sessions --------------------------------------------------

struct SetupTimes {
    double total_s = 0; // construction + start() + preload
    double start_s = 0;
    double preload_s = 0;
    double preload_rss_bytes = 0;
};

std::unique_ptr<offload::Cluster> build_cluster(const WorkloadDef& w,
                                                std::uint64_t seed,
                                                SetupTimes* t) {
    const double t0 = cpu_now_s();
    auto c = std::make_unique<offload::Cluster>(cluster_config(w, seed));
    const double t1 = cpu_now_s();
    c->start();
    const double t2 = cpu_now_s();
    const double rss0 = current_rss_bytes();
    workload::WorkloadSpec load = closed_spec(w);
    workload::preload_keyspace(*c, load);
    const double t3 = cpu_now_s();
    t->preload_rss_bytes = current_rss_bytes() - rss0;
    t->start_s = t2 - t1;
    t->preload_s = t3 - t2;
    t->total_s = t3 - t0;
    return c;
}

/// Public counters read from outside the simulator.
struct Counters {
    double sim_ns = 0;
    double events = 0;
    double commands = 0; // client commands served, all servers
    double writes = 0;   // master writes
    double repl_applied = 0;
    double repl_sends = 0;
    double fanout_sends = 0;
    double writes_parked = 0;
    double wait_timeouts = 0;
    double retransmits = 0;
    double fabric_msgs = 0;
    double fabric_bytes = 0;
    double fabric_drops = 0;
    double wr_posts = 0;
    /// Every core: master, slaves, then NIC ARM cores.
    struct CoreSample {
        std::string name;
        enum Kind { kMaster, kSlave, kNicArm } kind = kMaster;
        double busy_ns = 0;
        double tasks = 0;
    };
    std::vector<CoreSample> cores;
};

Counters read_counters(offload::Cluster& c) {
    Counters k;
    auto& sim = c.sim();
    k.sim_ns = static_cast<double>(sim.now().ns());
    k.events = static_cast<double>(sim.events_executed());
    auto& m = c.master();
    k.commands = static_cast<double>(m.commands_processed());
    k.writes = static_cast<double>(m.stats().counter("writes"));
    k.repl_sends = static_cast<double>(m.stats().counter("repl_sends"));
    k.writes_parked = static_cast<double>(m.stats().counter("writes_parked"));
    k.wait_timeouts = static_cast<double>(m.stats().counter("wait_timeouts"));
    k.retransmits = static_cast<double>(m.stats().counter("rel.retransmits"));
    for (int s = 0; s < c.slave_count(); ++s) {
        auto& sl = c.slave(s);
        k.commands += static_cast<double>(sl.commands_processed());
        k.repl_applied += static_cast<double>(sl.stats().counter("repl_applied"));
        k.retransmits += static_cast<double>(sl.stats().counter("rel.retransmits"));
    }
    if (auto* nk = c.nic_kv(); nk != nullptr) {
        k.fanout_sends = static_cast<double>(nk->stats().counter("fanout_sends"));
        k.retransmits += static_cast<double>(nk->stats().counter("rel.retransmits"));
    }
    auto& fab = c.fabric();
    k.fabric_msgs = static_cast<double>(fab.messages_sent());
    k.fabric_bytes = static_cast<double>(fab.bytes_sent());
    k.fabric_drops = static_cast<double>(fab.obs().counter("fault_drops") +
                                         fab.obs().counter("drops_in_flight"));
    k.wr_posts = static_cast<double>(c.rdma().obs().counter("wr_posts"));
    const auto add = [&k](std::string name, Counters::CoreSample::Kind kind,
                          const cpu::Core& core) {
        k.cores.push_back({std::move(name), kind,
                           static_cast<double>(core.total_busy().ns()),
                           static_cast<double>(core.tasks_executed())});
    };
    add("master", Counters::CoreSample::kMaster, *m.node().core);
    for (int s = 0; s < c.slave_count(); ++s) {
        add("slave" + std::to_string(s), Counters::CoreSample::kSlave,
            *c.slave(s).node().core);
    }
    if (auto* nic = c.smartnic(); nic != nullptr) {
        for (int i = 0; i < nic->core_count(); ++i) {
            add("nic-arm" + std::to_string(i), Counters::CoreSample::kNicArm,
                nic->core(i));
        }
    }
    return k;
}

Counters operator-(Counters a, const Counters& b) {
    a.sim_ns -= b.sim_ns;
    a.events -= b.events;
    a.commands -= b.commands;
    a.writes -= b.writes;
    a.repl_applied -= b.repl_applied;
    a.repl_sends -= b.repl_sends;
    a.fanout_sends -= b.fanout_sends;
    a.writes_parked -= b.writes_parked;
    a.wait_timeouts -= b.wait_timeouts;
    a.retransmits -= b.retransmits;
    a.fabric_msgs -= b.fabric_msgs;
    a.fabric_bytes -= b.fabric_bytes;
    a.fabric_drops -= b.fabric_drops;
    a.wr_posts -= b.wr_posts;
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        a.cores[i].busy_ns -= b.cores[i].busy_ns;
        a.cores[i].tasks -= b.cores[i].tasks;
    }
    return a;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- one measured window -----------------------------------------------

struct Window {
    double kops = 0;
    double p50_us = 0;
    double p99_us = 0;
    double tail_us = 0; // at `tail`, see perfbench::tail_quantile
    perfbench::Quantile tail{};
    std::uint64_t samples = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;    // failed replies
    std::uint64_t timed_out = 0; // timeouts + never completed
    std::uint64_t peak_queued = 0;
    std::uint64_t retries = 0;
    std::uint64_t pending_events = 0;
    workload::StageBreakdown stages;
    Counters delta;
    double host_s = 0;
    std::uint64_t digest = 0;
    std::vector<std::string> failed_checks;
};

double tail_from(const workload::RunResult& r, const perfbench::Quantile& q) {
    if (q.num == 999) return r.p999_us;
    if (q.num == 99) return r.p99_us;
    if (q.num == 95) return r.p95_us;
    return r.p50_us;
}

bool replicas_equal(offload::Cluster& c, std::string* why) {
    kv::Database& m = c.master().db();
    const std::vector<std::string> keys = m.all_keys();
    for (int s = 0; s < c.slave_count(); ++s) {
        kv::Database& r = c.slave(s).db();
        if (r.size() != m.size()) {
            *why = "slave " + std::to_string(s) + " holds " +
                   std::to_string(r.size()) + " keys, master " +
                   std::to_string(m.size());
            return false;
        }
        for (const auto& k : keys) {
            const kv::ObjectPtr a = m.lookup(k);
            const kv::ObjectPtr b = r.lookup(k);
            if (!a || !b || !a->equals(*b)) {
                *why = "slave " + std::to_string(s) + " differs at " + k;
                return false;
            }
        }
    }
    return true;
}

Window run_window(offload::Cluster& c, const WorkloadDef& w,
                  sim::Duration measure, bool traced) {
    Window win;
    const Counters before = read_counters(c);
    workload::RunResult run;
    const double h0 = cpu_now_s();
    if (!w.open_loop_gated) {
        workload::RunOptions o;
        o.clients = kClosedClients;
        o.spec = closed_spec(w);
        o.warmup = kWarmup;
        o.measure = measure;
        o.trace_stages = traced;
        run = workload::run_workload(c, o);
        win.kops = run.throughput_kops;
        win.attempted = run.ops;
        win.failed = run.errors;
    } else {
        workload::ycsb::OpenLoopOptions o;
        o.ycsb = mix_options(w);
        o.connections = kOpenConnections;
        o.offered_kops = kGatedOfferedKops;
        o.warmup = kWarmup;
        o.measure = measure;
        o.drain = sim::milliseconds(100);
        o.preload = false;
        o.trace_stages = traced;
        const auto r = workload::ycsb::run_open_loop(c, o);
        run = r.run;
        win.kops = r.achieved_kops;
        win.attempted = r.arrivals;
        win.failed = r.failed;
        win.timed_out = r.timed_out + (r.arrivals - r.completed);
        win.peak_queued = r.peak_queued;
        win.retries = r.retries;
    }
    win.host_s = cpu_now_s() - h0;
    win.delta = read_counters(c) - before;
    win.pending_events = c.sim().events_pending();
    win.stages = run.stages;
    win.p50_us = run.p50_us;
    win.p99_us = run.p99_us;
    win.samples = run.ops;
    win.tail = perfbench::tail_quantile(run.ops);
    win.tail_us = tail_from(run, win.tail);

    c.sim().run_until(c.sim().now() + kSettle);
    win.digest = c.sim().trace_digest();
    if (!c.converged()) win.failed_checks.push_back("converged");
    std::string why;
    if (!replicas_equal(c, &why)) {
        win.failed_checks.push_back("replicas_equal (" + why + ")");
    }
    if (!w.open_loop_gated && (win.failed != 0 || win.timed_out != 0)) {
        win.failed_checks.push_back("failed_frac == 0 (closed loop)");
    }
    return win;
}

// --- replays: standalone calls into single layers ----------------------

/// Median of three timed repetitions of `body`, in ns per iteration. Each
/// replay folds its results into a value it checks afterwards, so the
/// optimizer cannot drop the timed loop.
template <typename Fn>
double time_ns_per_iter(std::uint64_t iters, Fn&& body) {
    std::vector<double> v;
    for (int rep = 0; rep < 3; ++rep) {
        const double t0 = cpu_now_s();
        body();
        v.push_back((cpu_now_s() - t0) * 1e9 / static_cast<double>(iters));
    }
    return perfbench::median(v);
}

/// The workload's command stream as argv, generated from the seed.
std::vector<std::vector<std::string>> command_stream(const WorkloadDef& w,
                                                     std::uint64_t seed,
                                                     std::size_t n) {
    std::vector<std::vector<std::string>> out;
    out.reserve(n);
    if (!w.open_loop_gated) {
        workload::Generator gen(closed_spec(w), sim::Rng(seed));
        for (std::size_t i = 0; i < n; ++i) out.push_back(gen.next());
        return out;
    }
    workload::ycsb::MixGenerator gen(
        mix_options(w), sim::Rng(seed),
        std::make_shared<workload::KeyFrontier>(w.keys));
    for (std::size_t i = 0; i < n; ++i) {
        auto op = gen.next();
        if (op.kind == workload::ycsb::YcsbOp::Kind::kRead) {
            out.push_back({"GET", op.key});
        } else {
            out.push_back({"SET", op.key, op.value});
        }
    }
    return out;
}

/// kv: CommandTable::execute on a standalone Database preloaded like one
/// node of the cluster, over the workload's own command stream.
double replay_kv_exec_ns(const WorkloadDef& w, std::uint64_t seed) {
    kv::Database db([] { return std::int64_t{0}; });
    workload::Generator loader(closed_spec(w), sim::Rng(seed));
    for (std::uint64_t i = 0; i < w.keys; ++i) {
        db.set("key:" + std::to_string(i),
               kv::Object::make_string(loader.make_value()));
    }
    constexpr std::size_t kOps = 100'000;
    const auto cmds = command_stream(w, seed + 1, kOps);
    const auto& table = kv::CommandTable::instance();
    sim::Rng rng(seed);
    std::string reply;
    std::uint64_t bytes = 0;
    const double ns = time_ns_per_iter(kOps, [&] {
        for (const auto& argv : cmds) {
            reply.clear();
            table.execute(db, rng, argv, reply);
            bytes += reply.size();
        }
    });
    if (bytes == 0) std::printf("kv replay produced no replies\n");
    return ns;
}

/// sim: one EventQueue::schedule + pop pair at the pending depth the
/// measured window left behind.
double replay_queue_ns(std::size_t depth, std::uint64_t seed) {
    sim::EventQueue q;
    sim::Rng rng(seed);
    std::uint64_t fired = 0;
    std::uint64_t* sink = &fired;
    const auto delay = [&rng] {
        return sim::Duration(static_cast<std::int64_t>(rng.next_exponential(5'000.0)) + 1);
    };
    for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
        q.schedule(sim::SimTime::zero() + delay(), [sink] { ++*sink; });
    }
    constexpr std::uint64_t kOps = 500'000;
    std::vector<sim::Duration> delays;
    delays.reserve(kOps);
    for (std::uint64_t i = 0; i < kOps; ++i) delays.push_back(delay());
    const double ns = time_ns_per_iter(kOps, [&] {
        for (std::uint64_t i = 0; i < kOps; ++i) {
            auto [at, fn] = q.pop();
            fn();
            q.schedule(at + delays[i], [sink] { ++*sink; });
        }
    });
    if (fired == 0) std::printf("queue replay fired nothing\n");
    return ns;
}

/// workload: generating one op of the workload's stream.
double replay_gen_ns(const WorkloadDef& w, std::uint64_t seed) {
    constexpr std::uint64_t kOps = 200'000;
    std::uint64_t bytes = 0;
    double ns = 0;
    if (!w.open_loop_gated) {
        workload::Generator gen(closed_spec(w), sim::Rng(seed));
        ns = time_ns_per_iter(kOps, [&] {
            for (std::uint64_t i = 0; i < kOps; ++i) bytes += gen.next().size();
        });
    } else {
        workload::ycsb::MixGenerator gen(
            mix_options(w), sim::Rng(seed),
            std::make_shared<workload::KeyFrontier>(w.keys));
        ns = time_ns_per_iter(kOps, [&] {
            for (std::uint64_t i = 0; i < kOps; ++i) bytes += gen.next().key.size();
        });
    }
    if (bytes == 0) std::printf("generator replay produced nothing\n");
    return ns;
}

// --- knee search -------------------------------------------------------

KneeProbe knee_probe(const WorkloadDef& w, std::uint64_t seed, double kops,
                     std::vector<double>* setup_samples) {
    SetupTimes t;
    auto c = build_cluster(w, seed, &t);
    setup_samples->push_back(t.total_s);
    workload::ycsb::OpenLoopOptions o;
    o.ycsb = mix_options(w);
    o.connections = kOpenConnections;
    o.offered_kops = kops;
    o.warmup = kProbeWarmup;
    o.measure = kProbeMeasure;
    o.drain = kProbeDrainCap;
    o.preload = false;
    const auto r = workload::ycsb::run_open_loop(*c, o);
    KneeProbe p;
    p.p99_us = r.run.p99_us;
    p.arrivals = r.arrivals;
    p.completed = r.completed;
    p.failed = r.failed + r.timed_out;
    return p;
}

// --- output ------------------------------------------------------------

struct Metric {
    std::string_view name;
    double value;
};

const perfbench::MetricDef* find_def(std::string_view name) {
    for (const auto& e : perfbench::kEndToEnd) {
        if (e.def.name == name) return &e.def;
    }
    for (const auto& d : perfbench::kPerLayer) {
        if (d.name == name) return &d;
    }
    return nullptr;
}

void print_metrics(const std::vector<Metric>& ms) {
    for (const auto& m : ms) {
        const auto* d = find_def(m.name);
        std::printf("  %-28.*s %16.6f %-8.*s %s\n",
                    static_cast<int>(m.name.size()), m.name.data(), m.value,
                    static_cast<int>(d->unit.size()), d->unit.data(),
                    d->clock == perfbench::Clock::kSim ? "sim" : "host");
    }
}

void print_result_json(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const std::vector<Metric>& ms) {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < ms.size(); ++i) {
        const auto* d = find_def(ms[i].name);
        std::printf("%s\"%.*s\": {\"value\": %.17g, \"unit\": \"%.*s\"}",
                    i > 0 ? ", " : "", static_cast<int>(ms[i].name.size()),
                    ms[i].name.data(), ms[i].value,
                    static_cast<int>(d->unit.size()), d->unit.data());
    }
    std::printf("}}\n");
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\nworkloads:",
                 argv0);
    for (const auto& w : workloads()) {
        std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                     w.name.data());
    }
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    const WorkloadDef* wl = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string_view k = argv[i];
        const char* v = argv[i + 1];
        if (k == "--workload") {
            for (const auto& w : workloads()) {
                if (w.name == v) wl = &w;
            }
            if (wl == nullptr) return usage(argv[0]);
        } else if (k == "--seed") {
            seed = std::strtoull(v, nullptr, 10);
        } else if (k == "--seconds") {
            seconds = std::strtod(v, nullptr);
        } else if (k == "--trace") {
            trace = std::atoi(v);
        } else {
            return usage(argv[0]);
        }
    }
    if (wl == nullptr || argc % 2 == 0 || seconds <= 0 ||
        (trace != 0 && trace != 1)) {
        return usage(argv[0]);
    }
    const WorkloadDef& w = *wl;
    std::printf("perfbench workload=%.*s seed=%" PRIu64 " seconds=%g trace=%d\n",
                static_cast<int>(w.name.size()), w.name.data(), seed, seconds,
                trace);

    std::vector<std::string> failed_checks;
    std::vector<double> setup_s, start_s, preload_s;
    std::vector<double> host_untraced, host_traced;
    double preload_rss_bytes = 0;
    bool first_build = true;
    std::uint64_t timed_digest = 0;
    Window modeled;
    Window first_u;
    Window first_t;

    // One fresh cluster, one window. Timed repetitions must all reproduce
    // the first one's trace digest, traced or not (observe-only tracer).
    const auto repetition = [&](sim::Duration measure, bool traced,
                                bool timed) {
        SetupTimes t;
        auto c = build_cluster(w, seed, &t);
        // The process's first build pays first-touch page faults and cold
        // caches: it gives kv.bytes_per_key, but no set-up time sample.
        if (first_build) {
            preload_rss_bytes = t.preload_rss_bytes;
            first_build = false;
        } else {
            setup_s.push_back(t.total_s);
            start_s.push_back(t.start_s);
            preload_s.push_back(t.preload_s);
        }
        Window win = run_window(*c, w, measure, traced);
        c.reset();
        for (const auto& f : win.failed_checks) failed_checks.push_back(f);
        if (!timed) return win;
        if (host_untraced.empty() && host_traced.empty()) {
            timed_digest = win.digest;
        } else if (win.digest != timed_digest) {
            failed_checks.push_back(
                std::string("trace digest identical across repetitions") +
                (traced ? " (untraced vs traced)" : ""));
        }
        auto& samples = traced ? host_traced : host_untraced;
        if (samples.empty()) (traced ? first_t : first_u) = win;
        samples.push_back(win.host_s);
        return win;
    };

    // The first window of a process pays first-touch page faults and cold
    // caches; it is never a timed sample. In --trace 0 it is the long
    // modeled window, in --trace 1 a discarded timed-length window.
    if (trace == 0) {
        modeled = repetition(w.modeled, false, false);
    } else {
        repetition(kTimedMeasure, false, false);
    }
    // Timed repetitions until the CPU budget is spent. In --trace 1
    // untraced and traced repetitions alternate, so the tracing overhead
    // compares like with like.
    constexpr std::size_t kMinTimed = 3;
    const double budget_start = cpu_now_s();
    for (int rep = 0;; ++rep) {
        repetition(kTimedMeasure, trace == 1 && rep % 2 == 1, true);
        const bool spent = cpu_now_s() - budget_start >= seconds;
        if (spent && host_untraced.size() >= kMinTimed &&
            (trace == 0 || host_traced.size() >= kMinTimed)) {
            break;
        }
    }
    // The traced repetition the tiling and observe-only checks need.
    if (host_traced.empty()) repetition(kTimedMeasure, true, true);

    // Every timed repetition does identical work, so their spread is host
    // noise, and other tenants of a shared host only ever add time: the
    // estimate is the lower quartile, steadier across runs than the median.
    // Set-up times are estimated the same way, over every identical build
    // but the first (knee probes included).
    const double host_s_u = perfbench::lower_quartile(host_untraced);
    const double host_s_t = perfbench::lower_quartile(host_traced);
    const double ops = first_u.delta.commands;
    const auto& sb = first_t.stages;
    const double tiling_err_pct =
        sb.e2e_us > 0 ? std::fabs(sb.critical_sum_us - sb.e2e_us) / sb.e2e_us * 100.0
                      : 100.0;
    if (!sb.valid || tiling_err_pct > 1.0) {
        failed_checks.push_back("stage tiling error <= 1%");
    }

    if (trace == 0) {
        std::printf("trace_digest=0x%016" PRIx64 " (seed %" PRIu64
                    ", modeled window)\n",
                    modeled.digest, seed);
    }
    std::printf("trace_digest=0x%016" PRIx64 " (seed %" PRIu64
                ", timed window, %zu untraced + %zu traced repetitions)\n",
                timed_digest, seed, host_untraced.size(), host_traced.size());
    std::printf("timed window host CPU s, untraced:");
    for (const double h : host_untraced) std::printf(" %.3f", h);
    std::printf("; traced:");
    for (const double h : host_traced) std::printf(" %.3f", h);
    std::printf("\n");

    std::vector<Metric> metrics;
    // The window the result line's attempted/failed counts describe.
    const Window& counted = trace == 0 ? modeled : first_u;
    const double ff = perfbench::failed_frac(counted.attempted, counted.failed,
                                             counted.timed_out);
    if (trace == 0) {
        // Before the knee search: its 256-connection probe clusters are not
        // the workload's, and an overloaded probe leaks its open-loop driver
        // (README.md, Observations).
        const double rss_mb = peak_rss_mb();
        std::vector<double> knee_setups;
        const perfbench::KneeSlo slo;
        const auto knee = perfbench::find_knee(
            0.0, kKneeHi, kKneeSteps, slo,
            [&](double kops) { return knee_probe(w, seed, kops, &knee_setups); });
        for (const auto& p : knee.probes) {
            std::printf("knee probe %6.1f kops: p99=%.1fus completed=%" PRIu64
                        "/%" PRIu64 " failed=%" PRIu64 " -> %s\n",
                        p.offered_kops, p.p99_us, p.completed, p.arrivals,
                        p.failed, perfbench::meets_slo(p, slo) ? "pass" : "fail");
        }
        setup_s.insert(setup_s.end(), knee_setups.begin(), knee_setups.end());

        std::printf("p999_us is the %.*s of %" PRIu64 " samples (%" PRIu64
                    " beyond it)\n",
                    static_cast<int>(modeled.tail.label.size()),
                    modeled.tail.label.data(), modeled.samples,
                    perfbench::samples_beyond(modeled.samples, modeled.tail));
        const std::vector<Metric> e2e = {
            {"kops", modeled.kops},
            {"knee_kops", knee.knee_kops},
            {"p50_us", modeled.p50_us},
            {"p99_us", modeled.p99_us},
            {"p999_us", modeled.tail_us},
            {"failed_frac", ff},
            {"setup_s", perfbench::lower_quartile(setup_s)},
            {"peak_rss_mb", rss_mb},
        };
        std::printf("end-to-end metrics:\n");
        print_metrics(e2e);
        print_metrics({{"sim_ops_per_host_s", ops / host_s_u}});
        for (const auto& m : e2e) {
            for (const auto& e : perfbench::kEndToEnd) {
                if (e.def.name == m.name && e.gated) metrics.push_back(m);
            }
        }
    } else {
        const Counters& d = first_u.delta;
        const double kv_ns = replay_kv_exec_ns(w, seed);
        const double queue_ns = replay_queue_ns(first_u.pending_events, seed);
        const double gen_ns = replay_gen_ns(w, seed);
        const double host_ns_per_op = host_s_u * 1e9 / ops;
        const double events_per_op = ratio(d.events, ops);
        const double execs_per_op = ratio(ops + d.repl_applied, ops);
        const double other_ns =
            host_ns_per_op - (kv_ns * execs_per_op + queue_ns * events_per_op + gen_ns);

        const auto& master = d.cores.front();
        double slave_util_max = 0;
        double nic_util_max = 0;
        for (const auto& core : d.cores) {
            const double u = ratio(core.busy_ns, d.sim_ns);
            if (core.kind == Counters::CoreSample::kSlave) {
                slave_util_max = std::max(slave_util_max, u);
            } else if (core.kind == Counters::CoreSample::kNicArm) {
                nic_util_max = std::max(nic_util_max, u);
            }
        }
        metrics = {
            {"sim_ops_per_host_s", ops / host_s_u},
            {"sim.events_per_op", events_per_op},
            {"sim.host_ns_per_event", host_s_u * 1e9 / d.events},
            {"sim.queue_ns", queue_ns},
            {"cpu.master_util", ratio(master.busy_ns, d.sim_ns)},
            {"cpu.master_busy_us_per_op", ratio(master.busy_ns / 1e3, ops)},
            {"cpu.master_tasks_per_op", ratio(master.tasks, ops)},
            {"cpu.slave_util_max", slave_util_max},
            {"kv.exec_ns", kv_ns},
            {"kv.execs_per_op", execs_per_op},
            {"kv.bytes_per_key",
             preload_rss_bytes / static_cast<double>(w.keys * (kSlaves + 1))},
            {"kv.preload_s", perfbench::lower_quartile(preload_s)},
            {"net.msgs_per_op", ratio(d.fabric_msgs, ops)},
            {"net.bytes_per_op", ratio(d.fabric_bytes, ops)},
            {"net.drops", d.fabric_drops},
            {"rdma.wr_posts_per_op", ratio(d.wr_posts, ops)},
            {"rdma.write_us", sb.rdma_write_us},
            {"rdma.reply_us", sb.reply_us},
            {"nic.arm_util_max", nic_util_max},
            {"nic.fanout_sends_per_write", ratio(d.fanout_sends, d.writes)},
            {"nic.offload_request_us", sb.offload_request_us},
            {"nic.fanout_us", sb.nic_fanout_us},
            {"server.apply_us", sb.master_apply_us},
            {"server.slave_ack_us", sb.slave_ack_us},
            {"server.writes_parked_frac", ratio(d.writes_parked, d.writes)},
            {"server.wait_timeouts", d.wait_timeouts},
            {"server.retransmits", d.retransmits},
            {"server.repl_sends_per_write", ratio(d.repl_sends, d.writes)},
            {"skv.start_s", perfbench::lower_quartile(start_s)},
            {"workload.gen_ns", gen_ns},
            {"workload.peak_queued", static_cast<double>(first_u.peak_queued)},
            {"workload.retries", static_cast<double>(first_u.retries)},
            {"obs.trace_overhead_pct",
             (host_s_t / host_s_u - 1.0) * 100.0},
            {"obs.stage_tiling_err_pct", tiling_err_pct},
            {"host.other_ns_per_op", other_ns},
        };
        std::printf("per-layer metrics:\n");
        print_metrics(metrics);

        std::printf("host time per op, Amdahl split (%.0f ns/op):\n",
                    host_ns_per_op);
        const auto share = [&](const char* what, double ns) {
            std::printf("  %-34s %10.1f ns %6.1f%%\n", what, ns,
                        ns / host_ns_per_op * 100.0);
        };
        share("kv.exec_ns x kv.execs_per_op", kv_ns * execs_per_op);
        share("sim.queue_ns x sim.events_per_op", queue_ns * events_per_op);
        share("workload.gen_ns", gen_ns);
        share("remainder (host.other_ns_per_op)", other_ns);

        std::printf("resources over the measured window (%.1f ms sim, %.0f ops):\n",
                    d.sim_ns / 1e6, ops);
        std::printf("  %-14s %8s %12s %10s\n", "resource", "util", "tasks",
                    "tasks/op");
        for (const auto& core : d.cores) {
            std::printf("  %-14s %8.3f %12.0f %10.2f\n", core.name.c_str(),
                        ratio(core.busy_ns, d.sim_ns), core.tasks,
                        ratio(core.tasks, ops));
        }
        std::printf("  fabric         msgs=%.0f bytes=%.0f drops=%.0f\n",
                    d.fabric_msgs, d.fabric_bytes, d.fabric_drops);
        std::printf("  reliable       retransmits=%.0f wait_timeouts=%.0f\n",
                    d.retransmits, d.wait_timeouts);
        std::printf("  failed_frac    %.6f\n", ff);
    }

    for (const auto& f : failed_checks) std::printf("CHECK FAILED: %s\n", f.c_str());
    const bool correct = failed_checks.empty();
    std::printf("correctness gate: %s\n", correct ? "pass" : "FAIL");
    print_result_json(correct, counted.attempted, counted.failed + counted.timed_out,
                      metrics);
    return correct ? 0 : 1;
}
