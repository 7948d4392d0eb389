// In-process half of the RichNote benchmark (perfbench/run.py is the other).
//
// Modes, each printing one JSON object on stdout:
//
//   probe   nproc, uarch and a spin-calibrated effective CPU count.
//   render  builds the same experiment_setup `richnote serve` builds for
//           (users, seed, trees), renders the first `rounds=` hourly round
//           windows of its trace as NDJSON wire lines into `out=`, and runs
//           an in-process reference over the same inputs (`reference=batch`:
//           single-worker run_experiment; `service`: a single-worker
//           notification_service over the trace's own users).
//   layers  the traced run: per-layer timings from timers around public
//           calls plus the profiler slots at sample_every=1.
//
// Every mode takes the workload spec as key=value arguments:
//   users= seed= trees= hours= budget_mb= [fleet=0] [workers=1] [rounds=]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "common/config.hpp"
#include "common/error.hpp"
#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/presentation.hpp"
#include "core/service.hpp"
#include "core/wire.hpp"
#include "energy/model.hpp"
#include "ml/simd_dispatch.hpp"
#include "obs/lifecycle.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profile.hpp"
#include "trace/generator.hpp"

namespace {

using namespace richnote;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// Minimal JSON object writer; doubles keep all 17 significant digits.
class json_object {
public:
    json_object& num(const std::string& key, double v) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        return raw(key, buf);
    }
    json_object& integer(const std::string& key, std::uint64_t v) {
        return raw(key, std::to_string(v));
    }
    json_object& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
    json_object& text(const std::string& key, const std::string& v) {
        std::string quoted = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\') quoted += '\\';
            quoted += c;
        }
        return raw(key, quoted + "\"");
    }
    json_object& nums(const std::string& key, const std::vector<double>& vs) {
        std::string out = "[";
        char buf[40];
        for (std::size_t i = 0; i < vs.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%.17g", vs[i]);
            if (i != 0) out += ',';
            out += buf;
        }
        return raw(key, out + "]");
    }
    json_object& raw(const std::string& key, const std::string& value) {
        if (!body_.empty()) body_ += ',';
        body_.append("\"").append(key).append("\":").append(value);
        return *this;
    }
    std::string str() const { return "{" + body_ + "}"; }

private:
    std::string body_;
};

/// Output checks: each records a name and whether it held; the benchmark
/// reports correct=false (and run.py exits non-zero) if any fails.
class checks {
public:
    void expect(bool ok, const std::string& name, const std::string& detail = {}) {
        if (!ok) {
            failed_ = true;
            std::cerr << "[perfbench] CHECK FAILED: " << name
                      << (detail.empty() ? "" : " (" + detail + ")") << '\n';
        }
        if (!ok || std::find(names_.begin(), names_.end(), name) == names_.end())
            names_.push_back(name);
    }
    bool ok() const noexcept { return !failed_; }
    void write(json_object& out) const {
        out.boolean("checks_ok", !failed_);
        std::string list = "[";
        for (std::size_t i = 0; i < names_.size(); ++i) {
            if (i != 0) list += ',';
            list.append("\"").append(names_[i]).append("\"");
        }
        out.raw("checks", list + "]");
    }

private:
    bool failed_ = false;
    std::vector<std::string> names_;
};

struct spec {
    std::size_t users = 2000;
    std::uint64_t seed = 1;
    std::size_t trees = 20;
    double hours = 168.0;
    double budget_mb = 20.0;
    std::size_t fleet = 0; ///< 0 = the trace's own users
    std::size_t workers = 1;
    std::size_t rounds = 0; ///< service / wire rounds; default = whole horizon
};

spec read_spec(const config& cfg) {
    spec s;
    s.users = static_cast<std::size_t>(cfg.get_int("users", 2000));
    s.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
    s.trees = static_cast<std::size_t>(cfg.get_int("trees", 20));
    s.hours = cfg.get_double("hours", 168.0);
    s.budget_mb = cfg.get_double("budget_mb", 20.0);
    s.fleet = static_cast<std::size_t>(cfg.get_int("fleet", 0));
    s.workers = static_cast<std::size_t>(cfg.get_int("workers", 1));
    const auto horizon_rounds = static_cast<std::size_t>(
        std::ceil(s.hours * 3600.0 / sim::default_round)) + 1;
    s.rounds = static_cast<std::size_t>(
        cfg.get_int("rounds", static_cast<std::int64_t>(horizon_rounds)));
    RICHNOTE_REQUIRE(s.users >= 2 && s.trees >= 1 && s.workers >= 1 && s.rounds >= 1,
                     "bad workload spec");
    return s;
}

/// The setup `richnote serve users= seed= trees=` builds (plus the horizon,
/// which serve leaves at its one-week default).
core::experiment_setup::options setup_options(const spec& s) {
    core::experiment_setup::options opts;
    opts.workload.user_count = s.users;
    opts.workload.horizon = s.hours * 3600.0;
    opts.seed = s.seed;
    opts.forest.tree_count = s.trees;
    return opts;
}

/// The scheduler configuration `richnote serve` runs with.
core::experiment_params experiment_params_for(const spec& s) {
    core::experiment_params p;
    p.kind = core::scheduler_kind::richnote;
    p.weekly_budget_mb = s.budget_mb;
    p.seed = s.seed;
    p.worker_threads = 1;
    return p;
}

/// The notifications of each hourly round window, in stream order: round r
/// takes created_at in (t_{r-1}, t_r], with t accumulated exactly as the
/// service's round clock accumulates it (now += round).
std::vector<std::vector<const trace::notification*>> due_by_round(
    const trace::workload& world, std::size_t rounds) {
    std::vector<double> t(rounds);
    double now = 0.0;
    for (std::size_t r = 0; r < rounds; ++r) {
        t[r] = now;
        now += sim::default_round;
    }
    std::vector<std::vector<const trace::notification*>> due(rounds);
    for (const auto& stream : world.notifications().per_user) {
        for (const trace::notification& n : stream) {
            const auto r = static_cast<std::size_t>(
                std::lower_bound(t.begin(), t.end(), n.created_at) - t.begin());
            if (r < rounds) due[r].push_back(&n);
        }
    }
    return due;
}

std::vector<std::vector<std::string>> render(
    const std::vector<std::vector<const trace::notification*>>& due) {
    std::vector<std::vector<std::string>> lines(due.size());
    for (std::size_t r = 0; r < due.size(); ++r) {
        lines[r].reserve(due[r].size());
        for (const trace::notification* n : due[r]) lines[r].push_back(core::format_wire_line(*n));
    }
    return lines;
}

double level_mix_delivered(const core::experiment_result& r) {
    double sum = 0.0;
    for (std::size_t l = 1; l < r.level_mix.size(); ++l) sum += r.level_mix[l];
    return sum;
}

/// The output properties every run checks on a result the program produced.
void check_result(checks& c, const core::experiment_result& r,
                  const obs::metrics_registry& reg, double accrued_budget_bytes,
                  std::uint64_t expected_arrivals) {
    const auto arrived = reg.counter("richnote.delivery.arrived_total");
    const auto delivered = reg.counter("richnote.delivery.delivered_total");
    c.expect(arrived == expected_arrivals, "every_sent_notification_arrived",
             std::to_string(arrived) + " vs " + std::to_string(expected_arrivals));
    c.expect(delivered <= arrived, "delivered_le_arrived");
    c.expect(r.metered_mb * 1e6 <= accrued_budget_bytes * (1.0 + 1e-12),
             "metered_within_accrued_budget",
             std::to_string(r.metered_mb) + " MB vs " + std::to_string(accrued_budget_bytes / 1e6));
    c.expect(std::fabs(level_mix_delivered(r) - r.delivery_ratio) <= 1e-9,
             "level_mix_sums_to_delivery_ratio");
    c.expect(r.precision >= 0.0 && r.precision <= 1.0, "precision_in_unit_interval");
    c.expect(r.recall >= 0.0 && r.recall <= 1.0, "recall_in_unit_interval");
}

// ---------------------------------------------------------------- probe

int cmd_probe() {
    // Effective CPUs: k threads each spin a fixed amount of work, each on its
    // own allowed CPU; on k free CPUs they finish in the time one thread
    // takes alone. The threads are pinned because this host's scheduler can
    // leave freshly started threads on their parent's CPU for longer than a
    // probe lasts, which would read as one CPU.
    std::vector<int> cpus;
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    RICHNOTE_REQUIRE(!cpus.empty(), "sched_getaffinity failed");
    const auto k = static_cast<unsigned>(cpus.size());
    auto spin = [](std::uint64_t iters) {
        std::uint64_t x = 88172645463325252ull;
        for (std::uint64_t i = 0; i < iters; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        return x;
    };
    std::atomic<std::uint64_t> sink{0};
    auto timed = [&](unsigned threads, std::uint64_t iters) {
        const auto t0 = clock_type::now();
        std::vector<std::thread> pool;
        for (unsigned i = 0; i < threads; ++i) {
            pool.emplace_back([&, i] {
                cpu_set_t one;
                CPU_ZERO(&one);
                CPU_SET(cpus[i], &one);
                sched_setaffinity(0, sizeof one, &one);
                sink.fetch_xor(spin(iters));
            });
        }
        for (auto& t : pool) t.join();
        return seconds_since(t0);
    };
    std::uint64_t iters = 1u << 20;
    while (timed(1, iters) < 0.05) iters *= 2;
    double best_one = 1e300, best_all = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        best_one = std::min(best_one, timed(1, iters));
        best_all = std::min(best_all, timed(k, iters));
    }
    json_object out;
    out.integer("nproc", k)
        .text("uarch", std::string(ml::simd::arch_name()) + "/" +
                          ml::simd::isa_name(ml::simd::active_isa()))
        .num("effective_cpus", static_cast<double>(k) * best_one / best_all)
        .integer("spin_sink", sink.load() & 1);
    std::cout << out.str() << '\n';
    return 0;
}

// ---------------------------------------------------------------- render

json_object reference_json(const core::experiment_result& r, const obs::metrics_registry& reg) {
    json_object ref;
    ref.num("utility_total", r.total_utility)
        .integer("delivered_total", reg.counter("richnote.delivery.delivered_total"))
        .integer("arrived_total", reg.counter("richnote.delivery.arrived_total"))
        .num("delivery_ratio", r.delivery_ratio)
        .num("level_mix_delivered", level_mix_delivered(r))
        .num("precision", r.precision)
        .num("recall", r.recall)
        .num("metered_bytes", r.metered_mb * 1e6);
    return ref;
}

int cmd_render(const config& cfg) {
    const spec s = read_spec(cfg);
    const std::string out_path = cfg.get_string("out", "");
    const std::string reference = cfg.get_string("reference", "");
    RICHNOTE_REQUIRE(!out_path.empty(), "render needs out=");
    RICHNOTE_REQUIRE(reference == "batch" || reference == "service",
                     "reference must be batch or service");
    checks c;

    const core::experiment_setup setup(setup_options(s));
    const auto due = due_by_round(setup.world(), s.rounds);
    const auto lines = render(due);

    std::ofstream file(out_path, std::ios::binary);
    RICHNOTE_REQUIRE(file.good(), "cannot open " + out_path);
    std::uint64_t line_count = 0, bytes = 0, max_round = 0;
    std::vector<char> active(s.users, 0);
    file << "R " << lines.size() << '\n';
    for (std::size_t r = 0; r < lines.size(); ++r) {
        file << "r " << r << ' ' << lines[r].size() << '\n';
        for (const std::string& line : lines[r]) {
            file << line << '\n';
            bytes += line.size() + 1;
        }
        for (const trace::notification* n : due[r]) active[n->recipient] = 1;
        line_count += lines[r].size();
        max_round = std::max<std::uint64_t>(max_round, lines[r].size());
    }
    file.close();
    RICHNOTE_REQUIRE(file.good(), "cannot write " + out_path);

    const core::experiment_params params = experiment_params_for(s);
    json_object out;
    out.integer("lines", line_count)
        .integer("bytes", bytes)
        .integer("rounds", lines.size())
        .integer("max_lines_per_round", max_round)
        .integer("active_users", static_cast<std::uint64_t>(
                                     std::count(active.begin(), active.end(), 1)))
        .integer("notifications", setup.world().notifications().total_count)
        .num("theta_bytes", core::round_budget_bytes(params));

    if (reference == "batch") {
        // The DESIGN.md §11 contract: a single-worker batch replay of the
        // same trace. It covers the whole horizon, so every line must be sent.
        c.expect(line_count == setup.world().notifications().total_count,
                 "wire_covers_whole_trace");
        obs::metrics_registry reg;
        core::experiment_params p = params;
        p.registry = &reg;
        const core::experiment_result r = core::run_experiment(setup, p);
        c.expect(r.rounds_run == s.rounds, "reference_round_count");
        check_result(c, r, reg,
                     core::round_budget_bytes(p) * static_cast<double>(s.rounds) *
                         static_cast<double>(s.users),
                     line_count);
        out.raw("reference", reference_json(r, reg).str());
    } else if (reference == "service") {
        // Brokers are a pure function of (params, user), so a fleet of just
        // the trace's users, fed the same stream, must match a larger fleet
        // whose extra brokers see no traffic.
        core::service_params sp;
        sp.experiment = params;
        sp.worker_threads = 1;
        core::notification_service svc(setup, sp);
        for (const auto& round : lines) {
            for (const std::string& line : round) {
                c.expect(svc.ingest_line(line) ==
                             core::notification_service::ingest_status::accepted,
                         "reference_ingest_accepted");
            }
            svc.run_round();
        }
        obs::metrics_registry reg;
        svc.export_service_metrics(reg);
        const core::experiment_result r = svc.summarize();
        check_result(c, r, reg,
                     core::round_budget_bytes(params) * static_cast<double>(s.rounds) *
                         static_cast<double>(s.users),
                     line_count);
        c.expect(svc.counters().pending == 0, "reference_nothing_pending");
        out.raw("reference", reference_json(r, reg).str());
    }
    c.write(out);
    std::cout << out.str() << '\n';
    return c.ok() ? 0 : 1;
}

// ---------------------------------------------------------------- layers

struct profile_snapshot {
    obs::profile_totals broker, plan, mckp, tick, fit;
    static profile_snapshot read() {
        return {obs::profile_read(obs::profile_slot::broker_round),
                obs::profile_read(obs::profile_slot::scheduler_plan),
                obs::profile_read(obs::profile_slot::mckp_solve),
                obs::profile_read(obs::profile_slot::sim_tick),
                obs::profile_read(obs::profile_slot::forest_fit)};
    }
};

/// Runs `f` with the profiler timing every scope entry; returns the totals.
template <class F>
profile_snapshot profiled(F&& f) {
    obs::profile_configure({1, 1u << 13});
    obs::profile_reset();
    obs::profile_set_enabled(true);
    f();
    obs::profile_set_enabled(false);
    return profile_snapshot::read();
}

double per_call(const obs::profile_totals& t, double unit_ns) {
    if (t.calls == 0) return 0.0;
    return static_cast<double>(t.nanos) / static_cast<double>(t.calls) / unit_ns;
}

struct service_pass {
    double build_s = 0.0;
    double ingest_s = 0.0;
    double export_s = 0.0;
    std::vector<double> round_s;
    std::uint64_t admitted = 0;
    std::uint64_t pending_max = 0;
    std::uint64_t pending_end = 0;
    core::experiment_result result;
    std::uint64_t arrived = 0;
    std::uint64_t delivered = 0;

    double round_total() const { return std::accumulate(round_s.begin(), round_s.end(), 0.0); }
    double round_mean() const { return round_total() / static_cast<double>(round_s.size()); }
};

/// One in-process service replay of the rendered rounds, timing ingest,
/// run_round and the per-round metrics export `richnote serve` publishes.
service_pass run_service(const core::experiment_setup& setup, const spec& s,
                         const std::vector<std::vector<std::string>>& lines, bool tracker,
                         checks& c) {
    core::service_params sp;
    sp.experiment = experiment_params_for(s);
    sp.user_count = s.fleet;
    sp.worker_threads = s.workers;
    obs::lifecycle_tracker lifecycle;
    if (tracker) sp.experiment.lifecycle = &lifecycle;

    service_pass pass;
    auto t0 = clock_type::now();
    core::notification_service svc(setup, sp);
    pass.build_s = seconds_since(t0);
    pass.round_s.reserve(lines.size());
    for (const auto& round : lines) {
        bool accepted = true;
        t0 = clock_type::now();
        for (const std::string& line : round)
            accepted &= svc.ingest_line(line) ==
                        core::notification_service::ingest_status::accepted;
        pass.ingest_s += seconds_since(t0);
        c.expect(accepted, "inprocess_ingest_accepted");
        pass.pending_max = std::max(pass.pending_max, svc.counters().pending);
        t0 = clock_type::now();
        svc.run_round();
        pass.round_s.push_back(seconds_since(t0));
        t0 = clock_type::now();
        obs::metrics_registry reg;
        svc.export_service_metrics(reg);
        pass.export_s += seconds_since(t0);
    }
    const core::service_counters counters = svc.counters();
    pass.admitted = counters.admitted;
    pass.pending_end = counters.pending;
    pass.result = svc.summarize();
    obs::metrics_registry reg;
    svc.export_service_metrics(reg);
    pass.arrived = reg.counter("richnote.delivery.arrived_total");
    pass.delivered = reg.counter("richnote.delivery.delivered_total");
    return pass;
}

int cmd_layers(const config& cfg) {
    const spec s = read_spec(cfg);
    // CPUs the workers can really use (run.py's spin probe): the pool's
    // thread-summed busy time divided by this is its share of wall time.
    const double cpus = cfg.get_double("cpus", 1.0);
    checks c;
    json_object out;

    // trace + ml: the two halves of experiment_setup.
    auto t0 = clock_type::now();
    { const trace::workload world(setup_options(s).workload, s.seed); }
    out.num("trace.generate_s", seconds_since(t0));
    std::unique_ptr<core::experiment_setup> setup;
    const profile_snapshot fit =
        profiled([&] { setup = std::make_unique<core::experiment_setup>(setup_options(s)); });
    out.num("ml.fit_s", static_cast<double>(fit.fit.nanos) / 1e9);

    const auto due = due_by_round(setup->world(), s.rounds);
    const auto lines = render(due);
    std::uint64_t line_count = 0, bytes = 0;
    for (const auto& round : lines) {
        line_count += round.size();
        for (const std::string& line : round) bytes += line.size();
    }
    const auto per_line_ns = [&](double seconds) {
        return seconds * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, line_count));
    };

    // ml: raw-model U_c per notification, as service-mode admission scores.
    double score_sink = 0.0;
    t0 = clock_type::now();
    for (const auto& round : due)
        for (const trace::notification* n : round)
            score_sink += setup->raw_model().content_utility(*n);
    out.num("ml.score_ns", per_line_ns(seconds_since(t0))).integer("ml.scored", line_count);
    c.expect(std::isfinite(score_sink), "scores_finite");

    // core/wire.
    trace::notification parsed;
    bool parse_ok = true;
    t0 = clock_type::now();
    for (const auto& round : lines)
        for (const std::string& line : round) parse_ok &= core::parse_wire_line(line, parsed);
    out.num("wire.parse_ns", per_line_ns(seconds_since(t0))).integer("wire.bytes", bytes);
    c.expect(parse_ok, "wire_lines_parse");

    // sim: the batch replay of the same trace, bare and profiled.
    const core::experiment_params params = experiment_params_for(s);
    const core::experiment_result bare = core::run_experiment(*setup, params);
    core::experiment_result traced;
    const profile_snapshot batch =
        profiled([&] { traced = core::run_experiment(*setup, params); });
    c.expect(traced.total_utility == bare.total_utility, "profiling_never_changes_outputs");
    out.num("sim.tick_ms", per_call(batch.tick, 1e6));

    // core/service: with the lifecycle tracker (as `richnote serve` runs),
    // without it, and with it under the profiler.
    const service_pass with_tracker = run_service(*setup, s, lines, true, c);
    const service_pass without_tracker = run_service(*setup, s, lines, false, c);
    service_pass service_traced;
    const profile_snapshot svc =
        profiled([&] { service_traced = run_service(*setup, s, lines, true, c); });
    c.expect(with_tracker.result.total_utility == without_tracker.result.total_utility &&
                 with_tracker.result.total_utility == service_traced.result.total_utility,
             "tracing_never_changes_service_outputs");
    c.expect(with_tracker.admitted == line_count && with_tracker.pending_end == 0,
             "service_admits_every_line");
    const double rounds = static_cast<double>(lines.size());
    out.num("service.ingest_ns", per_line_ns(with_tracker.ingest_s))
        .num("service.round_ms", with_tracker.round_mean() * 1e3)
        .integer("service.admitted", with_tracker.admitted)
        .integer("service.pending_max", with_tracker.pending_max)
        .num("metrics.export_ms", with_tracker.export_s * 1e3 / rounds)
        .num("obs.lifecycle_ms", (with_tracker.round_mean() - without_tracker.round_mean()) * 1e3);

    // core/experiment: the service constructor builds the fleet.
    out.num("experiment.fleet_build_s", with_tracker.build_s);

    // core/broker, scheduler, mckp, worker_pool: from the profiled service.
    const double busy_ns = static_cast<double>(svc.broker.nanos);
    const double round_wall_ns = service_traced.round_total() * 1e9;
    const double workers = std::clamp(cpus, 1.0, static_cast<double>(s.workers));
    out.num("broker.round_ns", per_call(svc.broker, 1.0))
        .integer("broker.rounds", svc.broker.calls)
        .num("broker.busy_s", busy_ns / 1e9)
        .num("scheduler.plan_ns", per_call(svc.plan, 1.0))
        .integer("scheduler.plans", svc.plan.calls)
        .num("mckp.solve_ns", per_call(svc.mckp, 1.0))
        .integer("mckp.solves", svc.mckp.calls)
        .num("mckp.solve_share", svc.plan.calls == 0 ? 0.0
                                                   : static_cast<double>(svc.mckp.calls) /
                                                         static_cast<double>(svc.plan.calls))
        .num("pool.parallelism", round_wall_ns > 0 ? busy_ns / round_wall_ns : 0.0)
        .num("round.unattributed_ms", (round_wall_ns - busy_ns / workers) / rounds / 1e6);

    // Delivery counts and tracing overhead of the service path.
    out.integer("delivery.arrived", with_tracker.arrived)
        .integer("delivery.delivered", with_tracker.delivered)
        .num("delivery.metered_mb", with_tracker.result.metered_mb)
        .num("delivery.budget_used",
             with_tracker.result.metered_mb * 1e6 /
                 (core::round_budget_bytes(params) * rounds * static_cast<double>(s.users)))
        .num("bench.trace_overhead_pct",
             (service_traced.round_mean() / with_tracker.round_mean() - 1.0) * 100.0);
    c.write(out);
    std::cout << out.str() << '\n';
    return c.ok() ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) try {
    if (argc < 2) {
        std::cerr << "usage: perfbench_harness probe|render|layers key=value...\n";
        return 2;
    }
    const std::string mode = argv[1];
    const config cfg = config::from_args(argc - 1, argv + 1);
    if (mode == "probe") return cmd_probe();
    if (mode == "render") return cmd_render(cfg);
    if (mode == "layers") return cmd_layers(cfg);
    std::cerr << "unknown mode: " << mode << '\n';
    return 2;
} catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
}
