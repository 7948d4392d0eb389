#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <random>

#include "common/error.hpp"
#include "obs/metrics_registry.hpp"

namespace {

using richnote::core::fault_counters;
using richnote::core::metrics_recorder;
using richnote::core::planned_delivery;
using richnote::core::user_metrics;
using richnote::trace::notification;

notification make_note(std::uint64_t id, richnote::trace::user_id user, bool clicked,
                       double created_at = 0.0, double clicked_at = 1e9) {
    notification n;
    n.id = id;
    n.recipient = user;
    n.created_at = created_at;
    n.attended = clicked;
    n.clicked = clicked;
    n.clicked_at = clicked_at;
    return n;
}

planned_delivery make_delivery(const notification& n, richnote::core::level_t level,
                               double size, double utility) {
    planned_delivery d;
    d.item_id = n.id;
    d.level = level;
    d.size_bytes = size;
    d.utility = utility;
    d.note = n;
    return d;
}

TEST(metrics, arrivals_count_totals_and_clicks) {
    metrics_recorder m(2, 6);
    m.on_arrival(make_note(0, 0, true));
    m.on_arrival(make_note(1, 0, false));
    m.on_arrival(make_note(2, 1, true));
    EXPECT_DOUBLE_EQ(m.total_arrived(), 3.0);
    EXPECT_EQ(m.user(0).arrived, 2u);
    EXPECT_EQ(m.user(0).clicked_total, 1u);
    EXPECT_EQ(m.user(1).clicked_total, 1u);
}

TEST(metrics, delivery_ratio_and_bytes) {
    metrics_recorder m(1, 6);
    const auto n0 = make_note(0, 0, false);
    const auto n1 = make_note(1, 0, false);
    m.on_arrival(n0);
    m.on_arrival(n1);
    m.on_delivery(make_delivery(n0, 2, 1000.0, 0.3), 10.0, 5.0, true);
    EXPECT_DOUBLE_EQ(m.delivery_ratio(), 0.5);
    EXPECT_DOUBLE_EQ(m.totals().bytes_delivered, 1000.0);
    EXPECT_DOUBLE_EQ(m.totals().metered_bytes_delivered, 1000.0);
    EXPECT_DOUBLE_EQ(m.totals().utility_delivered, 0.3);
    EXPECT_DOUBLE_EQ(m.totals().energy_joules, 5.0);
}

TEST(metrics, unmetered_bytes_are_separated) {
    metrics_recorder m(1, 6);
    const auto n = make_note(0, 0, false);
    m.on_arrival(n);
    m.on_delivery(make_delivery(n, 1, 500.0, 0.1), 1.0, 1.0, false);
    EXPECT_DOUBLE_EQ(m.totals().bytes_delivered, 500.0);
    EXPECT_DOUBLE_EQ(m.totals().metered_bytes_delivered, 0.0);
}

TEST(metrics, precision_requires_delivery_before_click) {
    metrics_recorder m(1, 6);
    const auto early = make_note(0, 0, true, 0.0, 100.0);
    const auto late = make_note(1, 0, true, 0.0, 100.0);
    m.on_arrival(early);
    m.on_arrival(late);
    m.on_delivery(make_delivery(early, 1, 10, 0.1), 50.0, 0.0, true);  // before click
    m.on_delivery(make_delivery(late, 1, 10, 0.1), 200.0, 0.0, true);  // after click
    EXPECT_DOUBLE_EQ(m.totals().precision(), 0.5); // one of two deliveries before click
    EXPECT_DOUBLE_EQ(m.totals().recall(), 1.0);    // both clicked items delivered
}

TEST(metrics, recall_counts_clicked_deliveries_regardless_of_time) {
    metrics_recorder m(1, 6);
    const auto clicked = make_note(0, 0, true, 0.0, 10.0);
    const auto unclicked = make_note(1, 0, false);
    m.on_arrival(clicked);
    m.on_arrival(unclicked);
    m.on_delivery(make_delivery(clicked, 1, 10, 0.2), 50.0, 0.0, true); // after click
    EXPECT_DOUBLE_EQ(m.totals().recall(), 1.0);
    EXPECT_DOUBLE_EQ(m.totals().precision(), 0.0);
    EXPECT_DOUBLE_EQ(m.totals().utility_clicked, 0.2);
}

TEST(metrics, queuing_delay_statistics) {
    metrics_recorder m(1, 6);
    const auto n0 = make_note(0, 0, false, 100.0);
    const auto n1 = make_note(1, 0, false, 100.0);
    m.on_arrival(n0);
    m.on_arrival(n1);
    m.on_delivery(make_delivery(n0, 1, 10, 0.1), 160.0, 0.0, true); // 60 s
    m.on_delivery(make_delivery(n1, 1, 10, 0.1), 280.0, 0.0, true); // 180 s
    EXPECT_DOUBLE_EQ(m.totals().queuing_delay_sec.mean(), 120.0);
}

TEST(metrics, level_mix_fractions_sum_to_one) {
    metrics_recorder m(1, 6);
    std::vector<notification> notes;
    for (std::uint64_t i = 0; i < 4; ++i) {
        notes.push_back(make_note(i, 0, false));
        m.on_arrival(notes.back());
    }
    m.on_delivery(make_delivery(notes[0], 1, 10, 0.1), 1.0, 0.0, true);
    m.on_delivery(make_delivery(notes[1], 6, 10, 0.1), 1.0, 0.0, true);
    m.on_delivery(make_delivery(notes[2], 6, 10, 0.1), 1.0, 0.0, true);
    const auto mix = m.level_mix();
    ASSERT_EQ(mix.size(), 7u);
    EXPECT_DOUBLE_EQ(mix[0], 0.25); // one undelivered
    EXPECT_DOUBLE_EQ(mix[1], 0.25);
    EXPECT_DOUBLE_EQ(mix[6], 0.5);
    double total = 0;
    for (double f : mix) total += f;
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(metrics, session_overhead_adds_energy_only) {
    metrics_recorder m(1, 6);
    m.on_session_overhead(0, 12.5);
    EXPECT_DOUBLE_EQ(m.totals().energy_joules, 12.5);
    EXPECT_DOUBLE_EQ(m.totals().bytes_delivered, 0.0);
}

TEST(metrics, user_categories_bucket_by_arrivals) {
    metrics_recorder m(4, 6);
    // Users 0..3 receive 1, 1, 3, 5 arrivals respectively.
    std::uint64_t id = 0;
    const std::vector<int> arrivals = {1, 1, 3, 5};
    for (richnote::trace::user_id u = 0; u < 4; ++u) {
        for (int k = 0; k < arrivals[u]; ++k) {
            const auto n = make_note(id++, u, false);
            m.on_arrival(n);
            m.on_delivery(make_delivery(n, 1, 10, 1.0), 1.0, 0.0, true);
        }
    }
    const auto rows = m.utility_by_user_category({1, 3});
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].users, 2u); // <=1 arrival
    EXPECT_EQ(rows[1].users, 1u); // 2..3
    EXPECT_EQ(rows[2].users, 1u); // >3
    EXPECT_DOUBLE_EQ(rows[0].mean_utility, 1.0);
    EXPECT_DOUBLE_EQ(rows[2].mean_utility, 5.0);
    EXPECT_EQ(rows[2].label, ">3");
}

TEST(metrics, average_utility_per_delivery) {
    metrics_recorder m(1, 6);
    const auto n0 = make_note(0, 0, false);
    const auto n1 = make_note(1, 0, false);
    m.on_arrival(n0);
    m.on_arrival(n1);
    m.on_delivery(make_delivery(n0, 1, 10, 0.2), 1.0, 0.0, true);
    m.on_delivery(make_delivery(n1, 1, 10, 0.6), 1.0, 0.0, true);
    EXPECT_DOUBLE_EQ(m.totals().average_utility(), 0.4);
}

TEST(metrics, empty_recorder_returns_zeroes) {
    metrics_recorder m(2, 6);
    EXPECT_DOUBLE_EQ(m.delivery_ratio(), 0.0);
    EXPECT_DOUBLE_EQ(m.totals().precision(), 0.0);
    EXPECT_DOUBLE_EQ(m.totals().recall(), 0.0);
    EXPECT_DOUBLE_EQ(m.totals().queuing_delay_sec.mean(), 0.0);
    EXPECT_DOUBLE_EQ(m.totals().average_utility(), 0.0);
}

TEST(metrics, sparse_totals_equal_every_user_loops_bitwise) {
    // 10,000 users, ~1% touched, some only through the calls that do not
    // count an arrival. totals(), level_mix() and export_metrics must equal
    // the per-field loops over EVERY user bit for bit (== on doubles).
    constexpr std::size_t users = 10'000;
    metrics_recorder m(users, 6);
    std::mt19937_64 gen(12345);
    auto unit = [&gen] { return static_cast<double>(gen() >> 11) * 0x1.0p-53; };
    auto pick = [&gen] { return static_cast<richnote::trace::user_id>(gen() % users); };
    std::uint64_t id = 0;
    for (int k = 0; k < 60; ++k) {
        const auto u = pick();
        for (int a = 0, n = 1 + static_cast<int>(gen() % 5); a < n; ++a) {
            const auto note = make_note(id++, u, gen() % 2 == 0, 100.0 * unit(), 1e4 * unit());
            m.on_arrival(note);
            if (gen() % 3 != 0) {
                m.on_delivery(make_delivery(note, 1 + gen() % 6, 1e5 * unit(), unit()),
                              note.created_at + 1e3 * unit(), 10.0 * unit(), gen() % 2 == 0,
                              gen() % 4 == 0 ? 5e4 * unit() : -1.0);
            }
        }
        if (gen() % 2 == 0) m.on_transfer_interrupted(u, 1e4 * unit());
        if (gen() % 4 == 0) m.on_dead_letter(u);
        if (gen() % 5 == 0) m.on_crash_restart(u);
    }
    // Users reached only through calls that never count an arrival.
    for (int k = 0; k < 10; ++k) {
        m.on_session_overhead(pick(), 3.0 * unit());
        m.on_fault(pick());
        m.on_duplicate_suppressed(pick());
        m.on_resume(pick(), 1e3 * unit());
    }

    double arrived = 0, delivered = 0, clicked = 0, hit_clicked = 0, hit_before = 0;
    double bytes = 0, metered = 0, utility = 0, utility_clicked = 0, energy = 0;
    richnote::running_stats delay;
    fault_counters faults;
    for (std::size_t u = 0; u < users; ++u) {
        const user_metrics& x = m.user(u);
        arrived += static_cast<double>(x.arrived);
        delivered += static_cast<double>(x.delivered);
        clicked += static_cast<double>(x.clicked_total);
        hit_clicked += static_cast<double>(x.delivered_clicked);
        hit_before += static_cast<double>(x.delivered_before_click);
        bytes += x.bytes_delivered;
        metered += x.metered_bytes_delivered;
        utility += x.utility_delivered;
        utility_clicked += x.utility_clicked;
        energy += x.energy_joules;
        delay.merge(x.queuing_delay_sec);
        faults.accumulate(x.faults);
    }
    std::vector<double> mix(7, 0.0);
    double mixed = 0;
    for (std::size_t u = 0; u < users; ++u) {
        for (std::size_t level = 1; level <= 6; ++level) {
            mix[level] += static_cast<double>(m.user(u).level_counts[level]) / arrived;
            mixed += static_cast<double>(m.user(u).level_counts[level]);
        }
    }
    mix[0] = 1.0 - mixed / arrived;
    ASSERT_GT(delivered, 0.0);
    ASSERT_GT(faults.resumed_bytes, 0.0);

    const user_metrics t = m.totals();
    EXPECT_EQ(static_cast<double>(t.arrived), arrived);
    EXPECT_EQ(static_cast<double>(t.delivered), delivered);
    EXPECT_EQ(t.bytes_delivered, bytes);
    EXPECT_EQ(t.metered_bytes_delivered, metered);
    EXPECT_EQ(t.utility_delivered, utility);
    EXPECT_EQ(t.utility_clicked, utility_clicked);
    EXPECT_EQ(t.energy_joules, energy);
    EXPECT_EQ(t.delivery_ratio(), delivered / arrived);
    EXPECT_EQ(t.recall(), hit_clicked / clicked);
    EXPECT_EQ(t.precision(), hit_before / delivered);
    EXPECT_EQ(t.average_utility(), utility / delivered);
    EXPECT_EQ(t.queuing_delay_sec.mean(), delay.mean());
    EXPECT_EQ(t.faults.faults_injected, faults.faults_injected);
    EXPECT_EQ(t.faults.transfer_retries, faults.transfer_retries);
    EXPECT_EQ(t.faults.dead_lettered, faults.dead_lettered);
    EXPECT_EQ(t.faults.duplicates_suppressed, faults.duplicates_suppressed);
    EXPECT_EQ(t.faults.crash_restarts, faults.crash_restarts);
    EXPECT_EQ(t.faults.partial_bytes, faults.partial_bytes);
    EXPECT_EQ(t.faults.resumed_bytes, faults.resumed_bytes);
    EXPECT_EQ(m.level_mix(), mix);

    richnote::obs::metrics_registry reg;
    richnote::core::export_metrics(t, reg);
    EXPECT_EQ(reg.counter("richnote.delivery.arrived_total"),
              static_cast<std::uint64_t>(arrived));
    EXPECT_EQ(reg.counter("richnote.delivery.delivered_total"),
              static_cast<std::uint64_t>(delivered));
    EXPECT_EQ(reg.gauge("richnote.delivery.bytes_total"), bytes);
    EXPECT_EQ(reg.gauge("richnote.delivery.metered_bytes_total"), metered);
    EXPECT_EQ(reg.gauge("richnote.run.delivery_ratio"), delivered / arrived);
    EXPECT_EQ(reg.gauge("richnote.run.precision"), hit_before / delivered);
    EXPECT_EQ(reg.gauge("richnote.run.recall"), hit_clicked / clicked);
    EXPECT_EQ(reg.gauge("richnote.run.utility_total"), utility);
    EXPECT_EQ(reg.gauge("richnote.run.utility_clicked_total"), utility_clicked);
    EXPECT_EQ(reg.gauge("richnote.run.energy_joules_total"), energy);
    EXPECT_EQ(reg.gauge("richnote.run.mean_queuing_delay_sec"), delay.mean());
    EXPECT_EQ(reg.counter("richnote.faults.injected_total"), faults.faults_injected);
    EXPECT_EQ(reg.counter("richnote.faults.retries_total"), faults.transfer_retries);
    EXPECT_EQ(reg.counter("richnote.faults.dead_letters_total"), faults.dead_lettered);
    EXPECT_EQ(reg.counter("richnote.faults.duplicates_suppressed_total"),
              faults.duplicates_suppressed);
    EXPECT_EQ(reg.counter("richnote.faults.crash_restarts_total"), faults.crash_restarts);
    EXPECT_EQ(reg.gauge("richnote.faults.partial_bytes_total"), faults.partial_bytes);
    EXPECT_EQ(reg.gauge("richnote.faults.resumed_bytes_total"), faults.resumed_bytes);
}

TEST(metrics, rejects_bad_construction_and_ranges) {
    EXPECT_THROW(metrics_recorder(0, 6), richnote::precondition_error);
    EXPECT_THROW(metrics_recorder(1, 0), richnote::precondition_error);
    metrics_recorder m(1, 6);
    EXPECT_THROW(m.on_arrival(make_note(0, 5, false)), richnote::precondition_error);
    const auto n = make_note(0, 0, false);
    EXPECT_THROW(m.on_delivery(make_delivery(n, 7, 10, 0.1), 1.0, 0.0, true),
                 richnote::precondition_error);
    EXPECT_THROW(m.utility_by_user_category({}), richnote::precondition_error);
    EXPECT_THROW(m.utility_by_user_category({5, 2}), richnote::precondition_error);
}

} // namespace
