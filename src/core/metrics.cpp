#include "core/metrics.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/error.hpp"
#include "obs/metrics_registry.hpp"

namespace richnote::core {

namespace {

/// Calls f(slot) for every flagged user in ascending order. memchr skips
/// the untouched runs a word or vector at a time.
template <class F>
void for_each_touched(const std::vector<std::uint8_t>& touched,
                      const std::vector<user_metrics>& users, F&& f) {
    const std::uint8_t* const flags = touched.data();
    const std::size_t n = touched.size();
    for (std::size_t u = 0; u < n; ++u) {
        const void* hit = std::memchr(flags + u, 1, n - u);
        if (hit == nullptr) return;
        u = static_cast<std::size_t>(static_cast<const std::uint8_t*>(hit) - flags);
        f(users[u]);
    }
}

} // namespace

double user_metrics::delivery_ratio() const noexcept {
    return arrived ? static_cast<double>(delivered) / static_cast<double>(arrived) : 0.0;
}

double user_metrics::precision() const noexcept {
    return delivered
               ? static_cast<double>(delivered_before_click) / static_cast<double>(delivered)
               : 0.0;
}

double user_metrics::recall() const noexcept {
    return clicked_total
               ? static_cast<double>(delivered_clicked) / static_cast<double>(clicked_total)
               : 0.0;
}

double user_metrics::average_utility() const noexcept {
    return delivered ? utility_delivered / static_cast<double>(delivered) : 0.0;
}

user_metrics& user_metrics::accumulate(const user_metrics& other) noexcept {
    arrived += other.arrived;
    delivered += other.delivered;
    clicked_total += other.clicked_total;
    delivered_clicked += other.delivered_clicked;
    delivered_before_click += other.delivered_before_click;
    bytes_delivered += other.bytes_delivered;
    metered_bytes_delivered += other.metered_bytes_delivered;
    utility_delivered += other.utility_delivered;
    utility_clicked += other.utility_clicked;
    energy_joules += other.energy_joules;
    queuing_delay_sec.merge(other.queuing_delay_sec);
    for (std::size_t level = 0; level < level_counts.size(); ++level)
        level_counts[level] += other.level_counts[level];
    faults.accumulate(other.faults);
    return *this;
}

metrics_recorder::metrics_recorder(std::size_t user_count, std::size_t max_level)
    : users_(user_count), touched_(user_count, 0), max_level_(max_level) {
    RICHNOTE_REQUIRE(user_count > 0, "metrics need at least one user");
    RICHNOTE_REQUIRE(max_level >= 1, "metrics need at least one presentation level");
    for (auto& u : users_) u.level_counts.assign(max_level + 1, 0);
}

user_metrics& metrics_recorder::touch(std::size_t u) {
    RICHNOTE_REQUIRE(u < users_.size(), "user out of range");
    touched_[u] = 1;
    return users_[u];
}

void metrics_recorder::on_arrival(const trace::notification& n) {
    user_metrics& u = touch(n.recipient);
    ++u.arrived;
    if (n.clicked) ++u.clicked_total;
}

void metrics_recorder::on_delivery(const planned_delivery& d, richnote::sim::sim_time when,
                                   double energy_joules, bool metered, double bytes_moved) {
    RICHNOTE_REQUIRE(d.level >= 1 && d.level <= max_level_,
                     "delivery level out of range");
    if (bytes_moved < 0.0) bytes_moved = d.size_bytes;
    user_metrics& u = touch(d.note.recipient);
    ++u.delivered;
    u.bytes_delivered += bytes_moved;
    if (metered) u.metered_bytes_delivered += bytes_moved;
    u.utility_delivered += d.utility;
    u.energy_joules += energy_joules;
    u.queuing_delay_sec.add(when - d.note.created_at);
    if (d.note.clicked) {
        u.utility_clicked += d.utility;
        ++u.delivered_clicked;
        // "precision as the fraction of delivered notifications (before the
        // recorded click time in the Spotify trace) that are clicked on".
        if (when <= d.note.clicked_at) ++u.delivered_before_click;
    }
    ++u.level_counts[d.level];
}

void metrics_recorder::on_session_overhead(trace::user_id user, double energy_joules) {
    touch(user).energy_joules += energy_joules;
}

void metrics_recorder::on_fault(trace::user_id user) {
    ++touch(user).faults.faults_injected;
}

void metrics_recorder::on_transfer_interrupted(trace::user_id user, double bytes_moved) {
    RICHNOTE_REQUIRE(bytes_moved >= 0.0, "negative partial byte count");
    fault_counters& f = touch(user).faults;
    ++f.transfer_retries;
    f.partial_bytes += bytes_moved;
}

void metrics_recorder::on_dead_letter(trace::user_id user) {
    ++touch(user).faults.dead_lettered;
}

void metrics_recorder::on_duplicate_suppressed(trace::user_id user) {
    ++touch(user).faults.duplicates_suppressed;
}

void metrics_recorder::on_crash_restart(trace::user_id user) {
    ++touch(user).faults.crash_restarts;
}

void metrics_recorder::on_resume(trace::user_id user, double bytes) {
    RICHNOTE_REQUIRE(bytes >= 0.0, "negative resumed byte count");
    touch(user).faults.resumed_bytes += bytes;
}

const user_metrics& metrics_recorder::user(std::size_t u) const {
    RICHNOTE_REQUIRE(u < users_.size(), "user out of range");
    return users_[u];
}

user_metrics metrics_recorder::totals() const {
    user_metrics t;
    t.level_counts.assign(max_level_ + 1, 0);
    for_each_touched(touched_, users_, [&t](const user_metrics& u) { t.accumulate(u); });
    return t;
}

std::vector<double> metrics_recorder::level_mix() const {
    std::vector<double> mix(max_level_ + 1, 0.0);
    const double arrived = total_arrived();
    if (arrived <= 0) return mix;
    double delivered = 0;
    for_each_touched(touched_, users_, [&](const user_metrics& u) {
        for (std::size_t level = 1; level <= max_level_; ++level) {
            mix[level] += static_cast<double>(u.level_counts[level]) / arrived;
            delivered += static_cast<double>(u.level_counts[level]);
        }
    });
    mix[0] = 1.0 - delivered / arrived; // slot 0: the never-delivered
                                        // fraction ("simply the missing
                                        // fraction in each stack").
    return mix;
}

std::vector<metrics_recorder::user_category_row> metrics_recorder::utility_by_user_category(
    const std::vector<std::uint64_t>& edges) const {
    RICHNOTE_REQUIRE(!edges.empty(), "need at least one category edge");
    RICHNOTE_REQUIRE(std::is_sorted(edges.begin(), edges.end()), "edges must be sorted");

    std::vector<richnote::running_stats> buckets(edges.size() + 1);
    for (const auto& u : users_) {
        std::size_t bucket = edges.size();
        for (std::size_t b = 0; b < edges.size(); ++b) {
            if (u.arrived <= edges[b]) {
                bucket = b;
                break;
            }
        }
        buckets[bucket].add(u.utility_delivered);
    }

    std::vector<user_category_row> rows;
    std::uint64_t lo = 0;
    for (std::size_t b = 0; b <= edges.size(); ++b) {
        user_category_row row;
        std::ostringstream label;
        if (b < edges.size()) {
            label << lo << "-" << edges[b];
            lo = edges[b] + 1;
        } else {
            label << ">" << edges.back();
        }
        row.label = label.str();
        row.users = buckets[b].count();
        row.mean_utility = buckets[b].mean();
        row.stddev_utility = buckets[b].stddev();
        rows.push_back(std::move(row));
    }
    return rows;
}

void export_metrics(const user_metrics& totals, richnote::obs::metrics_registry& registry) {
    registry.count("richnote.delivery.arrived_total", totals.arrived);
    registry.count("richnote.delivery.delivered_total", totals.delivered);
    registry.gauge_set("richnote.delivery.bytes_total", totals.bytes_delivered);
    registry.gauge_set("richnote.delivery.metered_bytes_total", totals.metered_bytes_delivered);
    registry.gauge_set("richnote.run.delivery_ratio", totals.delivery_ratio());
    registry.gauge_set("richnote.run.precision", totals.precision());
    registry.gauge_set("richnote.run.recall", totals.recall());
    registry.gauge_set("richnote.run.utility_total", totals.utility_delivered);
    registry.gauge_set("richnote.run.utility_clicked_total", totals.utility_clicked);
    registry.gauge_set("richnote.run.energy_joules_total", totals.energy_joules);
    registry.gauge_set("richnote.run.mean_queuing_delay_sec", totals.queuing_delay_sec.mean());

    const fault_counters& f = totals.faults;
    registry.count("richnote.faults.injected_total", f.faults_injected);
    registry.count("richnote.faults.retries_total", f.transfer_retries);
    registry.count("richnote.faults.dead_letters_total", f.dead_lettered);
    registry.count("richnote.faults.duplicates_suppressed_total", f.duplicates_suppressed);
    registry.count("richnote.faults.crash_restarts_total", f.crash_restarts);
    registry.gauge_set("richnote.faults.partial_bytes_total", f.partial_bytes);
    registry.gauge_set("richnote.faults.resumed_bytes_total", f.resumed_bytes);
}

} // namespace richnote::core
