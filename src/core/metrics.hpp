// Experiment metrics (§V-C): delivery ratio, precision/recall against the
// trace's recorded clicks, delivered utility (overall and among clicked
// items), download energy and queuing delay, plus the presentation-level
// mix behind Figs. 5(b)/5(c) and the per-user aggregation behind Fig. 5(d).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/counters.hpp"
#include "core/scheduler.hpp"
#include "sim/time.hpp"
#include "trace/notification.hpp"

namespace richnote::obs {
class metrics_registry;
}

namespace richnote::core {

/// Per-user tallies; metrics_recorder::totals() sums them into the same
/// struct for the run-wide figures (Figs. 3/4 are sums and ratios of sums).
struct user_metrics {
    std::uint64_t arrived = 0;
    std::uint64_t delivered = 0;
    std::uint64_t clicked_total = 0;      ///< clicked in the trace (recall denom.)
    std::uint64_t delivered_clicked = 0;  ///< clicked items that were delivered
    std::uint64_t delivered_before_click = 0; ///< ... before the recorded click time
    double bytes_delivered = 0.0;
    double metered_bytes_delivered = 0.0; ///< bytes charged to the data budget
    double utility_delivered = 0.0;       ///< sum of U(i, eta(i)) over deliveries
    double utility_clicked = 0.0;         ///< same, restricted to clicked items
    double energy_joules = 0.0;
    richnote::running_stats queuing_delay_sec;
    std::vector<std::uint64_t> level_counts; ///< deliveries per level (index 0 unused)

    /// Fault / recovery tallies (resilient delivery pipeline); the shared
    /// counter block also carried by telemetry samples and fault summaries.
    fault_counters faults;

    double delivery_ratio() const noexcept; ///< Fig. 3(a) over the run totals
    /// §V-C: "the fraction of delivered notifications (before the recorded
    /// click time in the Spotify trace) that are clicked on by the users".
    double precision() const noexcept; ///< delivered_before_click / delivered
    /// §V-C: "the fraction of total clicked notifications that are
    /// delivered to the users" (no before-click qualifier).
    double recall() const noexcept;    ///< delivered_clicked / clicked_total
    double average_utility() const noexcept; ///< utility_delivered / delivered

    /// Adds `other`'s tallies field by field (level_counts must match in size).
    user_metrics& accumulate(const user_metrics& other) noexcept;
};

/// All mutating calls touch only the recipient user's slot and its byte in
/// the touched-user flags, so the recorder is safe under user-sharded
/// parallelism (each user driven by exactly one worker thread); aggregates
/// are computed between rounds or after the run.
class metrics_recorder {
public:
    explicit metrics_recorder(std::size_t user_count, std::size_t max_level);

    /// A notification arrived at the broker.
    void on_arrival(const trace::notification& n);

    /// A planned entry was actually delivered at `when`; `energy_joules`
    /// is its share of the round's radio energy; `metered` says whether the
    /// bytes were charged against the cellular data budget. `bytes_moved`
    /// is how many bytes actually crossed the link in the completing
    /// attempt — less than d.size_bytes when a partial transfer resumed
    /// from its high-water mark; negative (the default) means the full
    /// planned size.
    void on_delivery(const planned_delivery& d, richnote::sim::sim_time when,
                     double energy_joules, bool metered, double bytes_moved = -1.0);

    /// Extra radio-session energy not attributable to a single item.
    void on_session_overhead(trace::user_id user, double energy_joules);

    // ----- fault / recovery events (surfaced from the broker) -----

    /// An injected environment fault (blackout / brownout) hit this round.
    void on_fault(trace::user_id user);

    /// A transfer was cut mid-flight after moving `bytes_moved` bytes; the
    /// item stays queued for retry.
    void on_transfer_interrupted(trace::user_id user, double bytes_moved);

    /// An item exhausted its retry budget and was dead-lettered.
    void on_dead_letter(trace::user_id user);

    /// A replayed publish (duplicate notification id) was suppressed.
    void on_duplicate_suppressed(trace::user_id user);

    /// The user's broker crashed and restarted from its checkpoint.
    void on_crash_restart(trace::user_id user);

    /// A completing transfer salvaged `bytes` previously moved by
    /// interrupted attempts (resume from the high-water mark).
    void on_resume(trace::user_id user, double bytes);

    const user_metrics& user(std::size_t u) const;
    std::size_t user_count() const noexcept { return users_.size(); }
    std::size_t max_level() const noexcept { return max_level_; }

    /// The run totals: every user's tallies summed in one pass in ascending
    /// user order, visiting only users some on_* call has touched. An
    /// untouched user's slot is all zeros, so skipping it adds only exact
    /// +0.0 terms and empty accumulators: the sums are bit-identical to a
    /// pass over every user, at a cost of O(touched users) plus a scan of
    /// one flag byte per user.
    user_metrics totals() const;

    // Thin views of totals() for callers that need one number.
    double total_arrived() const { return static_cast<double>(totals().arrived); }
    double total_delivered() const { return static_cast<double>(totals().delivered); }
    double delivery_ratio() const { return totals().delivery_ratio(); }

    /// Fraction of deliveries at each level 1..max (Figs. 5(b)/(c));
    /// index 0 counts items never delivered ("missing fraction").
    std::vector<double> level_mix() const;

    /// Fig. 5(d): bucket users by arrived-item count (edges are bucket upper
    /// bounds; the last is open-ended) and report mean/stddev of per-user
    /// delivered utility per bucket.
    struct user_category_row {
        std::string label;
        std::size_t users = 0;
        double mean_utility = 0.0;
        double stddev_utility = 0.0;
    };
    std::vector<user_category_row> utility_by_user_category(
        const std::vector<std::uint64_t>& edges) const;

private:
    /// Range-checks `u`, flags it touched and returns its slot.
    user_metrics& touch(std::size_t u);

    std::vector<user_metrics> users_;
    /// One byte per user, set by every mutating call. Bytes rather than
    /// vector<bool> bits: concurrent shards write their own users' flags,
    /// and distinct bytes are distinct memory locations, so no two workers
    /// ever race on a shared word.
    std::vector<std::uint8_t> touched_;
    std::size_t max_level_;
};

/// Exports run totals (metrics_recorder::totals()) into the obs registry
/// under the canonical richnote.* metric names (DESIGN.md §9) — the one
/// place the recorder's tallies and the fault counter block become named
/// series.
void export_metrics(const user_metrics& totals, richnote::obs::metrics_registry& registry);

} // namespace richnote::core
