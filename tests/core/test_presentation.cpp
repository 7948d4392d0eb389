#include "core/presentation.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace {

using richnote::core::audio_preview_generator;
using richnote::core::pareto_prune;
using richnote::core::presentation;
using richnote::core::presentation_candidate;
using richnote::core::presentation_set;

presentation_set two_levels() {
    return presentation_set({presentation{"meta", 200.0, 0.01, 0.0},
                             presentation{"meta+5s", 100'200.0, 0.26, 5.0}});
}

TEST(presentation_set, level_zero_is_free_and_empty) {
    const auto set = two_levels();
    EXPECT_DOUBLE_EQ(set.size(0), 0.0);
    EXPECT_DOUBLE_EQ(set.utility(0), 0.0);
}

TEST(presentation_set, levels_are_one_indexed) {
    const auto set = two_levels();
    EXPECT_EQ(set.level_count(), 2u);
    EXPECT_DOUBLE_EQ(set.size(1), 200.0);
    EXPECT_DOUBLE_EQ(set.utility(2), 0.26);
    EXPECT_EQ(set.at(1).label, "meta");
}

TEST(presentation_set, total_size_sums_all_levels) {
    const auto set = two_levels();
    EXPECT_DOUBLE_EQ(set.total_size(), 100'400.0);
}

TEST(presentation_set, rejects_non_monotone_orderings) {
    EXPECT_THROW(presentation_set({presentation{"a", 100, 0.5, 0},
                                   presentation{"b", 100, 0.6, 0}}),
                 richnote::precondition_error);
    EXPECT_THROW(presentation_set({presentation{"a", 100, 0.5, 0},
                                   presentation{"b", 200, 0.5, 0}}),
                 richnote::precondition_error);
    EXPECT_THROW(presentation_set({presentation{"a", 200, 0.6, 0},
                                   presentation{"b", 100, 0.5, 0}}),
                 richnote::precondition_error);
}

TEST(presentation_set, rejects_empty_and_out_of_range) {
    EXPECT_THROW(presentation_set(std::vector<presentation>{}),
                 richnote::precondition_error);
    const auto set = two_levels();
    EXPECT_THROW(set.size(3), richnote::precondition_error);
    EXPECT_THROW(set.at(0), richnote::precondition_error);
}

// The Fig. 2(a) example: "B is not a useful presentation given A, because A
// provides the same utility for a smaller size, and similarly D provides a
// higher utility than same-sized B and C."
TEST(pareto, reproduces_figure_2a_example) {
    std::vector<presentation_candidate> candidates = {
        {"A", 100, 0.5, 0}, // small, decent utility
        {"B", 200, 0.5, 0}, // dominated by A (same utility, larger)
        {"C", 200, 0.4, 0}, // dominated by A and D
        {"D", 200, 0.7, 0}, // largest utility at its size
    };
    const auto useful = pareto_prune(std::move(candidates));
    ASSERT_EQ(useful.size(), 2u);
    EXPECT_EQ(useful[0].label, "A");
    EXPECT_EQ(useful[1].label, "D");
}

TEST(pareto, output_is_sorted_with_strictly_increasing_utility) {
    std::vector<presentation_candidate> candidates;
    for (int i = 0; i < 20; ++i) {
        // Appending to a built string (not "p" + std::string) dodges a
        // GCC 12 -Wrestrict false positive in inlined operator+ at -O3.
        std::string label = "p";
        label += std::to_string(i);
        candidates.push_back({std::move(label),
                              static_cast<double>(100 + (i * 37) % 500),
                              0.1 + 0.04 * ((i * 13) % 17), 0});
    }
    const auto useful = pareto_prune(std::move(candidates));
    for (std::size_t i = 1; i < useful.size(); ++i) {
        EXPECT_GT(useful[i].size_bytes, useful[i - 1].size_bytes);
        EXPECT_GT(useful[i].utility, useful[i - 1].utility);
    }
}

TEST(pareto, duplicates_collapse_to_one) {
    std::vector<presentation_candidate> candidates = {
        {"x", 100, 0.5, 0}, {"y", 100, 0.5, 0}};
    EXPECT_EQ(pareto_prune(std::move(candidates)).size(), 1u);
}

TEST(pareto, empty_input_is_empty_output) {
    EXPECT_TRUE(pareto_prune({}).empty());
}

audio_preview_generator paper_generator() {
    return audio_preview_generator(audio_preview_generator::params{});
}

TEST(audio_generator, produces_the_six_paper_levels) {
    const auto set = paper_generator().generate(276.0);
    // §V-C: metadata only + previews of 5/10/20/30/40 s.
    EXPECT_EQ(set.level_count(), 6u);
    EXPECT_EQ(set.at(1).label, "meta");
    EXPECT_DOUBLE_EQ(set.at(1).preview_sec, 0.0);
    EXPECT_DOUBLE_EQ(set.at(6).preview_sec, 40.0);
}

TEST(audio_generator, sizes_match_paper_arithmetic) {
    // §V-C: "At 160kbps bitrate, the size of a d-sec preview is d x 20KB",
    // plus 200 B of metadata.
    const auto set = paper_generator().generate(276.0);
    EXPECT_DOUBLE_EQ(set.size(1), 200.0);
    EXPECT_DOUBLE_EQ(set.size(2), 200.0 + 5.0 * 20'000.0);
    EXPECT_DOUBLE_EQ(set.size(6), 200.0 + 40.0 * 20'000.0);
}

TEST(audio_generator, metadata_carries_one_percent_utility) {
    const auto set = paper_generator().generate(276.0);
    EXPECT_DOUBLE_EQ(set.utility(1), 0.01);
    EXPECT_DOUBLE_EQ(set.utility(6), 1.0); // longest preview normalizes to 1
}

TEST(audio_generator, utilities_follow_equation_8_shape) {
    const auto set = paper_generator().generate(276.0);
    // Diminishing returns: utility gain per added level shrinks relative to
    // the size gain (the gradient decreases).
    double prev_gradient = 1e18;
    for (richnote::core::level_t j = 1; j < 6; ++j) {
        const double gradient =
            (set.utility(j + 1) - set.utility(j)) / (set.size(j + 1) - set.size(j));
        EXPECT_LT(gradient, prev_gradient);
        prev_gradient = gradient;
    }
}

TEST(audio_generator, short_tracks_clip_previews) {
    // A 12-second track cannot carry a 20/30/40 s preview; clipped
    // duplicates must be pruned away.
    const auto set = paper_generator().generate(12.0);
    EXPECT_LT(set.level_count(), 6u);
    for (richnote::core::level_t j = 1; j <= set.level_count(); ++j)
        EXPECT_LE(set.at(j).preview_sec, 12.0);
}

TEST(audio_generator, preview_utility_is_monotone_in_duration) {
    const auto gen = paper_generator();
    EXPECT_LT(gen.preview_utility(5), gen.preview_utility(10));
    EXPECT_LT(gen.preview_utility(10), gen.preview_utility(40));
    EXPECT_LE(gen.preview_utility(40), 1.0);
}

TEST(audio_generator, rejects_bad_params) {
    audio_preview_generator::params p;
    p.metadata_utility_fraction = 0.0;
    EXPECT_THROW(audio_preview_generator{p}, richnote::precondition_error);
    p = audio_preview_generator::params{};
    p.preview_durations_sec.clear();
    EXPECT_THROW(audio_preview_generator{p}, richnote::precondition_error);
    p = audio_preview_generator::params{};
    p.bitrate_kbps = 0;
    EXPECT_THROW(audio_preview_generator{p}, richnote::precondition_error);
}

} // namespace
