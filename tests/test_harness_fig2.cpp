// Smoke-scale Figure-2 runs: the full pipeline (schedule builders, flow
// simulator, optical DES, reporting) at node counts small enough for CI,
// checking the orderings the paper's figure shows.
#include "harness/fig2.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "dnn/catalog.hpp"
#include "harness/report.hpp"
#include "workload/trace_io.hpp"

namespace wrht::harness {
namespace {

using util::Bytes;

TEST(Fig2, AlgoNames) {
  EXPECT_STREQ(algo_name(Algo::kERing), "E-Ring");
  EXPECT_STREQ(algo_name(Algo::kRD), "RD");
  EXPECT_STREQ(algo_name(Algo::kORing), "O-Ring");
  EXPECT_STREQ(algo_name(Algo::kWrht), "WRHT");
  EXPECT_EQ(all_algos().size(), 4u);
}

TEST(Fig2, AllTimesPositive) {
  const ExperimentConfig config = smoke_config();
  const Bytes payload(10'000'000);
  for (const Algo algo : all_algos()) {
    const util::Seconds t = allreduce_time(algo, 16, payload, config);
    EXPECT_GT(t.value(), 0.0) << algo_name(algo);
  }
}

TEST(Fig2, WrhtFastestAtModerateScale) {
  // Even at N=32 with the default physics, WRHT beats all three baselines.
  const ExperimentConfig config = paper_config();
  const Bytes payload(62'300'000ull * 4);  // AlexNet
  const std::uint32_t n = 32;
  const double wrht =
      allreduce_time(Algo::kWrht, n, payload, config).value();
  for (const Algo algo : {Algo::kERing, Algo::kRD, Algo::kORing}) {
    EXPECT_LT(wrht, allreduce_time(algo, n, payload, config).value())
        << algo_name(algo);
  }
}

TEST(Fig2, ORingDegradesWithScaleWrhtFlat) {
  const ExperimentConfig config = paper_config();
  const Bytes payload(27'191'000);  // GoogLeNet-ish
  const double oring_small =
      allreduce_time(Algo::kORing, 16, payload, config).value();
  const double oring_large =
      allreduce_time(Algo::kORing, 64, payload, config).value();
  EXPECT_GT(oring_large / oring_small, 3.0);

  const double wrht_small =
      allreduce_time(Algo::kWrht, 16, payload, config).value();
  const double wrht_large =
      allreduce_time(Algo::kWrht, 64, payload, config).value();
  EXPECT_LT(wrht_large / wrht_small, 3.0);
}

TEST(Fig2, ElectricalBaselinesArePinned) {
  // Fig. 2's E-Ring and RD on AlexNet at the paper's scales, bit for bit:
  // the electrical cluster's routes and the flow solver feed these numbers.
  const ExperimentConfig config = paper_config();
  const Bytes payload = dnn::alexnet().gradient_bytes(config.dtype);
  struct Pin {
    Algo algo;
    std::uint32_t nodes;
    const char* seconds;
  };
  const Pin pins[] = {
      {Algo::kERing, 128, "0.4083049999999992"},
      {Algo::kERing, 256, "0.4226627040000035"},
      {Algo::kERing, 512, "0.449041454399993"},
      {Algo::kERing, 1024, "0.5006316479999908"},
      {Algo::kRD, 128, "1.3958700000000002"},
      {Algo::kRD, 256, "1.5952800000000003"},
      {Algo::kRD, 512, "1.7946900000000003"},
      {Algo::kRD, 1024, "1.9941000000000004"},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(workload::format_double_exact(
                  allreduce_time(pin.algo, pin.nodes, payload, config)
                      .value()),
              pin.seconds)
        << algo_name(pin.algo) << " at N=" << pin.nodes;
  }
}

TEST(Fig2, PanelHasAllRows) {
  ExperimentConfig config = paper_config();
  config.node_counts = {8, 16};
  const dnn::Model model("Tiny", 1'000'000);
  const auto rows = run_fig2_panel(model, config);
  ASSERT_EQ(rows.size(), 8u);  // 2 scales x 4 algorithms
  for (const Fig2Row& row : rows) {
    EXPECT_EQ(row.model, "Tiny");
    EXPECT_GT(row.time.value(), 0.0);
  }
}

TEST(Fig2, HeadlineReductionsPositiveAtSmokeScale) {
  ExperimentConfig config = paper_config();
  config.node_counts = {16, 32};
  const dnn::Model model("Tiny", 10'000'000);
  const auto rows = run_fig2_panel(model, config);
  const HeadlineReductions reductions = headline_reductions(rows);
  EXPECT_GT(reductions.vs_electrical_pct, 0.0);
  EXPECT_GT(reductions.vs_oring_pct, 0.0);
  EXPECT_LT(reductions.vs_electrical_pct, 100.0);
  EXPECT_LT(reductions.vs_oring_pct, 100.0);
}

TEST(Report, PanelRendersAllAlgorithms) {
  ExperimentConfig config = paper_config();
  config.node_counts = {8};
  const dnn::Model model("Tiny", 1'000'000);
  const auto rows = run_fig2_panel(model, config);
  const std::string panel = render_panel(rows);
  for (const Algo algo : all_algos()) {
    EXPECT_NE(panel.find(algo_name(algo)), std::string::npos);
  }
  EXPECT_NE(panel.find("Tiny"), std::string::npos);
  EXPECT_NE(panel.find("normalized"), std::string::npos);
}

TEST(Report, HeadlineMentionsPaperNumbers) {
  const std::string text = render_headline({70.0, 90.0});
  EXPECT_NE(text.find("75.76%"), std::string::npos);
  EXPECT_NE(text.find("91.86%"), std::string::npos);
  EXPECT_NE(text.find("70.00%"), std::string::npos);
  EXPECT_NE(text.find("90.00%"), std::string::npos);
}

TEST(Report, CsvWellFormed) {
  ExperimentConfig config = paper_config();
  config.node_counts = {8};
  const dnn::Model model("Tiny", 1'000'000);
  const auto rows = run_fig2_panel(model, config);
  std::ostringstream out;
  write_csv(out, rows);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("model,nodes,algo,seconds,normalized"),
            std::string::npos);
  // Header + 4 rows.
  std::size_t lines = 0;
  for (const char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 5u);
}

TEST(Fig2, NormalizedWrhtBaselineIsOne) {
  ExperimentConfig config = paper_config();
  config.node_counts = {8, 16};
  const dnn::Model model("Tiny", 1'000'000);
  const auto rows = run_fig2_panel(model, config);
  const std::string panel = render_panel(rows);
  // The WRHT row at the smallest N is the normalization base: value 1.00.
  EXPECT_NE(panel.find("1.00"), std::string::npos);
}

}  // namespace
}  // namespace wrht::harness
