// The headline experiment: all four Figure-2 panels (AlexNet, VGG16,
// ResNet50, GoogLeNet x N in {128..1024} x four algorithms) and the paper's
// summary claim — Wrht reduces communication time by 75.76% vs. the
// electrical algorithms and 91.86% vs. the optical ring.  Writes the rows to
// fig2_all.csv and the row times plus both reductions to
// BENCH_fig2_summary.json.
#include <cstdio>
#include <fstream>
#include <string>

#include "dnn/catalog.hpp"
#include "harness/bench_json.hpp"
#include "harness/fig2.hpp"
#include "harness/report.hpp"

int main() {
  using namespace wrht;
  const harness::ExperimentConfig config = harness::paper_config();

  std::vector<harness::Fig2Row> all_rows;
  for (const dnn::Model& model : dnn::paper_models()) {
    std::printf("running %s...\n", model.name().c_str());
    const auto rows = harness::run_fig2_panel(model, config);
    std::fputs(harness::render_panel(rows).c_str(), stdout);
    std::fputs("\n", stdout);
    all_rows.insert(all_rows.end(), rows.begin(), rows.end());
  }

  const harness::HeadlineReductions headline =
      harness::headline_reductions(all_rows);
  std::fputs(harness::render_headline(headline).c_str(), stdout);

  std::ofstream csv("fig2_all.csv");
  harness::write_csv(csv, all_rows);
  std::printf("\n%zu rows written to fig2_all.csv\n", all_rows.size());

  harness::BenchJson json("fig2_summary");
  for (const harness::Fig2Row& row : all_rows) {
    json.metric(row.model + "_N" + std::to_string(row.nodes) + "_" +
                    harness::algo_name(row.algo) + "_s",
                row.time.value());
  }
  json.metric("vs_electrical_pct", headline.vs_electrical_pct);
  json.metric("vs_oring_pct", headline.vs_oring_pct);
  json.write();
  return 0;
}
