#include "workload/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <vector>

#include "workload/generator.hpp"

namespace wrht::workload {
namespace {

TEST(TraceFormat, NamesRoundTrip) {
  EXPECT_EQ(parse_trace_format("jsonl"), TraceFormat::kJsonl);
  EXPECT_EQ(parse_trace_format("csv"), TraceFormat::kCsv);
  EXPECT_FALSE(parse_trace_format("yaml").has_value());
  EXPECT_STREQ(trace_format_name(TraceFormat::kJsonl), "jsonl");
  EXPECT_STREQ(trace_format_name(TraceFormat::kCsv), "csv");
}

TEST(FormatDoubleExact, RoundTripsThroughStrtod) {
  const double values[] = {0.0,
                           0.1,
                           1.0 / 3.0,
                           -2.5,
                           1e-300,
                           5e-324,
                           1.7976931348623157e308,
                           123456.789,
                           0.30000000000000004};
  for (const double v : values) {
    const std::string text = format_double_exact(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

std::vector<runtime::JobSpec> generated_specs(std::uint64_t n) {
  WorkloadConfig config;
  config.seed = 99;
  config.num_jobs = n;
  config.arrivals = ArrivalProcess::kBursty;
  WorkloadGenerator gen(config);
  std::vector<runtime::JobSpec> specs;
  while (std::optional<runtime::JobSpec> spec = gen.next()) {
    specs.push_back(std::move(*spec));
  }
  return specs;
}

void expect_specs_equal(const runtime::JobSpec& a, const runtime::JobSpec& b) {
  EXPECT_EQ(a.arrival.value(), b.arrival.value());
  EXPECT_EQ(a.participants, b.participants);
  EXPECT_EQ(a.payload.count(), b.payload.count());
  EXPECT_EQ(a.requested_wavelengths, b.requested_wavelengths);
  EXPECT_EQ(a.min_wavelengths, b.min_wavelengths);
  EXPECT_EQ(a.priority, b.priority);
  EXPECT_EQ(a.pin, b.pin);
  EXPECT_EQ(a.deadline.value(), b.deadline.value());
  EXPECT_EQ(a.name, b.name);
}

void round_trip(const std::vector<runtime::JobSpec>& specs,
                TraceFormat format) {
  std::ostringstream out;
  TraceWriter writer(out, format);
  for (const runtime::JobSpec& spec : specs) writer.write(spec);
  EXPECT_EQ(writer.written(), specs.size());

  std::istringstream in(out.str());
  TraceReader reader(in, format);
  std::size_t i = 0;
  while (std::optional<runtime::JobSpec> spec = reader.next()) {
    ASSERT_LT(i, specs.size());
    expect_specs_equal(specs[i], *spec);
    ++i;
  }
  EXPECT_EQ(i, specs.size());
  EXPECT_EQ(reader.read(), specs.size());
}

// Every field of every generated spec — arrival doubles included — must
// survive the text round trip bit for bit; this is what makes a replayed
// trace reproduce the recorded RuntimeReport exactly.
TEST(TraceIo, JsonlRoundTripPreservesGeneratedSpecs) {
  round_trip(generated_specs(300), TraceFormat::kJsonl);
}

TEST(TraceIo, CsvRoundTripPreservesGeneratedSpecs) {
  round_trip(generated_specs(300), TraceFormat::kCsv);
}

TEST(TraceIo, RoundTripPreservesHandWrittenEdgeCases) {
  std::vector<runtime::JobSpec> specs;
  runtime::JobSpec tricky;
  tricky.arrival = util::Seconds(0.1 + 0.2);  // 0.30000000000000004
  tricky.participants = {0, 63};
  tricky.payload = util::Bytes(1);
  tricky.requested_wavelengths = 8;
  tricky.min_wavelengths = 4;
  tricky.priority = -3;
  tricky.pin = runtime::SubstratePin::kElectricalOnly;
  tricky.deadline = util::Seconds(1.0 / 3.0);
  tricky.name = "a,b \"quoted\" name";
  specs.push_back(tricky);
  runtime::JobSpec plain;
  plain.arrival = util::Seconds(2.0);
  plain.participants = {1, 2, 3};
  plain.payload = util::kilobytes(64);
  specs.push_back(plain);
  round_trip(specs, TraceFormat::kJsonl);
  round_trip(specs, TraceFormat::kCsv);
}

TEST(TraceIo, JsonlOmitsDefaultedFields) {
  runtime::JobSpec plain;
  plain.arrival = util::Seconds(1.5);
  plain.participants = {4, 9};
  plain.payload = util::Bytes(1024);
  std::ostringstream out;
  TraceWriter writer(out, TraceFormat::kJsonl);
  writer.write(plain);
  EXPECT_EQ(out.str(),
            "{\"arrival\":1.5,\"participants\":[4,9],\"payload\":1024}\n");
}

TEST(TraceIo, CsvHeaderMismatchDies) {
  std::istringstream in("not,the,header\n1,2,3\n");
  EXPECT_DEATH(TraceReader(in, TraceFormat::kCsv), "header mismatch");
}

// The header before the weight column was dropped names ten columns; the
// header check refuses it and names what it got.
TEST(TraceIo, CsvWithTheOldTenColumnHeaderDies) {
  std::istringstream in(
      "arrival,participants,payload,requested,min,weight,priority,pin,"
      "deadline,name\n"
      "0.5,1 2,64,0,1,1,0,any,0,\n");
  EXPECT_DEATH(TraceReader(in, TraceFormat::kCsv),
               "header mismatch, got 'arrival,participants,payload,requested,"
               "min,weight,priority,pin,deadline,name'");
}

// JSONL ignores keys it does not know, so a line recorded with a weight
// still loads.
TEST(TraceIo, JsonlLineWithAWeightStillLoads) {
  std::istringstream in(
      "{\"arrival\":0.5,\"participants\":[1,2],\"payload\":64,"
      "\"weight\":2.5,\"priority\":3}\n");
  TraceReader reader(in, TraceFormat::kJsonl);
  const std::optional<runtime::JobSpec> spec = reader.next();
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->arrival.value(), 0.5);
  EXPECT_EQ(spec->participants, (std::vector<topo::NodeId>{1, 2}));
  EXPECT_EQ(spec->payload.count(), 64u);
  EXPECT_EQ(spec->priority, 3);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(TraceIo, MalformedJsonlLineDies) {
  std::istringstream in("{\"arrival\":}\n");
  TraceReader reader(in, TraceFormat::kJsonl);
  EXPECT_DEATH(reader.next(), "line 1");
}

// The end-to-end promise: a trace recorded to TEXT and replayed through
// serve() reproduces the directly-served RuntimeReport bit for bit, in both
// formats.  This is what shortest-round-trip double formatting buys.
TEST(TraceIo, ReplayedTraceReproducesRuntimeReport) {
  WorkloadConfig wconfig;
  wconfig.seed = 31;
  wconfig.num_jobs = 400;
  wconfig.ring_size = 32;
  wconfig.mean_rate = 2000.0;
  wconfig.payload_median = util::kilobytes(128);
  wconfig.max_payload = util::megabytes(4);
  wconfig.max_participants = 12;

  runtime::RuntimeConfig rconfig;
  rconfig.ring_size = 32;
  rconfig.optical.wdm.num_wavelengths = 32;
  rconfig.policy = runtime::FairnessPolicy::kFifo;
  rconfig.default_request = 4;
  rconfig.batcher.enabled = false;

  WorkloadGenerator direct(wconfig);
  runtime::CollectiveRuntime direct_rt(rconfig);
  const runtime::RuntimeReport expected = direct_rt.serve(direct);

  for (const TraceFormat format : {TraceFormat::kJsonl, TraceFormat::kCsv}) {
    WorkloadGenerator gen(wconfig);
    std::ostringstream out;
    record_trace(gen, out, format);

    std::istringstream in(out.str());
    TraceReader reader(in, format);
    runtime::CollectiveRuntime replay_rt(rconfig);
    const runtime::RuntimeReport replayed = replay_rt.serve(reader);

    EXPECT_EQ(expected.makespan.value(), replayed.makespan.value());
    EXPECT_EQ(expected.completed, replayed.completed);
    EXPECT_EQ(expected.rejected, replayed.rejected);
    EXPECT_EQ(expected.total_steps, replayed.total_steps);
    EXPECT_EQ(expected.spectrum_reservations, replayed.spectrum_reservations);
    EXPECT_EQ(expected.total_turnaround.value(),
              replayed.total_turnaround.value());
    EXPECT_EQ(expected.slo.p99_turnaround.value(),
              replayed.slo.p99_turnaround.value());
    EXPECT_EQ(expected.slo.max_wait.value(), replayed.slo.max_wait.value());
    EXPECT_EQ(expected.slo.deadline_hits, replayed.slo.deadline_hits);
  }
}

// Record a generated workload to CSV, replay it through serve() under
// priority preemption, resize and batching, and every job's record matches
// the direct serve's: the nine-column schema carries every field the
// runtime reads.
TEST(TraceIo, RecordedCsvTraceReplaysEveryJobRecord) {
  WorkloadConfig wconfig;
  wconfig.seed = 7;
  wconfig.num_jobs = 300;
  wconfig.ring_size = 32;
  wconfig.mean_rate = 4000.0;
  wconfig.payload_median = util::kilobytes(128);
  wconfig.max_payload = util::megabytes(4);
  wconfig.max_participants = 12;
  wconfig.deadline_fraction = 0.5;

  runtime::RuntimeConfig rconfig;
  rconfig.ring_size = 32;
  rconfig.optical.wdm.num_wavelengths = 32;
  rconfig.policy = runtime::FairnessPolicy::kPriorityPreempt;
  rconfig.elastic_resize = true;
  rconfig.default_request = 4;

  WorkloadGenerator direct(wconfig);
  runtime::CollectiveRuntime direct_rt(rconfig);
  direct_rt.serve(direct);

  WorkloadGenerator gen(wconfig);
  std::ostringstream out;
  EXPECT_EQ(record_trace(gen, out, TraceFormat::kCsv), 300u);
  std::istringstream in(out.str());
  TraceReader reader(in, TraceFormat::kCsv);
  runtime::CollectiveRuntime replay_rt(rconfig);
  replay_rt.serve(reader);
  EXPECT_EQ(reader.read(), 300u);

  ASSERT_EQ(direct_rt.num_jobs(), replay_rt.num_jobs());
  for (runtime::JobId id = 0; id < direct_rt.num_jobs(); ++id) {
    const runtime::JobRecord& a = direct_rt.record(id);
    const runtime::JobRecord& b = replay_rt.record(id);
    SCOPED_TRACE(id);
    expect_specs_equal(a.spec, b.spec);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.admitted.value(), b.admitted.value());
    EXPECT_EQ(a.completed.value(), b.completed.value());
    EXPECT_EQ(a.band, b.band);
    EXPECT_EQ(a.batch_size, b.batch_size);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.resizes, b.resizes);
  }
}

TEST(TraceIo, RecordTraceDrainsSource) {
  WorkloadConfig config;
  config.num_jobs = 25;
  WorkloadGenerator gen(config);
  std::ostringstream out;
  EXPECT_EQ(record_trace(gen, out, TraceFormat::kCsv), 25u);
  EXPECT_EQ(gen.emitted(), 25u);
}

}  // namespace
}  // namespace wrht::workload
