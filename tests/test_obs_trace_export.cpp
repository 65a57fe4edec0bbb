// The Chrome trace-event exporter: the document parses, every track's
// timestamps are non-decreasing, duration spans are balanced, and the
// counter tracks / instant events carry what the layout comment promises.
#include "obs/trace_export.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "runtime/runtime.hpp"
#include "sim/trace.hpp"

namespace wrht::obs {
namespace {

using util::Seconds;

/// Every non-metadata event must carry ph/pid/tid/ts; returns the parsed
/// traceEvents array after asserting the envelope.
const JsonValue& trace_events(const JsonValue& document) {
  const JsonValue* events = document.find("traceEvents");
  EXPECT_NE(events, nullptr);
  EXPECT_EQ(events->kind, JsonValue::Kind::kArray);
  return *events;
}

struct TrackKey {
  double pid = 0;
  double tid = 0;
  auto operator<=>(const TrackKey&) const = default;
};

TEST(ChromeTrace, InstrumentedRunExportsAValidBalancedDocument) {
  // A hybrid run that exercises every track family: concurrent optical
  // tenants, electrical spill, fusion, and sampled gauges.
  obs::MetricsRegistry registry;
  runtime::RuntimeConfig config;
  config.ring_size = 32;
  config.optical.wdm.num_wavelengths = 16;
  config.default_request = 8;
  config.placement = runtime::HybridPlacementPolicy::kElectricalOverflow;
  config.electrical.fabric = runtime::ElectricalFabric::kTwoLevelShared;
  config.electrical.oversubscription = 4.0;
  config.metrics = &registry;
  runtime::CollectiveRuntime rt(config);
  rt.trace().enable();

  for (std::uint32_t t = 0; t < 2; ++t) {
    runtime::JobSpec spec;
    for (std::uint32_t i = 0; i < 8; ++i) {
      spec.participants.push_back(t * 8 + i);
    }
    spec.payload = util::megabytes(16);
    spec.name = "tenant" + std::to_string(t);
    rt.submit(spec);
  }
  for (std::uint32_t i = 0; i < 3; ++i) {
    runtime::JobSpec spec;
    spec.participants = {1, 5, 17, 26};
    spec.payload = util::kilobytes(64);
    spec.arrival = util::milliseconds(1.0);
    spec.name = "bucket" + std::to_string(i);
    rt.submit(spec);
  }
  const runtime::RuntimeReport report = rt.run();
  ASSERT_EQ(report.completed, 5u);
  ASSERT_GE(report.electrical.jobs, 1u);

  const std::string json =
      chrome_trace_json(rt.trace(), rt.records(), &registry);
  const JsonParseResult parsed = json_parse(json);
  ASSERT_TRUE(parsed.ok) << parsed.error << " at byte " << parsed.offset;
  const JsonValue& events = trace_events(parsed.value);
  ASSERT_FALSE(events.array.empty());

  std::map<TrackKey, double> last_ts;
  // Counter tracks are keyed by (pid, name) — several series share tid 0 —
  // so their monotonicity is checked per name.
  std::map<std::string, double> last_counter_ts;
  std::map<TrackKey, int> depth;
  std::set<std::string> counter_names;
  std::set<std::string> span_names;
  for (const JsonValue& event : events.array) {
    const JsonValue* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M") continue;  // metadata carries no ts
    const TrackKey track{event.find("pid")->number,
                         event.find("tid")->number};
    const double ts = event.find("ts")->number;
    if (ph->string == "C") {
      const std::string& name = event.find("name")->string;
      auto [it, inserted] = last_counter_ts.try_emplace(name, ts);
      if (!inserted) {
        EXPECT_GT(ts, it->second) << "counter ts regressed on " << name;
        it->second = ts;
      }
    } else {
      auto [it, inserted] = last_ts.try_emplace(track, ts);
      if (!inserted) {
        EXPECT_GE(ts, it->second) << "ts regressed on pid "
                                  << track.pid << " tid " << track.tid;
        it->second = ts;
      }
    }
    if (ph->string == "B") {
      ++depth[track];
      span_names.insert(event.find("name")->string);
    } else if (ph->string == "E") {
      EXPECT_GT(depth[track], 0) << "E without matching B";
      --depth[track];
    } else if (ph->string == "C") {
      counter_names.insert(event.find("name")->string);
    } else if (ph->string == "i") {
      EXPECT_EQ(event.find("s")->string, "t");
    }
  }
  for (const auto& [track, open] : depth) {
    EXPECT_EQ(open, 0) << "unbalanced spans on pid " << track.pid;
  }
  // Job spans carry the tenant names, step spans the step index.
  EXPECT_TRUE(span_names.count("tenant0"));
  EXPECT_TRUE(span_names.count("tenant1"));
  EXPECT_TRUE(span_names.count("step 0"));
  // At least three counter tracks (queue depth, running/suspended jobs,
  // spectrum occupancy, uplink utilization...).
  EXPECT_GE(counter_names.size(), 3u)
      << "got only " << counter_names.size() << " counter tracks";
  EXPECT_TRUE(counter_names.count("runtime.queue_depth"));
  EXPECT_TRUE(counter_names.count("optical.spectrum_occupancy"));
  EXPECT_TRUE(counter_names.count("electrical.uplink_utilization"));
}

TEST(ChromeTrace, ProcessAndThreadNamesAreDeclared) {
  runtime::JobRecord record;
  record.id = 0;
  record.state = runtime::JobState::kDone;
  record.spec.name = "my-tenant";
  sim::Trace trace;
  const JsonParseResult parsed =
      json_parse(chrome_trace_json(trace, {record}, nullptr));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  bool optical_named = false;
  bool thread_named = false;
  for (const JsonValue& event : trace_events(parsed.value).array) {
    if (event.find("ph")->string != "M") continue;
    const std::string& meta = event.find("name")->string;
    const JsonValue* args = event.find("args");
    if (meta == "process_name" && args->find("name")->string ==
                                      "optical ring") {
      optical_named = true;
    }
    if (meta == "thread_name" &&
        args->find("name")->string == "my-tenant") {
      thread_named = true;
    }
  }
  EXPECT_TRUE(optical_named);
  EXPECT_TRUE(thread_named);
}

TEST(ChromeTrace, TruncatedTraceClosesOpenSpansAtTheLastTimestamp) {
  // An admit with no complete (a run cut short): the exporter must close
  // the span at the latest timestamp so the document still loads.
  sim::Trace trace;
  trace.enable();
  trace.record(Seconds(1e-6), sim::TraceKind::kJobAdmit, 0, 4, 4);
  trace.record(Seconds(3e-6), sim::TraceKind::kStepBegin, 0, 0);
  runtime::JobRecord record;
  record.id = 0;
  record.state = runtime::JobState::kRunning;
  const JsonParseResult parsed =
      json_parse(chrome_trace_json(trace, {record}, nullptr));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  int begins = 0;
  int ends = 0;
  double last_end_ts = -1.0;
  for (const JsonValue& event : trace_events(parsed.value).array) {
    const std::string& ph = event.find("ph")->string;
    if (ph == "B") ++begins;
    if (ph == "E") {
      ++ends;
      last_end_ts = event.find("ts")->number;
    }
  }
  EXPECT_EQ(begins, 2);
  EXPECT_EQ(ends, 2);
  EXPECT_EQ(last_end_ts, 3.0);  // the latest seen ts, in microseconds
}

TEST(ChromeTrace, FusionAndRouteDecisionRenderAsInstants) {
  sim::Trace trace;
  trace.enable();
  trace.record(Seconds(1e-6), sim::TraceKind::kJobAdmit, 0, 2, 4);
  trace.record(Seconds(2e-6), sim::TraceKind::kJobFused, 1, 0);
  trace.record(Seconds(5e-6), sim::TraceKind::kRouteDecision, 2,
               static_cast<std::int64_t>(runtime::SubstrateKind::kElectrical));
  std::vector<runtime::JobRecord> records(3);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].id = static_cast<runtime::JobId>(i);
    records[i].state = runtime::JobState::kDone;
  }
  // Neither prediction survives 15 significant digits, so only an exact
  // number reads back bit-equal.
  records[2].predicted_optical = Seconds(1e-5 / 3.0);
  records[2].predicted_electrical = Seconds(0.1 + 0.2);
  const JsonParseResult parsed =
      json_parse(chrome_trace_json(trace, records, nullptr));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  bool admit_seen = false;
  bool fused_seen = false;
  bool route_seen = false;
  for (const JsonValue& event : trace_events(parsed.value).array) {
    const JsonValue* name = event.find("name");
    if (!name) continue;
    if (event.find("ph")->string == "B" && name->string == "job 0") {
      admit_seen = true;
      const JsonValue* args = event.find("args");
      ASSERT_EQ(args->find("width")->kind, JsonValue::Kind::kNumber);
      EXPECT_EQ(args->find("band_base")->number, 2.0);
      EXPECT_EQ(args->find("width")->number, 4.0);
    }
    if (name->string == "fused") {
      fused_seen = true;
      EXPECT_EQ(event.find("args")->find("into_lead_job")->number, 0.0);
    }
    if (name->string == "route decision") {
      route_seen = true;
      const JsonValue* args = event.find("args");
      EXPECT_EQ(args->find("chose")->string, "electrical");
      const JsonValue* optical = args->find("predicted_optical");
      const JsonValue* electrical = args->find("predicted_electrical");
      ASSERT_EQ(optical->kind, JsonValue::Kind::kNumber);
      ASSERT_EQ(electrical->kind, JsonValue::Kind::kNumber);
      EXPECT_EQ(optical->number, records[2].predicted_optical.value());
      EXPECT_EQ(electrical->number, records[2].predicted_electrical.value());
    }
  }
  EXPECT_TRUE(admit_seen);
  EXPECT_TRUE(fused_seen);
  EXPECT_TRUE(route_seen);
}

TEST(ChromeTrace, FaultEventsNameTheirDomain) {
  sim::Trace trace;
  trace.enable();
  trace.record(Seconds(1e-6), sim::TraceKind::kNodeFail, 7,
               static_cast<std::int64_t>(runtime::FaultDomain::kTor));
  trace.record(Seconds(2e-6), sim::TraceKind::kFaultRepair, 7,
               static_cast<std::int64_t>(runtime::FaultDomain::kTor));
  const JsonParseResult parsed =
      json_parse(chrome_trace_json(trace, {}, nullptr));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  int faults = 0;
  for (const JsonValue& event : trace_events(parsed.value).array) {
    if (event.find("ph")->string != "i") continue;
    ++faults;
    EXPECT_EQ(event.find("tid")->number, 7.0);
    EXPECT_EQ(event.find("args")->find("domain")->string, "tor");
  }
  EXPECT_EQ(faults, 2);
}

TEST(ChromeTrace, EmptyInputsStillProduceALoadableDocument) {
  sim::Trace trace;
  const JsonParseResult parsed =
      json_parse(chrome_trace_json(trace, {}, nullptr));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.find("displayTimeUnit")->string, "ms");
}

}  // namespace
}  // namespace wrht::obs
