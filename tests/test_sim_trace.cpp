#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <new>
#include <set>
#include <string>

namespace {
std::size_t g_allocations = 0;
}  // namespace

// Counting replacements for the global allocator: the recording test below
// snapshots g_allocations around a burst of records.
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wrht::sim {
namespace {

using wrht::util::Seconds;

// Events are plain numbers: a 10^6-job trace holds tens of millions of
// them, so the size is part of the contract.
static_assert(sizeof(TraceEvent) <= 40, "TraceEvent grew past 40 bytes");

TEST(Trace, DisabledByDefaultRecordsNothing) {
  Trace trace;
  EXPECT_FALSE(trace.enabled());
  trace.record(Seconds(1.0), TraceKind::kStepBegin, 0);
  EXPECT_TRUE(trace.events().empty());
}

TEST(Trace, EnabledRecordsEvents) {
  Trace trace;
  trace.enable();
  trace.record(Seconds(1.0), TraceKind::kStepBegin, 0);
  trace.record(Seconds(2.0), TraceKind::kTransferBegin, 3, 7, 2);
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[0].c, -1);
  EXPECT_EQ(trace.events()[1].a, 3);
  EXPECT_EQ(trace.events()[1].b, 7);
  EXPECT_EQ(trace.events()[1].c, 2);
}

TEST(Trace, RecordingAllocatesOnlyForVectorGrowth) {
  // What the runtime records per placed job under cost-model routing: a
  // route decision (job, chosen substrate) and a band event (job, base,
  // width).  Only the event vector's doublings may allocate.
  Trace trace;
  trace.enable();
  constexpr std::size_t kJobs = 1000;
  const std::size_t before = g_allocations;
  for (std::size_t job = 0; job < kJobs; ++job) {
    const auto id = static_cast<std::int64_t>(job);
    trace.record(Seconds(1e-6 * static_cast<double>(job)),
                 TraceKind::kRouteDecision, id, 1);
    trace.record(Seconds(1e-6 * static_cast<double>(job)),
                 TraceKind::kJobAdmit, id, 8, 4);
  }
  const std::size_t allocations = g_allocations - before;
  ASSERT_EQ(trace.events().size(), 2 * kJobs);
  EXPECT_LE(allocations,
            static_cast<std::size_t>(std::bit_width(2 * kJobs)) + 1);
  EXPECT_EQ(trace.events()[0].c, -1);
  EXPECT_EQ(trace.events()[1].c, 4);
}

TEST(Trace, DisableStopsRecording) {
  Trace trace;
  trace.enable();
  trace.record(Seconds(1.0), TraceKind::kTune, 1);
  trace.disable();
  trace.record(Seconds(2.0), TraceKind::kTune, 2);
  EXPECT_EQ(trace.events().size(), 1u);
}

TEST(Trace, ClearEmpties) {
  Trace trace;
  trace.enable();
  trace.record(Seconds(1.0), TraceKind::kStepEnd, 0);
  trace.clear();
  EXPECT_TRUE(trace.events().empty());
}

TEST(Trace, ToStringFormatsEvents) {
  Trace trace;
  trace.enable();
  trace.record(Seconds(12.5e-6), TraceKind::kTransferBegin, 3, 7);
  trace.record(Seconds(1.0), TraceKind::kStepEnd, 0);
  trace.record(Seconds(2.0), TraceKind::kJobAdmit, 5, 0, 4);
  const std::string text = trace.to_string();
  EXPECT_NE(text.find("transfer_begin"), std::string::npos);
  EXPECT_NE(text.find("a=3"), std::string::npos);
  EXPECT_NE(text.find("b=7"), std::string::npos);
  EXPECT_NE(text.find("job_admit a=5 b=0 c=4"), std::string::npos);
  // c is printed only where it was recorded.
  EXPECT_EQ(text.find("c=-1"), std::string::npos);
  EXPECT_EQ(text.find("b=7 c="), std::string::npos);
  EXPECT_NE(text.find("step_end"), std::string::npos);
  EXPECT_NE(text.find("12.5 us"), std::string::npos);
}

TEST(Trace, KindNamesAreStable) {
  EXPECT_STREQ(trace_kind_name(TraceKind::kStepBegin), "step_begin");
  EXPECT_STREQ(trace_kind_name(TraceKind::kTune), "tune");
  EXPECT_STREQ(trace_kind_name(TraceKind::kFlowEnd), "flow_end");
  EXPECT_STREQ(trace_kind_name(TraceKind::kCustom), "custom");
  EXPECT_STREQ(trace_kind_name(TraceKind::kJobFused), "job_fused");
}

TEST(Trace, EveryKindHasANameAndTheyAreUnique) {
  // kTraceKindCount is the enum's size (trace.cpp static_asserts the name
  // table against it); a kind added without a name would fall through to
  // the "?" fallback and break the exporters silently.
  std::set<std::string> names;
  for (std::size_t i = 0; i < kTraceKindCount; ++i) {
    const char* name = trace_kind_name(static_cast<TraceKind>(i));
    EXPECT_STRNE(name, "?") << "unnamed TraceKind " << i;
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate TraceKind name: " << name;
  }
  EXPECT_EQ(names.size(), kTraceKindCount);
}

}  // namespace
}  // namespace wrht::sim
