// Priority preemption on a saturated ring.
//
// A batch-training job grabs the ENTIRE spectrum of a 32-node ring.  One
// millisecond later an interactive high-priority all-reduce arrives.  Under
// FairnessPolicy::kPriorityPreempt the runtime does not make it wait for the
// batch job to finish: at the batch job's next step boundary — the natural
// control point the paper's discrete-step schedule provides — the victim
// suspends, surrenders its band, and the urgent job is admitted on the spot.
// When spectrum frees again the victim resumes on a rebuilt remainder
// schedule (core::rebuild_wrht_remainder), re-proven against the functional
// all-reduce oracle before it touches the ring.
//
//   $ ./examples/preemption
#include <cstdio>

#include "runtime/runtime.hpp"

int main() {
  using namespace wrht;

  runtime::RuntimeConfig config;
  config.ring_size = 32;
  config.optical.wdm.num_wavelengths = 16;
  config.policy = runtime::FairnessPolicy::kPriorityPreempt;
  config.batcher.enabled = false;

  runtime::CollectiveRuntime rt(config);
  rt.trace().enable();

  // The batch job: large payload, whole spectrum, background priority.
  runtime::JobSpec batch;
  for (std::uint32_t i = 0; i < 24; ++i) batch.participants.push_back(i);
  batch.payload = util::megabytes(96);
  batch.requested_wavelengths = 16;
  batch.min_wavelengths = 8;
  batch.priority = 0;
  batch.name = "batch";
  const runtime::JobId victim = rt.submit(batch);

  // The interactive job: small, urgent, arrives mid-flight.
  runtime::JobSpec urgent;
  urgent.participants = {2, 5, 9, 14, 20, 27};
  urgent.payload = util::megabytes(2);
  urgent.arrival = util::milliseconds(1.0);
  urgent.min_wavelengths = 4;
  urgent.priority = 9;
  urgent.name = "urgent";
  const runtime::JobId vip = rt.submit(urgent);

  const runtime::RuntimeReport report = rt.run();
  std::fputs(report.to_string().c_str(), stdout);

  std::printf("\n%-8s %-4s %-8s %-10s %-10s %-9s %s\n", "job", "prio",
              "band", "admitted", "completed", "preempted", "state");
  for (std::size_t i = 0; i < rt.num_jobs(); ++i) {
    const runtime::JobRecord& r = rt.record(static_cast<runtime::JobId>(i));
    std::printf("%-8s %-4d [%2u,%2u) %-10s %-10s %-9u %s\n",
                r.spec.name.c_str(), r.spec.priority, r.band.base,
                r.band.base + r.band.width,
                util::to_string(r.admitted).c_str(),
                util::to_string(r.completed).c_str(), r.preemptions,
                runtime::job_state_name(r.state));
  }

  std::printf("\ntimeline:\n");
  for (const sim::TraceEvent& e : rt.trace().events()) {
    std::printf("  t=%-10s %-12s job=%lld ", util::to_string(e.time).c_str(),
                sim::trace_kind_name(e.kind), static_cast<long long>(e.a));
    // Band events carry (base, width); on step events b is the step index.
    if (e.c >= 0) {
      std::printf("band [%lld, +%lld)\n", static_cast<long long>(e.b),
                  static_cast<long long>(e.c));
    } else {
      std::printf("b=%lld\n", static_cast<long long>(e.b));
    }
  }

  // The acceptance story: the urgent job was admitted at the instant the
  // victim surrendered its band (one step boundary, not one job), and the
  // victim still completed a correct all-reduce afterwards.
  util::Seconds preempt_time{-1.0};
  util::Seconds vip_admit{-1.0};
  for (const sim::TraceEvent& e : rt.trace().events()) {
    if (e.kind == sim::TraceKind::kJobPreempt &&
        e.a == static_cast<std::int64_t>(victim) &&
        preempt_time < util::Seconds(0.0)) {
      preempt_time = e.time;
    }
    if (e.kind == sim::TraceKind::kJobAdmit &&
        e.a == static_cast<std::int64_t>(vip)) {
      vip_admit = e.time;
    }
  }
  const runtime::JobRecord& v = rt.record(victim);
  const runtime::JobRecord& u = rt.record(vip);
  const bool ok = report.completed == 2 && report.preemptions >= 1 &&
                  report.resumes == report.preemptions &&
                  report.oracle_failures == 0 && vip_admit == preempt_time &&
                  u.completed < v.completed && v.oracle_ok && u.oracle_ok;
  std::printf("\nurgent admitted at the victim's step boundary, victim "
              "resumed and finished correctly: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
