// perfbench — the measuring program behind the repository benchmark.
//
// Serves one seeded workload through runtime::CollectiveRuntime::serve() in
// a single thread and prints ONE JSON object on stdout:
//
//   {"correct": bool, "attempted": serves, "failed": serves,
//    "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}
//
//   perfbench --workload=optical_backlog --seed=1 --seconds=30 --mode=e2e
//   perfbench --workload=optical_backlog --mode=setup
//   perfbench --workload=routed_chaos --seed=1 --seconds=30 --mode=traced
//
// --mode=e2e prints the end-to-end metrics: host throughput, peak RSS, and
// the simulated outcomes of the run.  --mode=setup prints the set-up time.
// --mode=traced prints the per-module split, taken from a separate run with
// the metrics registry and the event trace attached.  --jobs overrides the
// workload's job count (the self-test serves tiny streams with it).
// Progress goes to stderr.
//
// Everything is measured from outside the library: timed wrappers around
// the JobSource / FaultSource seams, the RuntimeReport, records(), an
// attached obs::MetricsRegistry, rt.trace(), toggles of public RuntimeConfig
// fields, and replays of public layer functions on the run's own job
// records.  Host times are wall time; every sim_* value is simulated time
// and repeats exactly for a fixed seed.
//
// Correctness gates, applied to every serve (any failure sets "correct" to
// false, counts the serve as failed, and makes the exit status 1):
//   * the generator emitted the whole stream and the job ledger closes:
//     completed + rejected + killed == submitted;
//   * the fabric split matches: optical.jobs + electrical.jobs == completed;
//   * the oracle ran and passed on every completed job;
//   * the FNV-1a digest of the report, doubles printed exactly, is the same
//     on every repetition, traced or not, oracle on or off.
// A WRHT_CHECK inside the library aborts the process, which the caller
// (perfbench/run.py) reports as a failed run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "coll/oracle.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "optical/spectrum.hpp"
#include "runtime/runtime.hpp"
#include "sim/trace.hpp"
#include "topo/ring.hpp"
#include "util/cli.hpp"
#include "workload/generator.hpp"
#include "workload/trace_io.hpp"
#include "wrht/builder.hpp"

namespace {

using namespace wrht;

/// Host seconds since `since`.  The simulator's own wall-clock cost is the
/// quantity this program measures; no value read here reaches the sim clock
/// or a report.
// simlint-allow(wallclock): the benchmark's single host-time seam
using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point since) {
  return std::chrono::duration<double>(WallClock::now() - since).count();
}

/// Peak resident set (VmHWM) of this process in MB; 0 where /proc is absent.
double peak_rss_mb() {
  unsigned long kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f)) {
      if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
  return static_cast<double>(kb) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------- workloads

struct Workload {
  workload::WorkloadConfig stream;
  runtime::RuntimeConfig runtime;
  bool faults = false;
};

/// The three benchmark workloads (perfbench/README.md says why each was
/// chosen).  All share the arrival stream's shape and the 64-node, 64-λ
/// ring, with the batcher off and the oracle on.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed,
                                      std::uint64_t jobs_override) {
  Workload w;
  workload::WorkloadConfig& s = w.stream;
  s.seed = seed;
  s.ring_size = 64;
  s.arrivals = workload::ArrivalProcess::kPoisson;
  s.max_participants = 16;
  s.payload_median = util::kilobytes(256);
  s.max_payload = util::megabytes(16);
  s.deadline_fraction = 0.5;

  runtime::RuntimeConfig& r = w.runtime;
  r.ring_size = 64;
  r.optical.wdm.num_wavelengths = 64;
  r.batcher.enabled = false;
  r.validate_with_oracle = true;
  r.policy = runtime::FairnessPolicy::kFifo;

  const auto shared_fabric = [&r] {
    r.electrical.fabric = runtime::ElectricalFabric::kTwoLevelShared;
    r.electrical.hosts_per_tor = 8;
    r.electrical.oversubscription = 4.0;
  };
  if (name == "optical_backlog") {
    s.num_jobs = 50000;
    s.mean_rate = 5e4;
  } else if (name == "hybrid_overflow") {
    s.num_jobs = 8000;
    s.mean_rate = 5e4;
    r.placement = runtime::HybridPlacementPolicy::kElectricalOverflow;
    shared_fabric();
  } else if (name == "routed_chaos") {
    s.num_jobs = 3000;
    s.mean_rate = 5e4;
    r.placement = runtime::HybridPlacementPolicy::kCostModelChoice;
    r.routing_cost_model = runtime::RoutingCostModel::kCongestionAware;
    shared_fabric();
    r.policy = runtime::FairnessPolicy::kPriorityPreempt;
    r.elastic_resize = true;
    // bench/fault_churn's x1 fleet MTBFs, on this ring's 64 λ and 8 ToRs.
    w.faults = true;
    s.fault_horizon = util::Seconds(1.0);
    s.transceiver_mtbf = util::Seconds(0.05);
    s.node_mtbf = util::Seconds(0.08);
    s.tor_mtbf = util::Seconds(0.15);
    s.wavelength_mtbf = util::Seconds(0.06);
    s.fault_mttr = util::Seconds(0.01);
    s.fault_num_wavelengths = 64;
    s.fault_num_tors = 8;
  } else {
    return std::nullopt;
  }
  if (jobs_override > 0) s.num_jobs = jobs_override;
  return w;
}

// ------------------------------------------------------------ timed seams

class TimedJobSource final : public runtime::JobSource {
 public:
  explicit TimedJobSource(runtime::JobSource& inner) : inner_(inner) {}

  std::optional<runtime::JobSpec> next() override {
    const WallClock::time_point start = WallClock::now();
    std::optional<runtime::JobSpec> spec = inner_.next();
    seconds_ += seconds_since(start);
    if (spec) ++specs_;
    return spec;
  }

  [[nodiscard]] double seconds() const { return seconds_; }
  [[nodiscard]] std::uint64_t specs() const { return specs_; }

 private:
  runtime::JobSource& inner_;
  double seconds_ = 0.0;
  std::uint64_t specs_ = 0;
};

class TimedFaultSource final : public runtime::FaultSource {
 public:
  explicit TimedFaultSource(runtime::FaultSource& inner) : inner_(inner) {}

  std::optional<runtime::FaultSpec> next() override {
    const WallClock::time_point start = WallClock::now();
    std::optional<runtime::FaultSpec> fault = inner_.next();
    seconds_ += seconds_since(start);
    return fault;
  }

  [[nodiscard]] double seconds() const { return seconds_; }

 private:
  runtime::FaultSource& inner_;
  double seconds_ = 0.0;
};

// ----------------------------------------------------------------- serves

/// Public RuntimeConfig toggles a serve runs under.  `traced` attaches the
/// metrics registry, enables the event trace, and routes both streams
/// through the timed wrappers.
struct Variant {
  bool oracle = true;
  bool audit = true;
  bool traced = false;
};

/// Everything one serve needs, constructed in dependency order: the
/// generator, its fault injector, the timed wrappers, then the runtime
/// (which builds its substrates).  Constructing one is what setup_s times.
class Serve {
 public:
  Serve(const Workload& w, const Variant& v)
      : traced_(v.traced),
        registry_(v.traced ? std::make_unique<obs::MetricsRegistry>()
                           : nullptr),
        gen_(w.stream),
        injector_(w.faults ? std::optional<runtime::FaultInjector>(
                                 gen_.make_fault_injector())
                           : std::nullopt),
        timed_jobs_(gen_),
        timed_faults_(injector_ ? std::optional<TimedFaultSource>(
                                      std::in_place, *injector_)
                                : std::nullopt),
        rt_(config_for(w, v)) {}

  Serve(const Serve&) = delete;
  Serve& operator=(const Serve&) = delete;

  /// Serve the whole stream; returns host seconds spent inside serve().
  double run() {
    if (traced_) rt_.trace().enable();
    const WallClock::time_point start = WallClock::now();
    report_ = traced_ ? rt_.serve(timed_jobs_) : rt_.serve(gen_);
    return seconds_since(start);
  }

  [[nodiscard]] const runtime::RuntimeReport& report() const {
    return report_;
  }
  [[nodiscard]] const runtime::CollectiveRuntime& rt() const { return rt_; }
  [[nodiscard]] const obs::MetricsRegistry* registry() const {
    return registry_.get();
  }
  [[nodiscard]] const TimedJobSource& timed_jobs() const {
    return timed_jobs_;
  }
  [[nodiscard]] double fault_next_s() const {
    return timed_faults_ ? timed_faults_->seconds() : 0.0;
  }

 private:
  runtime::RuntimeConfig config_for(const Workload& w, const Variant& v) {
    runtime::RuntimeConfig config = w.runtime;
    config.validate_with_oracle = v.oracle;
    config.electrical.replay_audit = v.audit;
    config.metrics = registry_.get();
    if (injector_) {
      config.faults = v.traced ? static_cast<runtime::FaultSource*>(
                                     &*timed_faults_)
                               : &*injector_;
    }
    return config;
  }

  bool traced_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  workload::WorkloadGenerator gen_;
  std::optional<runtime::FaultInjector> injector_;
  TimedJobSource timed_jobs_;
  std::optional<TimedFaultSource> timed_faults_;
  runtime::CollectiveRuntime rt_;
  runtime::RuntimeReport report_;
};

/// FNV-1a over the report with every double printed exactly.
std::uint64_t report_digest(const runtime::RuntimeReport& r) {
  std::string text;
  const auto num = [&text](double v) {
    text += std::isfinite(v) ? workload::format_double_exact(v) : "nonfinite";
    text += ',';
  };
  const auto count = [&text](std::uint64_t v) {
    text += std::to_string(v);
    text += ',';
  };
  const auto breakdown = [&](const runtime::SubstrateBreakdown& b) {
    count(b.jobs);
    count(b.executions);
    count(b.steps);
    num(b.makespan.value());
    num(b.busy_time.value());
    num(b.quiet_time.value());
  };
  num(r.makespan.value());
  count(r.submitted);
  count(r.completed);
  count(r.rejected);
  count(r.executions);
  count(r.batches);
  count(r.total_steps);
  count(r.total_retunes);
  count(r.spectrum_reservations);
  count(r.peak_concurrent_jobs);
  count(r.oracle_failures);
  count(r.preemptions);
  count(r.resumes);
  count(r.resizes);
  count(r.step_retimes);
  count(r.replay_checked_steps);
  for (const double peak : r.electrical_link_peak) num(peak);
  num(r.total_turnaround.value());
  count(r.routing.decisions);
  count(r.routing.to_optical);
  count(r.routing.to_electrical);
  num(r.routing.mean_error);
  num(r.routing.worst_error);
  breakdown(r.optical);
  breakdown(r.electrical);
  const obs::SloStats& slo = r.slo;
  count(slo.jobs);
  num(slo.p50_turnaround.value());
  num(slo.p99_turnaround.value());
  num(slo.p999_turnaround.value());
  num(slo.p50_slowdown);
  num(slo.p99_slowdown);
  num(slo.p999_slowdown);
  num(slo.max_wait.value());
  count(slo.deadline_jobs);
  count(slo.deadline_hits);
  const runtime::FaultStats& f = r.faults;
  count(f.injected);
  count(f.transceiver_faults);
  count(f.node_faults);
  count(f.tor_faults);
  count(f.wavelength_faults);
  count(f.repairs);
  count(f.disrupted_executions);
  count(f.evictions);
  count(f.restarts);
  count(f.migrations);
  count(f.fault_preemptions);
  count(f.killed_jobs);
  count(f.recoveries);
  num(f.total_recovery.value());
  num(f.wasted_step_time.value());
  num(r.step_time_total.value());

  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Tracks the gates across every serve of a run.
class Gates {
 public:
  /// Check one finished serve; `label` names it in the failure message.
  void check(const Workload& w, const Serve& s, const Variant& v,
             const char* label) {
    ++attempted_;
    const runtime::RuntimeReport& r = s.report();
    std::string why;
    if (r.submitted != w.stream.num_jobs) {
      why = "stream not fully submitted";
    } else if (r.completed + r.rejected + r.faults.killed_jobs !=
               r.submitted) {
      why = "job ledger does not close";
    } else if (r.optical.jobs + r.electrical.jobs != r.completed) {
      why = "fabric split does not match completions";
    } else if (r.oracle_failures != 0) {
      why = "oracle failures reported";
    } else if (v.oracle && !all_completed_proven(s.rt())) {
      why = "a completed job lacks an oracle proof";
    }
    // The audit toggle only changes how many steps the end-of-run replay
    // re-proved; every other field must still match.
    runtime::RuntimeReport comparable = r;
    if (!v.audit) comparable.replay_checked_steps = audited_steps_;
    const std::uint64_t digest = report_digest(comparable);
    if (why.empty() && v.audit) audited_steps_ = r.replay_checked_steps;
    if (why.empty()) {
      if (!digest_) {
        digest_ = digest;
      } else if (*digest_ != digest) {
        why = "report digest differs from the first serve";
      }
    }
    if (!why.empty()) fail(label, why);
  }

  /// Count a failed check against the serve named by `label`.
  void fail(const char* label, const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "perfbench: GATE FAILED (%s serve): %s\n", label,
                 why.c_str());
  }

  [[nodiscard]] bool ok() const { return failed_ == 0; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_.value_or(0); }

 private:
  static bool all_completed_proven(const runtime::CollectiveRuntime& rt) {
    return std::all_of(rt.records().begin(), rt.records().end(),
                       [](const runtime::JobRecord& rec) {
                         return rec.state != runtime::JobState::kDone ||
                                rec.oracle_ok;
                       });
  }

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::optional<std::uint64_t> digest_;
  std::uint64_t audited_steps_ = 0;
};

// ----------------------------------------------------------------- output

class MetricList {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }

  [[nodiscard]] std::string to_json(const Gates& gates) const {
    std::string out = "{\"correct\": ";
    out += gates.ok() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(gates.attempted());
    out += ", \"failed\": " + std::to_string(gates.failed());
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (i > 0) out += ", ";
      out += obs::json_quote(e.name) + ": {\"value\": ";
      out += std::isfinite(e.value) ? workload::format_double_exact(e.value)
                                    : std::string("0");
      out += ", \"unit\": " + obs::json_quote(e.unit) + "}";
    }
    out += "}}";
    return out;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// --------------------------------------------------------- end-to-end mode

/// Set-up cost: construct (and destroy) everything a serve needs, in
/// batches long enough for the clock to resolve, and report the median
/// batch's per-construction time.  It differs between processes by more than
/// within one, so perfbench/run.py takes the median over several processes.
int run_setup(const Workload& w) {
  constexpr int kBatches = 31;
  constexpr int kPerBatch = 32;
  std::vector<double> setups;
  for (int b = 0; b < kBatches; ++b) {
    const WallClock::time_point start = WallClock::now();
    for (int i = 0; i < kPerBatch; ++i) const Serve s(w, Variant{});
    setups.push_back(seconds_since(start) / kPerBatch);
  }
  MetricList m;
  m.add("setup_s", median(setups), "s");
  std::printf("%s\n", m.to_json(Gates{}).c_str());
  return 0;
}

int run_e2e(const Workload& w, double budget_s) {
  const WallClock::time_point run_start = WallClock::now();
  Gates gates;
  MetricList m;

  // Timed serves: at least three, then as many as fit in the budget.
  std::vector<double> jobs_per_s;
  runtime::RuntimeReport report;
  std::uint64_t completed = 0;
  std::uint64_t submitted = 0;
  double serve_total = 0.0;
  while (jobs_per_s.size() < 3 ||
         seconds_since(run_start) +
                 serve_total / static_cast<double>(jobs_per_s.size()) <
             budget_s) {
    Serve s(w, Variant{});
    const double serve_s = s.run();
    const std::uint64_t failed_before = gates.failed();
    gates.check(w, s, Variant{}, "timed");
    report = s.report();
    serve_total += serve_s;
    submitted += report.submitted;
    if (gates.failed() == failed_before) completed += report.completed;
    jobs_per_s.push_back(static_cast<double>(report.completed) / serve_s);
  }

  m.add("jobs_per_s", median(jobs_per_s), "1/s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("sim_makespan_s", report.makespan.value(), "s");
  m.add("sim_p50_turnaround_s", report.slo.p50_turnaround.value(), "s");
  m.add("sim_p99_turnaround_s", report.slo.p99_turnaround.value(), "s");
  m.add("sim_p99_slowdown", report.slo.p99_slowdown, "ratio");
  m.add("sim_deadline_hit_rate", report.slo.deadline_hit_rate(), "ratio");
  m.add("sim_goodput", report.goodput(), "ratio");
  m.add("completed_share",
        ratio(static_cast<double>(completed), static_cast<double>(submitted)),
        "ratio");
  std::fprintf(stderr,
               "perfbench: %zu serves of %u jobs, digest %016llx, jobs/s "
               "min %.0f median %.0f max %.0f\n",
               jobs_per_s.size(), report.submitted,
               static_cast<unsigned long long>(gates.digest()),
               *std::min_element(jobs_per_s.begin(), jobs_per_s.end()),
               median(jobs_per_s),
               *std::max_element(jobs_per_s.begin(), jobs_per_s.end()));
  std::printf("%s\n", m.to_json(gates).c_str());
  return gates.ok() ? 0 : 1;
}

// ------------------------------------------------------------- traced mode

/// Replays of the public layer functions on the traced run's own records:
/// every job that completed on the optical ring is rebuilt at its granted
/// band width, re-proven by the oracle, and its (arc, λ) cells walked
/// through RingTopology::spans and a SpectrumMap reserve/release.
struct LayerReplay {
  std::uint64_t builds = 0;
  std::uint64_t steps = 0;
  double build_s = 0.0;
  std::uint64_t verifies = 0;
  double verify_s = 0.0;
  double reserve_s = 0.0;
  bool ok = true;
};

LayerReplay replay_layers(const runtime::CollectiveRuntime& rt,
                          const runtime::RuntimeConfig& config) {
  LayerReplay out;
  const topo::RingTopology& ring = rt.ring();
  // One step's reserved cells, released together at the step's end.
  std::vector<std::pair<topo::Arc, optical::WavelengthId>> held;
  for (const runtime::JobRecord& rec : rt.records()) {
    if (rec.state != runtime::JobState::kDone ||
        rec.substrate != runtime::SubstrateKind::kOptical ||
        !rec.band.valid()) {
      continue;
    }
    core::WrhtParams params;
    params.num_wavelengths = rec.band.width;
    params.fit_policy = config.fit_policy;

    WallClock::time_point start = WallClock::now();
    const core::WrhtBuild build =
        core::build_wrht_among(rec.spec.participants, ring.num_nodes(), params);
    out.build_s += seconds_since(start);
    ++out.builds;
    out.steps += build.annotated.schedule.num_steps();

    start = WallClock::now();
    const coll::OracleResult proof = coll::Oracle::verify_allreduce_among(
        build.annotated.schedule, rec.spec.participants,
        config.oracle_payload_len);
    out.verify_s += seconds_since(start);
    ++out.verifies;
    out.ok = out.ok && proof.ok;

    start = WallClock::now();
    optical::SpectrumMap spectrum(ring, rec.band.width);
    std::uint64_t span_cells = 0;
    for (const std::vector<core::PathAssignment>& step :
         build.annotated.paths) {
      held.clear();
      for (const core::PathAssignment& path : step) {
        span_cells += ring.spans(path.arc).size() * path.lambdas.size();
        for (const optical::WavelengthId lambda : path.lambdas) {
          if (spectrum.try_reserve(path.arc, lambda)) {
            held.emplace_back(path.arc, lambda);
          } else {
            out.ok = false;
          }
        }
      }
      for (const auto& [arc, lambda] : held) spectrum.release(arc, lambda);
    }
    out.reserve_s += seconds_since(start);
    out.ok = out.ok && span_cells > 0;
  }
  return out;
}

/// Simulated admission waits (admitted − arrival) of completed jobs, and
/// the deepest the admission queue got, swept from the records.
struct Waits {
  double p50_s = 0.0;
  double p99_s = 0.0;
  double queue_depth_max = 0.0;
};

Waits waits_from_records(const std::vector<runtime::JobRecord>& records) {
  Waits out;
  std::vector<double> waits;
  // (time, +1 arrival / -1 admission); admissions sort first on ties.
  std::vector<std::pair<double, int>> edges;
  for (const runtime::JobRecord& rec : records) {
    if (rec.state != runtime::JobState::kDone) continue;
    waits.push_back((rec.admitted - rec.spec.arrival).value());
    edges.emplace_back(rec.spec.arrival.value(), 1);
    edges.emplace_back(rec.admitted.value(), -1);
  }
  if (waits.empty()) return out;
  out.p50_s = obs::exact_quantile(waits, 0.50);
  out.p99_s = obs::exact_quantile(waits, 0.99);
  std::sort(edges.begin(), edges.end());
  int depth = 0;
  int deepest = 0;
  for (const auto& edge : edges) {
    depth += edge.second;
    deepest = std::max(deepest, depth);
  }
  out.queue_depth_max = deepest;
  return out;
}

double counter_value(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Counter* c = reg.find_counter(name);
  return c ? static_cast<double>(c->value()) : 0.0;
}

double sampled_mean(const obs::MetricsRegistry& reg, const char* name) {
  for (const obs::TimeSeriesSampler::Series& series : reg.sampler().series()) {
    if (series.name != name || series.points.empty()) continue;
    double sum = 0.0;
    for (const obs::TimeSeriesSampler::Point& p : series.points) {
      sum += p.value;
    }
    return sum / static_cast<double>(series.points.size());
  }
  return 0.0;
}

/// The trace kinds the runtime records; each becomes a
/// sim.trace_events.<kind> count.
constexpr sim::TraceKind kRuntimeTraceKinds[] = {
    sim::TraceKind::kStepBegin,         sim::TraceKind::kStepEnd,
    sim::TraceKind::kJobAdmit,          sim::TraceKind::kJobComplete,
    sim::TraceKind::kJobPreempt,        sim::TraceKind::kJobResume,
    sim::TraceKind::kJobResize,         sim::TraceKind::kJobPlaceOptical,
    sim::TraceKind::kJobPlaceElectrical, sim::TraceKind::kRouteDecision,
    sim::TraceKind::kStepRetimed,       sim::TraceKind::kNodeFail,
    sim::TraceKind::kWavelengthDegrade, sim::TraceKind::kFaultRepair,
    sim::TraceKind::kJobMigrate,        sim::TraceKind::kJobKilled,
};

int run_traced(const Workload& w, double budget_s) {
  const WallClock::time_point run_start = WallClock::now();
  Gates gates;
  MetricList m;
  const bool electrical =
      w.runtime.placement != runtime::HybridPlacementPolicy::kOpticalOnly;

  // The serve kinds of one round; times are host seconds per serve.
  struct Kind {
    Variant variant;
    const char* label;
    std::vector<double> times;
  };
  std::vector<Kind> kinds = {{Variant{}, "plain", {}},
                             {Variant{.traced = true}, "traced", {}},
                             {Variant{.oracle = false}, "oracle-off", {}}};
  if (electrical) kinds.push_back({Variant{.audit = false}, "audit-off", {}});

  // The first traced serve's artifacts give every count and the replays.
  runtime::RuntimeReport report;
  double workload_next_s = 0.0;
  std::uint64_t specs = 0;
  double faults_next_s = 0.0;
  double occupancy_mean = 0.0;
  std::map<std::string, double> registry_counts;
  std::vector<std::pair<std::string, double>> trace_counts;
  std::uint64_t trace_total = 0;
  Waits waits;
  LayerReplay replay;
  const auto capture = [&](const Serve& s) {
    report = s.report();
    workload_next_s = s.timed_jobs().seconds();
    specs = s.timed_jobs().specs();
    faults_next_s = s.fault_next_s();
    const obs::MetricsRegistry& reg = *s.registry();
    for (const char* name : {"optical.retunes", "spectrum.band_allocations",
                             "spectrum.band_releases"}) {
      registry_counts[name] = counter_value(reg, name);
    }
    occupancy_mean = sampled_mean(reg, "optical.spectrum_occupancy");
    std::vector<std::uint64_t> by_kind(sim::kTraceKindCount, 0);
    for (const sim::TraceEvent& e : s.rt().trace().events()) {
      ++by_kind[static_cast<std::size_t>(e.kind)];
    }
    trace_total = s.rt().trace().events().size();
    for (const sim::TraceKind kind : kRuntimeTraceKinds) {
      trace_counts.emplace_back(
          sim::trace_kind_name(kind),
          static_cast<double>(by_kind[static_cast<std::size_t>(kind)]));
    }
    waits = waits_from_records(s.rt().records());
    replay = replay_layers(s.rt(), w.runtime);
  };

  // At least two rounds, then as many as fit in the budget.  Odd rounds
  // serve the kinds in reverse order, so a drift in host speed cancels out
  // of the differences between kinds.
  double round_s = 0.0;
  std::size_t rounds = 0;
  while (rounds < 2 ||
         seconds_since(run_start) + round_s / static_cast<double>(rounds) <
             budget_s) {
    const WallClock::time_point round_start = WallClock::now();
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      Kind& kind = kinds[rounds % 2 == 0 ? i : kinds.size() - 1 - i];
      Serve s(w, kind.variant);
      kind.times.push_back(s.run());
      gates.check(w, s, kind.variant, kind.label);
      if (kind.variant.traced && kind.times.size() == 1) capture(s);
    }
    ++rounds;
    round_s += seconds_since(round_start);
  }
  if (!replay.ok) {
    gates.fail("traced", "a replayed build failed the oracle or its cells");
  }

  const double plain_med = median(kinds[0].times);
  const double traced_med = median(kinds[1].times);
  const double oracle_off_med = median(kinds[2].times);
  const double audit_off_med = electrical ? median(kinds[3].times) : 0.0;
  const double oracle_s = plain_med - oracle_off_med;
  const double audit_s = electrical ? plain_med - audit_off_med : 0.0;

  m.add("coll.oracle_s", oracle_s, "s");
  m.add("coll.oracle_share", ratio(oracle_s, plain_med), "ratio");
  m.add("coll.verifies", static_cast<double>(replay.verifies), "count");
  m.add("coll.verify_s", replay.verify_s, "s");

  m.add("wrht.builds", static_cast<double>(replay.builds), "count");
  m.add("wrht.build_s", replay.build_s, "s");
  m.add("wrht.steps_per_build",
        ratio(static_cast<double>(replay.steps),
              static_cast<double>(replay.builds)),
        "count");

  m.add("optical.reservations",
        static_cast<double>(report.spectrum_reservations), "count");
  m.add("optical.retunes", registry_counts["optical.retunes"], "count");
  m.add("optical.band_allocations",
        registry_counts["spectrum.band_allocations"], "count");
  m.add("optical.band_releases", registry_counts["spectrum.band_releases"],
        "count");
  m.add("optical.occupancy_mean", occupancy_mean, "ratio");
  m.add("optical.reserve_replay_s", replay.reserve_s, "s");

  m.add("elec.steps", static_cast<double>(report.electrical.steps), "count");
  m.add("elec.contention_slowdown", report.electrical.contention_slowdown(),
        "ratio");
  const std::vector<double>& peaks = report.electrical_link_peak;
  m.add("elec.link_peak_max",
        peaks.empty() ? 0.0 : *std::max_element(peaks.begin(), peaks.end()),
        "ratio");
  m.add("elec.replay_checked_steps",
        static_cast<double>(report.replay_checked_steps), "count");
  m.add("elec.audit_s", audit_s, "s");

  m.add("sim.steps", static_cast<double>(report.total_steps), "count");
  m.add("sim.step_retimes", static_cast<double>(report.step_retimes),
        "count");
  m.add("sim.trace_events", static_cast<double>(trace_total), "count");
  for (const auto& [kind, count] : trace_counts) {
    m.add("sim.trace_events." + kind, count, "count");
  }

  m.add("runtime.host_us_per_step",
        1e6 * ratio(plain_med, static_cast<double>(report.total_steps)), "us");
  m.add("runtime.admission_wait_p50_s", waits.p50_s, "s");
  m.add("runtime.admission_wait_p99_s", waits.p99_s, "s");
  m.add("runtime.queue_depth_max", waits.queue_depth_max, "count");
  m.add("runtime.preemptions", report.preemptions, "count");
  m.add("runtime.resumes", report.resumes, "count");
  m.add("runtime.resizes", report.resizes, "count");
  m.add("runtime.routing_decisions", report.routing.decisions, "count");
  m.add("runtime.routing_to_electrical_share",
        ratio(report.routing.to_electrical, report.routing.decisions),
        "ratio");
  m.add("runtime.routing_mean_error", report.routing.mean_error, "ratio");
  // Host time of the untraced serve that none of the measured layers
  // explains: event dispatch, admission, the planner, flow solving and
  // bookkeeping, plus the replay-vs-in-run estimation error.
  m.add("runtime.unattributed_s",
        plain_med - (workload_next_s + faults_next_s + oracle_s +
                     replay.build_s + replay.reserve_s + audit_s),
        "s");

  m.add("faults.next_s", faults_next_s, "s");
  m.add("faults.injected", report.faults.injected, "count");
  m.add("faults.recoveries", report.faults.recoveries, "count");
  m.add("faults.mttr_ms", 1e3 * report.faults.mttr().value(), "ms");
  m.add("faults.evictions", report.faults.evictions, "count");
  m.add("faults.restarts", report.faults.restarts, "count");
  m.add("faults.migrations", report.faults.migrations, "count");
  m.add("faults.wasted_step_s", report.faults.wasted_step_time.value(), "s");

  m.add("workload.next_s", workload_next_s, "s");
  m.add("workload.specs", static_cast<double>(specs), "count");

  m.add("obs.traced_overhead", ratio(traced_med, plain_med), "ratio");

  std::fprintf(stderr,
               "perfbench: %zu traced rounds; plain %.3fs traced %.3fs "
               "oracle-off %.3fs audit-off %.3fs (medians)\n",
               rounds, plain_med, traced_med, oracle_off_med, audit_off_med);
  std::printf("%s\n", m.to_json(gates).c_str());
  return gates.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("Benchmark the runtime's serve() on a seeded workload.");
  cli.add_flag("workload", "optical_backlog",
               "optical_backlog | hybrid_overflow | routed_chaos");
  cli.add_flag("seed", "1", "workload seed (jobs and faults)");
  cli.add_flag("seconds", "30", "measurement budget in host seconds");
  cli.add_flag("mode", "e2e", "e2e | setup | traced");
  cli.add_flag("jobs", "0", "override the workload's job count (0 = keep)");
  if (!cli.parse(argc, argv)) return 2;

  const std::int64_t seed = cli.get_int("seed");
  const std::int64_t jobs = cli.get_int("jobs");
  const double seconds = cli.get_double("seconds");
  const std::string mode = cli.get_string("mode");
  if (seed < 0 || jobs < 0 || !(seconds > 0.0) ||
      (mode != "e2e" && mode != "setup" && mode != "traced")) {
    std::fprintf(stderr, "perfbench: bad arguments\n%s", cli.usage().c_str());
    return 2;
  }
  const std::optional<Workload> w = make_workload(
      cli.get_string("workload"), static_cast<std::uint64_t>(seed),
      static_cast<std::uint64_t>(jobs));
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 cli.get_string("workload").c_str());
    return 2;
  }
  if (mode == "setup") return run_setup(*w);
  return mode == "e2e" ? run_e2e(*w, seconds) : run_traced(*w, seconds);
}
