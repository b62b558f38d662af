#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/units.h"
#include "telemetry/lock_profiler.h"
#include "telemetry/trace.h"
#include "workload/dss_workload.h"
#include "workload/oltp_workload.h"

namespace perfbench {

using locktune::AppPhase;
using locktune::Rng;
using locktune::RowAccess;
using locktune::ScenarioSpec;
using locktune::TransactionProfile;
using locktune::Workload;
using locktune::WorkloadSpec;

namespace {

// Generator call counts and times. Each thread accumulates into its own
// slab, so the hot path writes no shared cache line. A slab registers
// itself on its thread's first generator call; TakeGenTotals sums the
// registered slabs, and a slab whose thread exits folds its counts into
// the retired totals first. Parallel-mode workers may be joined after each
// RunUntil or kept parked between calls: either way every count is found.
struct GenCounts {
  int64_t access_calls = 0;
  int64_t access_timed = 0;     // calls in the 1-in-kAccessSample sample
  int64_t access_timed_ns = 0;
  int64_t txn_calls = 0;
  int64_t txn_ns = 0;

  void Add(const GenCounts& o) {
    access_calls += o.access_calls;
    access_timed += o.access_timed;
    access_timed_ns += o.access_timed_ns;
    txn_calls += o.txn_calls;
    txn_ns += o.txn_ns;
  }
};

struct GenSlab;
std::mutex g_gen_mu;
std::vector<GenSlab*> g_gen_slabs;  // of live threads
GenCounts g_gen_retired;            // of exited threads

struct GenSlab {
  GenSlab() {
    std::lock_guard<std::mutex> guard(g_gen_mu);
    g_gen_slabs.push_back(this);
  }
  GenSlab(const GenSlab&) = delete;
  GenSlab& operator=(const GenSlab&) = delete;
  ~GenSlab() {
    std::lock_guard<std::mutex> guard(g_gen_mu);
    g_gen_retired.Add(counts);
    g_gen_slabs.erase(
        std::find(g_gen_slabs.begin(), g_gen_slabs.end(), this));
  }

  GenCounts counts;
};

thread_local GenSlab t_gen;

// Timing every NextAccess would double its cost with clock reads; one
// call in 16 is timed and the total is scaled from that sample.
constexpr int64_t kAccessSample = 16;

// Takes (and zeroes) every thread's counts. Call only between RunUntil
// calls, when no generator runs: it reads and resets other threads' slabs.
GenCounts TakeGenTotals() {
  std::lock_guard<std::mutex> guard(g_gen_mu);
  GenCounts out = g_gen_retired;
  g_gen_retired = GenCounts{};
  for (GenSlab* slab : g_gen_slabs) {
    out.Add(slab->counts);
    slab->counts = GenCounts{};
  }
  return out;
}

// Forwards to the scenario's generator; the same Rng reaches it, so the
// transaction and access streams are the untraced run's.
class TimedWorkload final : public Workload {
 public:
  explicit TimedWorkload(std::unique_ptr<Workload> inner)
      : inner_(std::move(inner)) {}

  TransactionProfile NextTransaction(Rng& rng) override {
    GenCounts& c = t_gen.counts;
    const int64_t t0 = NowNs();
    TransactionProfile p = inner_->NextTransaction(rng);
    c.txn_ns += NowNs() - t0;
    ++c.txn_calls;
    return p;
  }

  RowAccess NextAccess(Rng& rng) override {
    GenCounts& c = t_gen.counts;
    if (c.access_calls++ % kAccessSample != 0) return inner_->NextAccess(rng);
    const int64_t t0 = NowNs();
    const RowAccess a = inner_->NextAccess(rng);
    c.access_timed_ns += NowNs() - t0;
    ++c.access_timed;
    return a;
  }

 private:
  std::unique_ptr<Workload> inner_;
};

// Counts the decision trace's STMM pass records ("tuning_pass").
class CountingSink final : public locktune::TraceSink {
 public:
  void Append(const locktune::TraceRecord& record) override {
    if (record.kind() == "tuning_pass") {
      passes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  int64_t passes() const { return passes_.load(); }

 private:
  std::atomic<int64_t> passes_{0};
};

double Percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0.0;
  const size_t k = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

double WaitMs(const locktune::ProfileSnapshot& before,
              const locktune::ProfileSnapshot& after,
              locktune::ProfileSite site) {
  const int i = static_cast<int>(site);
  return static_cast<double>(after.sites[i].wait.sum_ns -
                             before.sites[i].wait.sum_ns) /
         1e6;
}

}  // namespace

TracedRun RunTraced(const WorkloadDef& def, uint64_t seed, Checks& checks) {
  TracedRun out;
  locktune::Result<ScenarioSpec> built = def.build(seed);
  if (!built.ok()) {
    checks.Expect(false, "traced run: " + built.status().ToString());
    return out;
  }
  ScenarioSpec spec = std::move(built).value();
  EventCounter events;
  spec.database.lock_monitor = &events;
  CountingSink sink;

  // Set-up, timed by part: the engine, then the generators (the OLTP
  // generator builds its Zipf tables here).
  int64_t t0 = NowNs();
  locktune::Result<std::unique_ptr<locktune::Database>> opened =
      locktune::Database::Open(spec.database);
  if (!opened.ok()) {
    checks.Expect(false, "traced run: " + opened.status().ToString());
    return out;
  }
  std::unique_ptr<locktune::Database> db = std::move(opened).value();
  const double open_ms = static_cast<double>(NowNs() - t0) / 1e6;
  db->set_trace_sink(&sink);

  t0 = NowNs();
  std::vector<std::unique_ptr<Workload>> generators;
  std::vector<locktune::ClientTimeline> timelines;
  for (const WorkloadSpec& w : spec.workloads) {
    std::unique_ptr<Workload> inner;
    if (w.kind == WorkloadSpec::Kind::kOltp) {
      inner = std::make_unique<locktune::OltpWorkload>(db->catalog(), w.oltp);
    } else if (w.kind == WorkloadSpec::Kind::kDss) {
      inner = std::make_unique<locktune::DssWorkload>(db->catalog(), w.dss);
    } else {
      checks.Expect(false, "traced run: only [oltp] and [dss] are wrapped");
      return out;
    }
    generators.push_back(std::make_unique<TimedWorkload>(std::move(inner)));
    locktune::ClientTimeline tl;
    tl.workload = generators.back().get();
    tl.steps = w.client_steps;
    timelines.push_back(std::move(tl));
  }
  const double build_ms = static_cast<double>(NowNs() - t0) / 1e6;
  locktune::ScenarioRunner runner(db.get(), std::move(timelines), spec.runner);

  // The stepped run, one RunUntil per tick.
  TakeGenTotals();
  const locktune::ProfileSnapshot prof0 = locktune::CaptureProfile();
  locktune::StmmController* stmm = db->stmm();
  locktune::LockManager& locks = db->locks();
  std::vector<int64_t> tick_ns;
  std::vector<bool> pass_tick;
  tick_ns.reserve(static_cast<size_t>(spec.runner.duration / spec.runner.tick));
  double runnable_sum = 0.0;
  int64_t blocks_peak = 0, table_peak = 0;
  locktune::Bytes alloc_peak = 0, used_peak = 0;
  const double cpu0 = CpuSeconds();
  const int64_t run0 = NowNs();
  while (db->clock().now() < spec.runner.duration) {
    const size_t passes = stmm != nullptr ? stmm->history().size() : 0;
    const int64_t s = NowNs();
    runner.RunUntil(db->clock().now() + spec.runner.tick);
    tick_ns.push_back(NowNs() - s);
    pass_tick.push_back(stmm != nullptr && stmm->history().size() > passes);
    runnable_sum += static_cast<double>(runner.store().work().size());
    blocks_peak = std::max(blocks_peak, locks.block_count());
    table_peak = std::max(table_peak, locks.lock_table_size());
    alloc_peak = std::max(alloc_peak, locks.allocated_bytes());
    used_peak = std::max(used_peak, locks.used_bytes());
  }
  const double run_s = static_cast<double>(NowNs() - run0) / 1e9;
  const double cpu_s = CpuSeconds() - cpu0;
  const locktune::ProfileSnapshot prof1 = locktune::CaptureProfile();
  const GenCounts gen = TakeGenTotals();
  const locktune::LockManagerStats stats = locks.stats();

  out.run_s = run_s;
  out.commits = runner.total_commits();
  out.finished = FinishedTransactions(runner);
  out.oom_aborts = runner.total_oom_aborts();

  RunView view{&spec, &runner, db.get(), &events};
  CheckRun(def, view, checks);
  // Every transaction starts with one NextTransaction call: the calls the
  // wrapper saw are the finished transactions plus those still open.
  const auto phases = runner.store().PhaseCounts();
  const int64_t open = phases[static_cast<int>(AppPhase::kRunning)] +
                       phases[static_cast<int>(AppPhase::kBlocked)] +
                       phases[static_cast<int>(AppPhase::kHolding)];
  checks.Expect(gen.txn_calls == out.finished + open,
                "traced: " + std::to_string(gen.txn_calls) +
                    " NextTransaction calls, want " +
                    std::to_string(out.finished) + " finished + " +
                    std::to_string(open) + " open");
  const int64_t history = stmm != nullptr
                              ? static_cast<int64_t>(stmm->history().size())
                              : 0;
  checks.Expect(sink.passes() == history,
                "traced: " + std::to_string(sink.passes()) +
                    " tuning_pass trace records, STMM history has " +
                    std::to_string(history));

  // Warm end-state probes, after the checks: both change state.
  t0 = NowNs();
  locks.DetectDeadlocks();
  const double deadlock_scan_us = static_cast<double>(NowNs() - t0) / 1e3;
  double pass_us = 0.0;
  if (stmm != nullptr) {
    t0 = NowNs();
    stmm->RunTuningPass();
    pass_us = static_cast<double>(NowNs() - t0) / 1e3;
  }

  const double access_ns =
      gen.access_timed > 0 ? static_cast<double>(gen.access_timed_ns) /
                                 static_cast<double>(gen.access_timed)
                           : 0.0;
  const double gen_s =
      (access_ns * static_cast<double>(gen.access_calls) +
       static_cast<double>(gen.txn_ns)) /
      1e9;
  const double tick_p50_ns = Percentile(tick_ns, 0.50);
  double pass_extra_ns = 0.0;
  int64_t pass_ticks = 0;
  for (size_t i = 0; i < tick_ns.size(); ++i) {
    if (!pass_tick[i]) continue;
    pass_extra_ns += static_cast<double>(tick_ns[i]) - tick_p50_ns;
    ++pass_ticks;
  }
  if (pass_ticks > 0) pass_extra_ns /= static_cast<double>(pass_ticks);
  const double ticks = static_cast<double>(tick_ns.size());
  const auto count = [](int64_t v) { return static_cast<double>(v); };
  const double mb = static_cast<double>(locktune::kMiB);
  using locktune::ProfileSite;

  out.metrics = {
      {"lock.ns_per_request",
       stats.lock_requests > 0
           ? (run_s - gen_s) * 1e9 / static_cast<double>(stats.lock_requests)
           : 0.0,
       "ns"},
      {"lock.requests", count(stats.lock_requests), "count"},
      {"lock.grants", count(stats.grants), "count"},
      {"lock.waits", count(stats.lock_waits), "count"},
      {"lock.deadlock_scan_us", deadlock_scan_us, "us"},
      {"lock.deadlock_victims", count(stats.deadlock_victims), "count"},
      {"lock.timeouts", count(stats.lock_timeouts), "count"},
      {"lock.escalations", count(stats.escalations), "count"},
      {"lock.escalation_attempts", count(stats.escalation_attempts), "count"},
      {"lock.table_size_peak", count(table_peak), "count"},
      {"workload.access_ns", access_ns, "ns"},
      {"workload.access_calls", count(gen.access_calls), "count"},
      {"workload.txn_calls", count(gen.txn_calls), "count"},
      {"workload.gen_share", run_s > 0 ? gen_s / run_s : 0.0, "ratio"},
      {"workload.build_ms", build_ms, "ms"},
      {"engine.open_ms", open_ms, "ms"},
      {"runner.tick_p50_ms", tick_p50_ns / 1e6, "ms"},
      {"runner.tick_p99_ms", Percentile(tick_ns, 0.99) / 1e6, "ms"},
      {"runner.ticks", ticks, "count"},
      {"runner.runnable_per_tick", ticks > 0 ? runnable_sum / ticks : 0.0,
       "count"},
      {"runner.cpu_per_wall", run_s > 0 ? cpu_s / run_s : 0.0, "ratio"},
      {"stmm.passes", count(history), "count"},
      {"stmm.pass_us", pass_us, "us"},
      {"stmm.pass_tick_extra_ms", pass_extra_ns / 1e6, "ms"},
      {"memory.sync_growth_blocks", count(stats.sync_growth_blocks), "count"},
      {"memory.blocks_peak", count(blocks_peak), "count"},
      {"memory.alloc_mb_peak", static_cast<double>(alloc_peak) / mb, "MB"},
      {"memory.used_mb_peak", static_cast<double>(used_peak) / mb, "MB"},
      {"profile.wait_ms.alloc", WaitMs(prof0, prof1, ProfileSite::kAlloc),
       "ms"},
      {"profile.wait_ms.queued_write",
       WaitMs(prof0, prof1, ProfileSite::kQueuedWrite), "ms"},
      {"profile.wait_ms.exclusive",
       WaitMs(prof0, prof1, ProfileSite::kExclusive), "ms"},
      {"profile.wait_ms.tick_barrier",
       WaitMs(prof0, prof1, ProfileSite::kTickBarrier), "ms"},
      {"profile.fast_bails", count(static_cast<int64_t>(prof1.fast_bails -
                                                        prof0.fast_bails)),
       "count"},
  };
  return out;
}

}  // namespace perfbench
