#include "workloads.h"

#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <fstream>
#include <sstream>

#include "common/units.h"

namespace perfbench {

using locktune::Bytes;
using locktune::DurationMs;
using locktune::kKiB;
using locktune::kMiB;
using locktune::kSecond;
using locktune::LockEventKind;
using locktune::LockManagerStats;
using locktune::Result;
using locktune::ScenarioRunner;
using locktune::ScenarioSpec;
using locktune::Status;
using locktune::TimeMs;
using locktune::TimeSeries;

namespace {

// Table 1 of the paper, restated here so the checks do not read the
// program's own copies: 64-byte lock structures in 128 KiB blocks, a
// minimum of 500 structures per connected application, and maxLockMemory
// at 20 % of databaseMemory.
constexpr Bytes kStructBytes = 64;
constexpr Bytes kBlockBytes = 128 * kKiB;
constexpr Bytes kMinStructsPerApp = 500;
constexpr double kMaxLockFraction = 0.20;

Bytes RoundUpToBlock(Bytes b) {
  return (b + kBlockBytes - 1) / kBlockBytes * kBlockBytes;
}

// Reads a scenario file and parses it with `seed` as the scenario seed
// (prepended as the `seed` key, which the repo's scenario files leave
// unset, so the parser derives everything else from it as usual).
Result<ScenarioSpec> LoadWithSeed(const std::string& path, uint64_t seed) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  std::ostringstream text;
  text << "seed " << static_cast<int64_t>(seed) << "\n" << in.rdbuf();
  return locktune::ParseScenario(text.str(), path);
}

const TimeSeries& Series(const RunView& run, const char* name) {
  return run.runner->series().Get(name);
}

// --- ramp_oltp / ramp_oltp_t4: Figure 9 ---

// The ramp reaches its 130 clients at t = 90 s; 60 s more gives the
// tuner two passes at full population to settle on minLockMemory.
constexpr DurationMs kRampDuration = 150 * kSecond;
constexpr int kRampClients = 130;

Result<ScenarioSpec> BuildRamp(uint64_t seed) {
  Result<ScenarioSpec> spec = LoadWithSeed("scenarios/fig9_ramp.conf", seed);
  if (!spec.ok()) return spec;
  spec.value().runner.duration = kRampDuration;
  return spec;
}

Result<ScenarioSpec> BuildRampT4(uint64_t seed) {
  Result<ScenarioSpec> spec = BuildRamp(seed);
  if (spec.ok()) spec.value().runner.threads = 4;
  return spec;
}

void CheckRamp(const RunView& run, Checks& checks) {
  const LockManagerStats stats = run.db->locks().stats();
  checks.Expect(stats.escalations == 0,
                "ramp: " + std::to_string(stats.escalations) +
                    " escalations, want 0");
  // With the ramp over and usage far below the allocation, the tuner
  // shrinks lock memory to its floor, minLockMemory(130 apps).
  const Bytes want = RoundUpToBlock(kMinStructsPerApp * kStructBytes *
                                    static_cast<Bytes>(kRampClients));
  const Bytes got = run.db->locks().allocated_bytes();
  checks.Expect(got == want, "ramp: final allocation " + std::to_string(got) +
                                 " B, want minLockMemory(" +
                                 std::to_string(kRampClients) + ") = " +
                                 std::to_string(want) + " B");
}

// --- dss_injection: Figure 11 ---

// The reporting query arrives at t = 60 s instead of 330 s (the OLTP
// steady state it lands on is reached well before), and the run ends
// 63 s after its 267-tick scan completes.
constexpr TimeMs kDssArrival = 60 * kSecond;
constexpr DurationMs kDssDuration = 150 * kSecond;

Result<ScenarioSpec> BuildDss(uint64_t seed) {
  Result<ScenarioSpec> spec = LoadWithSeed("scenarios/fig11_dss.conf", seed);
  if (!spec.ok()) return spec;
  ScenarioSpec& s = spec.value();
  s.runner.duration = kDssDuration;
  for (locktune::WorkloadSpec& w : s.workloads) {
    if (w.kind != locktune::WorkloadSpec::Kind::kDss) continue;
    for (auto& step : w.client_steps) {
      if (step.second > 0) step.first = kDssArrival;
    }
  }
  return spec;
}

void CheckDss(const RunView& run, Checks& checks) {
  const LockManagerStats stats = run.db->locks().stats();
  checks.Expect(stats.exclusive_escalations == 0,
                "dss: " + std::to_string(stats.exclusive_escalations) +
                    " exclusive escalations, want 0");
  const locktune::DssOptions* dss = nullptr;
  for (const locktune::WorkloadSpec& w : run.spec->workloads) {
    if (w.kind == locktune::WorkloadSpec::Kind::kDss) dss = &w.dss;
  }
  if (dss == nullptr) {
    checks.Expect(false, "dss: scenario has no [dss] section");
    return;
  }
  // The scan's row locks all fit: lock memory grew past what they need,
  // and stayed under maxLockMemory.
  const double peak_mb = Series(run, ScenarioRunner::kLockAllocatedMb).MaxValue();
  const double scan_mb = static_cast<double>(dss->scan_locks * kStructBytes) /
                         static_cast<double>(kMiB);
  const double max_mb =
      kMaxLockFraction *
      static_cast<double>(run.spec->database.params.database_memory) /
      static_cast<double>(kMiB);
  checks.Expect(peak_mb >= scan_mb, "dss: peak allocation " + Num(peak_mb) +
                                        " MB below the scan's " +
                                        Num(scan_mb) + " MB");
  checks.Expect(peak_mb <= max_mb, "dss: peak allocation " + Num(peak_mb) +
                                       " MB above maxLockMemory " +
                                       Num(max_mb) + " MB");
  // OLTP keeps committing while the scan acquires (the DSS query itself
  // commits nothing inside its scan-and-hold window).
  const DurationMs tick = run.spec->runner.tick;
  const int64_t scan_ticks =
      (dss->scan_locks + dss->locks_per_tick - 1) / dss->locks_per_tick;
  const TimeMs window_end = kDssArrival + (scan_ticks + 2) * tick;
  double commits = 0.0;
  for (const TimeSeries::Point& p :
       Series(run, ScenarioRunner::kThroughputTps).points()) {
    if (p.time_ms > kDssArrival && p.time_ms <= window_end) {
      commits += p.value * static_cast<double>(run.spec->runner.sample_period) /
                 1000.0;
    }
  }
  checks.Expect(commits > 0.0,
                "dss: no OLTP commits during the scan window");
}

// --- idle_crowd: the 100k scale point ---

constexpr int kCrowdClients = 100'000;

Result<ScenarioSpec> BuildCrowd(uint64_t seed) {
  Result<ScenarioSpec> spec = LoadWithSeed("perfbench/idle_crowd.conf", seed);
  if (!spec.ok()) return spec;
  ScenarioSpec& s = spec.value();
  // Keys the scenario format does not have (docs/SCALE.md §6). The
  // catalog grows with the population so row-conflict density stays that
  // of a 1k-client run; the 500-structure floor is dropped so lock memory
  // is sized by demand (100k idle connections would otherwise pin
  // minLockMemory at 3 GB, far past maxLockMemory).
  s.database.catalog_scale = static_cast<double>(kCrowdClients) / 1000.0;
  s.database.params.min_structures_per_app = 0;
  return spec;
}

void CheckCrowd(const RunView& run, Checks& checks) {
  const LockManagerStats stats = run.db->locks().stats();
  checks.Expect(stats.escalations == 0,
                "crowd: " + std::to_string(stats.escalations) +
                    " escalations, want 0");
  checks.Expect(stats.out_of_memory_failures == 0 &&
                    run.runner->total_oom_aborts() == 0,
                "crowd: out-of-lock-memory failures, want none");
  // Every client runs think → start → acquire → commit. Connecting costs
  // one tick; a transaction starts on its wake tick and acquires its 4..12
  // locks at 8 per tick, so it commits one or two ticks later; then the
  // client thinks. Completed cycles per client before the run ends:
  //   at least 1 + floor((D - 3 ticks) / (think + 2 ticks)),
  //   at most  1 + floor((D - 2 ticks) / (think + 1 tick)).
  // Lock waits (rare at this conflict density) only delay commits, so the
  // count may fall short of the lower bound by a little: 1 %.
  const locktune::OltpOptions& oltp = run.spec->workloads.at(0).oltp;
  const int64_t tick = run.spec->runner.tick;
  const int64_t d = run.spec->runner.duration;
  const int64_t lo_cycles = 1 + (d - 3 * tick) / (oltp.think_time + 2 * tick);
  const int64_t hi_cycles = 1 + (d - 2 * tick) / (oltp.think_time + tick);
  const double lo = 0.99 * static_cast<double>(lo_cycles * kCrowdClients);
  const double hi = static_cast<double>(hi_cycles * kCrowdClients);
  const double commits = static_cast<double>(run.runner->total_commits());
  checks.Expect(commits >= lo && commits <= hi,
                "crowd: " + Num(commits) + " commits, want within [" +
                    Num(lo) + ", " + Num(hi) + "]");
}

}  // namespace

const std::vector<WorkloadDef>& AllWorkloads() {
  static const std::vector<WorkloadDef> kWorkloads = {
      {"ramp_oltp", 1, 3.5, true, BuildRamp, CheckRamp},
      {"ramp_oltp_t4", 4, 5.0, false, BuildRampT4, CheckRamp},
      {"dss_injection", 1, 5.0, true, BuildDss, CheckDss},
      {"idle_crowd", 1, 6.0, false, BuildCrowd, CheckCrowd},
  };
  return kWorkloads;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int64_t FinishedTransactions(const ScenarioRunner& runner) {
  return runner.total_commits() + runner.total_deadlock_aborts() +
         runner.total_timeout_aborts() + runner.total_oom_aborts() +
         runner.total_user_aborts() + runner.total_kill_aborts();
}

void CheckRun(const WorkloadDef& def, const RunView& run, Checks& checks) {
  const Status valid = run.db->ValidateInvariants();
  checks.Expect(valid.ok(), "invariants: " + valid.ToString());

  // Two independent paths to the same counts: the lock manager's own
  // counters against the benchmark's event monitor, and (for victims and
  // timeouts) against the runner's per-application abort totals.
  const LockManagerStats stats = run.db->locks().stats();
  const auto same = [&checks](const char* what, int64_t a, int64_t b) {
    checks.Expect(a == b, std::string(what) + ": " + std::to_string(a) +
                              " != " + std::to_string(b));
  };
  same("escalations (stats vs monitor)", stats.escalations,
       run.events->count(LockEventKind::kEscalation));
  same("deadlock victims (stats vs monitor)", stats.deadlock_victims,
       run.events->count(LockEventKind::kDeadlockVictim));
  same("deadlock victims (stats vs runner)", stats.deadlock_victims,
       run.runner->total_deadlock_aborts());
  same("timeouts (stats vs monitor)", stats.lock_timeouts,
       run.events->count(LockEventKind::kTimeout));
  same("timeouts (stats vs runner)", stats.lock_timeouts,
       run.runner->total_timeout_aborts());
  same("out-of-memory (stats vs monitor)", stats.out_of_memory_failures,
       run.events->count(LockEventKind::kOutOfLockMemory));

  // Lock memory in use never exceeds what is allocated, and the
  // allocation never exceeds maxLockMemory.
  const auto& alloc = Series(run, ScenarioRunner::kLockAllocatedMb).points();
  const auto& used = Series(run, ScenarioRunner::kLockUsedMb).points();
  const double max_mb =
      kMaxLockFraction *
      static_cast<double>(run.spec->database.params.database_memory) /
      static_cast<double>(kMiB);
  checks.Expect(!alloc.empty() && alloc.size() == used.size(),
                "series: lock memory samples missing");
  for (size_t i = 0; i < alloc.size() && i < used.size(); ++i) {
    if (alloc[i].value < used[i].value || alloc[i].value > max_mb) {
      checks.Expect(false, "series: at t=" +
                               std::to_string(alloc[i].time_ms) +
                               " ms allocated " + Num(alloc[i].value) +
                               " MB, used " + Num(used[i].value) +
                               " MB, maxLockMemory " + Num(max_mb) + " MB");
      break;
    }
  }
  def.check(run, checks);
}

}  // namespace perfbench
