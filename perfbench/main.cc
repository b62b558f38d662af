// locktune_perfbench — runs one named workload and prints its metrics.
//
//   locktune_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Run from the repository root (scenario files are read from there);
// perfbench/run.py builds this binary and runs it so.
//
// --trace 0 (timed): makes max(1, floor(S / round_s)) whole rounds —
// build the scenario, Run() it once, check its outputs — where round_s is
// the workload's budgeted round length (workloads.cc), and reports the
// five end-to-end metrics: setup_s of the first, cold round, counted from
// process start; the mean over rounds of run_s and cpu_s; locks_per_s over
// all rounds; and the process's peak_rss_mb. Times are stated at the
// reference host speed (HostGauge); the raw ones go to stderr. Round r
// uses scenario seed N + r·2^32, so round 0 runs at seed N, and the same N
// and S give the same rounds on any host.
//
// --trace 1 (traced): one timed round, then the traced run of the same
// seed (tracer.h); reports the per-layer metrics, including the traced
// run's overhead against the timed round.
//
// The last stdout line is one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// An operation is one finished simulated transaction; it failed if it
// aborted for lack of lock memory. A failed output check prints the
// reason on stderr, reports "correct": false and exits 1.
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Taken during static initialization, before main: the cold set-up of
// round 0 is timed from here.
const int64_t kProcessStartNs = NowNs();

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Keeps one single-threaded run moving between cores. On a shared host the
// cores do not run at one speed: the same round took 2.3 s on one core and
// 3.1 s on another, depending on what ran beside it, and a process tends
// to stay on the core it started on, so a run's figures depended on where
// it landed. Every kHop a helper thread moves the measured thread off its
// current CPU (the scheduler picks which other allowed CPU), then lets it
// run anywhere again, so a run samples the cores evenly. A move refills the
// core's private caches. Used only by the workloads where it was shown to
// narrow the spread (WorkloadDef::hop_cores; README.md, "Shared cores").
class CoreHopper {
 public:
  CoreHopper() : tid_(static_cast<pid_t>(syscall(SYS_gettid))) {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0 || CPU_COUNT(&all_) < 2) {
      return;
    }
    helper_ = std::thread([this] { Loop(); });
  }
  CoreHopper(const CoreHopper&) = delete;
  CoreHopper& operator=(const CoreHopper&) = delete;
  ~CoreHopper() {
    {
      std::lock_guard<std::mutex> guard(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (helper_.joinable()) helper_.join();
  }

 private:
  static constexpr std::chrono::milliseconds kHop{100};

  // The CPU `tid_` last ran on: field 39 of its /proc stat line.
  int CurrentCpu() const {
    char path[64];
    std::snprintf(path, sizeof path, "/proc/self/task/%d/stat", tid_);
    std::FILE* f = std::fopen(path, "r");
    if (f == nullptr) return -1;
    char buf[1024];
    const size_t n = std::fread(buf, 1, sizeof buf - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    const char* p = std::strrchr(buf, ')');  // skip the command name
    for (int field = 2; p != nullptr && field < 39; ++field) {
      p = std::strchr(p + 1, ' ');
    }
    return p != nullptr ? std::atoi(p + 1) : -1;
  }

  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, kHop, [this] { return stop_; })) {
      const int here = CurrentCpu();
      if (here < 0 || !CPU_ISSET(here, &all_)) continue;
      cpu_set_t others = all_;
      CPU_CLR(here, &others);
      sched_setaffinity(tid_, sizeof others, &others);  // migrates now
      sched_setaffinity(tid_, sizeof all_, &all_);
    }
  }

  const pid_t tid_;
  cpu_set_t all_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread helper_;
};

// Gauges how fast this host runs right now. A shared host's speed drifts
// over minutes with other tenants' load: the same dss_injection round took
// 2.3 s and, five minutes later, 3.9 s, with wall time equal to CPU time.
// Sample() times a fixed piece of work that is the benchmark's own, never
// the program's: a dependent chain of integer multiplies and shifts, with
// no memory traffic. It runs kChunks chunks and returns the median, so a
// chunk slowed by a core move or an interrupt does not count. Taken on
// the measured thread before and after each round's Run(), it lets the
// timed metrics be stated at one reference speed: a time t measured while
// a chunk took g seconds is reported as t · kReferenceS / g (README.md,
// "Host speed").
class HostGauge {
 public:
  // Median chunk time on the reference host when quiet. It sets the scale
  // of the reported times, not their ratios between commits.
  static constexpr double kReferenceS = 0.04;

  double Sample() {
    double chunks[kChunks];
    for (double& c : chunks) {
      const int64_t t0 = NowNs();
      uint64_t x = 1;
      for (int i = 0; i < kStepsPerChunk; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        x ^= x >> 29;
      }
      sink_ = x;
      c = SecondsSince(t0);
    }
    std::sort(chunks, chunks + kChunks);
    return chunks[kChunks / 2];
  }

 private:
  static constexpr int kChunks = 5;
  static constexpr int kStepsPerChunk = 20'000'000;

  volatile uint64_t sink_ = 0;
};

struct Round {
  double setup_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  double gauge_before_s = 0.0;  // HostGauge::Sample() after set-up
  double gauge_s = 0.0;         // mean of the samples before and after Run()
  int64_t lock_requests = 0;
  int64_t commits = 0;
  int64_t finished = 0;
  int64_t oom_aborts = 0;
};

// One round: set up from `setup_start_ns`, Run() once, check.
Round TimedRound(const WorkloadDef& def, uint64_t seed, int64_t setup_start_ns,
                 HostGauge& gauge, Checks& checks) {
  Round r;
  locktune::Result<locktune::ScenarioSpec> built = def.build(seed);
  if (!built.ok()) {
    checks.Expect(false, built.status().ToString());
    return r;
  }
  locktune::ScenarioSpec spec = std::move(built).value();
  EventCounter events;
  spec.database.lock_monitor = &events;
  locktune::Result<std::unique_ptr<locktune::LoadedScenario>> loaded =
      locktune::LoadedScenario::Create(spec);
  if (!loaded.ok()) {
    checks.Expect(false, loaded.status().ToString());
    return r;
  }
  locktune::LoadedScenario& scenario = *loaded.value();
  r.setup_s = SecondsSince(setup_start_ns);

  r.gauge_before_s = gauge.Sample();
  const double cpu0 = CpuSeconds();
  const int64_t run0 = NowNs();
  scenario.runner().Run();
  r.run_s = SecondsSince(run0);
  r.cpu_s = CpuSeconds() - cpu0;
  r.gauge_s = (r.gauge_before_s + gauge.Sample()) / 2.0;

  const locktune::LockManagerStats stats = scenario.database().locks().stats();
  r.lock_requests = stats.lock_requests;
  r.commits = scenario.runner().total_commits();
  r.finished = FinishedTransactions(scenario.runner());
  r.oom_aborts = scenario.runner().total_oom_aborts();
  RunView view{&spec, &scenario.runner(), &scenario.database(), &events};
  CheckRun(def, view, checks);
  std::fprintf(stderr,
               "perfbench: %s seed=%llu setup=%.3fs run=%.3fs cpu=%.3fs "
               "locks/s=%.0f commits=%lld gauge=%.4fs\n",
               def.name, static_cast<unsigned long long>(seed), r.setup_s,
               r.run_s, r.cpu_s,
               static_cast<double>(r.lock_requests) / r.run_s,
               static_cast<long long>(r.commits), r.gauge_s);
  return r;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "locktune_perfbench: %s\nusage: locktune_perfbench --workload "
               "NAME --seed N --seconds S --trace 0|1\nworkloads:",
               why);
  for (const WorkloadDef& w : AllWorkloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0' || *value == '\0') return Usage("bad --seed");
    } else if (std::strcmp(flag, "--seconds") == 0) {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0)) return Usage("bad --seconds");
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("bad --trace");
      }
      trace = value[0] - '0';
    } else {
      return Usage("unknown flag");
    }
  }
  const WorkloadDef* def = FindWorkload(workload);
  if (def == nullptr) return Usage("unknown or missing --workload");
  if (seconds < 0 || trace < 0) return Usage("--seconds and --trace needed");

  Checks checks;
  int64_t attempted = 0, failed = 0;
  const auto add = [&](const auto& run) {
    attempted += run.finished;
    failed += run.oom_aborts;
  };

  std::optional<CoreHopper> hopper;
  if (def->hop_cores) hopper.emplace();

  std::vector<Metric> metrics;
  HostGauge gauge;
  if (trace == 0) {
    // A fixed number of rounds, each its own seed. Each round's times are
    // stated at the reference speed by the gauge taken around it, then
    // averaged: rounds differ in work, and the mean spends every round's
    // information on the average. The cold set-up is scaled by the sample
    // taken right after it.
    const int rounds = static_cast<int>(
        std::clamp(std::floor(seconds / def->round_s), 1.0, 1e6));
    int64_t start_ns = kProcessStartNs;
    double setup_s = 0.0, run_s = 0.0, cpu_s = 0.0, requests = 0.0;
    int done = 0;
    for (; done < rounds && checks.ok(); ++done) {
      const Round r =
          TimedRound(*def, seed + (static_cast<uint64_t>(done) << 32),
                     start_ns, gauge, checks);
      if (done == 0) {
        setup_s = r.setup_s * HostGauge::kReferenceS / r.gauge_before_s;
      }
      const double scale = HostGauge::kReferenceS / r.gauge_s;
      add(r);
      run_s += r.run_s * scale;
      cpu_s += r.cpu_s * scale;
      requests += static_cast<double>(r.lock_requests);
      start_ns = NowNs();
    }
    std::fprintf(stderr, "perfbench: %s %d round(s)\n", def->name, done);
    metrics = {{"setup_s", setup_s, "s"},
               {"run_s", run_s / done, "s"},
               {"cpu_s", cpu_s / done, "s"},
               {"locks_per_s", run_s > 0 ? requests / run_s : 0.0, "1/s"},
               {"peak_rss_mb", PeakRssMb(), "MB"}};
  } else {
    const Round timed =
        TimedRound(*def, seed, kProcessStartNs, gauge, checks);
    add(timed);
    TracedRun traced = RunTraced(*def, seed, checks);
    add(traced);
    if (def->threads == 1) {
      checks.Expect(traced.commits == timed.commits,
                    "traced run committed " + std::to_string(traced.commits) +
                        ", timed run " + std::to_string(timed.commits));
    }
    metrics = std::move(traced.metrics);
    metrics.push_back({"trace.overhead_pct",
                       timed.run_s > 0
                           ? (traced.run_s / timed.run_s - 1.0) * 100.0
                           : 0.0,
                       "%"});
  }

  for (const std::string& f : checks.failures()) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  }
  PrintResult(checks.ok(), std::max<int64_t>(attempted, 1), failed, metrics);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
