// The benchmark's named workloads and their output checks.
//
// Each workload is a scenario spec (built from a repo scenario file or from
// the benchmark's own description, with the overrides README.md explains)
// plus a worker-thread count and a check over the finished run. Checks are
// computed apart from the program: from the paper's Table 1 constants and
// from properties the tuning method must have, never from a copy of an
// earlier run's output.
#ifndef LOCKTUNE_PERFBENCH_WORKLOADS_H_
#define LOCKTUNE_PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "lock/lock_event_monitor.h"
#include "workload/scenario.h"
#include "workload/scenario_config.h"

namespace perfbench {

// Counts lock events by kind. Thread-safe: in parallel mode events may
// arrive from worker threads.
class EventCounter : public locktune::LockEventMonitor {
 public:
  void OnLockEvent(const locktune::LockEvent& event) override {
    counts_[static_cast<size_t>(event.kind)].fetch_add(
        1, std::memory_order_relaxed);
  }
  int64_t count(locktune::LockEventKind kind) const {
    return counts_[static_cast<size_t>(kind)].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> counts_[locktune::kNumLockEventKinds] = {};
};

// Collected check failures, one line each.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

// A finished run, as the checks see it.
struct RunView {
  const locktune::ScenarioSpec* spec;
  locktune::ScenarioRunner* runner;
  locktune::Database* db;
  const EventCounter* events;
};

struct WorkloadDef {
  const char* name;
  int threads;
  // Seconds budgeted for one timed round on the reference host (README.md,
  // "Reference figures"). A timed run of S seconds makes
  // max(1, floor(S / round_s)) rounds, so the number of rounds, and with
  // it the set of seeds, does not depend on how fast the host runs.
  double round_s;
  // Whether the measured thread is moved between cores (main.cc,
  // CoreHopper): only where that was shown to narrow the spread.
  bool hop_cores;
  // Builds the spec for scenario seed `seed`; scenario files are read
  // relative to the current directory (the repository root).
  locktune::Result<locktune::ScenarioSpec> (*build)(uint64_t seed);
  // Workload-specific output checks (the shared ones are in CheckRun).
  void (*check)(const RunView& run, Checks& checks);
};

// Measurement helpers shared by the timed and the traced run.
int64_t NowNs();                      // steady clock
double SecondsSince(int64_t start_ns);
double CpuSeconds();                  // user+sys CPU of the whole process
std::string Num(double v);            // shortest decimal that reads back as v

// The workload named `name`, or nullptr.
const WorkloadDef* FindWorkload(const std::string& name);
const std::vector<WorkloadDef>& AllWorkloads();

// Finished transactions: commits plus every kind of abort.
int64_t FinishedTransactions(const locktune::ScenarioRunner& runner);

// Shared checks (every workload), then the workload's own.
void CheckRun(const WorkloadDef& def, const RunView& run, Checks& checks);

}  // namespace perfbench

#endif  // LOCKTUNE_PERFBENCH_WORKLOADS_H_
