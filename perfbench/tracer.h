// The traced run: the same scenario as a timed round, stepped one tick at
// a time through ScenarioRunner::RunUntil, with every generator behind a
// forwarding wrapper that counts and times its calls, a lock event
// monitor, a trace sink, per-tick probes of the lock manager and STMM
// controller, and probes of the warm end state. It yields the per-layer
// metrics; README.md names each one and the layer it belongs to.
#ifndef LOCKTUNE_PERFBENCH_TRACER_H_
#define LOCKTUNE_PERFBENCH_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct TracedRun {
  std::vector<Metric> metrics;
  double run_s = 0.0;  // wall time of the stepped run, probes included
  int64_t commits = 0;
  int64_t finished = 0;     // finished transactions
  int64_t oom_aborts = 0;   // of which failed for lack of lock memory
};

// Runs `def` at scenario seed `seed` under tracing. Check failures,
// including the traced-only ones (generator calls against finished plus
// in-flight transactions, trace-sink passes against the STMM history), go
// to `checks`. Metrics that need the timed round (trace.overhead_pct) are
// added by the caller.
TracedRun RunTraced(const WorkloadDef& def, uint64_t seed, Checks& checks);

}  // namespace perfbench

#endif  // LOCKTUNE_PERFBENCH_TRACER_H_
