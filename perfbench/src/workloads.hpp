// The benchmark's workloads. Each one builds its inputs from the seed,
// runs one op at a time through the library's public entry points, checks
// every op's outputs, and, in a traced run, derives the per-layer metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int shards = 1;  ///< fabric worker count, min(nproc, 4)
  /// Tamper with one op's outputs before they are checked, so a self-test
  /// can prove the checks fire.
  bool forge_failure = false;
  /// Traced runs: misplace one op's root span, so a self-test can prove the
  /// layer-sum check fires.
  bool forge_span = false;
};

/// What one op did.
struct OpOutcome {
  double work = 0.0;   ///< units of Workload::work_unit()
  std::string failure;  ///< empty when every check passed
  std::string digest;   ///< seed-determined fingerprint of the outputs
};

/// The op loop of a traced run, handed to Workload::per_layer(). The run
/// first makes probe_ops traced ops (ops 1 .. probe_ops) under `probe`,
/// then alternates untraced and traced ops until the time is up.
struct TracedLoop {
  RegistryDelta probe;  ///< registry deltas over the probe ops
  int probe_ops = 0;
  std::vector<double> untraced_s;  ///< op walls with tracing off
  std::vector<double> untraced_work;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Unit of OpOutcome::work, for the manifest ("station-slots", ...).
  virtual const char* work_unit() const = 0;
  /// Builds the seeded inputs (part of set-up; not timed as an op).
  virtual void prepare(Tracer* tracer) = 0;
  /// Runs and checks one op. `index` counts ops from 0 (the warm-up op).
  virtual OpOutcome op(int index, Tracer* tracer) = 0;
  /// True when an op runs on the calling thread only. The driver then
  /// moves the thread to the next CPU at every timing block (see main.cpp).
  virtual bool single_threaded() const { return true; }
  /// Ops per timing block (see main.cpp); 0 slices blocks by time. A
  /// workload whose ops differ a lot sets a whole cycle of its inputs.
  virtual int block_ops() const { return 0; }
  /// Ops at the start of a traced run whose registry deltas feed the
  /// simulated per-layer counts (a fixed prefix, so they repeat exactly).
  virtual int probe_ops() const { return 1; }
  /// Traced run only: extra traced calls and every per-layer metric.
  virtual void per_layer(Report& report, Tracer& tracer, TracedLoop& loop) = 0;
  /// End of every run: checks that hold over the whole batch of ops.
  virtual void finish(Report&) {}
};

std::unique_ptr<Workload> make_fabric_sync(const Options& options, Report& report);
std::unique_ptr<Workload> make_fabric_jitter(const Options& options, Report& report);
std::unique_ptr<Workload> make_hostile_campaigns(const Options& options, Report& report);
std::unique_ptr<Workload> make_dimensioning(const Options& options, Report& report);

}  // namespace perfbench
