// dimensioning: a serial batch of seeded analysis::dimension() requests
// over the six scenario builders with 2 to 256 sources. Every request is
// followed by a standalone analysis::check_feasibility on the returned
// configuration, whose verdict must match the one dimension() returned.
// Requests keep the library's default escalation budget.
// Set-up builds the 4^10-leaf XiExactTable and spot-checks it against the
// closed form xi_closed. This is the only workload in src/analysis.
#include <algorithm>
#include <memory>
#include <string>

#include "analysis/dimensioning.hpp"
#include "analysis/feasibility.hpp"
#include "analysis/xi.hpp"
#include "traffic/fc_adapter.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace hrtdm;

constexpr int kXiM = 4;
constexpr int kXiLevels = 10;  // t = 4^10 leaves
constexpr int kXiSpotChecks = 64;
constexpr int kSizes = 8;  // z0 = 2 .. 256
/// Every scenario is requested at z0 = 2 .. 128 in each cycle, and this one
/// at z0 = 256 too. Every z0 = 256 request and most z0 = 128 ones are
/// infeasible and run the whole escalation budget; one z0 = 256 request
/// costs about four z0 = 128 ones, so six of them per cycle would make a
/// cycle last seconds.
constexpr const char* kLargeScenario = "quickstart";
/// The request pool (see op()).
constexpr std::uint64_t kPoolCycles = 4;
constexpr std::uint64_t kPoolSeed = 0xD1AE5104ULL;

class DimensioningWorkload final : public Workload {
 public:
  DimensioningWorkload(const Options& options, Report& report)
      : options_(options), report_(report) {}

  const char* work_unit() const override { return "requests"; }

  void prepare(Tracer* tracer) override {
    scenarios_ = traffic::scenario_names();
    ++report_.attempted;
    const std::string failure = build_and_check_xi(tracer, 0);
    if (!failure.empty()) {
      report_.fail(failure);
    }
  }

  OpOutcome op(int index, Tracer* tracer) override {
    // Request `index` is a pure function of (seed, index). The requests
    // cycle through a fixed schedule (see kLargeScenario), so each run sees
    // the same mix. What each slot of a cycle asks for (z in [7/8 z0, z0]
    // and the load factor) comes from a fixed pool of kPoolCycles cycles;
    // the seed picks which pool cycle each cycle of the run repeats and the
    // order of the scenarios within each size. A run of a few seconds covers the pool many
    // times, so its cost does not depend on the seed, while its requests
    // and digests do.
    const int cycle = index / block_ops();
    const int slot = order_of(cycle)[static_cast<std::size_t>(index % block_ops())];
    const std::uint64_t pool_cycle = (options_.seed + static_cast<std::uint64_t>(cycle)) % kPoolCycles;
    util::Rng rng(kPoolSeed + pool_cycle * static_cast<std::uint64_t>(block_ops()) +
                  static_cast<std::uint64_t>(slot));
    const auto n_scenarios = static_cast<int>(scenarios_.size());
    const bool large = slot == block_ops() - 1;
    const std::string scenario =
        large ? kLargeScenario : scenarios_[static_cast<std::size_t>(slot % n_scenarios)];
    const int size = large ? kSizes - 1 : slot / n_scenarios;
    const std::int64_t z0 = std::int64_t{2} << size;
    const int z = static_cast<int>(std::max<std::int64_t>(2, z0 - rng.uniform_i64(0, z0 / 8)));
    const double load = 0.25 + rng.uniform01();

    analysis::FcSystem system;
    {
      Tracer::Scope span(tracer, "traffic::to_fc_system", "traffic");
      const traffic::Workload workload = traffic::workload_by_name(scenario, z).scaled_load(load);
      traffic::FcAdapterOptions adapter;
      system = traffic::to_fc_system(workload, adapter);
    }
    analysis::DimensioningRequest request;
    request.phy = system.phy;
    request.sources = system.sources;
    request.m = 4;
    request.F = 64;
    request.max_q = 4096;
    analysis::DimensioningResult result;
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "analysis::dimension", "analysis");
      result = analysis::dimension(request);
    }
    size_s_[size] += seconds_between(t0, Clock::now());
    size_infeasible_[size] += result.feasible ? 0 : 1;
    if (options_.forge_failure && index == 1) {
      result.feasible = !result.feasible;  // a wrong verdict must be caught
    }
    analysis::FcSystem chosen;
    chosen.phy = request.phy;
    chosen.trees = result.trees;
    chosen.sources = request.sources;
    OpOutcome out;
    out.work = 1.0;
    if (result.nu.size() != chosen.sources.size()) {
      out.failure = "dimension() returned " + std::to_string(result.nu.size()) +
                    " static-index counts for " + std::to_string(chosen.sources.size()) +
                    " sources";
      return out;
    }
    for (std::size_t s = 0; s < chosen.sources.size(); ++s) {
      chosen.sources[s].nu = result.nu[s];
    }
    analysis::FcReport verdict;
    {
      Tracer::Scope span(tracer, "analysis::check_feasibility", "analysis");
      verdict = analysis::check_feasibility(chosen);
    }
    if (verdict.feasible != result.feasible || result.report.feasible != result.feasible ||
        verdict.worst_margin_s != result.report.worst_margin_s) {
      out.failure = scenario + " z=" + std::to_string(z) + ": dimension() says " +
                    (result.feasible ? "feasible" : "infeasible") +
                    ", check_feasibility says " + (verdict.feasible ? "feasible" : "infeasible");
    } else if (result.steps.empty() || verdict.classes.empty()) {
      out.failure = scenario + " z=" + std::to_string(z) + ": empty dimensioning result";
    }
    out.digest = std::to_string(z) + "/" + std::to_string(result.trees.q) + "/" +
                 std::to_string(result.steps.size()) + "/" + (result.feasible ? "f" : "i") + "/" +
                 json_number(result.report.worst_margin_s);
    feasible_ += result.feasible ? 1 : 0;
    steps_ += static_cast<double>(result.steps.size());
    ++requests_;
    return out;
  }

  /// Where dimension() spends its time: each size's share of the time and
  /// its infeasible requests (those run the whole escalation budget).
  void finish(Report& report) override {
    double total_s = 0.0;
    for (const double seconds : size_s_) {
      total_s += seconds;
    }
    for (int size = 0; size < kSizes; ++size) {
      const std::string z0 = std::to_string(2 << size);
      report.note("dimension.time_share.z" + z0, ratio(size_s_[size], total_s));
      report.note("dimension.infeasible.z" + z0, size_infeasible_[size]);
    }
  }

  int probe_ops() const override { return 0; }
  /// One block is one cycle of the request schedule.
  int block_ops() const override {
    return static_cast<int>(scenarios_.size()) * (kSizes - 1) + 1;
  }

  void per_layer(Report& report, Tracer& tracer, TracedLoop&) override {
    // Per-call self times over every traced request.
    std::vector<double> to_fc_us;
    std::vector<double> fc_check_us;
    std::vector<double> dimension_ms;
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      const Tracer::Span& span = tracer.spans()[i];
      const double us = 1e-3 * static_cast<double>(span.end_ns - span.start_ns);
      if (span.name == "traffic::to_fc_system") {
        to_fc_us.push_back(us);
      } else if (span.name == "analysis::check_feasibility") {
        fc_check_us.push_back(us);
      } else if (span.name == "analysis::dimension") {
        dimension_ms.push_back(1e-3 * us);
      }
    }
    report.add("analysis.to_fc_system_us", median(to_fc_us), "us");
    report.add("fc_check_us_p50", median(fc_check_us), "us");
    report.add("analysis.dimension_ms_p50", median(dimension_ms), "ms");
    report.add("analysis.dimension_steps", ratio(steps_, requests_), "steps");
    report.add("analysis.feasible_share", ratio(feasible_, requests_), "ratio");

    std::vector<double> build_ms;
    for (int i = 1; i <= 3; ++i) {
      ++report.attempted;
      const std::string failure = build_and_check_xi(&tracer, i);
      if (!failure.empty()) {
        report.fail(failure);
      }
      build_ms.push_back(last_xi_build_ms_);
    }
    report.add("xi_build_ms", median(build_ms), "ms");
  }

 private:
  /// The order in which cycle `cycle` of this seed asks for the slots of
  /// the schedule: sizes ascending as in the schedule (so the warm-up op is
  /// always a small request), the scenarios of each size shuffled.
  const std::vector<int>& order_of(int cycle) {
    if (cycle != order_cycle_) {
      order_.resize(static_cast<std::size_t>(block_ops()));
      for (std::size_t i = 0; i < order_.size(); ++i) {
        order_[i] = static_cast<int>(i);
      }
      util::Rng rng(options_.seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(cycle));
      const std::size_t n = scenarios_.size();
      for (std::size_t first = 0; first + n < order_.size(); first += n) {
        for (std::size_t i = n - 1; i > 0; --i) {
          std::swap(order_[first + i], order_[first + static_cast<std::size_t>(rng.uniform_i64(
                                                           0, static_cast<std::int64_t>(i)))]);
        }
      }
      order_cycle_ = cycle;
    }
    return order_;
  }

  /// Builds the exact xi table and checks seeded entries against the
  /// closed form; returns a failure description or "".
  std::string build_and_check_xi(Tracer* tracer, int round) {
    const int root = tracer ? tracer->open("op[xi table]", "bench") : -1;
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<analysis::XiExactTable> table;
    {
      Tracer::Scope span(tracer, "analysis::XiExactTable", "analysis");
      table = std::make_unique<analysis::XiExactTable>(kXiM, kXiLevels);
    }
    last_xi_build_ms_ = 1e3 * seconds_between(t0, Clock::now());
    util::Rng rng(options_.seed ^ (0x71AB1Eull + static_cast<std::uint64_t>(round)));
    std::string failure;
    {
      Tracer::Scope span(tracer, "analysis::xi_closed", "analysis");
      for (int i = 0; i < kXiSpotChecks && failure.empty(); ++i) {
        const std::int64_t k = rng.uniform_i64(0, table->t());
        const std::int64_t exact = table->xi(k);
        if (exact != analysis::xi_closed(kXiM, table->t(), k)) {
          failure = "XiExactTable xi(" + std::to_string(k) + ") = " + std::to_string(exact) +
                    " disagrees with xi_closed";
        }
      }
    }
    if (tracer != nullptr) {
      tracer->close(root);
    }
    return failure;
  }

  Options options_;
  Report& report_;
  std::vector<std::string> scenarios_;
  double feasible_ = 0.0;
  double steps_ = 0.0;
  double requests_ = 0.0;
  double last_xi_build_ms_ = 0.0;
  std::vector<int> order_;
  int order_cycle_ = -1;
  double size_s_[kSizes] = {};  ///< dimension() seconds by size z0
  double size_infeasible_[kSizes] = {};
};

}  // namespace

std::unique_ptr<Workload> make_dimensioning(const Options& options, Report& report) {
  return std::make_unique<DimensioningWorkload>(options, report);
}

}  // namespace perfbench
