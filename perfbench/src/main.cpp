// perfbench_driver: runs one benchmark workload for a fixed time and prints
// one JSON line (the last line of stdout) with every metric, the op counts
// and the failures. perfbench/run.py builds and drives it; see
// perfbench/README.md for the workloads and metrics.
//
//   perfbench_driver --workload fabric_sync --seed 1 --seconds 10 --trace 0
//     [--setup-only] [--forge-failure] [--forge-span] [--trace-file PATH]
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>

#include "calibrate.hpp"
#include "check/conformance.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Traced ops whose spans do not add up to within this share of the op's
/// wall time (or within kLayerSumFloorS, for ops of a few microseconds)
/// count as failed: a span was opened or closed in the wrong place. The
/// error of one op is |sum of self times - wall| / max(wall, floor /
/// tolerance), so an op fails exactly when its error exceeds the tolerance.
constexpr double kLayerSumTolerance = 0.03;
constexpr double kLayerSumFloorS = 2e-6;
/// The op-time tail is the highest percentile with this many samples above,
/// taken over the ops of every block, in groups of at least kTailGroup ops,
/// and reported as the median over the groups. Over one pool of thousands
/// of ops it would be an extreme quantile that a single host hiccup sets.
constexpr int kTailBeyond = 10;
constexpr std::size_t kTailGroup = 100;
/// Runs make at least this many timed ops, so the tail is defined.
constexpr int kMinOps = kTailBeyond + 1;
/// Ops whose digests make up the run digest (a fixed prefix).
constexpr int kDigestOps = 8;
/// An untraced run times each op in process CPU time (all of its threads;
/// the kernel does not count time a hypervisor or another process takes
/// from them) and normalises it by the reference (calibrate.hpp), which
/// slows down with the host as the ops do. The timed ops are grouped into
/// blocks: this many equal slices of the run time, or
/// Workload::block_ops() ops each. The reference runs inside each block:
/// before its first op, before an op once kReferenceEveryS of op wall time
/// has passed since the last reference run, and at least kMinReferenceRuns
/// times; every op of the block is normalised by the median of those. A
/// single-threaded workload runs each block on the next CPU in turn.
constexpr int kTimeBlocks = 40;
constexpr double kReferenceEveryS = 0.04;
constexpr int kMinReferenceRuns = 3;

/// Moves the calling thread to the CPUs it may use, one at a time.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(original_), &original_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &original_)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) {
      sched_setaffinity(0, sizeof(original_), &original_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 [--setup-only] [--forge-failure] [--forge-span] "
               "[--trace-file PATH]\n",
               message);
  std::exit(2);
}

std::uint64_t fnv1a(std::uint64_t hash, const std::string& text) {
  for (const char c : text) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

struct Args {
  Options options;
  bool setup_only = false;
  std::string trace_file;
};

Args parse(int argc, char** argv) {
  Args args;
  args.options.shards = std::min(hrtdm::util::ThreadPool::hardware_threads(), 4);
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(("missing value for " + flag).c_str());
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.options.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      args.options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.options.trace = value() == "1";
    } else if (flag == "--setup-only") {
      args.setup_only = true;
    } else if (flag == "--forge-failure") {
      args.options.forge_failure = true;
    } else if (flag == "--forge-span") {
      args.options.forge_span = true;
    } else if (flag == "--trace-file") {
      args.trace_file = value();
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  if (!(args.options.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  return args;
}

std::unique_ptr<Workload> make(const Options& options, Report& report) {
  if (options.workload == "fabric_sync") return make_fabric_sync(options, report);
  if (options.workload == "fabric_jitter") return make_fabric_jitter(options, report);
  if (options.workload == "hostile_campaigns") return make_hostile_campaigns(options, report);
  if (options.workload == "dimensioning") return make_dimensioning(options, report);
  usage(("unknown workload " + options.workload).c_str());
}

double process_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

/// Runs ops, counting each one and recording its failure and digest.
struct OpRunner {
  Workload& workload;
  Report& report;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  int digested = 0;  ///< ops 0 .. digested-1 are in `digest`

  OpOutcome run(int index, Tracer* tracer, double& wall_s, double* cpu_s = nullptr) {
    const double c0 = cpu_s != nullptr ? process_cpu_s() : 0.0;
    const Clock::time_point t0 = Clock::now();
    OpOutcome out = workload.op(index, tracer);
    wall_s = seconds_between(t0, Clock::now());
    if (cpu_s != nullptr) {
      *cpu_s = process_cpu_s() - c0;
    }
    ++report.attempted;
    if (!out.failure.empty()) {
      report.fail("op " + std::to_string(index) + ": " + out.failure);
    }
    if (index == digested && index < kDigestOps) {
      digest = fnv1a(digest, out.digest + ";");
      ++digested;
    }
    return out;
  }
};

/// Reference runs at the end of set-up, for its normalisation.
constexpr int kSetupReferenceRuns = 5;

/// Normalised seconds: `cpu_s` of process CPU time scaled by how long the
/// reference took next to it (see calibrate.hpp). `reference_cpu_s` is the
/// process CPU time of one Reference::run() with `threads` copies.
double normalised_s(double cpu_s, double reference_cpu_s, int threads) {
  return cpu_s * ratio(kReferenceNominalS * threads, reference_cpu_s);
}

/// Process CPU time of one reference run.
double reference_cpu_s(Reference& reference) {
  const double c0 = process_cpu_s();
  reference.run();
  return process_cpu_s() - c0;
}

void untraced_run(const Options& options, Workload& workload, OpRunner& runner,
                  Report& report) {
  struct Block {
    double work = 0.0;
    double wall = 0.0;
    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<double> references;  ///< reference CPU times within the block
  };
  const int threads = workload.single_threaded() ? 1 : options.shards;
  Reference reference(threads);
  const int block_ops = workload.block_ops();
  const double block_s = options.seconds / kTimeBlocks;
  auto full = [&](const Block& b) {
    return block_ops > 0 ? static_cast<int>(b.walls.size()) >= block_ops : b.wall >= block_s;
  };
  std::vector<Block> blocks(1);
  int ops = 0;
  std::optional<CpuRotation> rotation;
  if (workload.single_threaded()) {
    rotation.emplace();
    rotation->next();
  }
  double since_reference_s = kReferenceEveryS;
  const Clock::time_point start = Clock::now();
  for (int index = 1; seconds_between(start, Clock::now()) < options.seconds ||
                      ops < 2 * kMinOps || blocks.size() < 3;
       ++index, ++ops) {
    Block& block = blocks.back();
    if (since_reference_s >= kReferenceEveryS) {
      block.references.push_back(reference_cpu_s(reference));
      since_reference_s = 0.0;
    }
    double wall = 0.0;
    double cpu = 0.0;
    block.work += runner.run(index, nullptr, wall, &cpu).work;
    since_reference_s += wall;
    block.wall += wall;
    block.walls.push_back(wall);
    block.cpus.push_back(cpu);
    if (full(block)) {
      while (static_cast<int>(block.references.size()) < kMinReferenceRuns) {
        block.references.push_back(reference_cpu_s(reference));
      }
      blocks.emplace_back();
      since_reference_s = kReferenceEveryS;
      if (rotation) {
        rotation->next();
      }
    }
  }
  rotation.reset();
  blocks.pop_back();  // empty or partial
  double work = 0.0;
  double normalised = 0.0;
  double wall = 0.0;
  std::vector<double> ops_s;
  std::vector<double> walls;
  std::string rates;
  std::string references;
  for (const Block& block : blocks) {
    const double block_reference = median(block.references);
    double block_normalised = 0.0;
    for (const double cpu : block.cpus) {
      ops_s.push_back(normalised_s(cpu, block_reference, threads));
      block_normalised += ops_s.back();
    }
    work += block.work;
    normalised += block_normalised;
    wall += block.wall;
    walls.insert(walls.end(), block.walls.begin(), block.walls.end());
    rates += (rates.empty() ? "" : " ") + json_number(ratio(block.work, block_normalised));
    references += (references.empty() ? "" : " ") + json_number(1e3 * block_reference / threads);
  }
  // The tail: consecutive whole blocks in run order, grouped to at least
  // kTailGroup ops (so on dimensioning every group holds whole cycles of
  // the schedule); a short remainder joins the last group.
  std::vector<std::vector<double>> groups(1);
  for (std::size_t b = 0, first = 0; b < blocks.size(); first += blocks[b].cpus.size(), ++b) {
    if (groups.back().size() >= kTailGroup) {
      groups.emplace_back();
    }
    groups.back().insert(groups.back().end(), ops_s.begin() + static_cast<std::ptrdiff_t>(first),
                         ops_s.begin() + static_cast<std::ptrdiff_t>(first + blocks[b].cpus.size()));
  }
  if (groups.size() > 1 && groups.back().size() < kTailGroup) {
    groups[groups.size() - 2].insert(groups[groups.size() - 2].end(), groups.back().begin(),
                                     groups.back().end());
    groups.pop_back();
  }
  std::vector<double> tails;
  std::vector<double> percentiles;
  for (const std::vector<double>& group : groups) {
    Tail tail;
    if (tail_of(group, kTailBeyond, tail)) {
      tails.push_back(tail.value);
      percentiles.push_back(tail.percentile);
    }
  }
  report.add("work_per_s", ratio(work, normalised), "1/s");
  report.add("op_ms_p50", 1e3 * median(ops_s), "ms");
  report.add("op_ms_tail", 1e3 * median(tails), "ms");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  report.note("op_ms_tail.percentile", median(percentiles));
  report.note("op_ms_tail.groups", static_cast<double>(tails.size()));
  report.note("op_ms_tail.samples", static_cast<double>(ops_s.size()));
  report.note("ops", ops);
  report.note("blocks", static_cast<double>(blocks.size()));
  report.note("blocks.rates", rates);
  report.note("blocks.reference_ms", references);
  // The same ops in raw host wall time, for comparison.
  report.note("wall.work_per_s", ratio(work, wall));
  report.note("wall.op_ms_p50", 1e3 * median(walls));
}

/// Probe ops first (traced, under the registry delta), then every op index
/// twice, untraced and traced in alternating order: the pair gives the
/// tracing overhead and must produce the same digest.
void traced_run(const Options& options, Workload& workload, OpRunner& runner,
                Report& report, Tracer& tracer) {
  TracedLoop loop;
  loop.probe_ops = workload.probe_ops();
  double worst_error = 0.0;
  double root_self = 0.0;
  double traced_total = 0.0;
  std::map<std::string, double> layer_self;
  std::vector<double> overhead;
  auto traced_op = [&](int index, bool probe, double& wall) {
    tracer.begin_op();
    if (probe) {
      loop.probe.begin();
    }
    const int root = tracer.open("op", "bench");
    // --forge-span closes op 1's root span before the op runs, so the op's
    // calls fall outside it: the layer-sum check below must catch that.
    const bool forged = options.forge_span && index == 1;
    if (forged) {
      tracer.close(root);
    }
    OpOutcome out = runner.run(index, &tracer, wall);
    if (!forged) {
      tracer.close(root);
    }
    if (probe) {
      loop.probe.end();
    }
    const Tracer::Accounting acc = tracer.op_accounting(root, wall);
    const double gap = std::abs(acc.self_sum_s - wall);
    const double error = gap / std::max(wall, kLayerSumFloorS / kLayerSumTolerance);
    worst_error = std::max(worst_error, error);
    if (error > kLayerSumTolerance) {
      report.fail("traced op " + std::to_string(index) + ": layer self times sum to " +
                  std::to_string(acc.self_sum_s) + " s of a " + std::to_string(wall) + " s op");
    }
    root_self += acc.root_self_s;
    traced_total += wall;
    for (const auto& [layer, seconds] : acc.layer_self_s) {
      layer_self[layer] += seconds;
    }
    return out;
  };
  int index = 1;
  for (; index <= loop.probe_ops; ++index) {
    double wall = 0.0;
    traced_op(index, true, wall);
  }
  const Clock::time_point start = Clock::now();
  for (; seconds_between(start, Clock::now()) < options.seconds ||
         static_cast<int>(loop.untraced_s.size()) < kMinOps;
       ++index) {
    double plain_s = 0.0;
    double traced_s = 0.0;
    OpOutcome plain;
    OpOutcome traced;
    if (index % 2 == 0) {
      plain = runner.run(index, nullptr, plain_s);
      traced = traced_op(index, false, traced_s);
    } else {
      traced = traced_op(index, false, traced_s);
      plain = runner.run(index, nullptr, plain_s);
    }
    if (plain.digest != traced.digest) {
      report.fail("op " + std::to_string(index) + " did not repeat: digest " + plain.digest +
                  " untraced, " + traced.digest + " traced");
    }
    loop.untraced_s.push_back(plain_s);
    loop.untraced_work.push_back(plain.work);
    overhead.push_back(ratio(traced_s, plain_s));
  }
  workload.per_layer(report, tracer, loop);
  report.add("trace.overhead_ratio", median(overhead), "ratio");
  report.add("trace.layer_sum_error", worst_error, "ratio");
  report.add("trace.unattributed_share", ratio(root_self, traced_total), "ratio");
  for (const auto& [layer, seconds] : layer_self) {
    report.note("trace.layer_share." + layer, ratio(seconds, traced_total));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  const Args args = parse(argc, argv);
  if (const char* out = std::getenv("HRTDM_TRACE_OUT"); out != nullptr && out[0] != '\0') {
    std::fprintf(stderr,
                 "perfbench_driver: HRTDM_TRACE_OUT is set; the library would trace every "
                 "slot and the timings would be meaningless. Unset it.\n");
    return 2;
  }
  hrtdm::check::install_conformance_auditor();

  const Options& options = args.options;
  Report report;
  report.note("workload", options.workload);
  report.note("seed", static_cast<double>(options.seed));
  report.note("trace", options.trace ? 1.0 : 0.0);
  report.note("shards", options.shards);
  report.note("hardware_threads", hrtdm::util::ThreadPool::hardware_threads());
  report.note("build_type", PERFBENCH_BUILD_TYPE);
  report.note("compiler", PERFBENCH_COMPILER);
#if defined(HRTDM_OBS_OFF)
  report.note("obs", "off");
#else
  report.note("obs", "on");
#endif
  report.note("epoch_compiler_mode", "on");

  try {
    std::unique_ptr<Workload> workload = make(options, report);
    report.note("work_unit", workload->work_unit());
    workload->prepare(nullptr);
    OpRunner runner{*workload, report};
    double warmup_s = 0.0;
    runner.run(0, nullptr, warmup_s);  // untimed warm-up op, still checked
    const double setup_cpu_s = process_cpu_s();
    report.note("setup_wall_s", seconds_between(process_start, Clock::now()));
    // Set-up in normalised CPU seconds, like the ops (see untraced_run).
    {
      const int threads = workload->single_threaded() ? 1 : options.shards;
      Reference reference(threads);
      std::vector<double> references;
      for (int i = 0; i < kSetupReferenceRuns; ++i) {
        references.push_back(reference_cpu_s(reference));
      }
      report.note("setup_s", normalised_s(setup_cpu_s, median(references), threads));
    }
    report.note("warmup_op_s", warmup_s);
    if (args.setup_only) {
      std::printf("%s\n", report.json().c_str());
      return report.failed == 0 ? 0 : 1;
    }
    Tracer tracer;
    if (options.trace) {
      traced_run(options, *workload, runner, report, tracer);
      report.add("error_rate", ratio(static_cast<double>(report.failed),
                                     static_cast<double>(report.attempted)),
                 "ratio");
      if (!args.trace_file.empty() && !tracer.write_chrome(args.trace_file)) {
        report.fail("could not write " + args.trace_file);
      }
    } else {
      untraced_run(options, *workload, runner, report);
    }
    workload->finish(report);
    report.note("digest", hex64(runner.digest));
    report.note("error_rate", ratio(static_cast<double>(report.failed),
                                    static_cast<double>(report.attempted)));
  } catch (const std::exception& e) {
    ++report.attempted;
    report.fail(std::string("exception: ") + e.what());
  }
  std::printf("%s\n", report.json().c_str());
  return report.failed == 0 ? 0 : 1;
}
