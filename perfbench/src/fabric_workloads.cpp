// fabric_sync and fabric_jitter: core::run_fabric over a uniform fabric of
// CSMA/DDCR channels, sharded over the worker pool.
//
// fabric_sync  window-aligned saturating bursts, no bridges: the epoch
//              compiler turns almost every epoch into a compiled span.
// fabric_jitter seeded periodic-jitter arrivals and a few static bridges
//              (barrier mode): epochs bail at the arrival horizon, so the
//              interpreted slot loop, event dispatch, EDF queues, barriers
//              and relays carry the work.
//
// The traced run adds three things per fabric: the same fabric on one shard
// (scaling efficiency and a shard-invariance check), the same fabric with
// the per-slot consistency checker on, and one representative channel
// (channel 0: same stations, arrivals and options) driven through
// core::DdcrTestbed, with a span around each public call.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "check/conformance.hpp"
#include "core/fabric.hpp"
#include "core/multi_channel.hpp"
#include "net/channel.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace hrtdm;

struct FabricShape {
  const char* name;
  int channels;
  int stations;       ///< per channel
  std::int64_t windows;  ///< arrival windows (messages per source)
  int load_divisor;   ///< window = slot_x * load_divisor * stations
  traffic::ArrivalKind arrivals;
  int bridges;        ///< channel 4k -> 4k+1, for k < bridges
  int audit_stride;
};

constexpr FabricShape kSync = {"fabric_sync", 64, 256, 8, 2,
                               traffic::ArrivalKind::kSaturatingAdversary, 0, 16};
constexpr FabricShape kJitter = {"fabric_jitter", 16, 256, 3, 2,
                                 traffic::ArrivalKind::kPeriodicJitter, 4, 4};

/// Class types per fabric: the types are fixed, and the seed draws which
/// sources get which type. Every type covers a multiple of `channels`
/// sources with one load value, so plan_channels' greedy placement deals
/// them round-robin and every channel gets exactly `stations` stations for
/// any seed. Under the saturating adversary the end-of-run protocol state
/// depends on which stations hold the earliest deadlines, so the seeded
/// placement is what makes the digest seed-specific.
constexpr int kClassTypes = 4;

/// Counts the silence slots the channel skipped in idle gaps.
class IdleGapCounter final : public net::ChannelObserver {
 public:
  void on_slot(const net::SlotRecord&) override {}
  void on_idle_gap(std::int64_t slots, util::SimTime, util::Duration) override {
    gap_slots += slots;
  }
  std::int64_t gap_slots = 0;
};

class FabricWorkload final : public Workload {
 public:
  FabricWorkload(const FabricShape& shape, const Options& options, Report& report)
      : shape_(shape), options_(options), report_(report) {}

  const char* work_unit() const override { return "station-slots"; }
  bool single_threaded() const override { return false; }  // pool workers

  void prepare(Tracer* tracer) override {
    Tracer::Scope span(tracer, "build_fabric_workload", "traffic");
    util::Rng rng(options_.seed ^ 0x5EEDFAB1ULL);
    core::DdcrRunOptions run;
    run.phy = net::PhyConfig::gigabit_ethernet();
    run.arrivals = shape_.arrivals;
    run.seed = options_.seed;
    run.epoch_compiler = core::EpochCompilerMode::kOn;
    const util::Duration window =
        run.phy.slot_x * (std::int64_t{shape_.load_divisor} * shape_.stations);

    // Four fixed class types with distinct frame lengths (distinct loads
    // keep the placement round-robin) and deadlines in [30, 50] ms. The
    // seed draws only which sources get which type: drawn type parameters
    // changed the cost of a station-slot by up to 40 % from seed to seed.
    constexpr std::int64_t l_bits[kClassTypes] = {850, 950, 1050, 1150};
    const util::Duration deadline[kClassTypes] = {
        util::Duration::microseconds(30'000), util::Duration::microseconds(36'000),
        util::Duration::microseconds(43'000), util::Duration::microseconds(50'000)};
    std::string types;
    for (int t = 0; t < kClassTypes; ++t) {
      types += (t ? " " : "") + std::to_string(l_bits[t]) + "b/" +
               std::to_string(deadline[t].ns() / 1000) + "us";
    }
    report_.note("fabric.class_types", types);
    const int sources = shape_.channels * shape_.stations;
    const std::vector<std::int64_t> placement = rng.permutation(sources);
    workload_.name = shape_.name;
    workload_.sources.resize(static_cast<std::size_t>(sources));
    for (int s = 0; s < sources; ++s) {
      traffic::SourceSpec& src = workload_.sources[static_cast<std::size_t>(s)];
      src.id = s;
      src.name = "f" + std::to_string(s);
      const auto type = static_cast<int>(placement[static_cast<std::size_t>(s)] % kClassTypes);
      traffic::MessageClass cls;
      cls.id = s;
      cls.name = src.name;
      cls.source = s;
      cls.l_bits = l_bits[type];
      cls.d = deadline[type];
      cls.a = 1;
      cls.w = window;
      src.classes.push_back(cls);
    }
    run.ddcr.class_width_c =
        core::DdcrConfig::class_width_for(workload_.max_deadline(), run.ddcr.F);
    run.ddcr.alpha = run.ddcr.class_width_c * 2;
    run.ddcr.q = run.ddcr.m_static;
    while (run.ddcr.q < shape_.stations) {
      run.ddcr.q *= run.ddcr.m_static;
    }
    run.arrival_horizon = util::SimTime::zero() + window * shape_.windows;
    run.drain_cap = run.arrival_horizon + window * (8 * shape_.windows);

    fabric_.run = run;
    fabric_.channels = shape_.channels;
    fabric_.shards = options_.shards;
    fabric_.engine = core::FabricEngine::kStreamWheel;
    fabric_.audit_stride = shape_.audit_stride;
    for (int k = 0; k < shape_.bridges; ++k) {
      core::BridgeSpec bridge;
      bridge.from_channel = 4 * k;
      bridge.to_channel = 4 * k + 1;  // never an audited channel
      bridge.to_source = k % shape_.stations;
      // 2 ms sets the barrier quantum: 6 barriers per op. The run ends at
      // the first barrier after every queue drained; with this quantum that
      // is the same barrier for every seed, so the executed (idle-included)
      // slots do not vary with the seed. Shorter quanta also make the op
      // mostly pool wake-ups, whose cost swings 2x with the load on a shared
      // host.
      bridge.latency = util::Duration::microseconds(2000);
      fabric_.bridges.push_back(bridge);
    }
    expected_audits_ =
        (shape_.channels + shape_.audit_stride - 1) / shape_.audit_stride;
    report_.note("fabric.channels", shape_.channels);
    report_.note("fabric.stations_per_channel", shape_.stations);
    report_.note("fabric.windows", static_cast<double>(shape_.windows));
    report_.note("fabric.bridges", shape_.bridges);
    report_.note("fabric.audit_stride", shape_.audit_stride);
  }

  OpOutcome op(int index, Tracer* tracer) override {
    core::FabricResult result;
    {
      Tracer::Scope span(tracer, "core::run_fabric", "core");
      result = core::run_fabric(workload_, fabric_);
    }
    if (options_.forge_failure && index == 1) {
      result.delivered += 1;  // one phantom delivery: conservation must fail
    }
    OpOutcome out;
    out.work = static_cast<double>(result.station_slots);
    out.failure = check(result);
    out.digest = hex64(result.protocol_digest);
    if (index == 0) {
      reference_ = result;
      reference_.channels.clear();  // keep only the aggregates
      report_.note("fabric.digest", hex64(result.protocol_digest));
      report_.note("fabric.station_slots_per_op", static_cast<double>(result.station_slots));
      report_.note("fabric.generated", static_cast<double>(result.generated));
      report_.note("fabric.delivered", static_cast<double>(result.delivered));
      report_.note("fabric.misses", static_cast<double>(result.misses));
      report_.note("fabric.undelivered", static_cast<double>(result.undelivered));
      report_.note("fabric.barriers", static_cast<double>(result.barriers));
      report_.note("fabric.bridge_injected", static_cast<double>(result.bridge_injected));
      channel0_ = result.channels.front();
    } else if (out.failure.empty()) {
      out.failure = same_as_reference(result, "repeat op");
    }
    return out;
  }

  void per_layer(Report& report, Tracer& tracer, TracedLoop& loop) override {
    const RegistryDelta& d = loop.probe;
    const double probes = std::max(1, loop.probe_ops);
    const double attempts = static_cast<double>(d.counter("ddcr.compile_attempts"));
    const double spans = static_cast<double>(d.counter("ddcr.spans_compiled"));
    report.add("core.compile_hit_ratio", ratio(spans, attempts), "ratio");
    report.add("core.compile_waste_ratio", ratio(attempts - spans, attempts), "ratio");
    for (const char* reason : {"horizon", "fault", "resync", "noise", "cap", "desync"}) {
      report.add(std::string("core.bailout.") + reason,
                 static_cast<double>(d.counter(std::string("ddcr.compile_bailout.") + reason)) / probes,
                 "count");
    }
    report.add("core.fabric_barriers", static_cast<double>(d.counter("fabric.barriers")) / probes,
               "count");
    report.add("core.fabric_bridge_relayed",
               static_cast<double>(d.counter("fabric.bridge.relayed")) / probes, "count");
    add_simulated_counts(report, d, probes);
    report.add("core.miss_ratio",
               ratio(static_cast<double>(reference_.misses),
                     static_cast<double>(reference_.generated + reference_.bridge_injected)),
               "ratio");
    const double busy_us = static_cast<double>(d.hist_sum("pool.worker_busy_us"));
    const double wall_us = static_cast<double>(d.hist_sum("pool.batch_wall_us"));
    report.add("util.pool_busy_share", ratio(busy_us, wall_us * options_.shards), "ratio");

    const double rate_n = ratio(static_cast<double>(reference_.station_slots),
                                median(loop.untraced_s));
    report.add("station_slots_per_s", rate_n, "1/s");

    // Same fabric on one shard: scaling efficiency and shard invariance.
    core::FabricOptions serial = fabric_;
    serial.shards = 1;
    double wall_1 = 0.0;
    const core::FabricResult one = extra_run(report, tracer, serial, "1 shard", wall_1);
    const double rate_1 = ratio(static_cast<double>(one.station_slots), wall_1);
    report.add("util.scaling_efficiency", ratio(rate_n, rate_1 * options_.shards), "ratio");
    report.note("fabric.one_shard_s", wall_1);

    // The per-slot consistency checker compares every station's digest
    // after every slot, so the timed ops leave it off, and their
    // consistency_ok holds vacuously. This run turns it on.
    core::FabricOptions checked = fabric_;
    checked.run.check_consistency = true;
    double wall_checked = 0.0;
    extra_run(report, tracer, checked, "consistency checked", wall_checked);
    report.note("fabric.consistency_checked_s", wall_checked);

    replica(report, tracer);
  }

 private:
  /// A traced extra run of the fabric under other options; its outputs must
  /// pass every check and match the timed ops'.
  core::FabricResult extra_run(Report& report, Tracer& tracer, const core::FabricOptions& options,
                               const std::string& what, double& wall_s) {
    const int root = tracer.open("op[" + what + "]", "bench");
    const Clock::time_point t0 = Clock::now();
    core::FabricResult result;
    {
      Tracer::Scope span(&tracer, "core::run_fabric[" + what + "]", "core");
      result = core::run_fabric(workload_, options);
    }
    wall_s = seconds_between(t0, Clock::now());
    tracer.close(root);
    ++report.attempted;
    std::string failure = check(result);
    if (failure.empty()) {
      failure = same_as_reference(result, what.c_str());
    }
    if (!failure.empty()) {
      report.fail(what + " run: " + failure);
    }
    return result;
  }

  /// Every check one fabric op must pass; empty when all hold.
  std::string check(const core::FabricResult& r) const {
    if (r.generated <= 0 || r.delivered <= 0 || r.station_slots <= 0) {
      return "fabric did no work";
    }
    if (r.delivered + r.undelivered + r.dropped_late != r.generated + r.bridge_injected) {
      return "conservation: delivered " + std::to_string(r.delivered) + " + undelivered " +
             std::to_string(r.undelivered) + " + dropped " + std::to_string(r.dropped_late) +
             " != generated " + std::to_string(r.generated) + " + relayed " +
             std::to_string(r.bridge_injected);
    }
    if (r.bridge_injected != r.bridge_captured) {
      return "bridges relayed " + std::to_string(r.bridge_injected) + " of " +
             std::to_string(r.bridge_captured) + " captured frames";
    }
    if (!r.consistency_ok) {
      return "replicated station state diverged";
    }
    const std::int64_t synced = r.soa.aggregate_all().synced;
    if (synced != r.stations) {
      return std::to_string(r.stations - synced) + " stations ended unsynced";
    }
    const auto audited = std::count_if(r.channels.begin(), r.channels.end(),
                                       [](const core::FabricChannelSummary& ch) {
                                         return ch.conformance_checked;
                                       });
    if (audited != expected_audits_ || r.audited_channels != expected_audits_) {
      return "audited " + std::to_string(audited) + " channels, expected " +
             std::to_string(expected_audits_);
    }
    if (!r.conformance_ok) {
      return "conformance audit failed";
    }
    return {};
  }

  std::string same_as_reference(const core::FabricResult& r, const char* what) const {
    if (r.protocol_digest != reference_.protocol_digest || r.delivered != reference_.delivered ||
        r.misses != reference_.misses || r.undelivered != reference_.undelivered ||
        r.station_slots != reference_.station_slots || r.barriers != reference_.barriers ||
        r.bridge_injected != reference_.bridge_injected) {
      return std::string(what) + " diverged from the first op (digest " +
             hex64(r.protocol_digest) + " vs " + hex64(reference_.protocol_digest) + ")";
    }
    return {};
  }

  static void add_simulated_counts(Report& report, const RegistryDelta& d, double probes) {
    const double searches = static_cast<double>(d.counter("tree.searches"));
    const double tree_slots = static_cast<double>(d.counter("tree.collision_slots") +
                                                  d.counter("tree.silence_slots"));
    report.add("core.tree_slots_per_search", ratio(tree_slots, searches), "slots");
    report.add("core.edf_depth_p99", static_cast<double>(d.hist_quantile("edf.depth", 0.99)),
               "messages");
    report.add("net.slots_silence", static_cast<double>(d.counter("channel.slots.silence")) / probes,
               "count");
    report.add("net.slots_collision",
               static_cast<double>(d.counter("channel.slots.collision")) / probes, "count");
    report.add("net.slots_success", static_cast<double>(d.counter("channel.slots.success")) / probes,
               "count");
  }

  /// Channel 0 through DdcrTestbed, one span per public call.
  void replica(Report& report, Tracer& tracer) {
    ++report.attempted;
    const int root = tracer.open("op[replica channel 0]", "bench");
    traffic::Workload sub;
    {
      Tracer::Scope span(&tracer, "core::plan_channels", "core");
      const core::ChannelPlan plan = core::plan_channels(workload_, shape_.channels);
      sub = core::channel_workload(workload_, plan, 0);
    }
    for (std::size_t s = 0; s < sub.sources.size(); ++s) {
      for (auto& cls : sub.sources[s].classes) {
        cls.source = static_cast<int>(s);
      }
      sub.sources[s].id = static_cast<int>(s);
    }
    core::DdcrRunOptions run = fabric_.run;
    run.seed = core::channel_seed(fabric_.run.seed, 0);
    run.ddcr.static_indices =
        core::DdcrConfig::one_index_per_source(sub.z(), run.ddcr.q);
    traffic::GeneratedTraffic traffic;
    {
      Tracer::Scope span(&tracer, "traffic::generate_traffic", "traffic");
      traffic = traffic::generate_traffic(sub, run.arrivals, run.arrival_horizon, run.seed);
    }
    std::unique_ptr<core::DdcrTestbed> bed;
    {
      Tracer::Scope span(&tracer, "core::DdcrTestbed", "core");
      bed = std::make_unique<core::DdcrTestbed>(sub.z(), run);
    }
    check::ConformanceRecorder recorder;
    IdleGapCounter gaps;
    bed->channel().add_observer(recorder);
    bed->channel().add_observer(gaps);
    std::vector<traffic::Message> injected;
    injected.reserve(static_cast<std::size_t>(traffic.total_messages));
    {
      Tracer::Scope span(&tracer, "core::DdcrTestbed::inject", "core");
      for (std::size_t s = 0; s < traffic.per_source.size(); ++s) {
        for (const traffic::Message& msg : traffic.per_source[s]) {
          bed->inject(static_cast<int>(s), msg);
          injected.push_back(msg);
        }
      }
    }
    {
      Tracer::Scope span(&tracer, "core::DdcrTestbed::run", "core");
      bed->run_until_delivered(traffic.total_messages, run.drain_cap);
    }
    core::ConformanceReport conformance;
    const net::ChannelStats stats = bed->channel().stats();
    std::vector<core::DdcrStation::Counters> counters;
    for (int s = 0; s < bed->station_count(); ++s) {
      counters.push_back(bed->station(s).counters());
    }
    const auto delivered = static_cast<std::int64_t>(bed->metrics().log().size());
    {
      Tracer::Scope span(&tracer, "check::ConformanceComparator::check", "check");
      check::ConformanceInput input;
      input.messages = injected;
      input.phy = run.phy;
      input.collision_mode = run.collision_mode;
      input.ddcr = run.ddcr;
      input.replicas_clean = true;
      input.expect_drain = delivered == traffic.total_messages;
      input.stats = &stats;
      input.per_station = &counters;
      conformance = check::ConformanceComparator{}.check(input, recorder);
    }
    tracer.close(root);
    const Tracer::Accounting acc =
        tracer.op_accounting(root, 1e-9 * static_cast<double>(
                                       tracer.spans()[static_cast<std::size_t>(root)].end_ns -
                                       tracer.spans()[static_cast<std::size_t>(root)].start_ns));

    std::string failure;
    if (!conformance.checked || !conformance.ok || conformance.slots_checked <= 0) {
      failure = "replica conformance: " + conformance.summary();
    } else if (!bed->digests_agree()) {
      failure = "replica station digests disagree";
    } else if (delivered != channel0_.delivered || traffic.total_messages != channel0_.generated) {
      failure = "replica delivered " + std::to_string(delivered) + " of " +
                std::to_string(traffic.total_messages) + ", fabric channel 0 delivered " +
                std::to_string(channel0_.delivered) + " of " + std::to_string(channel0_.generated);
    }
    if (!failure.empty()) {
      report.fail(failure);
    }

    const double slots =
        static_cast<double>(stats.silence_slots + stats.collision_slots + stats.successes);
    const core::EpochCompiler* compiler = bed->epoch_compiler();
    const double compiled = compiler ? static_cast<double>(compiler->slots_compiled()) : 0.0;
    const double spans = compiler ? static_cast<double>(compiler->spans_compiled()) : 0.0;
    report.add("core.compiled_slot_share", ratio(compiled, slots), "ratio");
    report.add("core.slots_per_span", ratio(compiled, spans), "slots");
    report.add("net.idle_gap_slot_share", ratio(static_cast<double>(gaps.gap_slots), slots),
               "ratio");
    report.add("sim.events_per_slot",
               ratio(static_cast<double>(bed->simulator().events_fired()), slots), "events");
    report.add("obs.records_per_slot",
               ratio(static_cast<double>(bed->flight_recorder().total_recorded()), slots),
               "records");
    report.add("traffic.messages", static_cast<double>(traffic.total_messages), "count");
    report.add("traffic.generate_ms", 1e3 * acc.span_self_s.at("traffic::generate_traffic"), "ms");
    report.add("core.plan_channels_ms", 1e3 * acc.span_self_s.at("core::plan_channels"), "ms");
    report.add("core.testbed_build_ms", 1e3 * acc.span_self_s.at("core::DdcrTestbed"), "ms");
    report.add("core.run_self_ms", 1e3 * acc.span_self_s.at("core::DdcrTestbed::run"), "ms");
    const double audit_s = acc.span_self_s.at("check::ConformanceComparator::check");
    report.add("check.audit_ms", 1e3 * audit_s, "ms");
    report.add("check.audit_share", ratio(audit_s, acc.wall_s), "ratio");
    report.note("replica.slots", slots);
    report.note("replica.delivered", static_cast<double>(delivered));
  }

  FabricShape shape_;
  Options options_;
  Report& report_;
  traffic::Workload workload_;
  core::FabricOptions fabric_;
  std::int64_t expected_audits_ = 0;
  core::FabricResult reference_;
  core::FabricChannelSummary channel0_;
};

}  // namespace

std::unique_ptr<Workload> make_fabric_sync(const Options& options, Report& report) {
  return std::make_unique<FabricWorkload>(kSync, options, report);
}

std::unique_ptr<Workload> make_fabric_jitter(const Options& options, Report& report) {
  return std::make_unique<FabricWorkload>(kJitter, options, report);
}

}  // namespace perfbench
