// hostile_campaigns: a serial batch of seeded fault::run_campaign runs
// mixing crashes, symmetric and asymmetric receive faults, churn, clock
// drift and Gilbert-Elliott bursty loss, each with the clean-prefix
// conformance audit. Faults install a channel interceptor, so the epoch
// compiler never engages: the fault layer, watchdog, rejoin and audit carry
// the work. Op i runs campaign seed SplitMix64(seed) draw i.
#include <memory>
#include <string>

#include "fault/campaign.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace hrtdm;

/// Audit on/off pairs run by the traced run for check.audit_share.
constexpr int kAuditPairs = 24;

fault::CampaignOptions base_options() {
  fault::CampaignOptions options;
  options.stations = 8;
  options.messages_per_station = 40;
  options.fault_window_observations = 600;
  options.crashes = 1;
  options.symmetric_bursts = 1;
  options.asymmetric_bursts = 2;
  options.churn_events = 6;
  options.drifted_stations = 2;
  options.drift_phase_bound = util::Duration::nanoseconds(60);
  options.drift_rate_ppm = 1000.0;
  options.phy.gilbert_elliott(0.05, 0.25, 0.0, 0.3);
  options.conformance_check = true;
  return options;
}

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(const Options& options, Report& report)
      : options_(options), report_(report) {}

  const char* work_unit() const override { return "channel-slots"; }

  void prepare(Tracer*) override {
    base_ = base_options();
    report_.note("campaign.stations", base_.stations);
    silence_ = &obs::Registry::global().counter("channel.slots.silence");
    collision_ = &obs::Registry::global().counter("channel.slots.collision");
    success_ = &obs::Registry::global().counter("channel.slots.success");
  }

  OpOutcome op(int index, Tracer* tracer) override {
    fault::CampaignOptions options = base_;
    options.seed = campaign_seed(index);
    const std::int64_t slots_before = slots();
    fault::CampaignResult result;
    {
      Tracer::Scope span(tracer, "fault::run_campaign", "fault");
      result = fault::run_campaign(options);
    }
    if (options_.forge_failure && index == 1) {
      result.drained = false;  // a stuck queue: passed() must fail
    }
    OpOutcome out;
    out.work = static_cast<double>(slots() - slots_before);
    out.failure = check(result, options.conformance_check);
    audited_slots_ += result.conformance.slots_checked;
    out.digest = std::to_string(result.delivered) + "/" + std::to_string(result.misses) + "/" +
                 std::to_string(result.reconvergence_observations) + "/" +
                 std::to_string(result.faults.asymmetric_corruptions);
    if (index >= 1 && index <= probe_ops()) {
      results_.push_back(result);  // the probe prefix: ops 1 .. probe_ops()
    }
    return out;
  }

  int probe_ops() const override { return 16; }

  void finish(Report& report) override {
    // A campaign whose first fault comes early has an empty clean prefix;
    // over the batch the audit must still have judged something.
    ++report.attempted;
    if (audited_slots_ <= 0) {
      report.fail("the clean-prefix audits judged no slot in the whole batch");
    }
    report.note("campaign.audited_slots", static_cast<double>(audited_slots_));
  }

  void per_layer(Report& report, Tracer& tracer, TracedLoop& loop) override {
    const RegistryDelta& d = loop.probe;
    double work = 0.0;
    double wall = 0.0;
    for (std::size_t i = 0; i < loop.untraced_s.size(); ++i) {
      work += loop.untraced_work[i];
      wall += loop.untraced_s[i];
    }
    report.add("sim_slots_per_s", ratio(work, wall), "1/s");
    report.add("station_slots_per_s", ratio(work * base_.stations, wall), "1/s");
    report.add("net.slots_silence", static_cast<double>(d.counter("channel.slots.silence")),
               "count");
    report.add("net.slots_collision", static_cast<double>(d.counter("channel.slots.collision")),
               "count");
    report.add("net.slots_success", static_cast<double>(d.counter("channel.slots.success")),
               "count");
    const double searches = static_cast<double>(d.counter("tree.searches"));
    report.add("core.tree_slots_per_search",
               ratio(static_cast<double>(d.counter("tree.collision_slots") +
                                         d.counter("tree.silence_slots")),
                     searches),
               "slots");
    report.add("core.edf_depth_p99", static_cast<double>(d.hist_quantile("edf.depth", 0.99)),
               "messages");

    // The probe prefix: campaigns 1 .. probe_ops() of this seed.
    double passed = 0;
    double misses = 0;
    double generated = 0;
    std::vector<double> rounds;
    fault::CampaignResult sum;
    for (const fault::CampaignResult& r : results_) {
      passed += r.passed() ? 1 : 0;
      misses += static_cast<double>(r.misses);
      generated += static_cast<double>(r.generated);
      rounds.push_back(r.recovery_rounds_used);
      sum.quarantines += r.quarantines;
      sum.rejoins += r.rejoins;
      sum.faults.crashes_fired += r.faults.crashes_fired;
      sum.faults.asymmetric_corruptions += r.faults.asymmetric_corruptions;
      sum.faults.asymmetric_misses += r.faults.asymmetric_misses;
      sum.faults.churn_leaves += r.faults.churn_leaves;
      sum.faults.churn_joins += r.faults.churn_joins;
      sum.faults.drift_missamples += r.faults.drift_missamples;
      sum.faults.drift_resyncs += r.faults.drift_resyncs;
    }
    const double n = static_cast<double>(results_.size());
    report.add("fault.campaign_pass_ratio", ratio(passed, n), "ratio");
    report.add("fault.recovery_rounds_p50", median(rounds), "rounds");
    report.add("core.miss_ratio", ratio(misses, generated), "ratio");
    report.add("core.quarantines", static_cast<double>(sum.quarantines), "count");
    report.add("core.rejoins", static_cast<double>(sum.rejoins), "count");
    report.add("fault.crashes_fired", static_cast<double>(sum.faults.crashes_fired), "count");
    report.add("fault.asymmetric_corruptions",
               static_cast<double>(sum.faults.asymmetric_corruptions), "count");
    report.add("fault.asymmetric_misses", static_cast<double>(sum.faults.asymmetric_misses),
               "count");
    report.add("fault.churn_leaves", static_cast<double>(sum.faults.churn_leaves), "count");
    report.add("fault.churn_joins", static_cast<double>(sum.faults.churn_joins), "count");
    report.add("fault.drift_missamples", static_cast<double>(sum.faults.drift_missamples),
               "count");
    report.add("fault.drift_resyncs", static_cast<double>(sum.faults.drift_resyncs), "count");

    // The same campaign seeds with the clean-prefix audit off and on,
    // interleaved: the difference is the audit's cost.
    double on_s = 0.0;
    double off_s = 0.0;
    for (int i = 1; i <= kAuditPairs; ++i) {
      fault::CampaignOptions options = base_;
      options.seed = campaign_seed(i);
      for (const bool audit : {false, true}) {
        options.conformance_check = audit;
        const int root = tracer.open(audit ? "op[audit on]" : "op[audit off]", "bench");
        const Clock::time_point t0 = Clock::now();
        fault::CampaignResult result;
        {
          Tracer::Scope span(&tracer, "fault::run_campaign", "fault");
          result = fault::run_campaign(options);
        }
        (audit ? on_s : off_s) += seconds_between(t0, Clock::now());
        tracer.close(root);
        ++report.attempted;
        const std::string failure = check(result, audit);
        if (!failure.empty()) {
          report.fail(std::string(audit ? "audit on: " : "audit off: ") + failure);
        }
      }
    }
    const double audit_s = std::max(0.0, on_s - off_s);
    report.add("check.audit_ms", 1e3 * audit_s / kAuditPairs, "ms");
    report.add("check.audit_share", ratio(audit_s, on_s), "ratio");
  }

 private:
  std::uint64_t campaign_seed(int index) const {
    util::SplitMix64 mix(options_.seed ^ 0xCA4A1617ULL);
    std::uint64_t seed = mix.next();
    for (int i = 0; i < index; ++i) {
      seed = mix.next();
    }
    return seed;
  }

  std::int64_t slots() const {
    return silence_->value() + collision_->value() + success_->value();
  }

  static std::string check(const fault::CampaignResult& r, bool audited) {
    if (r.passed()) {
      if (audited && !r.conformance.checked) {
        return "clean-prefix audit did not run";
      }
      if (r.delivered <= 0 || r.generated <= 0) {
        return "campaign delivered nothing";
      }
      return {};
    }
    return std::string("campaign failed: safety=") + (r.safety_ok ? "ok" : "VIOLATED") +
           " drained=" + (r.drained ? "yes" : "NO") +
           " reconverged=" + (r.reconverged ? "yes" : "NO") +
           " conformance=" + (r.conformance.ok ? "ok" : r.conformance.summary());
  }

  Options options_;
  Report& report_;
  fault::CampaignOptions base_;
  obs::Counter* silence_ = nullptr;
  obs::Counter* collision_ = nullptr;
  obs::Counter* success_ = nullptr;
  std::vector<fault::CampaignResult> results_;
  std::int64_t audited_slots_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_hostile_campaigns(const Options& options, Report& report) {
  return std::make_unique<CampaignWorkload>(options, report);
}

}  // namespace perfbench
