#include "report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool tail_of(std::vector<double> values, int beyond, Tail& out) {
  const auto n = static_cast<std::int64_t>(values.size());
  if (n <= beyond) {
    return false;
  }
  std::sort(values.begin(), values.end());
  const std::int64_t index = n - beyond - 1;
  out.value = values[static_cast<std::size_t>(index)];
  out.percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return true;
}

double peak_rss_mb() {
  // VmHWM, not getrusage(): ru_maxrss survives exec, so it would report
  // the launching process's peak when that one was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void RegistryDelta::begin() { start_ = hrtdm::obs::Registry::global().snapshot(); }

void RegistryDelta::end() {
  const hrtdm::obs::RegistrySnapshot now = hrtdm::obs::Registry::global().snapshot();
  std::map<std::string, std::int64_t> before;
  for (const auto& c : start_.counters) {
    before[c.name] = c.value;
  }
  for (const auto& c : now.counters) {
    const auto it = before.find(c.name);
    counters_[c.name] += c.value - (it == before.end() ? 0 : it->second);
  }
  std::map<std::string, const hrtdm::obs::HistogramSnapshot*> hbefore;
  for (const auto& h : start_.histograms) {
    hbefore[h.name] = &h;
  }
  for (const auto& h : now.histograms) {
    const auto it = hbefore.find(h.name);
    const hrtdm::obs::HistogramSnapshot* prev = it == hbefore.end() ? nullptr : it->second;
    Hist& acc = hists_[h.name];
    if (acc.bounds.empty()) {
      acc.bounds = h.bounds;
      acc.buckets.assign(h.buckets.size(), 0);
    }
    const std::int64_t dcount = h.count - (prev ? prev->count : 0);
    acc.count += dcount;
    acc.sum += h.sum - (prev ? prev->sum : 0);
    for (std::size_t b = 0; b < h.buckets.size() && b < acc.buckets.size(); ++b) {
      acc.buckets[b] += h.buckets[b] - (prev ? prev->buckets[b] : 0);
    }
    if (dcount > 0) {
      // Window extrema are not recoverable from two snapshots; the
      // process-wide ones bound them and only matter for q = 0 / overflow.
      acc.min = std::min(acc.min, h.min);
      acc.max = std::max(acc.max, h.max);
    }
  }
}

std::int64_t RegistryDelta::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::int64_t RegistryDelta::hist_sum(const std::string& name) const {
  const auto it = hists_.find(name);
  return it == hists_.end() ? 0 : it->second.sum;
}

std::int64_t RegistryDelta::hist_quantile(const std::string& name, double q) const {
  const auto it = hists_.find(name);
  if (it == hists_.end() || it->second.count == 0) {
    return 0;
  }
  const Hist& h = it->second;
  return hrtdm::obs::snapshot_quantile(h.bounds, h.buckets, h.count, h.min, h.max, q);
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Report::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) {
    failures.push_back(what);
  }
}

void Report::note(const std::string& key, double value) { info[key] = json_number(value); }

void Report::note(const std::string& key, const std::string& text) {
  info[key] = json_string(text);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, value);
  return buf;
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out += (i ? ", " : "") + json_string(failures[i]);
  }
  out += "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": " +
           json_string(metrics[i].unit) + "}";
  }
  out += "}, \"info\": {";
  bool first = true;
  for (const auto& [key, value] : info) {
    out += (first ? "" : ", ") + json_string(key) + ": " + value;
    first = false;
  }
  return out + "}}";
}

}  // namespace perfbench
