#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 14); }

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
      .count();
}

int Tracer::open(const std::string& name, const std::string& layer) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  spans_.back().start_ns = now_ns();  // last, so bookkeeping stays outside
  return index;
}

void Tracer::close(int index) {
  const std::int64_t t = now_ns();  // first, for the same reason
  spans_[static_cast<std::size_t>(index)].end_ns = t;
  if (!stack_.empty() && stack_.back() == index) {
    stack_.pop_back();
  }
}

int Tracer::begin_op() { return ++op_; }

Tracer::Accounting Tracer::op_accounting(int root, double wall_s) const {
  Accounting acc;
  acc.wall_s = wall_s;
  std::map<int, std::vector<int>> children;
  const int op = spans_[static_cast<std::size_t>(root)].op;
  for (int i = root + 1; i < static_cast<int>(spans_.size()); ++i) {
    if (spans_[static_cast<std::size_t>(i)].op == op) {
      children[spans_[static_cast<std::size_t>(i)].parent].push_back(i);
    }
  }
  std::vector<int> todo = {root};
  while (!todo.empty()) {
    const int index = todo.back();
    todo.pop_back();
    const Span& span = spans_[static_cast<std::size_t>(index)];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const int child : children[index]) {
      const Span& c = spans_[static_cast<std::size_t>(child)];
      covered.emplace_back(std::max(c.start_ns, span.start_ns),
                           std::min(c.end_ns, span.end_ns));
      todo.push_back(child);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t covered_ns = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered_ns += hi - from;
        reach = hi;
      }
    }
    const double self_s = static_cast<double>(span.end_ns - span.start_ns - covered_ns) * 1e-9;
    acc.self_sum_s += self_s;
    acc.layer_self_s[span.layer] += self_s;
    acc.span_self_s[span.name] += self_s;
    if (index == root) {
      acc.root_self_s = self_s;
    }
  }
  return acc;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) {
    return false;
  }
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
         "\"args\": {\"name\": \"perfbench\"}}";
  char buf[96];
  for (const Span& span : spans_) {
    if (span.end_ns < 0) {
      continue;
    }
    out << ",\n{\"name\": " << json_string(span.name)
        << ", \"cat\": " << json_string(span.layer) << ", \"ph\": \"X\"";
    std::snprintf(buf, sizeof buf, ", \"ts\": %.3f, \"dur\": %.3f",
                  static_cast<double>(span.start_ns) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    out << buf << ", \"pid\": 1, \"tid\": 1, \"args\": {\"op\": " << span.op << "}}";
  }
  out << "\n]}\n";
  return out.good();
}

}  // namespace perfbench
