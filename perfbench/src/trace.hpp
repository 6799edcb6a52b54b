// Benchmark-side spans. Each span wraps one call into a public entry point
// of the library (or one benchmark step around it); spans of one timed op
// share the op's id. They are kept in memory and written at the end as
// Chrome trace-event JSON, which Perfetto (ui.perfetto.dev) opens.
//
// A span's *self time* is its duration minus the part of its interval
// covered by its children. Self times of one op's spans add up to the op's
// wall time exactly when every child lies inside its parent and siblings do
// not overlap, so the check in Tracer::op_accounting() catches spans that
// were opened or closed in the wrong place.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;  ///< library module the call enters (core, net, ...)
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
    int op = -1;
  };

  Tracer();

  /// Opens a span under the innermost open one; returns its index.
  int open(const std::string& name, const std::string& layer);
  void close(int index);

  /// RAII span; a null tracer makes it a no-op (untraced runs).
  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name, const std::string& layer)
        : tracer_(tracer), index_(tracer ? tracer->open(name, layer) : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->close(index_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  /// Starts a new op id; spans opened until the next call belong to it.
  int begin_op();

  /// How one closed root span's tree accounts for `wall_s`, measured by the
  /// caller around the same op.
  struct Accounting {
    double wall_s = 0.0;
    double self_sum_s = 0.0;       ///< sum of self times over the tree
    double root_self_s = 0.0;      ///< time no library call covers
    std::map<std::string, double> layer_self_s;  ///< by Span::layer
    std::map<std::string, double> span_self_s;   ///< by Span::name
  };
  Accounting op_accounting(int root, double wall_s) const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events).
  bool write_chrome(const std::string& path) const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int op_ = -1;
};

}  // namespace perfbench
