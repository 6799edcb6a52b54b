// A fixed reference computation that owes nothing to the library, timed
// between the ops of an untraced run. On a shared host the speed a CPU
// gives changes from second to second with what the neighbours run (cache,
// memory bandwidth, sibling hyperthreads, clock); the reference slows down
// with it, so an op time divided by the reference time of its block is
// steadier than the raw time. See "Timing" in perfbench/README.md.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Normalised timings are CPU seconds of a host on which one copy of the
/// reference takes this long. A 4-vCPU Intel Xeon VM (2.1 GHz) takes 2 to
/// 4 ms, depending on what its neighbours run.
constexpr double kReferenceNominalS = 2.0e-3;

class Reference {
 public:
  /// `threads` copies run at once, one per thread: 1 for a single-threaded
  /// workload, the shard count for a fabric.
  explicit Reference(int threads);

  /// Runs every copy once and returns when the last has ended.
  void run();

 private:
  struct Arena {
    std::vector<std::uint64_t> table;   ///< random read-modify-write
    std::vector<std::uint32_t> chain;   ///< one random cycle, pointer chase
  };
  static std::uint64_t kernel(Arena& arena, std::uint64_t seed);

  std::vector<Arena> arenas_;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
