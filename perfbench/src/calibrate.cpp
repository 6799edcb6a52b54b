#include "calibrate.hpp"

#include <numeric>
#include <thread>

namespace perfbench {
namespace {

constexpr std::size_t kTableWords = 1u << 17;  // 1 MiB
constexpr std::size_t kChainLinks = 1u << 16;  // 256 KiB
constexpr int kTableSteps = 120000;
constexpr int kChainSteps = 60000;
constexpr int kMixSteps = 150000;
constexpr int kFloatSteps = 100000;

std::uint64_t next(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

Reference::Reference(int threads) : arenas_(static_cast<std::size_t>(threads < 1 ? 1 : threads)) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (Arena& arena : arenas_) {
    arena.table.resize(kTableWords);
    for (std::uint64_t& word : arena.table) {
      word = next(x);
    }
    // Sattolo's shuffle: a single cycle through every link.
    arena.chain.resize(kChainLinks);
    std::iota(arena.chain.begin(), arena.chain.end(), 0u);
    for (std::size_t i = kChainLinks - 1; i > 0; --i) {
      std::swap(arena.chain[i], arena.chain[next(x) % i]);
    }
  }
}

std::uint64_t Reference::kernel(Arena& arena, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  std::uint64_t acc = 0;
  for (int i = 0; i < kTableSteps; ++i) {
    std::uint64_t& word = arena.table[next(x) & (kTableWords - 1)];
    word += x >> 3;
    acc ^= word;
  }
  std::uint32_t link = static_cast<std::uint32_t>(acc & (kChainLinks - 1));
  for (int i = 0; i < kChainSteps; ++i) {
    link = arena.chain[link];
  }
  acc += link;
  for (int i = 0; i < kMixSteps; ++i) {
    const std::uint64_t r = next(x);
    if ((r & 3) == 0) {
      acc += r % 7;
    } else if ((r & 3) == 1) {
      acc ^= r >> 11;
    } else {
      acc = acc * 31 + (r & 0xff);
    }
  }
  double y = 1.0 + static_cast<double>(acc & 0xff);
  for (int i = 0; i < kFloatSteps; ++i) {
    y = y * 0.999999 + 1.0 / (y + static_cast<double>(i & 7));
  }
  return acc + static_cast<std::uint64_t>(y);
}

void Reference::run() {
  if (arenas_.size() == 1) {
    sink_ += kernel(arenas_[0], sink_ + 1);
  } else {
    std::vector<std::uint64_t> out(arenas_.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < arenas_.size(); ++i) {
      threads.emplace_back([&, i] { out[i] = kernel(arenas_[i], sink_ + i + 1); });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    for (const std::uint64_t value : out) {
      sink_ += value;
    }
  }
}

}  // namespace perfbench
