#include "host_probe.hpp"

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace perfbench {

double host_probe_seconds() {
  constexpr std::size_t kState = std::size_t{1} << 21;  // 16 MB of uint64
  constexpr std::uint32_t kPending = 20'000;
  constexpr int kEvents = 1'500'000;
  std::vector<std::uint64_t> state(kState, 1);
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < kPending; ++i) queue.push({next() % 1'000'000, i});

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t acc = 0;
  for (int k = 0; k < kEvents; ++k) {
    const Event e = queue.top();
    queue.pop();
    std::uint64_t& s = state[(e.second * 2654435761u + e.first) & (kState - 1)];
    s = s * 6364136223846793005ull + e.first;
    if ((s >> 17) & 1) {
      acc += s;
    } else {
      acc ^= s >> 3;
    }
    queue.push({e.first + 1 + (next() & 4095), static_cast<std::uint32_t>(s % kPending)});
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  // Keep the loop's result observable so it is not optimised away.
  asm volatile("" : : "r"(acc) : "memory");
  return seconds;
}

}  // namespace perfbench
