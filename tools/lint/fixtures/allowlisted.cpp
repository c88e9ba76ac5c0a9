// lint-as: src/netsim/shard.cpp
//
// Fixture: masquerades (via the lint-as header above) as the sharded
// engine, which is allowlisted for hardware-concurrency (worker-pool cap)
// only. The allowlist is PER RULE: a wall clock and ambient entropy are
// still flagged even here. Never compiled — scanned by
// determinism_lint.py --self-test.
#include <chrono>
#include <cstdlib>
#include <thread>

namespace fixture {

long bad_wall_clock_even_here() {
  const auto t0 = std::chrono::steady_clock::now();  // expect-lint: wall-clock
  return t0.time_since_epoch().count();
}

std::size_t fine_allowlisted_pool_cap() {
  return std::thread::hardware_concurrency();  // allowlisted path
}

int bad_entropy_even_here() {
  return std::rand();  // expect-lint: ambient-entropy
}

}  // namespace fixture
