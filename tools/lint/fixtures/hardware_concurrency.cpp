// Fixture: machine-shape probes. Never compiled — scanned by
// determinism_lint.py --self-test.
#include <sched.h>

#include <cstddef>
#include <thread>

namespace fixture {

std::size_t bad_core_count() {
  return std::thread::hardware_concurrency();  // expect-lint: hardware-concurrency
}

int bad_affinity_count(const cpu_set_t* set) {
  return CPU_COUNT(set);  // expect-lint: hardware-concurrency
}

// A shard count from configuration is the deterministic alternative.
std::size_t fine(std::size_t configured_shards) { return configured_shards; }

}  // namespace fixture
