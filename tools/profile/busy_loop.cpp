// The profiler self-test's workload: about nine tenths of its CPU time in
// hot_spin and one tenth in cold_spin. `profile.py self-test` profiles it
// and checks that hot_spin tops the report.
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

__attribute__((noinline)) std::uint64_t spin(std::uint64_t rounds,
                                             std::uint64_t seed) {
  volatile std::uint64_t x = seed;
  for (std::uint64_t i = 0; i < rounds; ++i) x = x * 6364136223846793005ULL + i;
  return x;
}

}  // namespace

__attribute__((noinline)) std::uint64_t hot_spin(std::uint64_t rounds) {
  volatile std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < rounds; ++i) x = x * 2862933555777941757ULL + i;
  return x;
}

__attribute__((noinline)) std::uint64_t cold_spin(std::uint64_t rounds) {
  return spin(rounds, 7);
}

int main(int argc, char** argv) {
  const std::uint64_t rounds =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 600'000'000ULL;
  std::uint64_t sum = 0;
  for (int i = 0; i < 10; ++i) {
    sum += hot_spin(rounds / 11);
    if (i == 0) sum += cold_spin(rounds / 11);
  }
  std::printf("%llu\n", static_cast<unsigned long long>(sum & 0xff));
  return 0;
}
