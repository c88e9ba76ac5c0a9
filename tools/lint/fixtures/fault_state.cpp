// lint-as: src/netsim/fault.hpp

// Fixture: fault-model state machines (Gilbert–Elliott, flaps, jitter)
// masquerading as the shared fault pipeline under src/. The fault path is
// exactly where ambient entropy is most tempting — "just add some
// randomness" — and exactly where it would silently break run-to-run and
// cross-shard reproducibility, so the linter must flag it here like
// anywhere else.
// Never compiled — scanned by determinism_lint.py --self-test.
#include <chrono>
#include <cstdlib>
#include <random>

namespace fixture {

struct GilbertElliott {
  bool bad = false;
  // Seeded, stream-split engine: the legitimate pattern (mix_seed of a
  // scenario seed and the direction index). Must stay clean.
  std::mt19937_64 engine{0x9e3779b97f4a7c15ULL};
};

bool bad_loss_draw(GilbertElliott& ge) {
  // Deciding a drop from ambient entropy instead of the owned stream.
  return (std::rand() & 1) != 0 || ge.bad;  // expect-lint: ambient-entropy
}

long bad_flap_phase() {
  // Deriving the flap phase from the wall clock instead of virtual time.
  const auto now = std::chrono::steady_clock::now();  // expect-lint: wall-clock
  return now.time_since_epoch().count() % 2000;
}

unsigned bad_jitter_seed() {
  std::random_device rd;  // expect-lint: ambient-entropy
  return rd();
}

// The legitimate shapes must stay clean: pure phase arithmetic on virtual
// time, a seeded engine drawn per decision, and identifiers that merely
// mention randomness.
struct FlapState {
  long period_ns = 2'000'000;  // "rand" nowhere; virtual-time arithmetic
  long down_ns = 200'000;
  long offset_ns = 0;
  bool down_at(long virtual_now) const {
    return period_ns > 0 && (virtual_now - offset_ns) % period_ns < down_ns;
  }
};

bool fine_draw(GilbertElliott& ge, const FlapState& flap, long now) {
  const bool lossy = ge.bad && (ge.engine() & 1) != 0;  // seeded: allowed
  return lossy || flap.down_at(now);
}

}  // namespace fixture
