// Dependency-free sampling profiler, loaded into any program with
// LD_PRELOAD (see tools/profile/profile.py, which drives it):
//
//   SMT_PROF_OUT=prof LD_PRELOAD=build/libsmt_profiler.so build/bench_x
//
// A process-CPU-time interval timer (setitimer ITIMER_PROF) raises SIGPROF
// every millisecond of CPU the process burns, on whichever thread burned
// it (the kernel tick may lower the rate). The handler records the
// interrupted program counter and nothing else: no stack walk, so the
// profile is self time.
// At exit the library writes `$SMT_PROF_OUT.<pid>` (default prefix
// `smt-prof`): a copy of /proc/self/maps, then one "pc count" line per
// distinct PC. profile.py maps each PC to a function and source line.
//
// Every process that inherits LD_PRELOAD profiles itself into its own
// file. Samples past kMaxSamples are counted as dropped, not stored.
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

constexpr std::size_t kMaxSamples = std::size_t(1) << 21;  // ~35 CPU-min
constexpr long kIntervalUs = 1000;

// Untouched pages of the buffer stay unbacked, so an idle profiler costs
// no resident memory.
std::uintptr_t g_samples[kMaxSamples];
std::atomic<std::size_t> g_taken{0};
bool g_active = false;

std::uintptr_t interrupted_pc(const void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return std::uintptr_t(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return std::uintptr_t(uc->uc_mcontext.pc);
#else
  (void)uc;
  return 0;
#endif
}

void on_sigprof(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  const std::size_t slot = g_taken.fetch_add(1, std::memory_order_relaxed);
  if (slot < kMaxSamples) g_samples[slot] = interrupted_pc(context);
  errno = saved_errno;
}

void set_timer(long interval_us) {
  itimerval timer{};
  timer.it_interval.tv_sec = interval_us / 1000000;
  timer.it_interval.tv_usec = interval_us % 1000000;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((constructor)) void start_sampling() {
  struct sigaction action {};
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) return;
  g_active = true;
  set_timer(kIntervalUs);
}

__attribute__((destructor)) void write_profile() {
  if (!g_active) return;
  set_timer(0);
  signal(SIGPROF, SIG_IGN);
  g_active = false;

  const char* prefix = std::getenv("SMT_PROF_OUT");
  const std::string path = std::string(prefix != nullptr && *prefix != '\0'
                                           ? prefix
                                           : "smt-prof") +
                           "." + std::to_string(getpid());
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;

  const std::size_t taken = g_taken.load();
  const std::size_t stored = std::min(taken, kMaxSamples);
  char exe[4096];
  const ssize_t exe_len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[exe_len > 0 ? exe_len : 0] = '\0';
  std::fprintf(out, "smt-profile 1\ninterval_us %ld\nsamples %zu\n",
               kIntervalUs, stored);
  std::fprintf(out, "dropped %zu\nexe %s\nmaps\n", taken - stored, exe);
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps) != nullptr) {
      std::fputs(line, out);
    }
    std::fclose(maps);
  }
  std::fputs("pcs\n", out);
  std::sort(g_samples, g_samples + stored);
  for (std::size_t i = 0; i < stored;) {
    std::size_t j = i;
    while (j < stored && g_samples[j] == g_samples[i]) ++j;
    std::fprintf(out, "%zx %zu\n", std::size_t(g_samples[i]), j - i);
    i = j;
  }
  std::fclose(out);
}

}  // namespace
