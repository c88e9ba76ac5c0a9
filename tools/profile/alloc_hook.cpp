// Allocation-site recorder, loaded into any program with LD_PRELOAD (see
// tools/profile/profile.py, whose `record` runs it and whose `alloc-report`
// reads what it writes):
//
//   SMT_PROF_OUT=allocs LD_PRELOAD=build/libsmt_allochook.so build/bench_x
//
// It replaces malloc, calloc and realloc with wrappers that call glibc's own
// (__libc_malloc and friends) and record the caller's stack: glibc's
// backtrace(), up to kDepth return addresses. Stacks are counted in a fixed
// open-addressed table under a spinlock, so threads may allocate at once;
// no allocation is made while recording (a thread-local flag turns off
// recording of the allocations backtrace() itself makes). At exit the library
// writes `$SMT_PROF_OUT.<pid>` (default prefix `smt-prof`): a copy of
// /proc/self/maps, then one "count bytes pc pc ..." line per distinct stack.
// Allocations before the library's constructor and stacks past the table's
// size are counted as dropped.
//
// Recording costs a stack walk per allocation, so a run is several times
// slower; the counts do not depend on speed.
#include <execinfo.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

extern "C" {
void* __libc_malloc(std::size_t size);
void* __libc_calloc(std::size_t count, std::size_t size);
void* __libc_realloc(void* ptr, std::size_t size);
}

namespace {

constexpr int kSkip = 2;  // record_stack and the malloc wrapper
constexpr int kDepth = 24;
constexpr std::size_t kSlots = std::size_t(1) << 16;

struct Stack {
  std::uint64_t count;
  std::uint64_t bytes;
  std::uint64_t hash;
  int depth;
  void* pcs[kDepth];
};

// Untouched pages of the table stay unbacked.
Stack g_stacks[kSlots];
std::atomic_flag g_lock;  // clear
std::atomic<bool> g_ready{false};
std::atomic<std::uint64_t> g_dropped{0};
__attribute__((tls_model("initial-exec"))) thread_local bool t_in_hook = false;

__attribute__((noinline)) void record_stack(std::size_t size) {
  if (!g_ready.load(std::memory_order_acquire) || t_in_hook) {
    if (!t_in_hook) g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  t_in_hook = true;
  void* frames[kDepth + kSkip];
  const int taken = backtrace(frames, kDepth + kSkip);
  const int depth = taken > kSkip ? taken - kSkip : 0;
  void* const* pcs = frames + kSkip;
  std::uint64_t hash = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < depth; ++i) {
    hash = (hash ^ std::uint64_t(std::uintptr_t(pcs[i]))) * 0x100000001b3ULL;
  }
  hash |= 1;  // 0 marks a free slot

  while (g_lock.test_and_set(std::memory_order_acquire)) {
  }
  bool stored = false;
  for (std::size_t probe = 0; probe < kSlots; ++probe) {
    Stack& slot = g_stacks[(hash + probe) & (kSlots - 1)];
    if (slot.hash == 0) {
      slot.hash = hash;
      slot.depth = depth;
      std::memcpy(slot.pcs, pcs, sizeof(void*) * std::size_t(depth));
    } else if (slot.hash != hash || slot.depth != depth ||
               std::memcmp(slot.pcs, pcs, sizeof(void*) * std::size_t(depth)) !=
                   0) {
      continue;
    }
    ++slot.count;
    slot.bytes += size;
    stored = true;
    break;
  }
  g_lock.clear(std::memory_order_release);
  if (!stored) g_dropped.fetch_add(1, std::memory_order_relaxed);
  t_in_hook = false;
}

__attribute__((constructor)) void start_recording() {
  // The first backtrace() loads the unwinder, which allocates.
  t_in_hook = true;
  void* warm[2];
  backtrace(warm, 2);
  t_in_hook = false;
  g_ready.store(true, std::memory_order_release);
}

__attribute__((destructor)) void write_stacks() {
  if (!g_ready.exchange(false)) return;
  t_in_hook = true;
  const char* prefix = std::getenv("SMT_PROF_OUT");
  const std::string path = std::string(prefix != nullptr && *prefix != '\0'
                                           ? prefix
                                           : "smt-prof") +
                           "." + std::to_string(getpid());
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;

  std::uint64_t total = 0;
  for (const Stack& slot : g_stacks) total += slot.count;
  char exe[4096];
  const ssize_t exe_len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[exe_len > 0 ? exe_len : 0] = '\0';
  std::fprintf(out, "smt-allocs 1\nsamples %llu\ndropped %llu\nexe %s\nmaps\n",
               static_cast<unsigned long long>(total),
               static_cast<unsigned long long>(g_dropped.load()), exe);
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps) != nullptr) {
      std::fputs(line, out);
    }
    std::fclose(maps);
  }
  std::fputs("stacks\n", out);
  for (const Stack& slot : g_stacks) {
    if (slot.count == 0) continue;
    std::fprintf(out, "%llu %llu", static_cast<unsigned long long>(slot.count),
                 static_cast<unsigned long long>(slot.bytes));
    for (int i = 0; i < slot.depth; ++i) {
      std::fprintf(out, " %zx", std::size_t(std::uintptr_t(slot.pcs[i])));
    }
    std::fputc('\n', out);
  }
  std::fclose(out);
}

}  // namespace

extern "C" {

void* malloc(std::size_t size) noexcept {
  void* p = __libc_malloc(size);
  if (p != nullptr) record_stack(size);
  return p;
}

void* calloc(std::size_t count, std::size_t size) noexcept {
  void* p = __libc_calloc(count, size);
  if (p != nullptr) record_stack(count * size);
  return p;
}

void* realloc(void* ptr, std::size_t size) noexcept {
  void* p = __libc_realloc(ptr, size);
  if (p != nullptr && size != 0) record_stack(size);
  return p;
}

}  // extern "C"
