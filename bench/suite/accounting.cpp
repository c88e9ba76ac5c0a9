#include "accounting.hpp"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <new>

namespace smt::bench::suite {
namespace {

// One cache line per thread: a slot is written only by its owner, so an
// update is a plain load and store. Threads past kSlots share `g_shared`
// with locked increments, which stays exact, only slower.
constexpr std::size_t kSlots = 4096;
struct alignas(64) Slot {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::int64_t> bytes{0};
};
Slot g_slots[kSlots];
Slot g_shared;
std::atomic<std::size_t> g_slots_used{0};
thread_local Slot* t_slot = nullptr;
thread_local bool t_owns_slot = false;

Slot& my_slot() noexcept {
  if (t_slot == nullptr) {
    const std::size_t i = g_slots_used.fetch_add(1, std::memory_order_relaxed);
    t_owns_slot = i < kSlots;
    t_slot = t_owns_slot ? &g_slots[i] : &g_shared;
  }
  return *t_slot;
}

template <typename T>
void bump(std::atomic<T>& counter, T delta) noexcept {
  if (t_owns_slot) {
    counter.store(counter.load(std::memory_order_relaxed) + delta,
                  std::memory_order_relaxed);
  } else {
    counter.fetch_add(delta, std::memory_order_relaxed);
  }
}

template <typename F>
void for_each_slot(F&& fn) {
  const std::size_t used =
      std::min(g_slots_used.load(std::memory_order_relaxed), kSlots);
  for (std::size_t i = 0; i < used; ++i) fn(g_slots[i]);
  fn(g_shared);
}

void* counted_alloc(std::size_t size) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    Slot& slot = my_slot();
    bump(slot.allocs, std::uint64_t{1});
    bump(slot.bytes, std::int64_t(malloc_usable_size(p)));
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  bump(my_slot().bytes, -std::int64_t(malloc_usable_size(p)));
  std::free(p);
}

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadSpans>>& buffers() {
  // Leaked: shard worker threads register buffers that outlive them.
  static auto* all = new std::vector<std::unique_ptr<ThreadSpans>>();
  return *all;
}
std::atomic<std::uint32_t> g_phase{0};
thread_local ThreadSpans* t_spans = nullptr;
thread_local std::int32_t t_open = -1;

}  // namespace

std::uint64_t thread_allocs() noexcept {
  return my_slot().allocs.load(std::memory_order_relaxed);
}

std::uint64_t total_allocs() noexcept {
  std::uint64_t sum = 0;
  for_each_slot([&](const Slot& s) {
    sum += s.allocs.load(std::memory_order_relaxed);
  });
  return sum;
}

std::int64_t heap_in_use_bytes() noexcept {
  std::int64_t sum = 0;
  for_each_slot([&](const Slot& s) {
    sum += s.bytes.load(std::memory_order_relaxed);
  });
  return sum;
}

// --- percentiles ------------------------------------------------------------

std::size_t PercentileRecorder::rank(double q) const noexcept {
  const double exact = q * double(samples_.size());
  // The epsilon keeps an exact product (q * n integral) on its own rank.
  return std::max<std::size_t>(1, std::size_t(std::ceil(exact - 1e-9)));
}

std::size_t PercentileRecorder::beyond(double q) const noexcept {
  if (samples_.empty()) return 0;
  return samples_.size() - std::min(samples_.size(), rank(q));
}

void PercentileRecorder::sort() {
  if (!sorted_) std::sort(samples_.begin(), samples_.end());
  sorted_ = true;
}

std::optional<double> PercentileRecorder::percentile(double q) {
  if (samples_.empty() || beyond(q) < kMinBeyond) return std::nullopt;
  sort();
  return samples_[rank(q) - 1];
}

std::optional<double> PercentileRecorder::max() {
  if (samples_.empty()) return std::nullopt;
  sort();
  return samples_.back();
}

// --- spans ------------------------------------------------------------------

namespace detail {
std::atomic<bool> tracing_on{false};
}  // namespace detail

void set_tracing(bool on, std::uint32_t phase) {
  g_phase.store(phase, std::memory_order_relaxed);
  detail::tracing_on.store(on, std::memory_order_relaxed);
}

std::uint64_t clock_ns() noexcept {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - g_epoch)
                           .count());
}

void SpanScope::begin(const char* name, std::uint64_t rpc) {
  if (t_spans == nullptr) {
    auto owned = std::make_unique<ThreadSpans>();
    owned->spans.reserve(std::size_t{1} << 16);
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    owned->tid = std::uint32_t(buffers().size() + 1);
    t_spans = owned.get();
    buffers().push_back(std::move(owned));
  }
  buffer_ = t_spans;
  index_ = std::int32_t(buffer_->spans.size());
  Span span;
  span.name = name;
  span.rpc = rpc;
  span.parent = t_open;
  span.phase = g_phase.load(std::memory_order_relaxed);
  buffer_->spans.push_back(span);
  t_open = index_;
  // Read last, so the bookkeeping above stays outside the span.
  allocs_at_start_ = thread_allocs();
  buffer_->spans.back().start_ns = clock_ns();
}

void SpanScope::end() noexcept {
  const std::uint64_t end_ns = clock_ns();
  Span& span = buffer_->spans[std::size_t(index_)];
  span.end_ns = end_ns;
  span.allocs = thread_allocs() - allocs_at_start_;
  t_open = span.parent;
}

const std::vector<std::unique_ptr<ThreadSpans>>& span_buffers() {
  return buffers();
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<std::string>& phase_names) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  const char* sep = "";
  for (std::size_t i = 0; i < phase_names.size(); ++i) {
    std::fprintf(out,
                 "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
                 "\"args\":{\"name\":\"%s\"}}",
                 sep, i + 1, phase_names[i].c_str());
    sep = ",\n";
  }
  for (const auto& buffer : buffers()) {
    for (std::size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& s = buffer->spans[i];
      const char* dot = std::strchr(s.name, '.');
      const int cat_len = dot == nullptr ? int(std::strlen(s.name))
                                         : int(dot - s.name);
      std::fprintf(
          out,
          "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":%u,"
          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
          "\"parent\":%d,\"rpc\":%llu,\"allocs\":%llu}}",
          sep, s.name, cat_len, s.name, s.phase + 1, buffer->tid,
          double(s.start_ns) / 1e3, double(s.end_ns - s.start_ns) / 1e3, i,
          s.parent, static_cast<unsigned long long>(s.rpc),
          static_cast<unsigned long long>(s.allocs));
      sep = ",\n";
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

std::optional<std::size_t> check_chrome_trace(const std::string& path,
                                              std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open " + path;
    return std::nullopt;
  }
  const auto number_after = [](const std::string& line, const char* key,
                               double& value) {
    const std::size_t at = line.find(key);
    if (at == std::string::npos) return false;
    const char* begin = line.c_str() + at + std::strlen(key);
    char* end = nullptr;
    value = std::strtod(begin, &end);
    return end != begin && std::isfinite(value);
  };
  std::size_t spans = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    double ts = 0, dur = 0;
    if (!number_after(line, "\"ts\":", ts) ||
        !number_after(line, "\"dur\":", dur) || dur < 0) {
      error = "span without a start and an end: " + line;
      return std::nullopt;
    }
    ++spans;
  }
  if (spans == 0) {
    error = "no spans in " + path;
    return std::nullopt;
  }
  return spans;
}

}  // namespace smt::bench::suite

// --- global allocation functions --------------------------------------------

void* operator new(std::size_t size) {
  if (void* p = smt::bench::suite::counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return smt::bench::suite::counted_alloc(size);
}
void operator delete(void* p) noexcept { smt::bench::suite::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  smt::bench::suite::counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  smt::bench::suite::counted_free(p);
}
