// Accounting helpers for bench_suite:
//
//   * allocation counters — accounting.cpp replaces the global operator
//     new/delete; every thread owns a counter slot that only it writes, so
//     counting costs plain stores (no locked instruction, no shared cache
//     line) and the totals are exact at any shard count;
//   * PercentileRecorder — exact nearest-rank percentiles that refuse a
//     rank with fewer than ten samples beyond it;
//   * spans — an in-memory trace of named intervals (start, end, parent,
//     RPC id, allocations), one buffer per thread, written at exit as
//     Chrome trace-event JSON that Perfetto and chrome://tracing load.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace smt::bench::suite {

// --- allocations ------------------------------------------------------------

/// operator new calls made so far by the calling thread.
std::uint64_t thread_allocs() noexcept;
/// operator new calls made so far by every thread.
std::uint64_t total_allocs() noexcept;
/// Bytes currently held through operator new by every thread (the usable
/// size of each live block, so allocator rounding counts).
std::int64_t heap_in_use_bytes() noexcept;

// --- percentiles ------------------------------------------------------------

/// Exact nearest-rank percentiles over every sample added.
class PercentileRecorder {
 public:
  /// A percentile is reported only with at least this many samples above
  /// its rank; fewer cannot tell a tail from a single outlier.
  static constexpr std::size_t kMinBeyond = 10;

  void add(double value) {
    samples_.push_back(value);
    sorted_ = false;
  }
  std::size_t count() const noexcept { return samples_.size(); }
  /// The nearest-rank q-quantile (0 < q <= 1), or nullopt when fewer than
  /// kMinBeyond samples lie beyond its rank.
  std::optional<double> percentile(double q);
  /// Samples strictly above the nearest-rank q-quantile's rank.
  std::size_t beyond(double q) const noexcept;
  std::optional<double> max();

 private:
  std::size_t rank(double q) const noexcept;  // 1-based
  void sort();

  std::vector<double> samples_;
  bool sorted_ = true;
};

// --- spans ------------------------------------------------------------------

struct Span {
  const char* name = nullptr;  // string literal: "<layer>.<what>"
  std::uint64_t start_ns = 0;  // steady clock, since process start
  std::uint64_t end_ns = 0;
  std::uint64_t rpc = 0;     // RPC id the span works for; 0 = none
  std::uint64_t allocs = 0;  // operator new calls inside, this thread
  std::int32_t parent = -1;  // index in the same thread's buffer; -1 = root
  std::uint32_t phase = 0;   // set_tracing() phase it was recorded in
};

struct ThreadSpans {
  std::uint32_t tid = 0;  // registration order, 1-based
  std::vector<Span> spans;
};

namespace detail {
extern std::atomic<bool> tracing_on;
}  // namespace detail

inline bool tracing() noexcept {
  return detail::tracing_on.load(std::memory_order_relaxed);
}
/// Turns span recording on or off; spans recorded while on carry `phase`.
/// Call only while no other thread records (between engine runs).
void set_tracing(bool on, std::uint32_t phase = 0);

/// Steady-clock nanoseconds since process start (the span time base).
std::uint64_t clock_ns() noexcept;

/// Records one span for its lifetime when tracing is on; otherwise costs a
/// relaxed load. Spans nest per thread: the innermost open span on the
/// constructing thread becomes the parent.
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::uint64_t rpc = 0) {
    if (tracing()) begin(name, rpc);
  }
  ~SpanScope() {
    if (buffer_ != nullptr) end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  void begin(const char* name, std::uint64_t rpc);
  void end() noexcept;

  ThreadSpans* buffer_ = nullptr;
  std::int32_t index_ = -1;
  std::uint64_t allocs_at_start_ = 0;
};

/// Every thread's span buffer, in registration order. Read only while no
/// thread records.
const std::vector<std::unique_ptr<ThreadSpans>>& span_buffers();

/// Writes every recorded span as Chrome trace-event JSON, one event per
/// line; phase i becomes process i + 1, named phase_names[i].
bool write_chrome_trace(const std::string& path,
                        const std::vector<std::string>& phase_names);

/// Reads a file written by write_chrome_trace back. Returns the number of
/// spans when there is at least one and every span has a start and a
/// non-negative duration; otherwise nullopt with `error` set.
std::optional<std::size_t> check_chrome_trace(const std::string& path,
                                              std::string& error);

}  // namespace smt::bench::suite
