// Virtual-time types for the discrete-event simulator.
//
// All simulated durations and timestamps are integer nanoseconds. Helper
// factories keep call sites readable (`usec(5)` rather than `5'000`).
#pragma once

#include <cstdint>

namespace smt {

/// Simulated timestamp, nanoseconds since simulation start.
using SimTime = std::int64_t;

/// Simulated duration, nanoseconds.
using SimDuration = std::int64_t;

constexpr SimDuration nsec(std::int64_t n) noexcept { return n; }
constexpr SimDuration usec(std::int64_t n) noexcept { return n * 1'000; }
constexpr SimDuration msec(std::int64_t n) noexcept { return n * 1'000'000; }
constexpr SimDuration sec(std::int64_t n) noexcept { return n * 1'000'000'000; }

constexpr double to_usec(SimDuration d) noexcept { return double(d) / 1e3; }
constexpr double to_sec(SimDuration d) noexcept { return double(d) / 1e9; }

}  // namespace smt
