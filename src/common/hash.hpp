// One 64-bit mixer for every hash the simulator computes: switch ECMP
// selection and the per-packet lookup tables (ARCHITECTURE.md "Lookup
// tables").
//
// Tables are node-based std::unordered_map / std::unordered_set with
// `TableHash`: references to entries stay valid across inserts (callers
// hold them across events), and each entry is one node, so a table's heap
// grows with its live entries and nothing else. Their iteration order is
// address- and implementation-dependent, so nothing may walk one in that
// order (the determinism lint's unordered-iteration rule): a walk goes
// through `sorted_keys`.
//
// The exception is the NIC's live flow contexts (`Nic::contexts_`), a
// std::map: an SMT host leases only a few, and a few integer compares
// cost about half of a libstdc++ hash lookup (mix64 plus a prime-modulo
// bucket division).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace smt {

/// SplitMix64/Murmur3 finalizer: every input bit reaches every output bit.
constexpr std::uint64_t mix64(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// A table key's 64-bit word before mixing. Integers and enums are their
/// value; a pair folds its halves; a class key K provides
/// `std::uint64_t hash_word(const K&)` in its own namespace.
template <class T>
  requires std::integral<T> || std::is_enum_v<T>
constexpr std::uint64_t hash_word(T value) noexcept {
  return std::uint64_t(value);
}

template <class A, class B>
constexpr std::uint64_t hash_word(const std::pair<A, B>& key) noexcept {
  return mix64(hash_word(key.first)) ^ hash_word(key.second);
}

/// The hasher of every lookup table.
struct TableHash {
  template <class K>
  std::size_t operator()(const K& key) const noexcept {
    return std::size_t(mix64(hash_word(key)));
  }
};

/// A hash map's keys in ascending order: the one way to walk a table
/// whose walk has effects.
template <class Map>
std::vector<typename Map::key_type> sorted_keys(const Map& table) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(table.size());
  for (const auto& entry : table) keys.push_back(entry.first);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace smt
