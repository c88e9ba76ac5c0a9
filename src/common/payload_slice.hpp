// Refcounted, immutable payload slabs with O(1) views.
//
// The simulator's hot datapath used to move an owning std::vector<uint8_t>
// through every hop: TSO segmentation copied each MTU-sized cut out of the
// segment, switch queues / link transit / RX rings / hold-off buffers all
// owned their bytes, and a retransmission re-copied the segment range. None
// of those copies changed a byte — the payload is produced once (by the
// wire encoder or the application) and consumed once (at receive-side
// record reassembly/decrypt).
//
// PayloadSlice makes that explicit: the producing layer moves its buffer
// into a shared immutable *slab*, and everything downstream passes
// (slab, offset, length) views. Cutting a TSO segment into packets,
// parking frames in an RX ring, re-sending a byte range — all O(1)
// refcount bumps. The slab dies when the last slice does, so NIC deferred
// frees, held-off interrupts, and in-flight retransmission state pin the
// slab automatically.
//
// Mutation is copy-on-write via mutate(): the NIC's inline-TLS engine
// overwrites record bodies with ciphertext, and a shared slab must never
// see that through someone else's slice (the transport keeps the plaintext
// for retransmission). A uniquely-owned slab mutates in place.
//
// Every slab costs one heap allocation. An adopted Bytes moves into one
// shared control block that the slab pointer aliases; a copy (copy_of,
// the copy-on-write) is one uninitialised array with its control block
// in the same allocation, so its bytes are written once, by the copy.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <utility>

#include "common/bytes.hpp"

namespace smt {

class PayloadSlice {
 public:
  PayloadSlice() noexcept = default;

  /// Adopts `bytes` as a new slab (no copy) and views all of it.
  /// Implicit on purpose: producing layers write `slice = std::move(buf)`.
  PayloadSlice(Bytes bytes)  // NOLINT(google-explicit-constructor)
      : length_(bytes.size()) {
    if (length_ == 0) return;
    auto owner = std::make_shared<Bytes>(std::move(bytes));
    slab_ = std::shared_ptr<std::uint8_t[]>(owner, owner->data());
  }

  /// Copies `view` into a fresh slab.
  static PayloadSlice copy_of(ByteView view) {
    PayloadSlice out;
    if (!view.empty()) {
      out.slab_ = copy_slab(view);
      out.length_ = view.size();
    }
    return out;
  }

  /// O(1) sub-view of the same slab.
  PayloadSlice subslice(std::size_t offset, std::size_t length) const {
    assert(offset + length <= length_ && "subslice out of range");
    PayloadSlice out;
    if (length > 0) {
      out.slab_ = slab_;
      out.offset_ = offset_ + offset;
      out.length_ = length;
    }
    return out;
  }

  /// Shrinks the view in place (switch trimming, test tampering).
  void truncate(std::size_t new_length) {
    assert(new_length <= length_ && "truncate grows the slice");
    length_ = new_length;
    if (length_ == 0) slab_.reset();
  }

  /// Drops the view (and this slice's pin on the slab).
  void clear() noexcept {
    slab_.reset();
    offset_ = 0;
    length_ = 0;
  }

  // --- vector-compatible read surface ----------------------------------
  const std::uint8_t* data() const noexcept {
    return slab_ ? slab_.get() + offset_ : nullptr;
  }
  std::size_t size() const noexcept { return length_; }
  bool empty() const noexcept { return length_ == 0; }
  const std::uint8_t* begin() const noexcept { return data(); }
  const std::uint8_t* end() const noexcept { return data() + length_; }
  std::uint8_t operator[](std::size_t i) const noexcept {
    assert(i < length_);
    return slab_[offset_ + i];
  }
  ByteView view() const noexcept { return ByteView(data(), length_); }
  operator ByteView() const noexcept {  // NOLINT(google-explicit-constructor)
    return view();
  }

  /// Rebuilds the view from an iterator/fill pair (drop-in for the
  /// std::vector call sites that constructed payloads in place).
  template <typename It>
  void assign(It first, It last) {
    *this = PayloadSlice(Bytes(first, last));
  }
  void assign(std::size_t count, std::uint8_t value) {
    *this = PayloadSlice(Bytes(count, value));
  }

  /// Gather-copy into an owned buffer — the receive side's single copy.
  Bytes to_bytes() const { return Bytes(begin(), end()); }

  /// Copy-on-write mutable access. A slab shared with any other slice is
  /// first replaced by a private copy of THIS view, so aliases (rings,
  /// retransmission buffers, deferred frees) never observe the mutation.
  MutByteView mutate() {
    if (length_ == 0) return MutByteView();
    if (slab_.use_count() > 1) {
      slab_ = copy_slab(view());
      offset_ = 0;
    }
    return MutByteView(slab_.get() + offset_, length_);
  }

  /// True when this slice is the slab's only pin (diagnostics/tests).
  bool unique() const noexcept { return !slab_ || slab_.use_count() == 1; }
  /// Number of slices pinning the slab (0 for the empty slice).
  long slab_use_count() const noexcept {
    return slab_ ? slab_.use_count() : 0;
  }

  friend bool operator==(const PayloadSlice& a, const PayloadSlice& b) {
    return a.length_ == b.length_ &&
           std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const PayloadSlice& a, const Bytes& b) {
    return a.length_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  static std::shared_ptr<std::uint8_t[]> copy_slab(ByteView view) {
    // Whole 8-byte words: libstdc++ pads a byte array's block out to its
    // control block's alignment, and a word array needs no pad.
    auto words =
        std::make_shared_for_overwrite<std::uint64_t[]>((view.size() + 7) / 8);
    auto* bytes = reinterpret_cast<std::uint8_t*>(words.get());
    std::memcpy(bytes, view.data(), view.size());
    return std::shared_ptr<std::uint8_t[]>(std::move(words), bytes);
  }

  std::shared_ptr<std::uint8_t[]> slab_;
  std::size_t offset_ = 0;
  std::size_t length_ = 0;
};

}  // namespace smt
