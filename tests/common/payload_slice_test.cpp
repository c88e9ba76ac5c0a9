#include "common/payload_slice.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "alloc_counter.hpp"

namespace smt {
namespace {

using test::allocations_in;

Bytes pattern(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = std::uint8_t(i & 0xff);
  return b;
}

TEST(PayloadSlice, AdoptsBytesWithoutCopy) {
  Bytes src = pattern(1000);
  const std::uint8_t* raw = src.data();
  PayloadSlice slice(std::move(src));
  EXPECT_EQ(slice.size(), 1000u);
  EXPECT_EQ(slice.data(), raw) << "adoption must move the buffer, not copy";
  EXPECT_TRUE(slice.unique());
}

TEST(PayloadSlice, SubslicesShareOneSlab) {
  PayloadSlice whole(pattern(3000));
  PayloadSlice a = whole.subslice(0, 1500);
  PayloadSlice b = whole.subslice(1500, 1500);
  EXPECT_EQ(whole.slab_use_count(), 3);
  EXPECT_EQ(a.data(), whole.data());
  EXPECT_EQ(b.data(), whole.data() + 1500);
  EXPECT_EQ(b[0], std::uint8_t(1500 & 0xff));

  // The slab survives the parent: views stay valid after `whole` dies.
  whole.clear();
  EXPECT_EQ(a.slab_use_count(), 2);
  EXPECT_EQ(a[7], 7);
  const Bytes full = pattern(3000);
  EXPECT_EQ(b.to_bytes(), Bytes(full.begin() + 1500, full.end()));
}

TEST(PayloadSlice, EmptySubsliceHoldsNoSlab) {
  PayloadSlice whole(pattern(64));
  PayloadSlice none = whole.subslice(32, 0);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.slab_use_count(), 0);  // zero-length views must not pin
  EXPECT_EQ(whole.slab_use_count(), 1);
}

TEST(PayloadSlice, MutateIsCopyOnWriteWhenShared) {
  PayloadSlice a(pattern(100));
  PayloadSlice b = a.subslice(0, 100);  // alias
  MutByteView wb = b.mutate();          // must detach b from the shared slab
  wb[0] = 0xff;
  EXPECT_EQ(b[0], 0xff);
  EXPECT_EQ(a[0], 0x00) << "mutation leaked through a shared slab";
  EXPECT_TRUE(a.unique());
  EXPECT_TRUE(b.unique());
}

TEST(PayloadSlice, MutateInPlaceWhenUnique) {
  PayloadSlice a(pattern(100));
  const std::uint8_t* before = a.data();
  MutByteView w = a.mutate();
  w[1] = 0xee;
  EXPECT_EQ(a.data(), before) << "sole owner must mutate in place, not copy";
  EXPECT_EQ(a[1], 0xee);
}

TEST(PayloadSlice, CopyOnWriteCopiesOnlyTheView) {
  PayloadSlice whole(pattern(4000));
  PayloadSlice tail = whole.subslice(3000, 1000);
  (void)tail.mutate();  // detaches: new slab holds just the 1000-byte view
  EXPECT_EQ(tail.size(), 1000u);
  EXPECT_EQ(tail[0], std::uint8_t(3000 & 0xff));
  EXPECT_TRUE(whole.unique());
}

TEST(PayloadSlice, TruncateAndClear) {
  PayloadSlice s(pattern(50));
  s.truncate(10);
  EXPECT_EQ(s.size(), 10u);
  EXPECT_EQ(s.to_bytes(), Bytes(pattern(10)));
  s.truncate(0);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.slab_use_count(), 0);  // fully truncated views release the slab

  PayloadSlice t(pattern(8));
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.data(), nullptr);
}

TEST(PayloadSlice, AssignAndCopyOf) {
  PayloadSlice s;
  s.assign(16, 0x5a);
  EXPECT_EQ(s.size(), 16u);
  EXPECT_EQ(s[15], 0x5a);

  const Bytes src = pattern(32);
  s.assign(src.begin() + 8, src.end());
  EXPECT_EQ(s.size(), 24u);
  EXPECT_EQ(s[0], 8);

  PayloadSlice copy = PayloadSlice::copy_of(ByteView(src.data(), 4));
  EXPECT_EQ(copy.to_bytes(), Bytes(pattern(4)));
}

// Every slab is one heap allocation: an adopted buffer moves into one
// control block, and a copy is one uninitialised block written by the copy.

TEST(PayloadSlice, AdoptionMakesOneAllocation) {
  Bytes src = pattern(1500);
  PayloadSlice slice;
  EXPECT_EQ(allocations_in([&] { slice = PayloadSlice(std::move(src)); }), 1u);
  EXPECT_TRUE(slice == pattern(1500));
}

TEST(PayloadSlice, CopyOfMakesOneAllocation) {
  const Bytes src = pattern(1500);
  PayloadSlice copy;
  EXPECT_EQ(allocations_in([&] { copy = PayloadSlice::copy_of(src); }), 1u);
  EXPECT_TRUE(copy == src);
  EXPECT_NE(copy.data(), src.data());
  EXPECT_TRUE(copy.unique());
}

TEST(PayloadSlice, SharedMutateMakesOneAllocationAndAliasesKeepPlaintext) {
  // The NIC's inline-crypto copy-on-write: the transport keeps the whole
  // message for retransmission while a posted segment is encrypted.
  const Bytes plaintext = pattern(2000);
  const PayloadSlice retained(plaintext);
  PayloadSlice posted = retained.subslice(500, 1001);
  MutByteView ciphertext;
  EXPECT_EQ(allocations_in([&] { ciphertext = posted.mutate(); }), 1u);
  std::fill(ciphertext.begin(), ciphertext.end(), std::uint8_t(0xc3));

  EXPECT_TRUE(retained == plaintext) << "the alias saw the encryption";
  EXPECT_EQ(posted.size(), 1001u);
  EXPECT_EQ(posted[0], 0xc3);
  EXPECT_EQ(posted[1000], 0xc3);
  // Now the segment owns its slab: a second mutate is in place.
  EXPECT_EQ(allocations_in([&] { (void)posted.mutate(); }), 0u);
  EXPECT_EQ(posted.data(), ciphertext.data());
}

TEST(PayloadSlice, ViewConversionAndEquality) {
  PayloadSlice s(pattern(20));
  ByteView v = s;  // implicit view for crypto/append call sites
  EXPECT_EQ(v.size(), 20u);
  EXPECT_EQ(v.data(), s.data());
  EXPECT_TRUE(s == pattern(20));
  EXPECT_TRUE(s == s.subslice(0, 20));
  EXPECT_FALSE(s == s.subslice(0, 19));
}

TEST(PayloadSlice, SlabOutlivesEveryOwnerButTheLast) {
  PayloadSlice last;
  {
    PayloadSlice whole(pattern(256));
    PayloadSlice mid = whole.subslice(64, 128);
    last = mid.subslice(32, 64);  // views of views re-anchor on the slab
  }  // whole and mid are gone; `last` alone pins the slab
  EXPECT_EQ(last.slab_use_count(), 1);
  EXPECT_EQ(last.size(), 64u);
  for (std::size_t i = 0; i < last.size(); ++i) {
    EXPECT_EQ(last[i], std::uint8_t((96 + i) & 0xff));
  }
}

}  // namespace
}  // namespace smt
