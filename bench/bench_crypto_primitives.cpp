// Crypto primitive microbenchmarks (google-benchmark, real wall clock).
//
// Grounds the simulator's cost-model constants and the Table 2 / Figure 12
// results: AES-GCM sealing at record sizes, SHA-256, HKDF expansion, P-256
// ECDH and ECDSA operations. Every AES-GCM case is labelled with the
// engine this process runs (crypto::hw_tier_name()), so a before/after
// pair names what it timed.
#include <benchmark/benchmark.h>

#include "common/bytes.hpp"
#include "crypto/drbg.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/gcm.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hw_tier.hpp"
#include "crypto/p256.hpp"
#include "crypto/sha256.hpp"

using namespace smt;
using namespace smt::crypto;

static void BM_AesGcmSeal(benchmark::State& state) {
  AesGcm gcm(Bytes(16, 0x11));
  const Bytes nonce(12, 0x22);
  const Bytes aad(5, 0x17);
  const Bytes plaintext(std::size_t(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.seal(nonce, aad, plaintext));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) * state.range(0));
  state.SetLabel(hw_tier_name());
}
BENCHMARK(BM_AesGcmSeal)->Arg(64)->Arg(1024)->Arg(16384);

static void BM_AesGcmOpen(benchmark::State& state) {
  AesGcm gcm(Bytes(16, 0x11));
  const Bytes nonce(12, 0x22);
  const Bytes sealed = gcm.seal(nonce, {}, Bytes(std::size_t(state.range(0)), 0x5a));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.open(nonce, {}, sealed));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) * state.range(0));
  state.SetLabel(hw_tier_name());
}
BENCHMARK(BM_AesGcmOpen)->Arg(1024)->Arg(16384);

// The datapath's own allocation-free calls: the NIC and the record layer
// seal a record in place and open it into a preallocated buffer, under a
// 5-byte record header as AAD. 64 B is a small SMT message's record, 1025
// and 16385 a 1 KiB and a 16 KiB payload plus the content-type byte, and
// 16001 a full record (tls::kMaxRecordPayload plus that byte), the one
// rpc_large's 64 KiB messages are cut into.
static void BM_AesGcmSealInPlace(benchmark::State& state) {
  AesGcm gcm(Bytes(16, 0x11));
  const Bytes nonce(12, 0x22);
  const Bytes header = from_hex("1703030000");
  Bytes record(std::size_t(state.range(0)) + AesGcm::kTagSize, 0x5a);
  for (auto _ : state) {
    gcm.seal_in_place(nonce, header, record);
    benchmark::DoNotOptimize(record.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) * state.range(0));
  state.SetLabel(hw_tier_name());
}
BENCHMARK(BM_AesGcmSealInPlace)->Arg(64)->Arg(1025)->Arg(16001)->Arg(16385);

static void BM_AesGcmOpenInto(benchmark::State& state) {
  AesGcm gcm(Bytes(16, 0x11));
  const Bytes nonce(12, 0x22);
  const Bytes header = from_hex("1703030000");
  const Bytes sealed =
      gcm.seal(nonce, header, Bytes(std::size_t(state.range(0)), 0x5a));
  Bytes plaintext(std::size_t(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.open_into(nonce, header, sealed, plaintext));
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) * state.range(0));
  state.SetLabel(hw_tier_name());
}
BENCHMARK(BM_AesGcmOpenInto)->Arg(64)->Arg(1025)->Arg(16001)->Arg(16385);

static void BM_Sha256(benchmark::State& state) {
  const Bytes data(std::size_t(state.range(0)), 0x33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::digest(data));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096);

static void BM_HkdfExpandLabel(benchmark::State& state) {
  const Bytes secret(32, 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hkdf_expand_label(secret, "key", {}, 16));
  }
}
BENCHMARK(BM_HkdfExpandLabel);

static void BM_EcdhKeygen(benchmark::State& state) {
  HmacDrbg drbg(to_bytes(std::string_view("bench")));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecdh_keypair_from_seed(drbg.generate(32)));
  }
}
BENCHMARK(BM_EcdhKeygen);

static void BM_EcdhSharedSecret(benchmark::State& state) {
  HmacDrbg drbg(to_bytes(std::string_view("bench")));
  const auto a = ecdh_keypair_from_seed(drbg.generate(32));
  const auto b = ecdh_keypair_from_seed(drbg.generate(32));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecdh_shared_secret(a.private_key, b.public_key));
  }
}
BENCHMARK(BM_EcdhSharedSecret);

static void BM_EcdsaSign(benchmark::State& state) {
  HmacDrbg drbg(to_bytes(std::string_view("bench")));
  const auto kp = ecdsa_keypair_from_seed(drbg.generate(32));
  const Bytes msg = to_bytes(std::string_view("certificate verify content"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecdsa_sign(kp.private_key, msg));
  }
}
BENCHMARK(BM_EcdsaSign);

static void BM_EcdsaVerify(benchmark::State& state) {
  HmacDrbg drbg(to_bytes(std::string_view("bench")));
  const auto kp = ecdsa_keypair_from_seed(drbg.generate(32));
  const Bytes msg = to_bytes(std::string_view("certificate verify content"));
  const auto sig = ecdsa_sign(kp.private_key, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecdsa_verify(kp.public_key, msg, sig));
  }
}
BENCHMARK(BM_EcdsaVerify);

BENCHMARK_MAIN();
