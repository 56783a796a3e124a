// SipHash-2-4 (Aumasson & Bernstein).
//
// A fast keyed pseudorandom function with a 128-bit key and 64-bit
// output, designed for exactly this use case: authenticating short
// messages against active adversaries without public-key machinery. The
// protocol's authenticated wire mode tags each share frame so that a
// Byzantine channel (netem `corrupt`, or an adversary injecting forged
// shares) cannot smuggle a bogus share into reassembly — threshold
// schemes by themselves reconstruct garbage from tampered shares without
// any indication.
//
// Two entry points compute the same function:
//
//   siphash24       one message, scalar. Always available; it is the
//                   fallback and the reference every other tier is
//                   tested against.
//   siphash24_many  n messages of EQUAL length, 4 lanes at a time: one
//                   256-bit vector holds the same state word of four
//                   messages, so one sipround advances four tags. The
//                   m shares of a packet and most frames of one receive
//                   batch are equal-length, which is what makes this pay.
//
// siphash24_many's vector kernel needs AVX2, picked at startup by CPU
// feature (as field/gf256_bulk picks its GF kernels). AVX2 has no
// 64-bit vector rotate, so it shifts left, shifts right and ors (the
// rotates by 32 and 16 are one byte shuffle each). Hosts without AVX2,
// and non-x86 builds, run the scalar loop per message.
//
// Implemented from the specification; test vectors from the reference
// implementation are checked in tests/crypto_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace mcss::crypto {

/// 128-bit SipHash key.
using SipHashKey = std::array<std::uint8_t, 16>;

/// SipHash-2-4 of `data` under `key`, as a 64-bit value (little-endian
/// convention matching the reference implementation).
[[nodiscard]] std::uint64_t siphash24(std::span<const std::uint8_t> data,
                                      const SipHashKey& key) noexcept;

/// siphash24_many implementations, in increasing order of capability.
enum class Kernel {
  Scalar,  ///< siphash24 per message; always available
  Avx2,    ///< 4 lanes per 256-bit vector
};

/// Human-readable kernel name ("scalar", "avx2").
[[nodiscard]] const char* kernel_name(Kernel k) noexcept;

/// The kernel siphash24_many resolved to on this host.
[[nodiscard]] Kernel active_kernel() noexcept;

/// Whether `k` can run on this host (Scalar always can).
[[nodiscard]] bool kernel_supported(Kernel k) noexcept;

/// out[i] = siphash24({msgs[i], len}, key) for every i. All messages
/// have the same length `len`; pointers need no alignment and may alias.
/// Throws PreconditionError when `out` is shorter than `msgs`.
void siphash24_many(std::span<const std::uint8_t* const> msgs,
                    std::size_t len, const SipHashKey& key,
                    std::span<std::uint64_t> out);

/// Forced-kernel variant for property tests and benchmarks; throws
/// PreconditionError when `k` is unsupported on this host.
void siphash24_many(Kernel k, std::span<const std::uint8_t* const> msgs,
                    std::size_t len, const SipHashKey& key,
                    std::span<std::uint64_t> out);

/// The 64-bit MAC as the 8 wire bytes, little-endian.
[[nodiscard]] std::array<std::uint8_t, 8> tag_bytes(std::uint64_t h) noexcept;

/// Tag helpers for the wire format: the 64-bit MAC as 8 bytes, LE.
[[nodiscard]] std::array<std::uint8_t, 8> siphash24_tag(
    std::span<const std::uint8_t> data, const SipHashKey& key) noexcept;

/// Constant-time comparison of two 8-byte tags.
[[nodiscard]] bool tag_equal(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> b) noexcept;

}  // namespace mcss::crypto
