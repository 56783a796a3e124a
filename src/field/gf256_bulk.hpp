// Bulk (region) arithmetic over GF(2^8).
//
// Shamir split/reconstruct and XOR sharing reduce to one region
// primitive over byte buffers:
//
//   mul_acc_buf: dst[i] ^= scalar * src[i]          (GF axpy)
//
// with xor_buf as its scalar == 1 case. The scalar is constant across a
// whole buffer, so instead of the per-byte log/exp walk in gf::mul (two
// dependent loads plus a zero branch), each call grabs the 256-byte
// product row of a compile-time 256x256 multiplication table and
// streams through the buffer branch-free. On x86 a runtime-dispatched
// SSSE3/AVX2 path goes further: the row is split into two 16-entry
// nibble tables and each product becomes two PSHUFB lookups, 16 or 32
// bytes per step — the standard erasure-coding region kernel (cf.
// gf-complete / ISA-L).
// Everything falls back to the portable blocked loop on other ISAs.
//
// All kernels are element-wise pure, so dst == src (in-place) is
// supported; partially overlapping buffers are not.
#pragma once

#include <cstddef>

#include "field/gf256.hpp"

namespace mcss::gf::bulk {

/// Kernel implementations, in increasing order of capability.
enum class Kernel {
  Portable,  ///< blocked 256-byte-row loop; always available
  Ssse3,     ///< 16 bytes/step via PSHUFB nibble tables
  Avx2,      ///< 32 bytes/step via VPSHUFB nibble tables
};

/// Human-readable kernel name ("portable", "ssse3", "avx2").
[[nodiscard]] const char* kernel_name(Kernel k) noexcept;

/// The kernel the auto-dispatched entry points resolved to on this host.
[[nodiscard]] Kernel active_kernel() noexcept;

/// Whether `k` can run on this host (Portable always can).
[[nodiscard]] bool kernel_supported(Kernel k) noexcept;

/// dst[i] ^= scalar * src[i] for i in [0, n). dst == src allowed.
void mul_acc_buf(Elem* dst, const Elem* src, Elem scalar,
                 std::size_t n) noexcept;

/// dst[i] ^= src[i] for i in [0, n) — the scalar == 1 axpy.
void xor_buf(Elem* dst, const Elem* src, std::size_t n) noexcept;

/// Forced-kernel variant for property tests and benchmarks; throws
/// PreconditionError when `k` is unsupported on this host. Unlike the
/// auto entry point it never shortcuts scalar 0/1, so it exercises the
/// general table path for every scalar.
void mul_acc_buf(Kernel k, Elem* dst, const Elem* src, Elem scalar,
                 std::size_t n);

}  // namespace mcss::gf::bulk
