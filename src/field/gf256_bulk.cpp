#include "field/gf256_bulk.hpp"

#include <array>
#include <cstdint>
#include <cstring>

#include "util/ensure.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define MCSS_GF_BULK_X86 1
#include <immintrin.h>
#endif

namespace mcss::gf::bulk {

namespace {

// full[s] is the 256-byte product row of s; nib[s] packs the two PSHUFB
// lookup tables for s — 16 low-nibble products followed by 16 high-nibble
// products — so one aligned 32-byte load feeds the SIMD kernels.
struct MulTables {
  std::array<std::array<Elem, 256>, 256> full{};
  alignas(32) std::array<std::array<Elem, 32>, 256> nib{};
};

constexpr MulTables build_mul_tables() {
  MulTables t{};
  for (int s = 0; s < 256; ++s) {
    auto& row = t.full[static_cast<std::size_t>(s)];
    for (int b = 0; b < 256; ++b) {
      row[static_cast<std::size_t>(b)] =
          mul(static_cast<Elem>(s), static_cast<Elem>(b));
    }
    auto& nib = t.nib[static_cast<std::size_t>(s)];
    for (int i = 0; i < 16; ++i) {
      nib[static_cast<std::size_t>(i)] = row[static_cast<std::size_t>(i)];
      nib[static_cast<std::size_t>(i) + 16] =
          row[static_cast<std::size_t>(i << 4)];
    }
  }
  return t;
}

constexpr MulTables tables = build_mul_tables();

// ------------------------------------------------------------- portable

void mul_acc_buf_portable(Elem* dst, const Elem* src, Elem scalar,
                          std::size_t n) noexcept {
  const Elem* row = tables.full[scalar].data();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    dst[i + 0] ^= row[src[i + 0]];
    dst[i + 1] ^= row[src[i + 1]];
    dst[i + 2] ^= row[src[i + 2]];
    dst[i + 3] ^= row[src[i + 3]];
    dst[i + 4] ^= row[src[i + 4]];
    dst[i + 5] ^= row[src[i + 5]];
    dst[i + 6] ^= row[src[i + 6]];
    dst[i + 7] ^= row[src[i + 7]];
  }
  for (; i < n; ++i) dst[i] ^= row[src[i]];
}

// ----------------------------------------------------------------- simd

#ifdef MCSS_GF_BULK_X86

__attribute__((target("ssse3"))) void mul_acc_buf_ssse3(
    Elem* dst, const Elem* src, Elem scalar, std::size_t n) noexcept {
  const Elem* nib = tables.nib[scalar].data();
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(nib));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(nib + 16));
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i l = _mm_shuffle_epi8(lo, _mm_and_si128(v, mask));
    const __m128i h =
        _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(v, 4), mask));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, _mm_xor_si128(l, h)));
  }
  const Elem* row = tables.full[scalar].data();
  for (; i < n; ++i) dst[i] ^= row[src[i]];
}

__attribute__((target("avx2"))) void mul_acc_buf_avx2(Elem* dst,
                                                      const Elem* src,
                                                      Elem scalar,
                                                      std::size_t n) noexcept {
  const Elem* nib = tables.nib[scalar].data();
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nib)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nib + 16)));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i l = _mm256_shuffle_epi8(lo, _mm256_and_si256(v, mask));
    const __m256i h = _mm256_shuffle_epi8(
        hi, _mm256_and_si256(_mm256_srli_epi64(v, 4), mask));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, _mm256_xor_si256(l, h)));
  }
  const Elem* row = tables.full[scalar].data();
  for (; i < n; ++i) dst[i] ^= row[src[i]];
}

#endif  // MCSS_GF_BULK_X86

Kernel detect_kernel() noexcept {
#ifdef MCSS_GF_BULK_X86
  if (__builtin_cpu_supports("avx2")) return Kernel::Avx2;
  if (__builtin_cpu_supports("ssse3")) return Kernel::Ssse3;
#endif
  return Kernel::Portable;
}

using KernelFn = void (*)(Elem*, const Elem*, Elem, std::size_t) noexcept;

struct Dispatch {
  Kernel kernel = Kernel::Portable;
  KernelFn mul_acc = &mul_acc_buf_portable;
};

Dispatch make_dispatch() noexcept {
  Dispatch d;
  d.kernel = detect_kernel();
#ifdef MCSS_GF_BULK_X86
  switch (d.kernel) {
    case Kernel::Avx2:
      d.mul_acc = &mul_acc_buf_avx2;
      break;
    case Kernel::Ssse3:
      d.mul_acc = &mul_acc_buf_ssse3;
      break;
    case Kernel::Portable:
      break;
  }
#endif
  return d;
}

const Dispatch dispatch = make_dispatch();

KernelFn forced_fn(Kernel k) {
  MCSS_ENSURE(kernel_supported(k), "requested GF(256) kernel not supported on this host");
  switch (k) {
#ifdef MCSS_GF_BULK_X86
    case Kernel::Avx2:
      return &mul_acc_buf_avx2;
    case Kernel::Ssse3:
      return &mul_acc_buf_ssse3;
#else
    case Kernel::Avx2:
    case Kernel::Ssse3:
#endif
    case Kernel::Portable:
    default:
      return &mul_acc_buf_portable;
  }
}

}  // namespace

const char* kernel_name(Kernel k) noexcept {
  switch (k) {
    case Kernel::Avx2:
      return "avx2";
    case Kernel::Ssse3:
      return "ssse3";
    case Kernel::Portable:
    default:
      return "portable";
  }
}

Kernel active_kernel() noexcept { return dispatch.kernel; }

bool kernel_supported(Kernel k) noexcept {
  if (k == Kernel::Portable) return true;
#ifdef MCSS_GF_BULK_X86
  if (k == Kernel::Avx2) return __builtin_cpu_supports("avx2") != 0;
  if (k == Kernel::Ssse3) return __builtin_cpu_supports("ssse3") != 0;
#endif
  return false;
}

void mul_acc_buf(Elem* dst, const Elem* src, Elem scalar,
                 std::size_t n) noexcept {
  if (scalar == 0) return;
  if (scalar == 1) {
    xor_buf(dst, src, n);
    return;
  }
  dispatch.mul_acc(dst, src, scalar, n);
}

void xor_buf(Elem* dst, const Elem* src, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a;
    std::uint64_t b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void mul_acc_buf(Kernel k, Elem* dst, const Elem* src, Elem scalar,
                 std::size_t n) {
  forced_fn(k)(dst, src, scalar, n);
}

}  // namespace mcss::gf::bulk
