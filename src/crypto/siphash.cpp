#include "crypto/siphash.hpp"

#include <bit>
#include <cstring>

#include "util/ensure.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define MCSS_SIPHASH_X86 1
#endif

namespace mcss::crypto {

namespace {

constexpr std::uint64_t kInit0 = 0x736f6d6570736575ULL;
constexpr std::uint64_t kInit1 = 0x646f72616e646f6dULL;
constexpr std::uint64_t kInit2 = 0x6c7967656e657261ULL;
constexpr std::uint64_t kInit3 = 0x7465646279746573ULL;

constexpr std::uint64_t rotl(std::uint64_t x, int b) noexcept {
  return (x << b) | (x >> (64 - b));
}

/// One unaligned 8-byte load, as a little-endian word. memcpy compiles
/// to a single mov; GCC 12 at -O2 does not merge a byte-at-a-time loop
/// into one load.
inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// The final block: the `n` < 8 trailing bytes at `p`, little-endian,
/// with `len`'s low byte in the top byte.
inline std::uint64_t last_block(const std::uint8_t* p, std::size_t n,
                                std::size_t len) noexcept {
  std::uint8_t bytes[8] = {};
  if (n != 0) std::memcpy(bytes, p, n);
  return load_le64(bytes) | (static_cast<std::uint64_t>(len & 0xFF) << 56);
}

struct State {
  std::uint64_t v0, v1, v2, v3;

  constexpr void sipround() noexcept {
    v0 += v1;
    v1 = rotl(v1, 13);
    v1 ^= v0;
    v0 = rotl(v0, 32);
    v2 += v3;
    v3 = rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl(v1, 17);
    v1 ^= v2;
    v2 = rotl(v2, 32);
  }

  constexpr void compress(std::uint64_t m) noexcept {
    v3 ^= m;
    sipround();
    sipround();
    v0 ^= m;
  }
};

std::uint64_t hash_one(const std::uint8_t* p, std::size_t len,
                       std::uint64_t k0, std::uint64_t k1) noexcept {
  State s{kInit0 ^ k0, kInit1 ^ k1, kInit2 ^ k0, kInit3 ^ k1};
  const std::size_t full = len & ~std::size_t{7};
  for (std::size_t off = 0; off < full; off += 8) s.compress(load_le64(p + off));
  s.compress(last_block(p + full, len - full, len));
  s.v2 ^= 0xFF;
  s.sipround();
  s.sipround();
  s.sipround();
  s.sipround();
  return s.v0 ^ s.v1 ^ s.v2 ^ s.v3;
}

using ManyFn = void (*)(const std::uint8_t* const* msgs, std::size_t n,
                        std::size_t len, std::uint64_t k0, std::uint64_t k1,
                        std::uint64_t* out) noexcept;

void many_scalar(const std::uint8_t* const* msgs, std::size_t n,
                 std::size_t len, std::uint64_t k0, std::uint64_t k1,
                 std::uint64_t* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = hash_one(msgs[i], len, k0, k1);
}

// ----------------------------------------------------------------- simd

#ifdef MCSS_SIPHASH_X86

// GCC vector extensions: lane-wise +, ^, << and >> compile to whatever
// the enclosing function's target allows. The kernel body below is
// always inlined into the AVX2 entry point.
using U64x4 = std::uint64_t __attribute__((vector_size(32)));
using U32x8 = std::uint32_t __attribute__((vector_size(32)));
using U8x32 = std::uint8_t __attribute__((vector_size(32)));

/// Rotate every lane left by B. AVX2 has no 64-bit rotate: it is three
/// instructions (shift, shift, or), except the rotates by whole bytes —
/// by 32 one vpshufd swaps each lane's halves, by 16 one vpshufb moves
/// each lane's bytes.
template <int B>
[[gnu::always_inline]] inline void rotl_lanes(U64x4& x) noexcept {
  if constexpr (B == 32) {
    const U32x8 halves = (U32x8)x;
    x = (U64x4)__builtin_shufflevector(halves, halves, 1, 0, 3, 2, 5, 4, 7,
                                       6);
  } else if constexpr (B == 16) {
    const U8x32 bytes = (U8x32)x;
    x = (U64x4)__builtin_shufflevector(
        bytes, bytes, 6, 7, 0, 1, 2, 3, 4, 5, 14, 15, 8, 9, 10, 11, 12, 13,
        22, 23, 16, 17, 18, 19, 20, 21, 30, 31, 24, 25, 26, 27, 28, 29);
  } else {
    x = (x << B) | (x >> (64 - B));
  }
}

struct Lanes {
  U64x4 v0, v1, v2, v3;

  [[gnu::always_inline]] void sipround() noexcept {
    v0 += v1;
    rotl_lanes<13>(v1);
    v1 ^= v0;
    rotl_lanes<32>(v0);
    v2 += v3;
    rotl_lanes<16>(v3);
    v3 ^= v2;
    v0 += v3;
    rotl_lanes<21>(v3);
    v3 ^= v0;
    v2 += v1;
    rotl_lanes<17>(v1);
    v1 ^= v2;
    rotl_lanes<32>(v2);
  }

  [[gnu::always_inline]] void compress(const U64x4& m) noexcept {
    v3 ^= m;
    sipround();
    sipround();
    v0 ^= m;
  }
};

/// Four equal-length messages, one lane each.
[[gnu::always_inline]] inline void hash_four(const std::uint8_t* const* p,
                                             std::size_t len, std::uint64_t k0,
                                             std::uint64_t k1,
                                             std::uint64_t* out) noexcept {
  Lanes s{U64x4{} + (kInit0 ^ k0), U64x4{} + (kInit1 ^ k1),
          U64x4{} + (kInit2 ^ k0), U64x4{} + (kInit3 ^ k1)};
  const std::size_t full = len & ~std::size_t{7};
  for (std::size_t off = 0; off < full; off += 8) {
    s.compress(U64x4{load_le64(p[0] + off), load_le64(p[1] + off),
                     load_le64(p[2] + off), load_le64(p[3] + off)});
  }
  const std::size_t n = len - full;
  s.compress(U64x4{last_block(p[0] + full, n, len),
                   last_block(p[1] + full, n, len),
                   last_block(p[2] + full, n, len),
                   last_block(p[3] + full, n, len)});
  s.v2 ^= 0xFF;
  s.sipround();
  s.sipround();
  s.sipround();
  s.sipround();
  const U64x4 h = s.v0 ^ s.v1 ^ s.v2 ^ s.v3;
  for (int lane = 0; lane < 4; ++lane) out[lane] = h[lane];
}

/// Groups of four; a last group of two or three pads its spare lanes with
/// its first message and drops their results, a last single message
/// takes the scalar path (one lane of a vector pass costs more).
__attribute__((target("avx2"))) void many_avx2(
    const std::uint8_t* const* msgs, std::size_t n, std::size_t len,
    std::uint64_t k0, std::uint64_t k1, std::uint64_t* out) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) hash_four(msgs + i, len, k0, k1, out + i);
  const std::size_t rest = n - i;
  if (rest == 1) {
    out[i] = hash_one(msgs[i], len, k0, k1);
  } else if (rest > 1) {
    const std::uint8_t* p[4] = {msgs[i], msgs[i], msgs[i], msgs[i]};
    for (std::size_t lane = 1; lane < rest; ++lane) p[lane] = msgs[i + lane];
    std::uint64_t h[4];
    hash_four(p, len, k0, k1, h);
    for (std::size_t lane = 0; lane < rest; ++lane) out[i + lane] = h[lane];
  }
}

#endif  // MCSS_SIPHASH_X86

Kernel detect_kernel() noexcept {
#ifdef MCSS_SIPHASH_X86
  if (__builtin_cpu_supports("avx2")) return Kernel::Avx2;
#endif
  return Kernel::Scalar;
}

ManyFn kernel_fn(Kernel k) noexcept {
  switch (k) {
#ifdef MCSS_SIPHASH_X86
    case Kernel::Avx2:
      return &many_avx2;
#else
    case Kernel::Avx2:
#endif
    case Kernel::Scalar:
    default:
      return &many_scalar;
  }
}

const Kernel active = detect_kernel();
const ManyFn dispatched = kernel_fn(active);

void run_many(ManyFn fn, std::span<const std::uint8_t* const> msgs,
              std::size_t len, const SipHashKey& key,
              std::span<std::uint64_t> out) {
  MCSS_ENSURE(out.size() >= msgs.size(),
              "siphash24_many needs one output per message");
  fn(msgs.data(), msgs.size(), len, load_le64(key.data()),
     load_le64(key.data() + 8), out.data());
}

}  // namespace

std::uint64_t siphash24(std::span<const std::uint8_t> data,
                        const SipHashKey& key) noexcept {
  return hash_one(data.data(), data.size(), load_le64(key.data()),
                  load_le64(key.data() + 8));
}

const char* kernel_name(Kernel k) noexcept {
  switch (k) {
    case Kernel::Avx2:
      return "avx2";
    case Kernel::Scalar:
    default:
      return "scalar";
  }
}

Kernel active_kernel() noexcept { return active; }

bool kernel_supported(Kernel k) noexcept {
  if (k == Kernel::Scalar) return true;
#ifdef MCSS_SIPHASH_X86
  if (k == Kernel::Avx2) return __builtin_cpu_supports("avx2") != 0;
#endif
  return false;
}

void siphash24_many(std::span<const std::uint8_t* const> msgs, std::size_t len,
                    const SipHashKey& key, std::span<std::uint64_t> out) {
  run_many(dispatched, msgs, len, key, out);
}

void siphash24_many(Kernel k, std::span<const std::uint8_t* const> msgs,
                    std::size_t len, const SipHashKey& key,
                    std::span<std::uint64_t> out) {
  MCSS_ENSURE(kernel_supported(k),
              "requested SipHash kernel not supported on this host");
  run_many(kernel_fn(k), msgs, len, key, out);
}

std::array<std::uint8_t, 8> tag_bytes(std::uint64_t h) noexcept {
  std::array<std::uint8_t, 8> tag{};
  for (int i = 0; i < 8; ++i) {
    tag[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(h >> (8 * i));
  }
  return tag;
}

std::array<std::uint8_t, 8> siphash24_tag(std::span<const std::uint8_t> data,
                                          const SipHashKey& key) noexcept {
  return tag_bytes(siphash24(data, key));
}

bool tag_equal(std::span<const std::uint8_t> a,
               std::span<const std::uint8_t> b) noexcept {
  if (a.size() != b.size()) return false;
  unsigned diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff |= static_cast<unsigned>(a[i] ^ b[i]);
  }
  return diff == 0;
}

}  // namespace mcss::crypto
