// ReMICSS share wire format.
//
// Each share travels as one frame:
//
//   offset  size  field
//        0     2  magic 0x524D ("RM")
//        2     1  version (1)
//        3     1  threshold k required to reconstruct the packet
//        4     8  packet id (little endian) — sender-assigned, increasing
//       12     1  share index (the GF(256) abscissa, 1..255)
//       13     1  flags (bit 0: authenticated, bit 1: generation byte,
//                 bit 2: connection id)
//       14     2  payload length (little endian)
//       16     1  generation (retransmission count)  [flag bit 1 only]
//       16+g    4  connection id (little endian)      [flag bit 2 only]
//       16+g+c   -  payload (the share bytes; same length as the packet)
//       ...tail  8  SipHash-2-4 tag over all preceding bytes [flag bit 0]
//
// (g is 1 when flag bit 1 is set, else 0; c is 4 when flag bit 2 is set,
// else 0. Generation 0 frames omit the generation byte and connection 0
// frames omit the connection id, so the single-flow original-transmission
// encoding is byte-identical to frames from before the reliability and
// session layers existed.)
//
// The connection id multiplexes many independent ReMICSS flows over one
// shared channel set (the session layer's flow table key). Packet ids,
// generations, and acks are all scoped WITHIN a connection: shares of
// equal packet id but different connection ids belong to different
// secrets and must never meet in one reassembly buffer — the demux
// happens before the receiver, keyed on this field.
//
// The generation counts how many times the sender has RE-SPLIT this
// packet: shares of different generations come from different random
// polynomials and must never be combined (k shares of mixed generations
// reconstruct garbage), so the receiver keeps only the newest generation
// of a partial. Retransmissions always carry fresh share randomness —
// resending the original share bytes would hand an eavesdropper the
// exact symbol it already missed.
//
// The header carries k and the packet id because a best-effort receiver
// sees shares of many packets interleaved, reordered, and duplicated
// (Section V: "the receiver will typically be waiting for shares of many
// packets at once"). Decoding is strict: any malformed frame is rejected
// as a whole. Reads that may carry several back-to-back frames (the live
// transport coalesces small frames into one datagram) parse them one at
// a time with decode_prefix().
//
// The authenticated mode extends the paper's passive threat model to
// active (Byzantine) channels: without it, a single flipped bit in any
// share silently corrupts the whole reconstructed packet.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/siphash.hpp"

namespace mcss::proto {

inline constexpr std::uint16_t kMagic = 0x524D;
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::size_t kHeaderSize = 16;
inline constexpr std::size_t kTagSize = 8;
inline constexpr std::size_t kMaxPayload = 0xFFFF;
inline constexpr std::uint8_t kFlagAuthenticated = 0x01;
inline constexpr std::uint8_t kFlagGeneration = 0x02;
inline constexpr std::uint8_t kFlagConnectionId = 0x04;
inline constexpr std::size_t kConnectionIdSize = 4;

/// Parsed header + payload of one share frame.
struct ShareFrame {
  std::uint64_t packet_id = 0;
  std::uint8_t k = 1;
  std::uint8_t share_index = 1;
  /// Re-split count: 0 = original transmission, n = n-th retransmission.
  /// Shares only combine within one generation (see header comment).
  std::uint8_t generation = 0;
  /// Flow this share belongs to; 0 = the single-flow (pre-session)
  /// encoding, which omits the field on the wire.
  std::uint32_t connection_id = 0;
  std::vector<std::uint8_t> payload;

  friend bool operator==(const ShareFrame&, const ShareFrame&) = default;
};

/// Zero-copy view of one decoded share frame: all header fields plus a
/// span into the caller's buffer where the payload sits. This is the
/// hot-path decode result — the session demux routes on connection_id
/// and the receiver copies the payload bytes straight into its partial
/// storage, so no std::vector ever materializes per share.
struct FrameView {
  std::uint64_t packet_id = 0;
  std::uint8_t k = 1;
  std::uint8_t share_index = 1;
  std::uint8_t generation = 0;
  std::uint32_t connection_id = 0;
  std::span<const std::uint8_t> payload;
};

/// Serialize a share frame. Throws PreconditionError when the payload
/// exceeds kMaxPayload, k is 0, or the share index is 0. With a key, the
/// frame is tagged (authenticated mode).
[[nodiscard]] std::vector<std::uint8_t> encode(
    const ShareFrame& frame, const crypto::SipHashKey* key = nullptr);

/// Exact on-wire size of `frame` as encode() would produce it.
[[nodiscard]] std::size_t encoded_size(const ShareFrame& frame,
                                       bool keyed) noexcept;

/// Serialize straight into caller-owned storage (a FramePool slot on the
/// live transport's fast path — no per-share vector). Preconditions match
/// encode(); additionally `dst` must hold encoded_size() bytes. Returns
/// the bytes written.
std::size_t encode_into(const ShareFrame& frame, std::span<std::uint8_t> dst,
                        const crypto::SipHashKey* key = nullptr);

/// Header fields of a frame whose payload the caller writes in place —
/// the sender's split-into-slot path, where sss::split_into fills the
/// payload region directly and no ShareFrame (or its payload vector)
/// ever exists.
struct FrameMeta {
  std::uint64_t packet_id = 0;
  std::uint8_t k = 1;
  std::uint8_t share_index = 1;
  std::uint8_t generation = 0;
  std::uint32_t connection_id = 0;
};

/// On-wire size of a frame with `payload_len` payload bytes.
[[nodiscard]] std::size_t encoded_size(std::size_t payload_len,
                                       std::uint8_t generation, bool keyed,
                                       std::uint32_t connection_id = 0) noexcept;

/// Write the header (and generation byte) of a frame into `dst` and
/// return the offset where the caller must place `payload_len` payload
/// bytes. `dst` must hold the full encoded_size(); in keyed mode the
/// caller finishes the frame with seal_frame() AFTER the payload is in
/// place — the tag covers it.
std::size_t encode_header_into(const FrameMeta& meta, std::size_t payload_len,
                               std::span<std::uint8_t> dst, bool keyed);

/// Compute the SipHash tag over everything before the trailing kTagSize
/// bytes of `dst` (the complete frame) and write it there.
void seal_frame(std::span<std::uint8_t> dst, const crypto::SipHashKey& key);

/// seal_frame() on every frame of `frames`, byte-identical in result.
/// Consecutive frames of equal length (a packet's m shares) are tagged
/// together in crypto::siphash24_many passes.
void seal_frames(std::span<const std::span<std::uint8_t>> frames,
                 const crypto::SipHashKey& key);

enum class DecodeStatus {
  Ok,
  Malformed,   ///< bad magic/version/lengths/reserved fields
  AuthFailed,  ///< tag missing, tag invalid, or unauthenticated frame
               ///< received while a key is required
};

/// Parse a frame. Returns nullopt on any malformation (and on
/// authentication failure when a key is given); the reason is reported
/// through `status` when non-null. A receiver configured with a key
/// REJECTS unauthenticated frames — downgrade attempts are failures.
/// Strict: the buffer must hold exactly one frame (trailing bytes are a
/// malformation). Delegates to decode_prefix.
[[nodiscard]] std::optional<ShareFrame> decode(
    std::span<const std::uint8_t> buf, const crypto::SipHashKey* key = nullptr,
    DecodeStatus* status = nullptr);

/// Parse ONE frame from the head of `buf` and report how many bytes it
/// occupied through `consumed`, leaving any trailing bytes (the next
/// frame, or junk) for the caller. This is the receive-path entry point
/// for transports whose reads can coalesce frames (a recv() that returns
/// two back-to-back datagram payloads, or a batched live-transport
/// datagram): strict decode() would reject the whole buffer and drop
/// every frame in it.
///
/// On success `*consumed` is the full frame size (header + payload +
/// tag). On failure `*consumed` is 0 — a malformed head gives no safe
/// resynchronization point, so the caller should discard the buffer (and
/// count it; see DecodeStatus). Authentication semantics match decode().
[[nodiscard]] std::optional<ShareFrame> decode_prefix(
    std::span<const std::uint8_t> buf, std::size_t* consumed,
    const crypto::SipHashKey* key = nullptr, DecodeStatus* status = nullptr);

/// Zero-copy decode_prefix: identical framing/authentication semantics,
/// but the result's payload is a span INTO `buf` (valid only while `buf`
/// is) instead of an owned vector. This is the session/receiver hot
/// path — one parse, no allocation, demux on connection_id, and the
/// consumer copies only the bytes it retains.
///
/// `body_tag`, when set, is the SipHash of the bytes the head frame's tag
/// covers under `key`, computed ahead of time (see body_tags()); it
/// replaces the hash here, and the frame's tag is still compared against
/// it. Passing anything else defeats authentication.
[[nodiscard]] std::optional<FrameView> decode_prefix_view(
    std::span<const std::uint8_t> buf, std::size_t* consumed,
    const crypto::SipHashKey* key = nullptr, DecodeStatus* status = nullptr,
    std::optional<std::uint64_t> body_tag = std::nullopt);

/// Strict zero-copy decode: exactly one frame in `buf` (trailing bytes
/// are a malformation), payload viewed in place. `body_tag` as for
/// decode_prefix_view.
[[nodiscard]] std::optional<FrameView> decode_view(
    std::span<const std::uint8_t> buf, const crypto::SipHashKey* key = nullptr,
    DecodeStatus* status = nullptr,
    std::optional<std::uint64_t> body_tag = std::nullopt);

/// Frames per multi-lane tagging pass: the most seal_frames() hashes
/// together, and the most body_tags() takes in one call.
inline constexpr std::size_t kTagBatch = 32;

/// Batch-verify support for a receive window of at most kTagBatch
/// frames. For each i whose head frame frame_extent() accepts and whose
/// authenticated flag is set, tags[i] is the SipHash under `key` of the
/// bytes that frame's tag covers — exactly what decode_prefix_view would
/// compute for frames[i] — and every other entry is nullopt. Frames
/// with equal-length bodies are hashed together in
/// crypto::siphash24_many passes. `tags` must hold frames.size() entries.
void body_tags(std::span<const std::span<const std::uint8_t>> frames,
               const crypto::SipHashKey& key,
               std::span<std::optional<std::uint64_t>> tags);

/// Framing-only prefix scan: validates the fixed header (magic, version,
/// k, index, flags, lengths) at the head of `buf` and returns the total
/// frame extent (header + extension + payload + tag) WITHOUT copying the
/// payload or checking authentication. This is the datagram-split
/// primitive for the batched live transport: splitting a coalesced
/// datagram must not allocate, and auth stays the keyed Receiver's job.
/// nullopt when the head is not a complete well-formed frame.
[[nodiscard]] std::optional<std::size_t> frame_extent(
    std::span<const std::uint8_t> buf) noexcept;

}  // namespace mcss::proto
