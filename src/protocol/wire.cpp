#include "protocol/wire.hpp"

#include <cstring>

#include "util/ensure.hpp"

namespace mcss::proto {

namespace {

[[nodiscard]] std::uint16_t get16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint16_t>(in[at] | (in[at + 1] << 8));
}

[[nodiscard]] std::uint64_t get64(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | in[at + static_cast<std::size_t>(i)];
  }
  return v;
}

template <typename T>
std::optional<T> fail(DecodeStatus* status, DecodeStatus why) {
  if (status != nullptr) *status = why;
  return std::nullopt;
}

}  // namespace

std::size_t encoded_size(const ShareFrame& frame, bool keyed) noexcept {
  return encoded_size(frame.payload.size(), frame.generation, keyed,
                      frame.connection_id);
}

std::size_t encoded_size(std::size_t payload_len, std::uint8_t generation,
                         bool keyed, std::uint32_t connection_id) noexcept {
  return kHeaderSize + (generation != 0 ? 1 : 0) +
         (connection_id != 0 ? kConnectionIdSize : 0) + payload_len +
         (keyed ? kTagSize : 0);
}

std::size_t encode_header_into(const FrameMeta& meta, std::size_t payload_len,
                               std::span<std::uint8_t> dst, bool keyed) {
  MCSS_ENSURE(payload_len <= kMaxPayload, "share payload too large");
  MCSS_ENSURE(meta.k >= 1, "threshold must be at least 1");
  MCSS_ENSURE(meta.share_index >= 1, "share index 0 is reserved");
  MCSS_ENSURE(dst.size() >= encoded_size(payload_len, meta.generation, keyed,
                                         meta.connection_id),
              "encode destination too small");

  std::uint8_t flags = keyed ? kFlagAuthenticated : 0;
  // Generation 0 omits the extension byte: original transmissions stay
  // byte-identical to the pre-reliability encoding. Connection 0 (the
  // single-flow encoding) likewise omits the connection id.
  if (meta.generation != 0) flags |= kFlagGeneration;
  if (meta.connection_id != 0) flags |= kFlagConnectionId;

  std::uint8_t* p = dst.data();
  p[0] = static_cast<std::uint8_t>(kMagic & 0xFF);
  p[1] = static_cast<std::uint8_t>(kMagic >> 8);
  p[2] = kVersion;
  p[3] = meta.k;
  for (int i = 0; i < 8; ++i) {
    p[4 + i] = static_cast<std::uint8_t>(meta.packet_id >> (8 * i));
  }
  p[12] = meta.share_index;
  p[13] = flags;
  p[14] = static_cast<std::uint8_t>(payload_len & 0xFF);
  p[15] = static_cast<std::uint8_t>(payload_len >> 8);
  std::size_t at = kHeaderSize;
  if (meta.generation != 0) p[at++] = meta.generation;
  if (meta.connection_id != 0) {
    for (int i = 0; i < 4; ++i) {
      p[at++] = static_cast<std::uint8_t>(meta.connection_id >> (8 * i));
    }
  }
  return at;
}

void seal_frame(std::span<std::uint8_t> dst, const crypto::SipHashKey& key) {
  MCSS_ENSURE(dst.size() >= kHeaderSize + kTagSize,
              "seal_frame needs a full keyed frame");
  const std::size_t at = dst.size() - kTagSize;
  const auto tag = crypto::siphash24_tag(dst.first(at), key);
  std::memcpy(dst.data() + at, tag.data(), tag.size());
}

void seal_frames(std::span<const std::span<std::uint8_t>> frames,
                 const crypto::SipHashKey& key) {
  const std::uint8_t* msgs[kTagBatch];
  std::uint64_t tags[kTagBatch];
  std::size_t i = 0;
  while (i < frames.size()) {
    const std::size_t size = frames[i].size();
    MCSS_ENSURE(size >= kHeaderSize + kTagSize,
                "seal_frames needs full keyed frames");
    std::size_t n = 0;
    while (i + n < frames.size() && n < kTagBatch &&
           frames[i + n].size() == size) {
      msgs[n] = frames[i + n].data();
      ++n;
    }
    crypto::siphash24_many({msgs, n}, size - kTagSize, key, {tags, n});
    for (std::size_t j = 0; j < n; ++j) {
      const auto tag = crypto::tag_bytes(tags[j]);
      std::memcpy(frames[i + j].data() + size - kTagSize, tag.data(),
                  tag.size());
    }
    i += n;
  }
}

std::size_t encode_into(const ShareFrame& frame, std::span<std::uint8_t> dst,
                        const crypto::SipHashKey* key) {
  const FrameMeta meta{frame.packet_id, frame.k, frame.share_index,
                       frame.generation, frame.connection_id};
  const bool keyed = key != nullptr;
  std::size_t at = encode_header_into(meta, frame.payload.size(), dst, keyed);
  if (!frame.payload.empty()) {
    std::memcpy(dst.data() + at, frame.payload.data(), frame.payload.size());
  }
  at += frame.payload.size();
  if (keyed) {
    seal_frame(dst.first(at + kTagSize), *key);
    at += kTagSize;
  }
  return at;
}

std::vector<std::uint8_t> encode(const ShareFrame& frame,
                                 const crypto::SipHashKey* key) {
  std::vector<std::uint8_t> out(encoded_size(frame, key != nullptr));
  encode_into(frame, out, key);
  return out;
}

std::optional<std::size_t> frame_extent(
    std::span<const std::uint8_t> buf) noexcept {
  if (buf.size() < kHeaderSize) return std::nullopt;
  if (get16(buf, 0) != kMagic) return std::nullopt;
  if (buf[2] != kVersion) return std::nullopt;
  if (buf[3] == 0 || buf[12] == 0) return std::nullopt;  // k, share index
  const std::uint8_t flags = buf[13];
  if ((flags & ~(kFlagAuthenticated | kFlagGeneration | kFlagConnectionId)) !=
      0) {
    return std::nullopt;  // unknown flag bits
  }
  const std::size_t ext = (flags & kFlagGeneration) != 0 ? 1 : 0;
  const std::size_t cid =
      (flags & kFlagConnectionId) != 0 ? kConnectionIdSize : 0;
  const std::size_t expected =
      kHeaderSize + ext + cid + get16(buf, 14) +
      ((flags & kFlagAuthenticated) != 0 ? kTagSize : 0);
  if (buf.size() < expected) return std::nullopt;
  // Canonical encoding: generation 0 omits the extension byte and
  // connection 0 omits the connection id.
  if (ext != 0 && buf[kHeaderSize] == 0) return std::nullopt;
  if (cid != 0) {
    std::uint32_t id = 0;
    for (int i = 3; i >= 0; --i) {
      id = (id << 8) | buf[kHeaderSize + ext + static_cast<std::size_t>(i)];
    }
    if (id == 0) return std::nullopt;
  }
  return expected;
}

std::optional<FrameView> decode_prefix_view(
    std::span<const std::uint8_t> buf, std::size_t* consumed,
    const crypto::SipHashKey* key, DecodeStatus* status,
    std::optional<std::uint64_t> body_tag) {
  MCSS_ENSURE(consumed != nullptr, "decode_prefix needs a consumed out-param");
  *consumed = 0;
  if (status != nullptr) *status = DecodeStatus::Ok;
  // Framing (magic, version, k/index, flags, lengths, canonical
  // generation/connection) is frame_extent's single source of truth;
  // this function adds authentication and field extraction on top.
  const auto extent = frame_extent(buf);
  if (!extent) return fail<FrameView>(status, DecodeStatus::Malformed);

  FrameView view;
  view.k = buf[3];
  view.packet_id = get64(buf, 4);
  view.share_index = buf[12];
  const std::uint8_t flags = buf[13];
  const bool authenticated = (flags & kFlagAuthenticated) != 0;
  // Extension bytes between header and payload (retransmissions carry a
  // generation; multiplexed flows carry a connection id).
  const std::size_t ext = (flags & kFlagGeneration) != 0 ? 1 : 0;
  const std::size_t cid =
      (flags & kFlagConnectionId) != 0 ? kConnectionIdSize : 0;
  const std::size_t len = get16(buf, 14);
  const std::size_t body = kHeaderSize + ext + cid + len;
  if (ext != 0) view.generation = buf[kHeaderSize];
  if (cid != 0) {
    std::uint32_t id = 0;
    for (int i = 3; i >= 0; --i) {
      id = (id << 8) | buf[kHeaderSize + ext + static_cast<std::size_t>(i)];
    }
    view.connection_id = id;
  }

  if (key != nullptr) {
    // A keyed receiver refuses unauthenticated frames outright.
    if (!authenticated) return fail<FrameView>(status, DecodeStatus::AuthFailed);
    const auto computed =
        body_tag ? crypto::tag_bytes(*body_tag)
                 : crypto::siphash24_tag(buf.first(body), *key);
    if (!crypto::tag_equal(computed, buf.subspan(body, kTagSize))) {
      return fail<FrameView>(status, DecodeStatus::AuthFailed);
    }
  } else if (authenticated) {
    // Tag present but no key to check it: parse the frame, ignore the tag.
    // (Useful for passive observation tooling; the keyed path is what the
    // protocol itself uses.)
  }

  view.payload = buf.subspan(kHeaderSize + ext + cid, len);
  *consumed = *extent;
  return view;
}

std::optional<FrameView> decode_view(std::span<const std::uint8_t> buf,
                                     const crypto::SipHashKey* key,
                                     DecodeStatus* status,
                                     std::optional<std::uint64_t> body_tag) {
  std::size_t consumed = 0;
  auto view = decode_prefix_view(buf, &consumed, key, status, body_tag);
  if (view && consumed != buf.size()) {
    // Strict mode: trailing bytes after the one frame are a malformation.
    return fail<FrameView>(status, DecodeStatus::Malformed);
  }
  return view;
}

void body_tags(std::span<const std::span<const std::uint8_t>> frames,
               const crypto::SipHashKey& key,
               std::span<std::optional<std::uint64_t>> tags) {
  MCSS_ENSURE(frames.size() <= kTagBatch, "body_tags takes one window");
  MCSS_ENSURE(tags.size() >= frames.size(), "body_tags needs one slot per frame");
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const std::uint8_t* msgs[kTagBatch];
  std::size_t owner[kTagBatch];
  std::uint64_t hashes[kTagBatch];
  std::size_t body[kTagBatch];
  // Find each frame's tagged body length (kNone when there is nothing to
  // verify), then hash every group of equal length together.
  for (std::size_t i = 0; i < frames.size(); ++i) {
    tags[i].reset();
    body[i] = kNone;
    const auto extent = frame_extent(frames[i]);
    if (extent && (frames[i][13] & kFlagAuthenticated) != 0) {
      body[i] = *extent - kTagSize;
    }
  }
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::size_t len = body[i];
    if (len == kNone) continue;
    std::size_t lanes = 0;
    for (std::size_t j = i; j < frames.size(); ++j) {
      if (body[j] != len) continue;
      body[j] = kNone;
      msgs[lanes] = frames[j].data();
      owner[lanes] = j;
      ++lanes;
    }
    crypto::siphash24_many({msgs, lanes}, len, key, {hashes, lanes});
    for (std::size_t l = 0; l < lanes; ++l) tags[owner[l]] = hashes[l];
  }
}

std::optional<ShareFrame> decode_prefix(std::span<const std::uint8_t> buf,
                                        std::size_t* consumed,
                                        const crypto::SipHashKey* key,
                                        DecodeStatus* status) {
  const auto view = decode_prefix_view(buf, consumed, key, status);
  if (!view) return std::nullopt;
  ShareFrame frame;
  frame.packet_id = view->packet_id;
  frame.k = view->k;
  frame.share_index = view->share_index;
  frame.generation = view->generation;
  frame.connection_id = view->connection_id;
  frame.payload.assign(view->payload.begin(), view->payload.end());
  return frame;
}

std::optional<ShareFrame> decode(std::span<const std::uint8_t> buf,
                                 const crypto::SipHashKey* key,
                                 DecodeStatus* status) {
  std::size_t consumed = 0;
  auto frame = decode_prefix(buf, &consumed, key, status);
  if (frame && consumed != buf.size()) {
    // Strict mode: trailing bytes after the one frame are a malformation.
    return fail<ShareFrame>(status, DecodeStatus::Malformed);
  }
  return frame;
}

}  // namespace mcss::proto
