// Tests for the share wire format and the (kappa, mu) dither.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <vector>

#include "protocol/dither.hpp"
#include "protocol/micss.hpp"
#include "protocol/wire.hpp"
#include "util/ensure.hpp"

namespace mcss::proto {
namespace {

// ---------------------------------------------------------------- wire

TEST(Wire, RoundtripBasic) {
  ShareFrame f;
  f.packet_id = 0x0123456789ABCDEFULL;
  f.k = 3;
  f.share_index = 7;
  f.payload = {1, 2, 3, 4, 5};
  const auto bytes = encode(f);
  EXPECT_EQ(bytes.size(), kHeaderSize + 5);
  const auto back = decode(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, f);
}

TEST(Wire, RoundtripEmptyPayload) {
  ShareFrame f;
  f.packet_id = 1;
  f.k = 1;
  f.share_index = 1;
  const auto back = decode(encode(f));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->payload.empty());
}

TEST(Wire, RoundtripMaxPayload) {
  ShareFrame f;
  f.packet_id = 42;
  f.k = 255;
  f.share_index = 255;
  f.payload.assign(kMaxPayload, 0x5A);
  const auto back = decode(encode(f));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->payload.size(), kMaxPayload);
}

TEST(Wire, EncodeRejectsInvalid) {
  ShareFrame f;
  f.k = 0;
  f.share_index = 1;
  EXPECT_THROW((void)encode(f), PreconditionError);
  f.k = 1;
  f.share_index = 0;
  EXPECT_THROW((void)encode(f), PreconditionError);
}

TEST(Wire, DecodeRejectsMalformed) {
  ShareFrame f;
  f.packet_id = 7;
  f.k = 2;
  f.share_index = 3;
  f.payload = {9, 9, 9};
  auto good = encode(f);

  // Too short.
  EXPECT_FALSE(decode(std::vector<std::uint8_t>(kHeaderSize - 1, 0)).has_value());
  // Bad magic.
  auto bad = good;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(decode(bad).has_value());
  // Bad version.
  bad = good;
  bad[2] = 99;
  EXPECT_FALSE(decode(bad).has_value());
  // Zero threshold.
  bad = good;
  bad[3] = 0;
  EXPECT_FALSE(decode(bad).has_value());
  // Zero share index.
  bad = good;
  bad[12] = 0;
  EXPECT_FALSE(decode(bad).has_value());
  // Unknown flags (0x01 = authenticated, 0x02 = generation, and
  // 0x04 = connection id are defined; 0x08 is the first reserved bit).
  bad = good;
  bad[13] = 0x08;
  EXPECT_FALSE(decode(bad).has_value());
  // Connection flag set without the 4 id bytes: truncated frame.
  bad = good;
  bad[13] = kFlagConnectionId;
  EXPECT_FALSE(decode(bad).has_value());
  // Length mismatch: truncated payload.
  bad = good;
  bad.pop_back();
  EXPECT_FALSE(decode(bad).has_value());
  // Length mismatch: trailing junk.
  bad = good;
  bad.push_back(0);
  EXPECT_FALSE(decode(bad).has_value());
  // The untouched frame still parses.
  EXPECT_TRUE(decode(good).has_value());
}

ShareFrame sample_frame(std::uint64_t id, std::uint8_t index,
                        std::size_t payload_len) {
  ShareFrame f;
  f.packet_id = id;
  f.k = 2;
  f.share_index = index;
  f.payload.assign(payload_len, static_cast<std::uint8_t>(0xA0 + index));
  return f;
}

// ------------------------------------------------------------- generation

TEST(Wire, HeaderThenSealMatchesEncode) {
  // The sender's split-into-slot path writes the header first, fills the
  // payload in place, and seals; the bytes must match one-shot encode()
  // in both keyed and unkeyed modes.
  ShareFrame f;
  f.packet_id = 0xFEEDFACECAFEULL;
  f.k = 2;
  f.share_index = 3;
  f.generation = 5;
  f.payload = {9, 8, 7, 6};
  const crypto::SipHashKey key{1, 2,  3,  4,  5,  6,  7,  8,
                               9, 10, 11, 12, 13, 14, 15, 16};
  for (const bool keyed : {false, true}) {
    const crypto::SipHashKey* kp = keyed ? &key : nullptr;
    const auto expected = encode(f, kp);

    const FrameMeta meta{f.packet_id, f.k, f.share_index, f.generation};
    ASSERT_EQ(encoded_size(f.payload.size(), f.generation, keyed),
              expected.size());
    std::vector<std::uint8_t> got(expected.size());
    const std::size_t off =
        encode_header_into(meta, f.payload.size(), got, keyed);
    std::copy(f.payload.begin(), f.payload.end(),
              got.begin() + static_cast<std::ptrdiff_t>(off));
    if (keyed) seal_frame(got, key);
    EXPECT_EQ(got, expected) << (keyed ? "keyed" : "unkeyed");
  }
}

TEST(Wire, SealFramesMatchesPerFrameSeal) {
  // seal_frames tags a batch in multi-lane passes; every byte must equal
  // per-frame seal_frame — including generation and connection-id
  // frames, runs of equal length (a packet's fan-out), lengths that
  // change mid-batch, and more frames than one hashing pass holds.
  const crypto::SipHashKey key{3, 1, 4, 1, 5, 9, 2, 6,
                               5, 3, 5, 8, 9, 7, 9, 3};
  std::vector<ShareFrame> frames;
  for (std::uint8_t i = 1; i <= 40; ++i) {
    ShareFrame f;
    f.packet_id = 1000u + i / 4;
    f.k = 2;
    f.share_index = i;
    f.generation = static_cast<std::uint8_t>(i % 7 == 0 ? i : 0);
    f.connection_id = i % 5 == 0 ? 0xC0FFEEu + i : 0;
    const std::size_t len = i < 20 ? 1470 : (i < 34 ? 128 : i);
    f.payload.assign(len, static_cast<std::uint8_t>(i * 13));
    frames.push_back(f);
  }
  std::vector<std::vector<std::uint8_t>> expected;
  std::vector<std::vector<std::uint8_t>> got;
  for (const auto& f : frames) {
    expected.push_back(encode(f, &key));
    // Same bytes with the tag zeroed, for seal_frames to fill in.
    got.push_back(encode(f));
    got.back()[13] |= kFlagAuthenticated;
    got.back().resize(got.back().size() + kTagSize, 0);
  }
  std::vector<std::span<std::uint8_t>> views;
  for (auto& g : got) views.emplace_back(g);
  seal_frames(views, key);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "frame " << i;
  }
  EXPECT_THROW(seal_frames(std::vector<std::span<std::uint8_t>>{
                               std::span<std::uint8_t>(got[0]).first(8)},
                           key),
               PreconditionError);
}

TEST(Wire, BodyTagsMatchWhatDecodeComputes) {
  // body_tags hashes exactly the bytes decode_view would authenticate,
  // and leaves nullopt where there is nothing to verify: unauthenticated
  // frames and undecodable heads.
  const crypto::SipHashKey key{1, 2,  3,  4,  5,  6,  7,  8,
                               9, 10, 11, 12, 13, 14, 15, 16};
  ShareFrame f;
  f.packet_id = 5;
  f.k = 2;
  f.share_index = 1;
  f.payload.assign(300, 0x5A);
  const auto keyed = encode(f, &key);
  f.share_index = 2;
  const auto keyed2 = encode(f, &key);
  f.payload.resize(17);
  const auto keyed_short = encode(f, &key);
  const auto plain = encode(f);
  const std::vector<std::uint8_t> junk{1, 2, 3};
  auto trailing = keyed_short;
  trailing.push_back(0xEE);  // tag still covers only the head frame

  const std::vector<std::span<const std::uint8_t>> batch{
      keyed, plain, keyed_short, junk, keyed2, trailing};
  std::vector<std::optional<std::uint64_t>> tags(batch.size());
  body_tags(batch, key, tags);
  const auto body_hash = [&](const std::vector<std::uint8_t>& frame,
                             std::size_t extent) {
    return crypto::siphash24(
        std::span<const std::uint8_t>(frame).first(extent - kTagSize), key);
  };
  EXPECT_EQ(tags[0], body_hash(keyed, keyed.size()));
  EXPECT_FALSE(tags[1].has_value());
  EXPECT_EQ(tags[2], body_hash(keyed_short, keyed_short.size()));
  EXPECT_FALSE(tags[3].has_value());
  EXPECT_EQ(tags[4], body_hash(keyed2, keyed2.size()));
  EXPECT_EQ(tags[5], body_hash(trailing, keyed_short.size()));

  // A precomputed tag feeds decode and the frame's own tag is still
  // compared: the right hash passes, a wrong one fails authentication.
  DecodeStatus status = DecodeStatus::Ok;
  EXPECT_TRUE(decode_view(keyed, &key, &status, tags[0]).has_value());
  EXPECT_FALSE(decode_view(keyed, &key, &status, *tags[0] ^ 1).has_value());
  EXPECT_EQ(status, DecodeStatus::AuthFailed);

  // One call covers one window of at most kTagBatch frames.
  const std::vector<std::span<const std::uint8_t>> too_many(kTagBatch + 1,
                                                            keyed);
  std::vector<std::optional<std::uint64_t>> too_many_tags(too_many.size());
  EXPECT_THROW(body_tags(too_many, key, too_many_tags), PreconditionError);
}

TEST(Wire, GenerationRoundtrip) {
  ShareFrame f;
  f.packet_id = 99;
  f.k = 3;
  f.share_index = 4;
  f.generation = 7;
  f.payload = {1, 2, 3};
  const auto bytes = encode(f);
  EXPECT_EQ(bytes.size(), kHeaderSize + 1 + 3);  // extension byte present
  const auto back = decode(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, f);
  EXPECT_EQ(back->generation, 7);

  // Authenticated retransmissions: tag covers the extension byte too.
  const crypto::SipHashKey key{1, 2,  3,  4,  5,  6,  7,  8,
                               9, 10, 11, 12, 13, 14, 15, 16};
  auto tagged = encode(f, &key);
  const auto back2 = decode(tagged, &key);
  ASSERT_TRUE(back2.has_value());
  EXPECT_EQ(*back2, f);
  tagged[kHeaderSize] ^= 0x01;  // flip the generation byte
  EXPECT_FALSE(decode(tagged, &key).has_value());
}

TEST(Wire, GenerationZeroIsByteIdenticalToLegacyEncoding) {
  // Original transmissions must not change on the wire just because the
  // reliability layer exists: generation 0 omits the extension byte.
  ShareFrame f;
  f.packet_id = 5;
  f.k = 2;
  f.share_index = 1;
  f.payload = {0xAA, 0xBB};
  const auto bytes = encode(f);
  EXPECT_EQ(bytes.size(), kHeaderSize + 2);
  EXPECT_EQ(bytes[13], 0);  // no flag bits
  const auto back = decode(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->generation, 0);
}

TEST(Wire, NonCanonicalGenerationZeroRejected) {
  // The flag set with generation byte 0 would give one frame two
  // encodings; the canonical form omits the byte, the other is refused.
  ShareFrame f;
  f.packet_id = 5;
  f.k = 2;
  f.share_index = 1;
  f.generation = 1;
  f.payload = {0xAA};
  auto bytes = encode(f);
  ASSERT_EQ(bytes[13], kFlagGeneration);
  bytes[kHeaderSize] = 0;  // generation byte -> 0, flag still set
  DecodeStatus status = DecodeStatus::Ok;
  EXPECT_FALSE(decode(bytes, nullptr, &status).has_value());
  EXPECT_EQ(status, DecodeStatus::Malformed);
}

// ------------------------------------------------------------ connection id

TEST(Wire, ConnectionIdRoundtrip) {
  ShareFrame f;
  f.packet_id = 77;
  f.k = 3;
  f.share_index = 2;
  f.connection_id = 0xDEADBEEF;
  f.payload = {4, 5, 6};
  const auto bytes = encode(f);
  EXPECT_EQ(bytes.size(), kHeaderSize + kConnectionIdSize + 3);
  EXPECT_EQ(bytes[13], kFlagConnectionId);
  const auto back = decode(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, f);

  // Generation + connection id together: generation byte first, then the
  // 4 id bytes, per the header layout.
  f.generation = 9;
  const auto both = encode(f);
  EXPECT_EQ(both.size(), kHeaderSize + 1 + kConnectionIdSize + 3);
  EXPECT_EQ(both[13], kFlagGeneration | kFlagConnectionId);
  EXPECT_EQ(both[kHeaderSize], 9);
  const auto back2 = decode(both);
  ASSERT_TRUE(back2.has_value());
  EXPECT_EQ(*back2, f);

  // Authenticated: the tag covers the connection id, so flipping one of
  // its bytes must fail auth (a forged demux would misroute shares).
  const crypto::SipHashKey key{1, 2,  3,  4,  5,  6,  7,  8,
                               9, 10, 11, 12, 13, 14, 15, 16};
  auto tagged = encode(f, &key);
  ASSERT_TRUE(decode(tagged, &key).has_value());
  tagged[kHeaderSize + 1] ^= 0x01;  // first connection-id byte
  EXPECT_FALSE(decode(tagged, &key).has_value());
}

TEST(Wire, ConnectionZeroIsByteIdenticalToLegacyEncoding) {
  // Single-flow frames must not change on the wire just because the
  // session layer exists: connection 0 omits the field.
  ShareFrame f;
  f.packet_id = 5;
  f.k = 2;
  f.share_index = 1;
  f.payload = {0xAA, 0xBB};
  const auto bytes = encode(f);
  EXPECT_EQ(bytes.size(), kHeaderSize + 2);
  EXPECT_EQ(bytes[13], 0);  // no flag bits
  const auto back = decode(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->connection_id, 0u);
}

TEST(Wire, NonCanonicalConnectionZeroRejected) {
  // The flag set with a zero id would give one frame two encodings; the
  // canonical form omits the field, the other is refused.
  ShareFrame f;
  f.packet_id = 5;
  f.k = 2;
  f.share_index = 1;
  f.connection_id = 1;
  f.payload = {0xAA};
  auto bytes = encode(f);
  ASSERT_EQ(bytes[13], kFlagConnectionId);
  for (std::size_t i = 0; i < kConnectionIdSize; ++i) {
    bytes[kHeaderSize + i] = 0;  // id -> 0, flag still set
  }
  DecodeStatus status = DecodeStatus::Ok;
  EXPECT_FALSE(decode(bytes, nullptr, &status).has_value());
  EXPECT_EQ(status, DecodeStatus::Malformed);
}

TEST(Wire, FrameViewDecodesInPlace) {
  // The zero-copy path: the view's payload must be a span into the
  // caller's buffer, not a copy, with every header field intact.
  ShareFrame f;
  f.packet_id = 1234;
  f.k = 4;
  f.share_index = 6;
  f.generation = 2;
  f.connection_id = 42;
  f.payload = {10, 20, 30, 40, 50};
  const crypto::SipHashKey key{1, 2,  3,  4,  5,  6,  7,  8,
                               9, 10, 11, 12, 13, 14, 15, 16};
  for (const bool keyed : {false, true}) {
    const crypto::SipHashKey* kp = keyed ? &key : nullptr;
    const auto bytes = encode(f, kp);
    const auto view = decode_view(bytes, kp);
    ASSERT_TRUE(view.has_value()) << (keyed ? "keyed" : "unkeyed");
    EXPECT_EQ(view->packet_id, f.packet_id);
    EXPECT_EQ(view->k, f.k);
    EXPECT_EQ(view->share_index, f.share_index);
    EXPECT_EQ(view->generation, f.generation);
    EXPECT_EQ(view->connection_id, f.connection_id);
    ASSERT_EQ(view->payload.size(), f.payload.size());
    EXPECT_TRUE(std::equal(view->payload.begin(), view->payload.end(),
                           f.payload.begin()));
    // Zero-copy: the span aliases the encode buffer.
    EXPECT_GE(view->payload.data(), bytes.data());
    EXPECT_LE(view->payload.data() + view->payload.size(),
              bytes.data() + bytes.size());
  }
}

TEST(WirePrefix, ConnectionFramesConcatenate) {
  // Coalesced datagrams interleave flows: prefix parsing must walk
  // mixed-flow frames (cid, no cid, different cid) one at a time.
  auto f1 = sample_frame(30, 1, 4);
  f1.connection_id = 7;
  auto f2 = sample_frame(31, 2, 4);  // single-flow frame behind it
  auto f3 = sample_frame(32, 1, 4);
  f3.connection_id = 1000000;
  std::vector<std::uint8_t> buf = encode(f1);
  for (const ShareFrame* f : {&f2, &f3}) {
    const auto b = encode(*f);
    buf.insert(buf.end(), b.begin(), b.end());
  }

  std::span<const std::uint8_t> rest(buf);
  for (const ShareFrame* want : {&f1, &f2, &f3}) {
    std::size_t consumed = 0;
    const auto parsed = decode_prefix(rest, &consumed);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, *want);
    rest = rest.subspan(consumed);
  }
  EXPECT_TRUE(rest.empty());
}

TEST(WirePrefix, GenerationFramesConcatenate) {
  const auto f1 = [] {
    auto f = sample_frame(20, 1, 4);
    f.generation = 2;
    return f;
  }();
  const auto f2 = sample_frame(21, 2, 4);  // generation 0 behind it
  std::vector<std::uint8_t> buf = encode(f1);
  const std::size_t first_size = buf.size();
  const auto b2 = encode(f2);
  buf.insert(buf.end(), b2.begin(), b2.end());

  std::size_t consumed = 0;
  auto parsed = decode_prefix(buf, &consumed);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, f1);
  EXPECT_EQ(consumed, first_size);
  parsed = decode_prefix(std::span(buf).subspan(consumed), &consumed);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, f2);
}

// ------------------------------------------------------------ decode_prefix

TEST(WirePrefix, ConcatenatedFramesParseOneAtATime) {
  // Regression: a recv that coalesces two frames used to fail strict
  // decode() and drop both. decode_prefix walks the buffer frame by
  // frame.
  const auto f1 = sample_frame(10, 1, 5);
  const auto f2 = sample_frame(11, 2, 0);  // empty payload frame
  const auto f3 = sample_frame(12, 3, 300);
  std::vector<std::uint8_t> buf = encode(f1);
  const auto b2 = encode(f2);
  const auto b3 = encode(f3);
  buf.insert(buf.end(), b2.begin(), b2.end());
  buf.insert(buf.end(), b3.begin(), b3.end());

  std::span<const std::uint8_t> rest(buf);
  std::vector<ShareFrame> parsed;
  while (!rest.empty()) {
    std::size_t consumed = 0;
    DecodeStatus status = DecodeStatus::Ok;
    auto f = decode_prefix(rest, &consumed, nullptr, &status);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(status, DecodeStatus::Ok);
    ASSERT_GT(consumed, 0u);
    parsed.push_back(std::move(*f));
    rest = rest.subspan(consumed);
  }
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0], f1);
  EXPECT_EQ(parsed[1], f2);
  EXPECT_EQ(parsed[2], f3);
}

TEST(WirePrefix, TrailingJunkDoesNotPoisonTheFrame) {
  const auto f = sample_frame(77, 9, 16);
  auto buf = encode(f);
  const std::size_t frame_size = buf.size();
  buf.insert(buf.end(), {0xDE, 0xAD, 0xBE});  // padding / torn next frame

  std::size_t consumed = 0;
  const auto parsed = decode_prefix(buf, &consumed);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, f);
  EXPECT_EQ(consumed, frame_size);

  // Strict decode still refuses the same buffer (delegation preserved
  // the exact-size contract).
  DecodeStatus status = DecodeStatus::Ok;
  EXPECT_FALSE(decode(buf, nullptr, &status).has_value());
  EXPECT_EQ(status, DecodeStatus::Malformed);
}

TEST(WirePrefix, AuthenticatedFramesConcatenate) {
  const crypto::SipHashKey key{1, 2,  3,  4,  5,  6,  7,  8,
                               9, 10, 11, 12, 13, 14, 15, 16};
  const auto f1 = sample_frame(1, 1, 8);
  const auto f2 = sample_frame(2, 2, 8);
  std::vector<std::uint8_t> buf = encode(f1, &key);
  const std::size_t first_size = buf.size();
  const auto b2 = encode(f2, &key);
  buf.insert(buf.end(), b2.begin(), b2.end());

  std::size_t consumed = 0;
  DecodeStatus status = DecodeStatus::Ok;
  auto parsed = decode_prefix(buf, &consumed, &key, &status);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, f1);
  EXPECT_EQ(consumed, first_size);  // tag bytes counted as consumed
  EXPECT_EQ(status, DecodeStatus::Ok);

  // The tag covers only the first frame, so the concatenation must not
  // break authentication; and a flipped bit inside the first frame's
  // extent still fails even with a healthy second frame behind it.
  auto tampered = buf;
  tampered[kHeaderSize] ^= 0x01;
  EXPECT_FALSE(decode_prefix(tampered, &consumed, &key, &status).has_value());
  EXPECT_EQ(status, DecodeStatus::AuthFailed);
  EXPECT_EQ(consumed, 0u);
}

TEST(WirePrefix, MalformedHeadConsumesNothing) {
  std::vector<std::uint8_t> junk(64, 0x55);
  std::size_t consumed = 99;
  DecodeStatus status = DecodeStatus::Ok;
  EXPECT_FALSE(decode_prefix(junk, &consumed, nullptr, &status).has_value());
  EXPECT_EQ(consumed, 0u);
  EXPECT_EQ(status, DecodeStatus::Malformed);

  // A truncated frame (header promises more payload than the buffer
  // holds) is malformed, not a partial success.
  auto truncated = encode(sample_frame(5, 5, 100));
  truncated.resize(truncated.size() - 1);
  EXPECT_FALSE(decode_prefix(truncated, &consumed, nullptr, &status).has_value());
  EXPECT_EQ(consumed, 0u);
}

TEST(Wire, AckRoundtrip) {
  const AckFrame ack{0xDEADBEEFCAFEF00DULL, 5};
  const auto back = decode_ack(encode_ack(ack));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->packet_id, ack.packet_id);
  EXPECT_EQ(back->share_index, ack.share_index);
}

TEST(Wire, AckRejectsMalformed) {
  const auto good = encode_ack({1, 1});
  EXPECT_FALSE(decode_ack(std::vector<std::uint8_t>(5, 0)).has_value());
  auto bad = good;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(decode_ack(bad).has_value());
  bad = good;
  bad[10] = 0;  // zero index
  EXPECT_FALSE(decode_ack(bad).has_value());
  // A data frame is not an ack.
  ShareFrame f;
  f.packet_id = 1;
  f.k = 1;
  f.share_index = 1;
  EXPECT_FALSE(decode_ack(encode(f)).has_value());
}

// ---------------------------------------------------------------- dither

class DitherGridTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(DitherGridTest, AveragesConvergeAndInvariantsHold) {
  const auto [kappa, mu] = GetParam();
  KappaMuDither dither(kappa, mu, 5);
  double sum_k = 0, sum_m = 0;
  const int symbols = 100000;
  for (int i = 0; i < symbols; ++i) {
    const auto [k, m] = dither.next();
    ASSERT_GE(k, 1);
    ASSERT_LE(k, m);  // every individual symbol is a valid threshold scheme
    ASSERT_LE(m, 5);
    sum_k += k;
    sum_m += m;
  }
  EXPECT_NEAR(sum_k / symbols, kappa, 1e-4);
  EXPECT_NEAR(sum_m / symbols, mu, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    KappaMuGrid, DitherGridTest,
    ::testing::ValuesIn([] {
      std::vector<std::pair<double, double>> grid;
      for (double kappa = 1.0; kappa <= 5.0; kappa += 0.7) {
        for (double mu = kappa; mu <= 5.0; mu += 0.7) grid.emplace_back(kappa, mu);
      }
      grid.emplace_back(2.9, 3.2);  // frac(kappa) > frac(mu)
      grid.emplace_back(2.5, 2.7);
      grid.emplace_back(1.0, 5.0);
      grid.emplace_back(5.0, 5.0);
      grid.emplace_back(3.4, 3.4);  // the paper's anomalous neighborhood
      return grid;
    }()));

TEST(Dither, IntegerParametersAreConstant) {
  KappaMuDither dither(2.0, 4.0, 5);
  for (int i = 0; i < 100; ++i) {
    const auto [k, m] = dither.next();
    EXPECT_EQ(k, 2);
    EXPECT_EQ(m, 4);
  }
}

TEST(Dither, ShortRunConvergence) {
  // Largest-remainder dithering must be accurate even over tens of
  // symbols, not just asymptotically.
  KappaMuDither dither(1.5, 3.5, 5);
  double sum_k = 0, sum_m = 0;
  for (int i = 0; i < 40; ++i) {
    const auto [k, m] = dither.next();
    sum_k += k;
    sum_m += m;
  }
  EXPECT_NEAR(sum_k / 40, 1.5, 0.05);
  EXPECT_NEAR(sum_m / 40, 3.5, 0.05);
}

TEST(Dither, RejectsInvalidParameters) {
  EXPECT_THROW(KappaMuDither(0.5, 2.0, 5), PreconditionError);
  EXPECT_THROW(KappaMuDither(3.0, 2.0, 5), PreconditionError);
  EXPECT_THROW(KappaMuDither(2.0, 5.5, 5), PreconditionError);
}

TEST(Dither, IsDeterministic) {
  KappaMuDither a(2.3, 3.7, 5), b(2.3, 3.7, 5);
  for (int i = 0; i < 1000; ++i) {
    const auto pa = a.next();
    const auto pb = b.next();
    EXPECT_EQ(pa.k, pb.k);
    EXPECT_EQ(pa.m, pb.m);
  }
}

}  // namespace
}  // namespace mcss::proto
