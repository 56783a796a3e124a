// Tests for SipHash-2-4 and the authenticated wire mode, including
// end-to-end behavior over corrupting (Byzantine) channels.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "crypto/siphash.hpp"
#include "net/sim_channel.hpp"
#include "net/simulator.hpp"
#include "protocol/receiver.hpp"
#include "protocol/scheduler.hpp"
#include "protocol/sender.hpp"
#include "protocol/wire.hpp"
#include "util/ensure.hpp"
#include "util/rng.hpp"

namespace mcss {
namespace {

crypto::SipHashKey test_key() {
  crypto::SipHashKey key{};
  for (int i = 0; i < 16; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  return key;
}

// ---------------------------------------------------------------- SipHash

// The 64 vectors_sip64 entries of the reference implementation: key =
// 00 01 .. 0f, input i = the first i bytes of 00 01 02 ...
constexpr std::uint64_t kReferenceVectors[64] = {
      0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL, 0x0d6c8009d9a94f5aULL,
      0x85676696d7fb7e2dULL, 0xcf2794e0277187b7ULL, 0x18765564cd99a68dULL,
      0xcbc9466e58fee3ceULL, 0xab0200f58b01d137ULL, 0x93f5f5799a932462ULL,
      0x9e0082df0ba9e4b0ULL, 0x7a5dbbc594ddb9f3ULL, 0xf4b32f46226bada7ULL,
      0x751e8fbc860ee5fbULL, 0x14ea5627c0843d90ULL, 0xf723ca908e7af2eeULL,
      0xa129ca6149be45e5ULL, 0x3f2acc7f57c29bdbULL, 0x699ae9f52cbe4794ULL,
      0x4bc1b3f0968dd39cULL, 0xbb6dc91da77961bdULL, 0xbed65cf21aa2ee98ULL,
      0xd0f2cbb02e3b67c7ULL, 0x93536795e3a33e88ULL, 0xa80c038ccd5ccec8ULL,
      0xb8ad50c6f649af94ULL, 0xbce192de8a85b8eaULL, 0x17d835b85bbb15f3ULL,
      0x2f2e6163076bcfadULL, 0xde4daaaca71dc9a5ULL, 0xa6a2506687956571ULL,
      0xad87a3535c49ef28ULL, 0x32d892fad841c342ULL, 0x7127512f72f27cceULL,
      0xa7f32346f95978e3ULL, 0x12e0b01abb051238ULL, 0x15e034d40fa197aeULL,
      0x314dffbe0815a3b4ULL, 0x027990f029623981ULL, 0xcadcd4e59ef40c4dULL,
      0x9abfd8766a33735cULL, 0x0e3ea96b5304a7d0ULL, 0xad0c42d6fc585992ULL,
      0x187306c89bc215a9ULL, 0xd4a60abcf3792b95ULL, 0xf935451de4f21df2ULL,
      0xa9538f0419755787ULL, 0xdb9acddff56ca510ULL, 0xd06c98cd5c0975ebULL,
      0xe612a3cb9ecba951ULL, 0xc766e62cfcadaf96ULL, 0xee64435a9752fe72ULL,
      0xa192d576b245165aULL, 0x0a8787bf8ecb74b2ULL, 0x81b3e73d20b49b6fULL,
      0x7fa8220ba3b2eceaULL, 0x245731c13ca42499ULL, 0xb78dbfaf3a8d83bdULL,
      0xea1ad565322a1a0bULL, 0x60e61c23a3795013ULL, 0x6606d7e446282b93ULL,
      0x6ca4ecb15c5f91e1ULL, 0x9f626da15c9625f3ULL, 0xe51b38608ef25f57ULL,
      0x958a324ceb064572ULL,
};

TEST(SipHash, ReferenceVectors) {
  const auto key = test_key();
  std::vector<std::uint8_t> input;
  for (std::size_t n = 0; n < 64; ++n) {
    EXPECT_EQ(crypto::siphash24(input, key), kReferenceVectors[n])
        << "length " << n;
    input.push_back(static_cast<std::uint8_t>(n));
  }
}

// ------------------------------------------------ multi-lane SipHash tiers

class SipHashKernel : public ::testing::TestWithParam<crypto::Kernel> {
 protected:
  void SetUp() override {
    if (!crypto::kernel_supported(GetParam())) {
      GTEST_SKIP() << crypto::kernel_name(GetParam())
                   << " is not supported on this host";
    }
  }
};

TEST_P(SipHashKernel, MatchesScalarOnEveryLengthCountAndAlignment) {
  // Every length 0..2100 (each block count and tail size, past the
  // 1486-byte live frame), 1..9 messages per call (full groups of four,
  // padded groups of two and three, the scalar single), and start
  // pointers at every offset mod 8 — each lane its own bytes.
  const auto kernel = GetParam();
  Rng rng(77);
  auto key = test_key();
  rng.fill(key);
  constexpr std::size_t kMaxLen = 2100;
  constexpr std::size_t kMaxMsgs = 9;
  std::vector<std::uint8_t> pool(kMaxMsgs * (kMaxLen + 8));
  rng.fill(pool);
  const auto check = [&](std::size_t len, std::size_t count,
                         std::size_t misalign) {
    const std::uint8_t* msgs[kMaxMsgs];
    for (std::size_t i = 0; i < count; ++i) {
      msgs[i] = pool.data() + i * (kMaxLen + 8) + (misalign + i) % 8;
    }
    std::uint64_t out[kMaxMsgs];
    crypto::siphash24_many(kernel, {msgs, count}, len, key, {out, count});
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[i], crypto::siphash24({msgs[i], len}, key))
          << crypto::kernel_name(kernel) << " len " << len << " count "
          << count << " lane " << i << " misalign " << misalign;
    }
  };
  for (std::size_t len = 0; len <= kMaxLen; ++len) {
    check(len, 1 + len % kMaxMsgs, len % 8);
  }
  for (std::size_t count = 1; count <= kMaxMsgs; ++count) {
    constexpr std::size_t kLens[] = {0,  1,  7,  8,    9,    15,  16,
                                     63, 64, 65, 1486, 1487, 2100};
    for (const std::size_t len : kLens) {
      for (std::size_t misalign = 0; misalign < 8; ++misalign) {
        check(len, count, misalign);
      }
    }
  }
}

TEST_P(SipHashKernel, ReferenceVectorsThroughManyLanes) {
  // Each reference input hashed as every lane of a call, alongside the
  // other lanes, at counts that exercise full and padded groups.
  const auto kernel = GetParam();
  const auto key = test_key();
  std::vector<std::uint8_t> input(64);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::uint8_t>(i);
  }
  for (std::size_t len = 0; len < 64; ++len) {
    for (std::size_t count = 1; count <= 5; ++count) {
      std::vector<std::vector<std::uint8_t>> copies(count, input);
      std::vector<const std::uint8_t*> msgs;
      for (const auto& c : copies) msgs.push_back(c.data());
      std::vector<std::uint64_t> out(count);
      crypto::siphash24_many(kernel, msgs, len, key, out);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(out[i], kReferenceVectors[len])
            << crypto::kernel_name(kernel) << " len " << len << " count "
            << count << " lane " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, SipHashKernel,
    ::testing::Values(crypto::Kernel::Scalar, crypto::Kernel::Avx2),
    [](const ::testing::TestParamInfo<crypto::Kernel>& tier) {
      return std::string(crypto::kernel_name(tier.param));
    });

TEST(SipHash, DispatchReportsSupportedKernel) {
  EXPECT_TRUE(crypto::kernel_supported(crypto::Kernel::Scalar));
  EXPECT_TRUE(crypto::kernel_supported(crypto::active_kernel()));
  // The auto entry point agrees with the scalar reference.
  const auto key = test_key();
  const std::vector<std::uint8_t> a(100, 1);
  const std::vector<std::uint8_t> b(100, 2);
  const std::uint8_t* msgs[] = {a.data(), b.data()};
  std::uint64_t out[2];
  crypto::siphash24_many(msgs, 100, key, out);
  EXPECT_EQ(out[0], crypto::siphash24(a, key));
  EXPECT_EQ(out[1], crypto::siphash24(b, key));
}

TEST(SipHash, ManyRejectsShortOutputAndUnsupportedKernels) {
  const auto key = test_key();
  const std::vector<std::uint8_t> a(8, 1);
  const std::uint8_t* msgs[] = {a.data(), a.data()};
  std::uint64_t out[1];
  EXPECT_THROW(crypto::siphash24_many(msgs, 8, key, out), PreconditionError);
  if (!crypto::kernel_supported(crypto::Kernel::Avx2)) {
    std::uint64_t two[2];
    EXPECT_THROW(
        crypto::siphash24_many(crypto::Kernel::Avx2, msgs, 8, key, two),
        PreconditionError);
  }
}

TEST(SipHash, LongInputsAreStable) {
  // Multi-block inputs (> 8 bytes) exercise the block loop; determinism
  // and avalanche checked against a second computation.
  const auto key = test_key();
  std::vector<std::uint8_t> data(1000);
  Rng rng(1);
  for (auto& b : data) b = rng.byte();
  const auto h1 = crypto::siphash24(data, key);
  EXPECT_EQ(h1, crypto::siphash24(data, key));
  data[500] ^= 0x01;
  EXPECT_NE(h1, crypto::siphash24(data, key));
}

TEST(SipHash, KeySensitivity) {
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  auto k1 = test_key();
  auto k2 = test_key();
  k2[15] ^= 0x80;
  EXPECT_NE(crypto::siphash24(data, k1), crypto::siphash24(data, k2));
}

TEST(SipHash, AvalancheOnSingleBitFlips) {
  // Every single-bit flip of a 64-byte message must change the tag.
  const auto key = test_key();
  std::vector<std::uint8_t> data(64);
  Rng rng(2);
  for (auto& b : data) b = rng.byte();
  const auto baseline = crypto::siphash24(data, key);
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(crypto::siphash24(data, key), baseline) << "bit " << bit;
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

TEST(SipHash, TagHelpersRoundtrip) {
  const auto key = test_key();
  const std::vector<std::uint8_t> data{9, 8, 7};
  const auto tag = crypto::siphash24_tag(data, key);
  EXPECT_TRUE(crypto::tag_equal(tag, crypto::siphash24_tag(data, key)));
  auto other = tag;
  other[0] ^= 1;
  EXPECT_FALSE(crypto::tag_equal(tag, other));
  EXPECT_FALSE(crypto::tag_equal(tag, std::vector<std::uint8_t>{1, 2}));
}

// ---------------------------------------------------------------- wire auth

TEST(WireAuth, TaggedRoundtrip) {
  const auto key = test_key();
  proto::ShareFrame f;
  f.packet_id = 7;
  f.k = 2;
  f.share_index = 3;
  f.payload = {1, 2, 3, 4};
  const auto bytes = proto::encode(f, &key);
  EXPECT_EQ(bytes.size(), proto::kHeaderSize + 4 + proto::kTagSize);

  proto::DecodeStatus status;
  const auto back = proto::decode(bytes, &key, &status);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(status, proto::DecodeStatus::Ok);
  EXPECT_EQ(*back, f);
}

TEST(WireAuth, TamperedFrameFailsAuthentication) {
  const auto key = test_key();
  proto::ShareFrame f;
  f.packet_id = 7;
  f.k = 2;
  f.share_index = 3;
  f.payload = {1, 2, 3, 4};
  auto bytes = proto::encode(f, &key);

  for (const std::size_t at : {std::size_t{3},                   // header (k)
                               proto::kHeaderSize + 1,           // payload
                               bytes.size() - 1}) {              // tag itself
    auto tampered = bytes;
    tampered[at] ^= 0x40;
    proto::DecodeStatus status;
    EXPECT_FALSE(proto::decode(tampered, &key, &status).has_value()) << at;
    EXPECT_EQ(status, proto::DecodeStatus::AuthFailed) << at;
  }
}

TEST(WireAuth, KeyedReceiverRejectsUnauthenticatedFrames) {
  const auto key = test_key();
  proto::ShareFrame f;
  f.packet_id = 1;
  f.k = 1;
  f.share_index = 1;
  f.payload = {5};
  const auto plain = proto::encode(f);  // no tag
  proto::DecodeStatus status;
  EXPECT_FALSE(proto::decode(plain, &key, &status).has_value());
  EXPECT_EQ(status, proto::DecodeStatus::AuthFailed);
}

TEST(WireAuth, WrongKeyFailsAuthentication) {
  const auto key = test_key();
  auto wrong = key;
  wrong[0] ^= 1;
  proto::ShareFrame f;
  f.packet_id = 1;
  f.k = 1;
  f.share_index = 1;
  f.payload = {5};
  const auto bytes = proto::encode(f, &key);
  proto::DecodeStatus status;
  EXPECT_FALSE(proto::decode(bytes, &wrong, &status).has_value());
  EXPECT_EQ(status, proto::DecodeStatus::AuthFailed);
}

TEST(WireAuth, UnkeyedDecodeParsesTaggedFrame) {
  // Observation tooling without the key can still parse (not verify).
  const auto key = test_key();
  proto::ShareFrame f;
  f.packet_id = 1;
  f.k = 1;
  f.share_index = 1;
  f.payload = {5};
  const auto bytes = proto::encode(f, &key);
  const auto back = proto::decode(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->payload, f.payload);
}

TEST(WireAuth, BatchVerifyMatchesPerFrameAccounting) {
  // One receive batch through Receiver::on_frames must leave exactly the
  // state that feeding its frames one by one through on_frame leaves:
  // tampered and unauthenticated frames are auth failures, a malformed
  // remainder is malformed, a share of a finished packet is late, and
  // mixed body lengths (retransmission generations, several packet
  // sizes) hash in groups without mixing. More than one hashing window.
  const auto key = test_key();
  Rng rng(91);
  std::vector<std::vector<std::uint8_t>> frames;
  const auto share = [&](std::uint64_t id, std::uint8_t index,
                         std::size_t len, std::uint8_t generation) {
    proto::ShareFrame f;
    f.packet_id = id;
    f.k = 2;
    f.share_index = index;
    f.generation = generation;
    f.payload.resize(len);
    rng.fill(f.payload);
    return proto::encode(f, &key);
  };
  for (std::uint64_t id = 1; id <= 14; ++id) {
    const std::size_t len = id % 3 == 0 ? 1470 : (id % 3 == 1 ? 128 : 37);
    const auto generation = static_cast<std::uint8_t>(id % 4 == 0 ? 1 : 0);
    frames.push_back(share(id, 1, len, generation));
    frames.push_back(share(id, 2, len, generation));
    frames.push_back(share(id, 3, len, generation));  // late: k = 2
  }
  frames[4][proto::kHeaderSize + 9] ^= 0x20;  // tampered payload
  frames[10].back() ^= 0x01;                  // tampered tag
  {
    proto::ShareFrame plain;  // unauthenticated, to a keyed receiver
    plain.packet_id = 40;
    plain.k = 1;
    plain.share_index = 1;
    plain.payload = {1, 2, 3};
    frames.insert(frames.begin() + 7, proto::encode(plain));
  }
  // A malformed remainder, as UdpChannel forwards an undecodable tail.
  frames.push_back({0x4D, 0x52, 0x01, 0x02, 0xFF});
  ASSERT_GT(frames.size(), 32u);

  std::map<std::uint64_t, std::vector<std::uint8_t>> one_by_one;
  std::map<std::uint64_t, std::vector<std::uint8_t>> batched;
  net::Simulator sim;
  proto::ReceiverConfig rc;
  rc.auth_key = key;
  proto::Receiver single(sim, rc);
  single.set_deliver([&](std::uint64_t id, std::vector<std::uint8_t> p) {
    one_by_one[id] = std::move(p);
  });
  proto::Receiver batch(sim, rc);
  batch.set_deliver([&](std::uint64_t id, std::vector<std::uint8_t> p) {
    batched[id] = std::move(p);
  });

  std::vector<std::span<const std::uint8_t>> views;
  for (const auto& f : frames) {
    single.on_frame(std::span<const std::uint8_t>(f));
    views.emplace_back(f);
  }
  batch.on_frames(views);

  const auto& a = single.stats();
  const auto& b = batch.stats();
  EXPECT_EQ(b.frames_received, a.frames_received);
  EXPECT_EQ(b.auth_failures, a.auth_failures);
  EXPECT_EQ(b.malformed_frames, a.malformed_frames);
  EXPECT_EQ(b.late_shares, a.late_shares);
  EXPECT_EQ(b.duplicate_shares, a.duplicate_shares);
  EXPECT_EQ(b.packets_delivered, a.packets_delivered);
  EXPECT_EQ(batched, one_by_one);
  // The batch really held each kind of frame.
  EXPECT_EQ(a.auth_failures, 3u);
  EXPECT_EQ(a.malformed_frames, 1u);
  EXPECT_GT(a.late_shares, 0u);
  EXPECT_EQ(a.packets_delivered, 14u);
}

// ------------------------------------------------- end to end, Byzantine

struct AuthTestbed {
  net::Simulator sim;
  std::vector<std::unique_ptr<net::SimChannel>> channels;
  std::unique_ptr<proto::Receiver> receiver;
  std::unique_ptr<proto::Sender> sender;
  std::map<std::uint64_t, std::vector<std::uint8_t>> delivered;

  AuthTestbed(double corrupt_prob, bool keyed) {
    Rng seeder(11);
    std::vector<net::SimChannel*> raw;
    for (int i = 0; i < 5; ++i) {
      net::ChannelConfig cfg;
      cfg.rate_bps = 100e6;
      cfg.corrupt = corrupt_prob;
      channels.push_back(std::make_unique<net::SimChannel>(sim, cfg, seeder.fork()));
      raw.push_back(channels.back().get());
    }
    proto::ReceiverConfig rx_cfg;
    proto::SenderConfig tx_cfg;
    if (keyed) {
      rx_cfg.auth_key = test_key();
      tx_cfg.auth_key = test_key();
    }
    receiver = std::make_unique<proto::Receiver>(sim, rx_cfg);
    for (auto* ch : raw) receiver->attach(*ch);
    receiver->set_deliver([this](std::uint64_t id, std::vector<std::uint8_t> p) {
      delivered[id] = std::move(p);
    });
    sender = std::make_unique<proto::Sender>(
        sim, raw, std::make_unique<proto::DynamicScheduler>(2.0, 4.0, 5),
        seeder.fork(), nullptr, tx_cfg);
  }
};

std::vector<std::uint8_t> marked_payload(int i) {
  std::vector<std::uint8_t> p(600);
  for (std::size_t j = 0; j < p.size(); ++j) {
    p[j] = static_cast<std::uint8_t>(i * 7 + static_cast<int>(j));
  }
  return p;
}

TEST(WireAuth, CorruptionSilentlyPoisonsUnauthenticatedPackets) {
  // Without authentication, a corrupted share reconstructs to garbage
  // with NO error: at least one delivered payload differs from what was
  // sent. This is the failure mode the authenticated mode exists for.
  AuthTestbed t(/*corrupt_prob=*/0.05, /*keyed=*/false);
  const int count = 400;
  for (int i = 0; i < count; ++i) {
    t.sim.schedule_at(net::from_micros(static_cast<double>(i) * 300),
                      [&t, i] { (void)t.sender->send(marked_payload(i)); });
  }
  t.sim.run();
  int poisoned = 0;
  for (const auto& [id, payload] : t.delivered) {
    if (payload != marked_payload(static_cast<int>(id) - 1)) ++poisoned;
  }
  EXPECT_GT(poisoned, 0);
  EXPECT_EQ(t.receiver->stats().auth_failures, 0u);
}

TEST(WireAuth, AuthenticationQuarantinesCorruptedShares) {
  // Same Byzantine network, keyed endpoints: every delivered packet is
  // intact; corrupted shares are counted and dropped, and packets whose
  // surviving share count fell below k are lost, not poisoned.
  AuthTestbed t(/*corrupt_prob=*/0.05, /*keyed=*/true);
  const int count = 400;
  for (int i = 0; i < count; ++i) {
    t.sim.schedule_at(net::from_micros(static_cast<double>(i) * 300),
                      [&t, i] { (void)t.sender->send(marked_payload(i)); });
  }
  t.sim.run();
  EXPECT_GT(t.receiver->stats().auth_failures, 0u);
  for (const auto& [id, payload] : t.delivered) {
    ASSERT_EQ(payload, marked_payload(static_cast<int>(id) - 1)) << id;
  }
  // k=2, m=4 tolerates two corrupted shares per packet: most packets
  // still make it.
  EXPECT_GT(t.delivered.size(), static_cast<std::size_t>(count) * 9 / 10);
}

TEST(WireAuth, KeyMismatchDeliversNothing) {
  AuthTestbed t(0.0, /*keyed=*/true);
  // Rewire the receiver with a different key.
  proto::ReceiverConfig rx_cfg;
  auto other = test_key();
  other[7] ^= 0xFF;
  rx_cfg.auth_key = other;
  auto fresh = std::make_unique<proto::Receiver>(t.sim, rx_cfg);
  for (auto& ch : t.channels) fresh->attach(*ch);
  int delivered = 0;
  fresh->set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) { ++delivered; });
  for (int i = 0; i < 20; ++i) {
    (void)t.sender->send(marked_payload(i));
  }
  t.sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_GT(fresh->stats().auth_failures, 0u);
}

}  // namespace
}  // namespace mcss
