// Live transport tests: timer wheel, poller backends, sockets, the
// userspace impairment shim, and end-to-end LiveEndpoint runs — all on
// unprivileged loopback, no netem, no fixed ports (everything binds
// ephemeral so suites can run in parallel).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <cstring>
#include <new>
#include <unordered_map>
#include <vector>

#include "net/sim_channel.hpp"
#include "net/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocol/receiver.hpp"
#include "protocol/wire.hpp"
#include "sss/shamir.hpp"
#include "transport/frame_pool.hpp"
#include "transport/impairment.hpp"
#include "transport/live_endpoint.hpp"
#include "transport/poller.hpp"
#include "transport/timer_wheel.hpp"
#include "transport/udp_channel.hpp"
#include "transport/udp_socket.hpp"
#include "transport/uring_poller.hpp"
#include "transport/wall_clock.hpp"
#include "util/ensure.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

// ---- allocation-counting hook ----------------------------------------
//
// Replacing the global allocator is binary-wide, so counting is gated on
// a flag that SteadyStateFastPathDoesNotAllocateAfterWarmup flips around
// its measured region. Everything else pays one relaxed load per new.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// noinline keeps GCC from pairing an inlined free() against new
// expressions elsewhere and warning about a mismatch that is not one
// (this new IS malloc-based).
#define MCSS_TEST_NOINLINE __attribute__((noinline))

MCSS_TEST_NOINLINE void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
MCSS_TEST_NOINLINE void* operator new[](std::size_t size) {
  return ::operator new(size);
}
MCSS_TEST_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
MCSS_TEST_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
MCSS_TEST_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
MCSS_TEST_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mcss::transport {
namespace {

using net::ChannelConfig;

/// Pool-backed frame full of `fill`. Tests size their pools so that
/// acquisition cannot fail.
FrameRef make_frame(FramePool& pool, std::size_t size, std::uint8_t fill) {
  FrameRef f = pool.acquire();
  MCSS_ENSURE(f, "test pool exhausted");
  f.resize(size);
  std::memset(f.data(), fill, size);
  return f;
}

// ---------------------------------------------------------------- wheel

TEST(TimerWheel, FiresInDeadlineOrderWithTiesInScheduleOrder) {
  TimerWheel wheel(1'000'000, 16);
  wheel.advance(0);
  std::vector<int> order;
  wheel.schedule_at(5'000'000, [&] { order.push_back(1); });
  wheel.schedule_at(3'000'000, [&] { order.push_back(2); });
  wheel.schedule_at(5'000'000, [&] { order.push_back(3); });
  EXPECT_EQ(wheel.pending(), 3u);
  EXPECT_EQ(wheel.advance(10'000'000), 3u);
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, PastDeadlineFiresOnNextAdvance) {
  TimerWheel wheel(1'000'000, 16);
  wheel.advance(10'000'000);
  bool fired = false;
  wheel.schedule_at(1'000'000, [&] { fired = true; });  // long past
  EXPECT_EQ(wheel.advance(10'000'000), 1u);
  EXPECT_TRUE(fired);
}

TEST(TimerWheel, LaterRotationsWaitTheirTurn) {
  // 4 slots of 1 ms = 4 ms per rotation; a 10 ms timer shares slot 2 with
  // tick 2 and must survive two early passes over that slot.
  TimerWheel wheel(1'000'000, 4);
  wheel.advance(0);
  int fired = 0;
  wheel.schedule_at(10'000'000, [&] { ++fired; });
  EXPECT_EQ(wheel.advance(2'000'000), 0u);
  EXPECT_EQ(wheel.advance(6'000'000), 0u);
  EXPECT_EQ(wheel.advance(10'000'000), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, LaterDeadlineInTheSameTickIsNotStranded) {
  // Two timers inside one 1 ms tick; servicing the first must not carry
  // the wheel past the tick and orphan the second for a full rotation.
  TimerWheel wheel(1'000'000, 8);
  wheel.advance(0);
  std::vector<int> order;
  wheel.schedule_at(100'000, [&] { order.push_back(1); });
  wheel.schedule_at(900'000, [&] { order.push_back(2); });
  EXPECT_EQ(wheel.advance(500'000), 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(wheel.advance(950'000), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerWheel, CallbackScheduledDueTimerFiresWithinTheSameAdvance) {
  TimerWheel wheel(1'000'000, 8);
  wheel.advance(0);
  bool chained = false;
  wheel.schedule_at(2'000'000, [&] {
    wheel.schedule_at(3'000'000, [&] { chained = true; });  // already due
  });
  EXPECT_EQ(wheel.advance(5'000'000), 2u);
  EXPECT_TRUE(chained);
}

TEST(TimerWheel, NextDeadlineIsExact) {
  TimerWheel wheel(1'000'000, 8);
  wheel.advance(0);
  EXPECT_FALSE(wheel.next_deadline().has_value());
  wheel.schedule_at(7'300'000, [] {});
  wheel.schedule_at(2'100'000, [] {});
  ASSERT_TRUE(wheel.next_deadline().has_value());
  EXPECT_EQ(*wheel.next_deadline(), 2'100'000);
  wheel.advance(3'000'000);
  EXPECT_EQ(*wheel.next_deadline(), 7'300'000);
}

TEST(TimerWheel, CancelPreventsFiringAndIsIdempotent) {
  TimerWheel wheel(1'000'000, 8);
  wheel.advance(0);
  bool fired = false;
  const auto id = wheel.schedule_at(2'000'000, [&] { fired = true; });
  EXPECT_NE(id, TimerWheel::kNoTimer);
  EXPECT_EQ(wheel.pending(), 1u);
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_FALSE(wheel.next_deadline().has_value());
  EXPECT_EQ(wheel.advance(5'000'000), 0u);
  EXPECT_FALSE(fired);
  // Double-cancel, cancel-after-fire, and garbage ids are safe no-ops.
  EXPECT_FALSE(wheel.cancel(id));
  const auto id2 = wheel.schedule_at(6'000'000, [] {});
  wheel.advance(7'000'000);
  EXPECT_FALSE(wheel.cancel(id2));
  EXPECT_FALSE(wheel.cancel(12345));
  EXPECT_FALSE(wheel.cancel(TimerWheel::kNoTimer));
}

TEST(TimerWheel, CancelledTimerDoesNotMaskLaterDeadlines) {
  // next_deadline() must not report a cancelled timer's deadline: the
  // pump loop would wake early and fire nothing.
  TimerWheel wheel(1'000'000, 8);
  wheel.advance(0);
  const auto early = wheel.schedule_at(2'000'000, [] {});
  int fired = 0;
  wheel.schedule_at(5'000'000, [&] { ++fired; });
  EXPECT_TRUE(wheel.cancel(early));
  ASSERT_TRUE(wheel.next_deadline().has_value());
  EXPECT_EQ(*wheel.next_deadline(), 5'000'000);
  EXPECT_EQ(wheel.advance(5'000'000), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, TeardownBetweenArmAndFireDoesNotTouchFreedState) {
  // Regression (ISSUE 7): a flow torn down with a pending retransmit
  // timer left the callback to fire against freed per-flow state. The
  // callback below dereferences the flow's memory — without cancel()
  // this test dies under ASan as heap-use-after-free.
  TimerWheel wheel(1'000'000, 8);
  wheel.advance(0);
  struct FlowState {
    int rto_count = 0;
  };
  auto flow = std::make_unique<FlowState>();
  FlowState* raw = flow.get();
  const auto id = wheel.schedule_at(2'000'000, [raw] { ++raw->rto_count; });
  // Teardown: free the flow, cancel its armed timer.
  flow.reset();
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_EQ(wheel.advance(10'000'000), 0u);
}

TEST(TimerWheel, CancelFromCallbackSuppressesLaterEntryInSameBatch) {
  // Both timers are due in ONE advance(): the first callback tears the
  // "flow" down and cancels the second timer, which advance() has
  // already pulled into its due batch. The second callback must not run
  // (it touches the freed state — ASan-visible without the fix).
  TimerWheel wheel(1'000'000, 8);
  wheel.advance(0);
  auto flow = std::make_unique<int>(0);
  int* raw = flow.get();
  TimerWheel::TimerId second = TimerWheel::kNoTimer;
  wheel.schedule_at(2'000'000, [&] {
    flow.reset();
    EXPECT_TRUE(wheel.cancel(second));
  });
  second = wheel.schedule_at(3'000'000, [raw] { *raw = 99; });
  EXPECT_EQ(wheel.advance(5'000'000), 1u);  // only the teardown fired
  EXPECT_EQ(wheel.pending(), 0u);
}

// --------------------------------------------------------------- poller

TEST(TimerWheel, FiredBurstsGiveTheirSlotMemoryBack) {
  // One burst per tick over more than a rotation, as a pump at a high
  // packet rate produces: the wheel must not keep every slot sized for
  // its largest burst.
  TimerWheel wheel(1'000, 64);
  wheel.advance(0);
  int fired = 0;
  for (std::int64_t tick = 0; tick < 200; ++tick) {
    for (int i = 0; i < 500; ++i) {
      wheel.schedule_at(tick * 1'000 + 10, [&fired] { ++fired; });
    }
    wheel.advance(tick * 1'000 + 500);
  }
  EXPECT_EQ(fired, 200 * 500);
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_LE(wheel.slot_capacity(), 64 * TimerWheel::kSlotKeep);
}

TEST(TimerWheel, NextDeadlineMatchesExhaustiveScanUnderRandomOps) {
  // A model of the pending set (id -> deadline) is the exhaustive scan.
  // Random schedules (past, this tick, within a rotation, several
  // rotations out), cancels and advances (small steps and jumps past a
  // rotation) on a small wheel, checked after every operation.
  constexpr std::int64_t kTick = 1'000;
  constexpr std::size_t kSlots = 16;
  constexpr std::int64_t kRotation = kTick * static_cast<std::int64_t>(kSlots);
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    TimerWheel wheel(kTick, kSlots);
    std::int64_t now = 1'000'000 + trial * 337;
    wheel.advance(now);
    std::map<TimerWheel::TimerId, std::int64_t> pending;
    std::vector<TimerWheel::TimerId> ids;
    for (int op = 0; op < 1500; ++op) {
      const std::uint64_t kind = rng.uniform_int(10);
      if (kind < 5) {
        std::int64_t offset = 0;
        switch (rng.uniform_int(4)) {
          case 0:
            offset = -static_cast<std::int64_t>(rng.uniform_int(3 * kTick));
            break;
          case 1:
            offset = static_cast<std::int64_t>(rng.uniform_int(kTick));
            break;
          case 2:
            offset = static_cast<std::int64_t>(rng.uniform_int(kRotation));
            break;
          default:
            offset = static_cast<std::int64_t>(rng.uniform_int(4 * kRotation));
            break;
        }
        const std::int64_t deadline = std::max<std::int64_t>(0, now + offset);
        auto id = std::make_shared<TimerWheel::TimerId>(0);
        *id = wheel.schedule_at(deadline, [&pending, id] {
          ASSERT_EQ(pending.erase(*id), 1u);
        });
        pending[*id] = deadline;
        ids.push_back(*id);
      } else if (kind < 7 && !ids.empty()) {
        const TimerWheel::TimerId id = ids[rng.uniform_int(ids.size())];
        const bool was_pending = pending.erase(id) == 1;
        EXPECT_EQ(wheel.cancel(id), was_pending);
      } else {
        now += rng.uniform_int(10) == 0
                   ? static_cast<std::int64_t>(rng.uniform_int(3 * kRotation))
                   : static_cast<std::int64_t>(rng.uniform_int(3 * kTick));
        wheel.advance(now);
      }
      std::optional<std::int64_t> expected;
      for (const auto& [id, deadline] : pending) {
        if (!expected || deadline < *expected) expected = deadline;
      }
      ASSERT_EQ(wheel.pending(), pending.size());
      ASSERT_EQ(wheel.next_deadline(), expected)
          << "trial " << trial << " op " << op;
    }
  }
}

class PollerBackends : public ::testing::TestWithParam<Poller::Backend> {};

TEST_P(PollerBackends, ReportsReadinessAndHonorsInterest) {
  Poller poller(GetParam());
  UdpSocket rx = UdpSocket::bound_loopback(0);
  UdpSocket tx = UdpSocket::bound_loopback(0);
  tx.connect_loopback(rx.local_port());

  poller.add(rx.fd(), /*want_read=*/true, /*want_write=*/false);
  std::vector<Poller::Event> events;
  EXPECT_EQ(poller.wait(0, events), 0u);  // nothing queued yet

  const std::vector<std::uint8_t> ping{1, 2, 3};
  ASSERT_EQ(tx.send(ping), UdpSocket::IoResult::Ok);
  // Loopback delivery is immediate, but give the kernel a timeout anyway.
  ASSERT_EQ(poller.wait(1000, events), 1u);
  EXPECT_EQ(events[0].fd, rx.fd());
  EXPECT_TRUE(events[0].readable);
  EXPECT_FALSE(events[0].writable);

  // A UDP socket with write interest is immediately writable.
  poller.modify(rx.fd(), /*want_read=*/true, /*want_write=*/true);
  ASSERT_GE(poller.wait(1000, events), 1u);
  EXPECT_TRUE(events[0].writable);

  poller.remove(rx.fd());
  std::uint8_t buf[16];
  std::size_t n = 0;
  ASSERT_EQ(rx.recv(buf, &n), UdpSocket::IoResult::Ok);
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(poller.wait(0, events), 0u);
}

// The uring leg exercises the io_uring backend where the kernel provides
// one; where it does not, Poller falls back (with a logged reason) and
// the leg degenerates into a second epoll run — still a valid check of
// the fallback contract.
INSTANTIATE_TEST_SUITE_P(Backends, PollerBackends,
                         ::testing::Values(Poller::Backend::Epoll,
                                           Poller::Backend::Poll,
                                           Poller::Backend::Uring),
                         [](const auto& param_info) -> std::string {
                           switch (param_info.param) {
                             case Poller::Backend::Epoll:
                               return "epoll";
                             case Poller::Backend::Poll:
                               return "poll";
                             case Poller::Backend::Uring:
                               return "uring";
                           }
                           return "unknown";
                         });

TEST(Poller, EnvSelectsEachBackendAndFallsBackToEpoll) {
  ASSERT_EQ(::setenv("MCSS_LIVE_POLLER", "poll", 1), 0);
  EXPECT_EQ(Poller::default_backend(), Poller::Backend::Poll);
  ASSERT_EQ(::setenv("MCSS_LIVE_POLLER", "uring", 1), 0);
  EXPECT_EQ(Poller::default_backend(), Poller::Backend::Uring);
  ASSERT_EQ(::setenv("MCSS_LIVE_POLLER", "epoll", 1), 0);
  EXPECT_EQ(Poller::default_backend(), Poller::Backend::Epoll);
  ASSERT_EQ(::unsetenv("MCSS_LIVE_POLLER"), 0);
  EXPECT_EQ(Poller::default_backend(), Poller::Backend::Epoll);
}

TEST(Poller, UringRequestFallsBackGracefullyWhenUnsupported) {
  Poller poller(Poller::Backend::Uring);
  if (UringCore::supported()) {
    EXPECT_EQ(poller.backend(), Poller::Backend::Uring);
  } else {
    // The constructor must not throw; it logs and degrades.
    EXPECT_NE(poller.backend(), Poller::Backend::Uring);
  }
  // Whatever it resolved to must actually poll.
  UdpSocket rx = UdpSocket::bound_loopback(0);
  UdpSocket tx = UdpSocket::bound_loopback(0);
  tx.connect_loopback(rx.local_port());
  poller.add(rx.fd(), /*want_read=*/true, /*want_write=*/false);
  ASSERT_EQ(tx.send(std::vector<std::uint8_t>{1}), UdpSocket::IoResult::Ok);
  std::vector<Poller::Event> events;
  ASSERT_EQ(poller.wait(1000, events), 1u);
  EXPECT_TRUE(events[0].readable);
  EXPECT_GT(poller.wait_calls(), 0u);
}

// --------------------------------------------------------------- socket

TEST(UdpSocket, RoundTripAndDrainToWouldBlock) {
  UdpSocket rx = UdpSocket::bound_loopback(0);
  UdpSocket tx = UdpSocket::bound_loopback(0);
  tx.connect_loopback(rx.local_port());

  const std::vector<std::uint8_t> msg{9, 8, 7, 6};
  ASSERT_EQ(tx.send(msg), UdpSocket::IoResult::Ok);
  std::uint8_t buf[64];
  std::size_t n = 0;
  // recv may race loopback delivery; retry briefly.
  UdpSocket::IoResult r = UdpSocket::IoResult::WouldBlock;
  for (int i = 0; i < 1000 && r == UdpSocket::IoResult::WouldBlock; ++i) {
    r = rx.recv(buf, &n);
  }
  ASSERT_EQ(r, UdpSocket::IoResult::Ok);
  EXPECT_EQ(n, 4u);
  EXPECT_TRUE(std::equal(msg.begin(), msg.end(), buf));
  EXPECT_EQ(rx.recv(buf, &n), UdpSocket::IoResult::WouldBlock);
}

TEST(UdpSocket, InjectedWouldBlockIsDeterministic) {
  UdpSocket rx = UdpSocket::bound_loopback(0);
  UdpSocket tx = UdpSocket::bound_loopback(0);
  tx.connect_loopback(rx.local_port());
  tx.inject_wouldblock(2);
  const std::vector<std::uint8_t> msg{1};
  EXPECT_EQ(tx.send(msg), UdpSocket::IoResult::WouldBlock);
  EXPECT_EQ(tx.send(msg), UdpSocket::IoResult::WouldBlock);
  EXPECT_EQ(tx.send(msg), UdpSocket::IoResult::Ok);
}

TEST(UdpSocket, SendManyRecvManyMoveWholeBatchesInOneSyscallEach) {
  UdpSocket rx = UdpSocket::bound_loopback(0);
  UdpSocket tx = UdpSocket::bound_loopback(0);
  tx.connect_loopback(rx.local_port());

  // Three distinct datagrams, one sendmmsg.
  std::array<std::array<std::uint8_t, 8>, 3> out;
  std::array<iovec, 3> out_iov;
  std::array<mmsghdr, 3> out_msgs{};
  for (std::size_t i = 0; i < 3; ++i) {
    out[i].fill(static_cast<std::uint8_t>(0x40 + i));
    out_iov[i] = {out[i].data(), out[i].size()};
    out_msgs[i].msg_hdr.msg_iov = &out_iov[i];
    out_msgs[i].msg_hdr.msg_iovlen = 1;
  }
  const auto sent = tx.send_many(out_msgs);
  ASSERT_EQ(sent.result, UdpSocket::IoResult::Ok);
  EXPECT_EQ(sent.completed, 3u);
  EXPECT_EQ(tx.syscalls_send(), 1u);
  for (const auto& m : out_msgs) EXPECT_EQ(m.msg_len, 8u);

  // Drain with recvmmsg into four slots; loopback may deliver in pieces,
  // so accumulate until all three arrive.
  std::array<std::array<std::uint8_t, 64>, 4> in;
  std::array<iovec, 4> in_iov;
  std::array<mmsghdr, 4> in_msgs{};
  for (std::size_t i = 0; i < 4; ++i) {
    in_iov[i] = {in[i].data(), in[i].size()};
    in_msgs[i].msg_hdr.msg_iov = &in_iov[i];
    in_msgs[i].msg_hdr.msg_iovlen = 1;
  }
  std::vector<std::uint8_t> first_bytes;
  for (int spins = 0; spins < 5000 && first_bytes.size() < 3; ++spins) {
    const auto got = rx.recv_many(in_msgs);
    if (got.result != UdpSocket::IoResult::Ok) continue;
    for (unsigned i = 0; i < got.completed; ++i) {
      ASSERT_EQ(in_msgs[i].msg_len, 8u);
      first_bytes.push_back(in[i][0]);
    }
  }
  std::sort(first_bytes.begin(), first_bytes.end());
  EXPECT_EQ(first_bytes, (std::vector<std::uint8_t>{0x40, 0x41, 0x42}));
  EXPECT_GT(rx.syscalls_recv(), 0u);
}

TEST(UdpSocket, InjectedAcceptLimitShortensOneBatch) {
  UdpSocket rx = UdpSocket::bound_loopback(0);
  UdpSocket tx = UdpSocket::bound_loopback(0);
  tx.connect_loopback(rx.local_port());
  std::array<std::uint8_t, 4> payload{1, 2, 3, 4};
  std::array<iovec, 3> iov;
  std::array<mmsghdr, 3> msgs{};
  for (std::size_t i = 0; i < 3; ++i) {
    iov[i] = {payload.data(), payload.size()};
    msgs[i].msg_hdr.msg_iov = &iov[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  tx.inject_accept_limit(2);
  auto batch = tx.send_many(msgs);
  EXPECT_EQ(batch.result, UdpSocket::IoResult::Ok);
  EXPECT_EQ(batch.completed, 2u);  // kernel "took" only the head
  batch = tx.send_many(msgs);      // hook is one-shot
  EXPECT_EQ(batch.result, UdpSocket::IoResult::Ok);
  EXPECT_EQ(batch.completed, 3u);
}

// ----------------------------------------------------------- frame pool

TEST(FramePool, AcquireRecycleAndHighWater) {
  FramePool pool(256, 4);
  EXPECT_EQ(pool.capacity(), 4u);
  EXPECT_EQ(pool.available(), 4u);
  {
    FrameRef a = pool.acquire();
    FrameRef b = pool.acquire();
    ASSERT_TRUE(a);
    ASSERT_TRUE(b);
    EXPECT_NE(a.slot(), b.slot());
    a.resize(100);
    EXPECT_EQ(a.size(), 100u);
    EXPECT_EQ(pool.in_use(), 2u);
  }
  // Both refs dropped: slots recycled, high-water remembers the peak.
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.available(), 4u);
  EXPECT_EQ(pool.stats().acquired, 2u);
  EXPECT_EQ(pool.stats().high_water, 2u);
  // Data pointers are arena-stable: reacquiring reuses the same memory.
  FrameRef c = pool.acquire();
  ASSERT_TRUE(c);
  EXPECT_GE(c.data(), pool.arena_data());
  EXPECT_LT(c.data(), pool.arena_data() + pool.arena_bytes());
}

TEST(FramePool, CopiesShareTheSlotUntilTheLastRefDrops) {
  FramePool pool(128, 2);
  FrameRef a = pool.acquire();
  ASSERT_TRUE(a);
  a.resize(5);
  std::memcpy(a.data(), "hello", 5);
  FrameRef b = a;  // refcount bump, same slot
  EXPECT_EQ(pool.in_use(), 1u);
  EXPECT_EQ(a.data(), b.data());
  a.reset();
  EXPECT_EQ(pool.in_use(), 1u) << "slot must survive the first release";
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(std::memcmp(b.data(), "hello", 5), 0);
  b.reset();
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(FramePool, ExhaustionReturnsNullAndCounts) {
  FramePool pool(64, 2);
  FrameRef a = pool.acquire();
  FrameRef b = pool.acquire();
  ASSERT_TRUE(a && b);
  FrameRef c = pool.acquire();
  EXPECT_FALSE(c);
  EXPECT_EQ(pool.stats().exhausted, 1u);
  // Oversize copies can never be pooled; same degrade, same stat.
  const std::vector<std::uint8_t> big(65, 0xAA);
  a.reset();
  EXPECT_FALSE(pool.acquire_copy(big));
  EXPECT_EQ(pool.stats().exhausted, 2u);
  // A fitting copy lands byte-for-byte.
  const std::vector<std::uint8_t> ok(64, 0xBB);
  FrameRef d = pool.acquire_copy(ok);
  ASSERT_TRUE(d);
  EXPECT_EQ(d.size(), 64u);
  EXPECT_TRUE(std::equal(ok.begin(), ok.end(), d.data()));
}

// ----------------------------------------------------------- impairment

/// Steps the wheel in `step_ns` increments up to `until_ns`, recording the
/// advance-time at which each release lands.
struct ReleaseRecorder {
  std::vector<std::int64_t> at;
  std::int64_t now = 0;
  void step(TimerWheel& wheel, std::int64_t until_ns, std::int64_t step_ns) {
    for (; now <= until_ns; now += step_ns) wheel.advance(now);
  }
};

TEST(Impairment, PacesFramesAtTheConfiguredRate) {
  TimerWheel wheel(100'000, 64);
  wheel.advance(0);
  ChannelConfig cfg;
  cfg.rate_bps = 8e6;  // 1000 bytes = 1 ms on the serializer
  cfg.delay = 0;
  ReleaseRecorder rec;
  FramePool pool(2048, 8);
  Impairment impair(cfg, Rng(1), wheel,
                    [&](FrameRef, std::int64_t) { rec.at.push_back(rec.now); });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(impair.offer(make_frame(pool, 1000, 0xAB), 0));
  }
  EXPECT_EQ(impair.backlog_ns(0), 5'000'000);
  rec.step(wheel, 10'000'000, 50'000);
  ASSERT_EQ(rec.at.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    const std::int64_t expected = (i + 1) * 1'000'000;
    EXPECT_NEAR(static_cast<double>(rec.at[static_cast<std::size_t>(i)]),
                static_cast<double>(expected), 200'000.0)
        << "frame " << i;
  }
  EXPECT_EQ(impair.stats().frames_delivered, 5u);
  EXPECT_EQ(impair.backlog_ns(10'000'000), 0);
}

TEST(Impairment, DelayPlusJitterStaysInBounds) {
  TimerWheel wheel(100'000, 256);
  wheel.advance(0);
  ChannelConfig cfg;
  cfg.rate_bps = 1e12;  // serialization ~ 0
  cfg.delay = 5'000'000;
  cfg.jitter = 2'000'000;
  cfg.queue_capacity_bytes = 1 << 20;
  ReleaseRecorder rec;
  FramePool pool(256, 128);
  Impairment impair(cfg, Rng(7), wheel,
                    [&](FrameRef, std::int64_t) { rec.at.push_back(rec.now); });
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(impair.offer(make_frame(pool, 64, 1), 0));
  }
  rec.step(wheel, 9'000'000, 50'000);
  ASSERT_EQ(rec.at.size(), 100u);
  const auto [lo, hi] = std::minmax_element(rec.at.begin(), rec.at.end());
  EXPECT_GE(*lo, 5'000'000);
  EXPECT_LE(*hi, 7'000'000 + 200'000);
  EXPECT_GT(*hi - *lo, 500'000) << "jitter should actually spread releases";
}

TEST(Impairment, TailDropsAndReadyWatermark) {
  TimerWheel wheel;
  wheel.advance(0);
  ChannelConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.queue_capacity_bytes = 3000;  // watermark defaults to 1500
  int released = 0;
  FramePool pool(2048, 8);
  Impairment impair(cfg, Rng(1), wheel,
                    [&](FrameRef, std::int64_t) { ++released; });
  EXPECT_TRUE(impair.ready());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(impair.offer(make_frame(pool, 1000, 2), 0));
  }
  EXPECT_FALSE(impair.ready());  // 3000 queued >= 1500 watermark
  EXPECT_FALSE(impair.offer(make_frame(pool, 1000, 2), 0));
  EXPECT_EQ(impair.stats().frames_dropped_queue, 1u);
  wheel.advance(10'000'000);  // drain
  EXPECT_TRUE(impair.ready());
  EXPECT_EQ(released, 3);
}

TEST(Impairment, SeededBernoulliLossLandsNearTheConfiguredRate) {
  TimerWheel wheel(100'000, 64);
  wheel.advance(0);
  ChannelConfig cfg;
  cfg.rate_bps = 8e9;  // 100 bytes = 100 ns; drains between offers
  cfg.loss = 0.3;
  FramePool pool(256, 8);
  Impairment impair(cfg, Rng(42), wheel, [](FrameRef, std::int64_t) {});
  const int kFrames = 2000;
  for (int i = 0; i < kFrames; ++i) {
    const std::int64_t t = static_cast<std::int64_t>(i) * 1000;
    ASSERT_TRUE(impair.offer(make_frame(pool, 100, 3), t));
    wheel.advance(t + 1000);
  }
  wheel.advance(kFrames * 1000 + 10'000'000);
  const auto& s = impair.stats();
  EXPECT_EQ(s.frames_dropped_loss + s.frames_delivered,
            static_cast<std::uint64_t>(kFrames));
  const double measured =
      static_cast<double>(s.frames_dropped_loss) / kFrames;
  EXPECT_NEAR(measured, 0.3, 0.05);
}

// ------------------------------------------------------ shared-link loss

TEST(SharedLinkLoss, BadSojournsDropEveryFrameAndCluster) {
  // Hard-outage chain (drop_in_bad = 1): a frame drops exactly when the
  // link is in a bad sojourn, and with mean sojourns of 200us good /
  // 100us bad sampled every 10us the drops must arrive in runs, not as
  // independent coin flips.
  SharedLinkLoss shared({.mean_good_ns = 200'000,
                         .mean_bad_ns = 100'000,
                         .drop_in_bad = 1.0},
                        Rng(5));
  const int kSamples = 20'000;
  int drops = 0;
  int runs = 0;
  bool prev = false;
  for (int i = 0; i < kSamples; ++i) {
    const bool drop = shared.should_drop(static_cast<std::int64_t>(i) * 10'000);
    EXPECT_EQ(drop, shared.in_burst());
    if (drop && !prev) ++runs;
    prev = drop;
    if (drop) ++drops;
  }
  EXPECT_EQ(shared.stats().frames_seen, static_cast<std::uint64_t>(kSamples));
  EXPECT_EQ(shared.stats().frames_dropped, static_cast<std::uint64_t>(drops));
  // The chain may enter and leave a burst between samples; the observed
  // run count can only undercount the true transitions.
  EXPECT_GE(shared.stats().bursts, static_cast<std::uint64_t>(runs));
  // Long-run drop fraction: mean_bad / (mean_good + mean_bad) = 1/3.
  EXPECT_NEAR(static_cast<double>(drops) / kSamples, 1.0 / 3.0, 0.1);
  ASSERT_GT(runs, 0);
  // Clustering: each burst spans ~10 samples, so runs << drops.
  EXPECT_LT(runs * 3, drops);
}

TEST(Impairment, SharedLinkLossCorrelatesDropsAcrossChannels) {
  // Two channels over one shared link: with a hard-outage chain their
  // drops must co-occur frame-for-frame — the signature per-channel
  // netem loss cannot produce.
  TimerWheel wheel(100'000, 64);
  wheel.advance(0);
  ChannelConfig cfg;
  cfg.rate_bps = 8e9;  // 100 bytes = 100 ns; drains between offers
  SharedLinkLoss shared({.mean_good_ns = 200'000,
                         .mean_bad_ns = 100'000,
                         .drop_in_bad = 1.0},
                        Rng(11));
  FramePool pool(256, 8);
  Impairment a(cfg, Rng(1), wheel, [](FrameRef, std::int64_t) {});
  Impairment b(cfg, Rng(2), wheel, [](FrameRef, std::int64_t) {});
  a.set_shared_loss(&shared);
  b.set_shared_loss(&shared);
  EXPECT_EQ(a.shared_loss(), &shared);

  const int kFrames = 2000;
  int either = 0;
  int both = 0;
  for (int i = 0; i < kFrames; ++i) {
    const std::int64_t t = static_cast<std::int64_t>(i) * 10'000;
    const auto da = a.stats().frames_dropped_shared_link;
    const auto db = b.stats().frames_dropped_shared_link;
    ASSERT_TRUE(a.offer(make_frame(pool, 100, 1), t));
    ASSERT_TRUE(b.offer(make_frame(pool, 100, 2), t));
    wheel.advance(t + 5'000);
    const bool dropped_a = a.stats().frames_dropped_shared_link > da;
    const bool dropped_b = b.stats().frames_dropped_shared_link > db;
    if (dropped_a || dropped_b) ++either;
    if (dropped_a && dropped_b) ++both;
  }
  ASSERT_GT(either, 0);
  // Both frames depart at the same instant, so they see the same chain
  // state: every drop is a joint drop.
  EXPECT_EQ(both, either);
  EXPECT_NEAR(static_cast<double>(either) / kFrames, 1.0 / 3.0, 0.1);
  EXPECT_EQ(a.stats().frames_dropped_loss, 0u);
  EXPECT_EQ(b.stats().frames_dropped_loss, 0u);
  EXPECT_EQ(shared.stats().frames_seen,
            static_cast<std::uint64_t>(2 * kFrames));
}

// ---------------------------------------------------------- udp channel

/// Span consumer that materializes each forwarded frame for comparison.
UdpChannel::FrameFn collect_into(std::vector<std::vector<std::uint8_t>>& got) {
  return [&got](std::span<const std::uint8_t> f) {
    got.emplace_back(f.begin(), f.end());
  };
}

TEST(UdpChannel, CoalescesOnBackpressureAndSplitsFramesOnReceive) {
  TimerWheel wheel(100'000, 64);
  wheel.advance(0);
  FramePool pool(2048, 64);
  ChannelConfig cfg;
  cfg.rate_bps = 1e12;
  UdpChannel ch(cfg, Rng(3), wheel, pool, /*rx_port=*/0, "test");
  std::vector<std::vector<std::uint8_t>> got;
  ch.set_on_frame(collect_into(got));

  std::vector<std::vector<std::uint8_t>> sent;
  for (std::uint8_t i = 1; i <= 3; ++i) {
    proto::ShareFrame frame;
    frame.packet_id = i;
    frame.k = 2;
    frame.share_index = i;
    frame.payload = std::vector<std::uint8_t>(40, i);
    sent.push_back(proto::encode(frame));
  }
  for (auto& f : sent) {
    ASSERT_TRUE(ch.try_send(std::span<const std::uint8_t>(f), 0));
  }
  wheel.advance(1'000'000);  // all three land in the pending ring
  // Park deterministically: the first sendmmsg hits an injected EAGAIN.
  ch.tx_socket().inject_wouldblock(1);
  ch.flush(1'000'000);
  EXPECT_TRUE(ch.wants_write());
  EXPECT_EQ(ch.stats().send_wouldblock, 1u);
  ch.on_writable(1'000'000);  // kernel was never actually full
  EXPECT_FALSE(ch.wants_write());
  // All three frames fit one datagram: coalesced behind the head.
  EXPECT_EQ(ch.stats().datagrams_sent, 1u);
  EXPECT_GE(ch.stats().frames_coalesced, 2u);

  for (int spins = 0; spins < 2000 && got.size() < 3; ++spins) {
    ch.on_readable();
  }
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i], sent[i]) << "frame " << i;
  }
  EXPECT_EQ(ch.stats().frames_forwarded, 3u);
  EXPECT_EQ(ch.stats().unparsed_forwarded, 0u);
}

TEST(UdpChannel, UndecodableDatagramIsForwardedWholeForAccounting) {
  TimerWheel wheel;
  wheel.advance(0);
  FramePool pool(2048, 40);
  ChannelConfig cfg;
  UdpChannel ch(cfg, Rng(3), wheel, pool, 0, "junk");
  std::vector<std::vector<std::uint8_t>> got;
  ch.set_on_frame(collect_into(got));

  UdpSocket attacker = UdpSocket::bound_loopback(0);
  attacker.connect_loopback(ch.rx_port());
  const std::vector<std::uint8_t> junk{'h', 'e', 'l', 'l', 'o'};
  ASSERT_EQ(attacker.send(junk), UdpSocket::IoResult::Ok);
  for (int spins = 0; spins < 2000 && got.empty(); ++spins) {
    ch.on_readable();
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], junk);
  EXPECT_EQ(ch.stats().unparsed_forwarded, 1u);
  EXPECT_EQ(ch.stats().frames_forwarded, 0u);
}

/// One wire frame whose encoding is large enough that two never share a
/// 1400-byte datagram — each pending frame becomes its own datagram.
std::vector<std::uint8_t> big_frame_bytes(std::uint64_t id) {
  proto::ShareFrame frame;
  frame.packet_id = id;
  frame.k = 2;
  frame.share_index = 1;
  frame.payload = std::vector<std::uint8_t>(800, static_cast<std::uint8_t>(id));
  return proto::encode(frame);
}

TEST(UdpChannel, ShortSendmmsgRetiresTheHeadAndResendsTheTail) {
  TimerWheel wheel(100'000, 64);
  wheel.advance(0);
  FramePool pool(2048, 64);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;  // transparent: releases happen inside try_send
  UdpChannel ch(cfg, Rng(5), wheel, pool, 0, "short");
  // One datagram per message, so the kernel can take part of the five;
  // the GSO form of this (whole runs) is GsoShortReturnRequeuesWholeRuns.
  ch.force_offload_fallback();
  std::vector<std::vector<std::uint8_t>> got;
  ch.set_on_frame(collect_into(got));

  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(ch.try_send(
        std::span<const std::uint8_t>(big_frame_bytes(i)), 0));
  }
  // The kernel "takes" only 2 of the 5 datagrams from the first
  // sendmmsg; flush must retire exactly those and re-offer the tail in
  // a follow-up call, not drop or resend the head.
  ch.tx_socket().inject_accept_limit(2);
  ch.flush(0);
  EXPECT_EQ(ch.stats().datagrams_sent, 5u);
  EXPECT_EQ(ch.stats().sendmmsg_short, 1u);
  EXPECT_EQ(ch.syscalls_send(), 2u) << "short batch + one follow-up";
  EXPECT_FALSE(ch.wants_write());

  for (int spins = 0; spins < 5000 && got.size() < 5; ++spins) {
    ch.on_readable();
  }
  ASSERT_EQ(got.size(), 5u);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(got[i - 1], big_frame_bytes(i)) << "frame " << i;
  }
}

TEST(UdpChannel, EagainOnSlotZeroParksTheWholeBatch) {
  TimerWheel wheel(100'000, 64);
  wheel.advance(0);
  FramePool pool(2048, 64);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;
  UdpChannel ch(cfg, Rng(5), wheel, pool, 0, "slot0");
  std::size_t frames_seen = 0;
  ch.set_on_frame([&](std::span<const std::uint8_t>) { ++frames_seen; });

  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(ch.try_send(
        std::span<const std::uint8_t>(big_frame_bytes(i)), 0));
  }
  ch.tx_socket().inject_wouldblock(1);  // EAGAIN before any slot completes
  ch.flush(0);
  EXPECT_EQ(ch.stats().datagrams_sent, 0u);
  EXPECT_EQ(ch.stats().send_wouldblock, 1u);
  EXPECT_TRUE(ch.wants_write());
  ch.on_writable(0);
  EXPECT_EQ(ch.stats().datagrams_sent, 4u);
  EXPECT_FALSE(ch.wants_write());
}

TEST(UdpChannel, EagainMidBatchRetiresTheHeadAndParksTheTail) {
  TimerWheel wheel(100'000, 64);
  wheel.advance(0);
  FramePool pool(2048, 64);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;
  UdpChannel ch(cfg, Rng(5), wheel, pool, 0, "slotk");
  ch.force_offload_fallback();  // per-datagram messages, as above
  ch.set_on_frame([](std::span<const std::uint8_t>) {});

  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(ch.try_send(
        std::span<const std::uint8_t>(big_frame_bytes(i)), 0));
  }
  // sendmmsg semantics for a mid-batch EAGAIN: the call returns short
  // (the error surfaces at the head of the NEXT call). Model it as a
  // short accept followed by an injected EAGAIN.
  ch.tx_socket().inject_accept_limit(2);
  ch.tx_socket().inject_wouldblock(1);
  ch.flush(0);
  EXPECT_EQ(ch.stats().datagrams_sent, 2u) << "head must be retired";
  EXPECT_EQ(ch.stats().sendmmsg_short, 1u);
  EXPECT_EQ(ch.stats().send_wouldblock, 1u);
  EXPECT_TRUE(ch.wants_write()) << "tail parks until EPOLLOUT";
  ch.on_writable(0);
  EXPECT_EQ(ch.stats().datagrams_sent, 5u);
  EXPECT_FALSE(ch.wants_write());
}

TEST(UdpChannel, RecvmmsgDrainsBurstsLargerThanTheBatch) {
  TimerWheel wheel;
  wheel.advance(0);
  FramePool pool(2048, 32);
  ChannelConfig cfg;
  UdpChannel ch(cfg, Rng(7), wheel, pool, 0, "burst", 1400,
                /*send_batch=*/32, /*recv_batch=*/4);
  std::vector<std::vector<std::uint8_t>> got;
  ch.set_on_frame(collect_into(got));

  UdpSocket peer = UdpSocket::bound_loopback(0);
  peer.connect_loopback(ch.rx_port());
  for (std::uint64_t i = 1; i <= 10; ++i) {
    ASSERT_EQ(peer.send(big_frame_bytes(i)), UdpSocket::IoResult::Ok);
  }
  for (int spins = 0; spins < 5000 && got.size() < 10; ++spins) {
    ch.on_readable();
  }
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(ch.stats().datagrams_received, 10u);
  EXPECT_EQ(ch.stats().frames_forwarded, 10u);
  // 10 datagrams through 4-deep recvmmsg: at least three kernel visits,
  // far fewer than the 10 the unbatched path would make.
  EXPECT_GE(ch.syscalls_recv(), 3u);
}

TEST(UdpChannel, PoolExhaustionUnderStormDegradesToDropWithStat) {
  TimerWheel wheel;
  wheel.advance(0);
  // 4 slots, all for TX: the channel receives into its own buffer.
  FramePool pool(2048, 4);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;
  UdpChannel ch(cfg, Rng(9), wheel, pool, 0, "storm", 1400,
                /*send_batch=*/32, /*recv_batch=*/2);
  ch.set_on_frame([](std::span<const std::uint8_t>) {});
  EXPECT_EQ(pool.available(), 4u) << "receiving pins no pool slots";

  const auto frame = big_frame_bytes(1);
  std::size_t accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (ch.try_send(std::span<const std::uint8_t>(frame), 0)) ++accepted;
  }
  EXPECT_EQ(accepted, 4u) << "exactly the free slots";
  EXPECT_EQ(ch.stats().frames_dropped_pool, 6u);
  EXPECT_EQ(pool.stats().exhausted, 6u);
  EXPECT_EQ(pool.available(), 0u);

  // Flushing returns the slots; the channel recovers without help.
  ch.flush(0);
  EXPECT_EQ(ch.stats().datagrams_sent, 4u);
  EXPECT_EQ(pool.available(), 4u);
  EXPECT_TRUE(ch.try_send(std::span<const std::uint8_t>(frame), 0));
}

TEST(UdpChannel, WholeBatchDepartureKeepsPerFrameReleaseStamps) {
  TimerWheel wheel(100'000, 64);
  wheel.advance(0);
  FramePool pool(2048, 40);
  ChannelConfig cfg;
  cfg.rate_bps = 8e6;  // 1000 bytes = 1 ms on the serializer
  UdpChannel ch(cfg, Rng(11), wheel, pool, 0, "stamps");
  ch.set_on_frame([](std::span<const std::uint8_t>) {});

  for (std::uint8_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(ch.try_send(make_frame(pool, 1000, i), 0));
  }
  wheel.advance(10'000'000);  // serializer releases at 1, 2, 3 ms
  ch.flush(10'000'000);
  // 1000-byte frames do not share a 1400-byte datagram: three datagrams,
  // ONE sendmmsg — yet each retired frame keeps the release stamp the
  // serializer gave it, not one smeared batch-departure time.
  EXPECT_EQ(ch.stats().datagrams_sent, 3u);
  EXPECT_EQ(ch.syscalls_send(), 1u);
  const auto stamps = ch.last_flush_release_ns();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_EQ(stamps[0], 1'000'000);
  EXPECT_EQ(stamps[1], 2'000'000);
  EXPECT_EQ(stamps[2], 3'000'000);
}

/// The allocation-counting hot-path check, on the offload path when the
/// kernel has it (each round's 8 equal datagrams are one GSO run and one
/// GRO buffer) or with offload forced off.
void expect_steady_state_does_not_allocate(bool force_fallback) {
  TimerWheel wheel(100'000, 64);
  wheel.advance(0);
  FramePool pool(2048, 80);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;  // transparent channel: no wheel, no closures
  UdpChannel ch(cfg, Rng(13), wheel, pool, 0, "hot");
  if (force_fallback) ch.force_offload_fallback();
  std::size_t frames_seen = 0;
  ch.set_on_frame([&frames_seen](std::span<const std::uint8_t>) {
    ++frames_seen;
  });
  const auto frame = big_frame_bytes(42);

  // One round = stage 8 frames into pool slots, one sendmmsg out, drain
  // the RX socket through the pinned recvmmsg slots.
  const auto round = [&](std::int64_t t, std::size_t expect_seen) {
    for (int i = 0; i < 8; ++i) {
      (void)ch.try_send(std::span<const std::uint8_t>(frame), t);
    }
    ch.flush(t);
    for (int spins = 0; spins < 200000 && frames_seen < expect_seen;
         ++spins) {
      ch.on_readable();
    }
  };

  for (int r = 0; r < 3; ++r) {  // warmup: pools, freelists, socket bufs
    round(r * 1'000'000, static_cast<std::size_t>(r + 1) * 8);
  }
  ASSERT_EQ(frames_seen, 24u);

  const std::uint64_t gso0 = ch.stats().gso_messages;
  const std::uint64_t gro0 = ch.stats().gro_buffers;
  g_allocs.store(0);
  g_count_allocs.store(true);
  for (int r = 3; r < 8; ++r) {
    round(r * 1'000'000, static_cast<std::size_t>(r + 1) * 8);
  }
  g_count_allocs.store(false);
  ASSERT_EQ(frames_seen, 64u);
  EXPECT_EQ(g_allocs.load(), 0u)
      << "the warmed-up pool/batch/split path must never touch the heap";
  if (ch.offload().gso && ch.offload().gro) {
    EXPECT_GT(ch.stats().gso_messages, gso0) << "measured rounds ran GSO";
    EXPECT_GT(ch.stats().gro_buffers, gro0) << "measured rounds ran GRO";
  } else {
    EXPECT_EQ(ch.stats().gso_messages, gso0);
  }
}

TEST(UdpChannel, SteadyStateFastPathDoesNotAllocateAfterWarmup) {
  expect_steady_state_does_not_allocate(/*force_fallback=*/false);
}

TEST(UdpChannel, SteadyStateFallbackPathDoesNotAllocateAfterWarmup) {
  expect_steady_state_does_not_allocate(/*force_fallback=*/true);
}


// ------------------------------------------- segmentation offload (GSO/GRO)

/// GSO/GRO tests need the kernel's UDP segmentation offload (UDP_SEGMENT
/// since Linux 4.18, UDP_GRO since 5.0); elsewhere they skip visibly.
#define MCSS_REQUIRE_OFFLOAD(ch)                                         \
  do {                                                                  \
    if (!(ch).offload().gso || !(ch).offload().gro) {                   \
      GTEST_SKIP() << "kernel refused UDP GSO/GRO (errno "              \
                   << (ch).offload().refusal_errno << ")";              \
    }                                                                   \
  } while (0)

/// An unauthenticated share frame with a `payload`-byte body:
/// kHeaderSize + payload bytes on the wire.
std::vector<std::uint8_t> frame_bytes(std::uint64_t id, std::size_t payload) {
  proto::ShareFrame frame;
  frame.packet_id = id;
  frame.k = 2;
  frame.share_index = 1;
  frame.payload =
      std::vector<std::uint8_t>(payload, static_cast<std::uint8_t>(id));
  return proto::encode(frame);
}

/// Datagrams read one recv() at a time until `want` arrived (or the
/// spin budget ran out).
std::vector<std::vector<std::uint8_t>> drain_datagrams(UdpSocket& sock,
                                                       std::size_t want) {
  std::vector<std::vector<std::uint8_t>> out;
  std::vector<std::uint8_t> buf(65536);
  for (int spins = 0; spins < 5000 && out.size() < want; ++spins) {
    std::size_t n = 0;
    if (sock.recv(buf, &n) == UdpSocket::IoResult::Ok) {
      out.emplace_back(buf.begin(),
                       buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
  }
  return out;
}

/// Offer every frame (transparent channel: released at once), flush.
void offer_all(UdpChannel& ch,
               const std::vector<std::vector<std::uint8_t>>& frames) {
  for (const auto& f : frames) {
    ASSERT_TRUE(ch.try_send(std::span<const std::uint8_t>(f), 0));
  }
  ch.flush(0);
}

/// Receive until `want` frames arrived.
void receive(UdpChannel& ch, std::vector<std::vector<std::uint8_t>>& got,
             std::size_t want) {
  for (int spins = 0; spins < 5000 && got.size() < want; ++spins) {
    ch.on_readable();
  }
}

TEST(UdpChannel, GsoRunLeavesInOneMessageWithTheSameDatagrams) {
  TimerWheel wheel(100'000, 64);
  wheel.advance(0);
  FramePool pool(2048, 64);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;
  UdpChannel gso(cfg, Rng(21), wheel, pool, 0, "gso");
  MCSS_REQUIRE_OFFLOAD(gso);
  UdpChannel plain(cfg, Rng(21), wheel, pool, 0, "plain");
  plain.force_offload_fallback();
  // Read both through a plain (non-GRO) socket, so the kernel cuts the
  // GSO message back into datagrams on the way in.
  ASSERT_EQ(gso.rx_socket().enable_gro(false), 0);

  // 416-B frames, three per 1400-B datagram: datagrams of frames
  // {1,2,3}, {4,5,6} and a short tail {7} — one run.
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint64_t i = 1; i <= 7; ++i) frames.push_back(frame_bytes(i, 400));
  offer_all(gso, frames);
  offer_all(plain, frames);

  EXPECT_EQ(gso.syscalls_send(), 1u);
  EXPECT_EQ(gso.stats().gso_messages, 1u) << "the whole run, one message";
  EXPECT_EQ(gso.stats().gso_segments, 3u);
  EXPECT_EQ(gso.stats().datagrams_sent, 3u);
  EXPECT_EQ(gso.stats().frames_coalesced, 4u);
  EXPECT_EQ(plain.syscalls_send(), 1u);
  EXPECT_EQ(plain.stats().gso_messages, 0u);
  EXPECT_EQ(plain.stats().datagrams_sent, 3u);
  EXPECT_EQ(gso.stats().bytes_sent, plain.stats().bytes_sent);

  std::vector<std::vector<std::uint8_t>> expected(3);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    auto& dg = expected[std::min<std::size_t>(i / 3, 2)];
    dg.insert(dg.end(), frames[i].begin(), frames[i].end());
  }
  const auto via_gso = drain_datagrams(gso.rx_socket(), 3);
  const auto via_plain = drain_datagrams(plain.rx_socket(), 3);
  EXPECT_EQ(via_plain, expected);
  EXPECT_EQ(via_gso, via_plain) << "same bytes, same datagram boundaries";
}

TEST(UdpChannel, GroBufferSplitsAtSegmentSizePastAnUndecodableDatagram) {
  TimerWheel wheel;
  wheel.advance(0);
  FramePool pool(2048, 16);
  UdpChannel ch(ChannelConfig{}, Rng(23), wheel, pool, 0, "gro");
  MCSS_REQUIRE_OFFLOAD(ch);
  std::vector<std::vector<std::uint8_t>> got;
  ch.set_on_frame(collect_into(got));

  // One GSO run of three datagrams: a frame, same-size garbage, and a
  // shorter frame. Garbage must not swallow the datagram after it.
  const auto first = frame_bytes(1, 800);
  const std::vector<std::uint8_t> junk(first.size(), 0);  // no magic
  ASSERT_FALSE(proto::frame_extent(junk).has_value());
  const auto tail = frame_bytes(3, 500);
  UdpSocket peer = UdpSocket::bound_loopback(0);
  peer.connect_loopback(ch.rx_port());
  ASSERT_EQ(peer.enable_gso(), 0);
  iovec iov[3] = {
      {const_cast<std::uint8_t*>(first.data()), first.size()},
      {const_cast<std::uint8_t*>(junk.data()), junk.size()},
      {const_cast<std::uint8_t*>(tail.data()), tail.size()}};
  mmsghdr msg{};
  msg.msg_hdr.msg_iov = iov;
  msg.msg_hdr.msg_iovlen = 3;
  alignas(cmsghdr) unsigned char control[UdpSocket::kOffloadControlBytes];
  UdpSocket::set_gso_segment(msg.msg_hdr, control,
                             static_cast<std::uint16_t>(first.size()));
  ASSERT_EQ(peer.send_many({&msg, 1}).completed, 1u);

  receive(ch, got, 3);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], first);
  EXPECT_EQ(got[1], junk) << "the undecodable datagram goes up whole";
  EXPECT_EQ(got[2], tail);
  EXPECT_EQ(ch.stats().gro_buffers, 1u) << "one buffer, cut at gso_size";
  EXPECT_EQ(ch.stats().datagrams_received, 3u);
  EXPECT_EQ(ch.stats().frames_forwarded, 2u);
  EXPECT_EQ(ch.stats().unparsed_forwarded, 1u);
  EXPECT_EQ(ch.stats().bytes_received,
            first.size() + junk.size() + tail.size());
}

TEST(UdpChannel, GsoEagainParksTheWholeRun) {
  TimerWheel wheel(100'000, 64);
  wheel.advance(0);
  FramePool pool(2048, 64);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;
  UdpChannel ch(cfg, Rng(25), wheel, pool, 0, "gso-eagain");
  MCSS_REQUIRE_OFFLOAD(ch);
  std::vector<std::vector<std::uint8_t>> got;
  ch.set_on_frame(collect_into(got));

  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint64_t i = 1; i <= 4; ++i) frames.push_back(big_frame_bytes(i));
  ch.tx_socket().inject_wouldblock(1);
  offer_all(ch, frames);
  EXPECT_EQ(ch.stats().datagrams_sent, 0u);
  EXPECT_EQ(ch.stats().send_wouldblock, 1u);
  EXPECT_TRUE(ch.wants_write());
  ch.on_writable(0);
  EXPECT_FALSE(ch.wants_write());
  EXPECT_EQ(ch.stats().datagrams_sent, 4u);
  EXPECT_EQ(ch.stats().gso_messages, 1u);
  EXPECT_EQ(ch.syscalls_send(), 1u) << "the injected EAGAIN never reached "
                                       "the kernel";
  receive(ch, got, 4);
  EXPECT_EQ(got, frames);
  EXPECT_EQ(ch.stats().gro_buffers, 1u);
}

TEST(UdpChannel, GsoShortReturnRequeuesWholeRuns) {
  // Two runs: three 816-B datagrams, then three 1016-B ones (a larger
  // datagram cannot join a run, so it starts the second message).
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint64_t i = 1; i <= 3; ++i) frames.push_back(big_frame_bytes(i));
  for (std::uint64_t i = 4; i <= 6; ++i) frames.push_back(frame_bytes(i, 1000));
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;
  {
    TimerWheel wheel(100'000, 64);
    wheel.advance(0);
    FramePool pool(2048, 64);
    UdpChannel ch(cfg, Rng(27), wheel, pool, 0, "gso-short");
    MCSS_REQUIRE_OFFLOAD(ch);
    std::vector<std::vector<std::uint8_t>> got;
    ch.set_on_frame(collect_into(got));
    // The kernel takes the first message only; the second is resent
    // whole by the follow-up call.
    ch.tx_socket().inject_accept_limit(1);
    offer_all(ch, frames);
    EXPECT_EQ(ch.stats().sendmmsg_short, 1u);
    EXPECT_EQ(ch.syscalls_send(), 2u) << "short batch + one follow-up";
    EXPECT_EQ(ch.stats().datagrams_sent, 6u);
    EXPECT_EQ(ch.stats().gso_messages, 2u);
    EXPECT_EQ(ch.stats().gso_segments, 6u);
    EXPECT_FALSE(ch.wants_write());
    receive(ch, got, 6);
    EXPECT_EQ(got, frames);
  }
  {
    // Mid-batch EAGAIN: the head run is retired, the tail run parks whole.
    TimerWheel wheel(100'000, 64);
    wheel.advance(0);
    FramePool pool(2048, 64);
    UdpChannel ch(cfg, Rng(27), wheel, pool, 0, "gso-short-eagain");
    std::vector<std::vector<std::uint8_t>> got;
    ch.set_on_frame(collect_into(got));
    ch.tx_socket().inject_accept_limit(1);
    ch.tx_socket().inject_wouldblock(1);
    offer_all(ch, frames);
    EXPECT_EQ(ch.stats().datagrams_sent, 3u) << "head run retired";
    EXPECT_EQ(ch.stats().send_wouldblock, 1u);
    EXPECT_TRUE(ch.wants_write()) << "tail run parks until EPOLLOUT";
    ch.on_writable(0);
    EXPECT_EQ(ch.stats().datagrams_sent, 6u);
    EXPECT_EQ(ch.stats().gso_messages, 2u);
    EXPECT_FALSE(ch.wants_write());
    receive(ch, got, 6);
    EXPECT_EQ(got, frames);
  }
}

TEST(UdpChannel, GsoRunRefusedByTheKernelIsRetiredWhole) {
  TimerWheel wheel(100'000, 64);
  wheel.advance(0);
  FramePool pool(2048, 64);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;
  UdpChannel ch(cfg, Rng(29), wheel, pool, 0, "gso-refused");
  MCSS_REQUIRE_OFFLOAD(ch);
  // Close the receiver: each run sent draws an ICMP port unreachable,
  // which the NEXT sendmmsg reports as ECONNREFUSED on its head run.
  ch.rx_socket() = UdpSocket{};
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint64_t i = 1; i <= 3; ++i) frames.push_back(big_frame_bytes(i));
  int runs = 0;
  while (runs < 100 && ch.stats().send_refused == 0) {
    offer_all(ch, frames);
    ++runs;
  }
  ASSERT_EQ(ch.stats().send_refused, 1u);
  // Every run before the refused one left whole; the refused one was
  // dropped whole — no datagram of it sent, nothing of it parked.
  EXPECT_EQ(ch.stats().datagrams_sent, 3u * static_cast<unsigned>(runs - 1));
  EXPECT_EQ(ch.stats().gso_messages, static_cast<unsigned>(runs - 1));
  EXPECT_FALSE(ch.wants_write());
  EXPECT_EQ(pool.available(), pool.capacity()) << "every slot returned";
}

TEST(UdpChannel, KernelRefusingAGsoMessageFallsBackAndResendsTheRun) {
  TimerWheel wheel(100'000, 64);
  wheel.advance(0);
  FramePool pool(2048, 64);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint64_t i = 1; i <= 4; ++i) frames.push_back(big_frame_bytes(i));
  {
    UdpChannel ch(cfg, Rng(31), wheel, pool, 0, "gso-eio");
    MCSS_REQUIRE_OFFLOAD(ch);
    std::vector<std::vector<std::uint8_t>> got;
    ch.set_on_frame(collect_into(got));
    // EIO is what a route without checksum offload answers a GSO
    // message with: the bytes are fine, the offload is not.
    ch.tx_socket().inject_send_error(EIO);
    offer_all(ch, frames);
    EXPECT_FALSE(ch.offload().gso);
    EXPECT_EQ(ch.offload().refusal_errno, EIO);
    EXPECT_EQ(ch.stats().offload_refusals, 1u);
    EXPECT_EQ(ch.stats().send_errors, 0u);
    EXPECT_EQ(ch.stats().datagrams_sent, 4u) << "the run, one per message";
    EXPECT_EQ(ch.stats().gso_messages, 0u);
    EXPECT_EQ(ch.syscalls_send(), 1u);
    receive(ch, got, 4);
    EXPECT_EQ(got, frames);
  }
  {
    // Any other errno is about the bytes: the run is dropped whole and
    // offload stays on.
    UdpChannel ch(cfg, Rng(31), wheel, pool, 0, "gso-emsgsize");
    ch.tx_socket().inject_send_error(EMSGSIZE);
    offer_all(ch, frames);
    EXPECT_TRUE(ch.offload().gso);
    EXPECT_EQ(ch.stats().offload_refusals, 0u);
    EXPECT_EQ(ch.stats().send_errors, 1u);
    EXPECT_EQ(ch.stats().datagrams_sent, 0u);
    EXPECT_FALSE(ch.wants_write());
    EXPECT_EQ(pool.available(), pool.capacity());
  }
}

TEST(UdpChannel, ForcedFallbackSendsAndReceivesOneDatagramPerMessage) {
  TimerWheel wheel(100'000, 64);
  wheel.advance(0);
  FramePool pool(2048, 64);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;
  UdpChannel ch(cfg, Rng(33), wheel, pool, 0, "fallback");
  const std::uint64_t refusals = ch.stats().offload_refusals;
  ch.force_offload_fallback();
  EXPECT_FALSE(ch.offload().gso);
  EXPECT_FALSE(ch.offload().gro);
  EXPECT_EQ(ch.stats().offload_refusals, refusals) << "forced, not refused";
  std::vector<std::vector<std::uint8_t>> got;
  ch.set_on_frame(collect_into(got));

  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint64_t i = 1; i <= 5; ++i) frames.push_back(big_frame_bytes(i));
  offer_all(ch, frames);
  EXPECT_EQ(ch.syscalls_send(), 1u) << "still one sendmmsg";
  EXPECT_EQ(ch.stats().datagrams_sent, 5u);
  EXPECT_EQ(ch.stats().gso_messages, 0u);
  receive(ch, got, 5);
  EXPECT_EQ(got, frames);
  EXPECT_EQ(ch.stats().datagrams_received, 5u);
  EXPECT_EQ(ch.stats().gro_buffers, 0u);
}

TEST(UdpChannel, ReceiveBufferIsTheChannelsOwnAndHoldsAGroRun) {
  TimerWheel wheel;
  wheel.advance(0);
  {
    FramePool pool(4096, 8);
    UdpChannel ch(ChannelConfig{}, Rng(35), wheel, pool, 0, "wide", 1400,
                  /*send_batch=*/32, /*recv_batch=*/32);
    EXPECT_EQ(ch.rx_buffer_bytes(), 32u * 4096u) << "recv_batch slots";
    EXPECT_EQ(pool.available(), pool.capacity());
  }
  {
    FramePool pool(2048, 8);
    UdpChannel ch(ChannelConfig{}, Rng(35), wheel, pool, 0, "narrow", 1400,
                  /*send_batch=*/32, /*recv_batch=*/4);
    EXPECT_EQ(ch.rx_buffer_bytes(), UdpChannel::kMinRxBufferBytes)
        << "a whole GRO run always fits";
    EXPECT_EQ(pool.available(), pool.capacity());
  }
  {
    FramePool pool(2048, 8);
    UdpChannel ch(ChannelConfig{}, Rng(35), wheel, pool, 0, "legacy", 1400,
                  /*send_batch=*/1, /*recv_batch=*/1);
    EXPECT_EQ(ch.rx_buffer_bytes(), 0u);
    EXPECT_FALSE(ch.offload().gso);
    EXPECT_FALSE(ch.offload().gro);
  }
}

TEST(Receiver, ArenaReassemblyAppendsDoNotAllocate) {
  // Regression (ISSUE 7): partials used to heap-allocate a vector per
  // appended share. With an arena, the partial lives in one pool slot
  // (k index bytes + k share regions) and appends are a byte write plus
  // a memcpy — zero heap traffic.
  net::Simulator sim;
  FramePool pool(4096, 16);
  proto::ReceiverConfig rc;
  rc.arena = &pool;
  proto::Receiver receiver(sim, rc);

  // k = 8 shares of 256 bytes: 8 * (1 + 256) = 2056 bytes, fits a slot.
  Rng rng(7);
  std::vector<std::uint8_t> secret(256);
  rng.fill(secret);
  const auto shares = sss::split(secret, 8, 8, rng);
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& s : shares) {
    proto::ShareFrame f;
    f.packet_id = 1;
    f.k = 8;
    f.share_index = s.index;
    f.payload = s.data;
    frames.push_back(proto::encode(f));
  }

  std::vector<std::uint8_t> delivered;
  receiver.set_deliver([&](std::uint64_t, std::vector<std::uint8_t> p) {
    delivered = std::move(p);
  });

  // First share creates the partial (map node, order node, slot acquire
  // — the "warmup" for this packet).
  receiver.on_frame(std::span<const std::uint8_t>(frames[0]));
  ASSERT_EQ(receiver.stats().partials_in_arena, 1u);
  ASSERT_EQ(receiver.stats().partials_on_heap, 0u);
  ASSERT_EQ(pool.in_use(), 1u);

  g_allocs.store(0);
  g_count_allocs.store(true);
  for (std::size_t i = 1; i < 7; ++i) {  // appends only — completion is separate
    receiver.on_frame(std::span<const std::uint8_t>(frames[i]));
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_allocs.load(), 0u)
      << "arena-backed reassembly appends must never touch the heap";
  EXPECT_EQ(receiver.pending_packets(), 1u);

  // The k-th share completes the packet and releases the slot.
  receiver.on_frame(std::span<const std::uint8_t>(frames[7]));
  EXPECT_EQ(delivered, secret);
  EXPECT_EQ(receiver.stats().packets_delivered, 1u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(Receiver, OversizePartialFallsBackToHeapAndStillDelivers) {
  // A partial that cannot fit one slot (k * (1 + share_size) too big)
  // degrades to heap vectors — a policy change, never a drop. Same for
  // pool exhaustion.
  net::Simulator sim;
  FramePool pool(512, 2);  // 3 * (1 + 256) = 771 > 512 -> heap
  proto::ReceiverConfig rc;
  rc.arena = &pool;
  proto::Receiver receiver(sim, rc);

  Rng rng(11);
  std::vector<std::uint8_t> secret(256);
  rng.fill(secret);
  const auto shares = sss::split(secret, 3, 3, rng);

  std::vector<std::uint8_t> delivered;
  receiver.set_deliver([&](std::uint64_t, std::vector<std::uint8_t> p) {
    delivered = std::move(p);
  });
  for (const auto& s : shares) {
    proto::ShareFrame f;
    f.packet_id = 9;
    f.k = 3;
    f.share_index = s.index;
    f.payload = s.data;
    const auto bytes = proto::encode(f);
    receiver.on_frame(std::span<const std::uint8_t>(bytes));
  }
  EXPECT_EQ(delivered, secret);
  EXPECT_EQ(receiver.stats().partials_on_heap, 1u);
  EXPECT_EQ(receiver.stats().partials_in_arena, 0u);
  EXPECT_EQ(pool.in_use(), 0u);

  // Exhaustion: tiny pool with every slot taken -> heap fallback too.
  FrameRef hog1 = pool.acquire();
  FrameRef hog2 = pool.acquire();
  ASSERT_TRUE(hog1);
  ASSERT_TRUE(hog2);
  proto::ShareFrame small;
  small.packet_id = 10;
  small.k = 2;
  small.share_index = 1;
  small.payload = {1, 2, 3, 4};
  const auto bytes = proto::encode(small);
  receiver.on_frame(std::span<const std::uint8_t>(bytes));
  EXPECT_EQ(receiver.pending_packets(), 1u);
  EXPECT_EQ(receiver.stats().partials_on_heap, 2u);
}

// --------------------------------------------------------- live endpoint

LiveConfig clean_config(std::size_t n, double mbps, std::uint64_t seed) {
  LiveConfig cfg;
  for (std::size_t i = 0; i < n; ++i) {
    ChannelConfig ch;
    ch.rate_bps = mbps * 1e6;
    cfg.channels.push_back({ch, "ch" + std::to_string(i)});
  }
  cfg.mu = std::min(3.0, static_cast<double>(n));
  cfg.kappa = std::min(2.0, cfg.mu);
  cfg.seed = seed;
  return cfg;
}

/// Runs the endpoint in small slices until `done` or ~`budget_ms` of wall
/// time has elapsed.
template <typename Done>
void run_until(LiveEndpoint& ep, int budget_ms, Done done) {
  for (int spent = 0; spent < budget_ms && !done(); spent += 10) {
    ep.run_for(10'000'000);
  }
}

TEST(LiveEndpoint, PortBaseWraparoundIsRejectedAtSetup) {
  // Regression (ISSUE 7): channel i binds port_base + i with uint16_t
  // arithmetic, so a high base silently wrapped to a low port. The
  // endpoint must refuse the configuration up front instead.
  {
    LiveConfig cfg = clean_config(3, 100.0, 7);
    cfg.port_base = 65534;  // lanes at 65534, 65535, 65536 -> wrap
    EXPECT_THROW((void)LiveEndpoint(std::move(cfg)), PreconditionError);
  }
  {
    // Boundary: the LAST channel exactly at 65535 is fine.
    LiveConfig cfg = clean_config(3, 100.0, 7);
    cfg.port_base = 65533;  // lanes at 65533, 65534, 65535
    EXPECT_NO_THROW((void)LiveEndpoint(std::move(cfg)));
  }
  {
    // Reliability adds a feedback lane at port_base + n: a base that
    // fits the share channels alone must still be refused.
    LiveConfig cfg = clean_config(3, 100.0, 7);
    cfg.port_base = 65533;
    cfg.reliability.enabled = true;  // feedback lane at 65536 -> wrap
    EXPECT_THROW((void)LiveEndpoint(std::move(cfg)), PreconditionError);
  }
  {
    LiveConfig cfg = clean_config(3, 100.0, 7);
    cfg.port_base = 65532;  // shares 65532..65534, feedback 65535
    cfg.reliability.enabled = true;
    EXPECT_NO_THROW((void)LiveEndpoint(std::move(cfg)));
  }
}

TEST(LiveEndpoint, DeliversAllPacketsOverCleanLoopback) {
  LiveEndpoint ep(clean_config(3, 100.0, 11));
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> delivered;
  ep.set_deliver([&](std::uint64_t id, std::vector<std::uint8_t> p) {
    delivered[id] = std::move(p);
  });

  Rng rng(99);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> p(128);
    rng.fill(p);
    payloads.push_back(p);
    ASSERT_TRUE(ep.send(std::move(p)));
  }
  run_until(ep, 5000, [&] { return delivered.size() >= 50; });

  ASSERT_EQ(delivered.size(), 50u);
  // Packet ids are assigned in send order starting at 1.
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    ASSERT_TRUE(delivered.count(i + 1));
    EXPECT_EQ(delivered[i + 1], payloads[i]) << "packet " << i + 1;
  }
  EXPECT_EQ(ep.sender_stats().packets_sent, 50u);
  EXPECT_EQ(ep.receiver().stats().packets_delivered, 50u);
  EXPECT_EQ(ep.receiver().stats().malformed_frames, 0u);
  EXPECT_GT(ep.delay_seconds().count(), 0u);
}

TEST(LiveEndpoint, ShareFrameBytesArePinned) {
  // Golden wire bytes of a seeded, keyed, reliability-off endpoint: every
  // share frame each channel receives, folded into one FNV-1a digest per
  // channel. Packets go one at a time and the loop waits for all their
  // shares, so every dispatch sees drained channels (equal backlogs, index
  // tiebreak) and the share-to-channel assignment is timing-free. The
  // split randomness, k/m dither, header layout and tags are all pinned.
  const crypto::SipHashKey key{3, 1, 4, 1, 5, 9, 2, 6,
                               5, 3, 5, 8, 9, 7, 9, 3};
  LiveConfig cfg = clean_config(4, 100.0, 2718);
  cfg.kappa = 2.0;
  cfg.mu = 3.5;
  cfg.auth_key = key;
  LiveEndpoint ep(std::move(cfg));

  std::vector<std::uint64_t> digest(ep.num_channels(), 0xcbf29ce484222325ull);
  std::uint64_t frames_seen = 0;
  const auto fold = [](std::uint64_t h, std::uint8_t byte) {
    return (h ^ byte) * 0x100000001b3ull;
  };
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    ep.channel(i).set_on_batch(
        [&, i](std::span<const std::span<const std::uint8_t>> frames) {
          for (const auto frame : frames) {
            std::uint64_t h = digest[i];
            for (std::size_t b = 0; b < 8; ++b) {
              h = fold(h, static_cast<std::uint8_t>(frame.size() >> (8 * b)));
            }
            for (const std::uint8_t byte : frame) h = fold(h, byte);
            digest[i] = h;
            ++frames_seen;
          }
        });
  }

  Rng rng(31415);
  for (int p = 0; p < 24; ++p) {
    std::vector<std::uint8_t> payload(1 + rng.uniform_int(400));
    rng.fill(payload);
    ASSERT_TRUE(ep.send(std::move(payload)));
    run_until(ep, 2000, [&] {
      return ep.queued_packets() == 0 &&
             frames_seen == ep.sender_stats().shares_sent;
    });
    ASSERT_EQ(frames_seen, ep.sender_stats().shares_sent) << "packet " << p;
  }
  EXPECT_EQ(ep.sender_stats().packets_sent, 24u);
  const std::vector<std::uint64_t> expected{
      0x23bfa8b6adde7452ull, 0x451ae8f605ef0cbbull, 0xbe78dd4c06ddba7dull,
      0x9b86b6f2f5cab482ull};
  EXPECT_EQ(digest, expected);
}

TEST(LiveEndpoint, TracedRunRecordsPacketAndShareSpans) {
  // A traced single-flow run keeps its lifecycle: dispatch opens the
  // packet and share spans, and the receiver closes them on delivery.
  obs::Tracer& tracer = obs::Tracer::global();
  const bool was_on = tracer.enabled();
  tracer.clear();
  tracer.set_enabled(true);
  LiveEndpoint ep(clean_config(3, 100.0, 43));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) { ++delivered; });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ep.send(std::vector<std::uint8_t>(64, 0x4D)));
  }
  run_until(ep, 3000, [&] { return delivered >= 5; });
  tracer.set_enabled(was_on);
  const std::vector<obs::TraceEvent> events = tracer.collect();
  tracer.clear();
  ASSERT_EQ(delivered, 5u);

  std::map<std::string, std::size_t> count;
  for (const obs::TraceEvent& e : events) {
    ++count[std::string(e.name) + ":" + e.phase];
  }
  EXPECT_EQ(count["packet:b"], 5u);
  EXPECT_EQ(count["packet:e"], 5u);
  EXPECT_EQ(count["share:b"], ep.sender_stats().shares_sent);
  EXPECT_GE(count["share:e"], 5u * 2);  // at least k shares per packet
}

TEST(LiveEndpoint, DeliversAllPacketsWithOffloadForcedOff) {
  LiveEndpoint ep(clean_config(3, 100.0, 13));
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    ep.channel(i).force_offload_fallback();
  }
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> delivered;
  ep.set_deliver([&](std::uint64_t id, std::vector<std::uint8_t> p) {
    delivered[id] = std::move(p);
  });
  Rng rng(101);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> p(1200);
    rng.fill(p);
    payloads.push_back(p);
    ASSERT_TRUE(ep.send(std::move(p)));
  }
  run_until(ep, 5000, [&] { return delivered.size() >= 50; });
  ASSERT_EQ(delivered.size(), 50u);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(delivered[i + 1], payloads[i]) << "packet " << i + 1;
  }
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    EXPECT_EQ(ep.channel(i).stats().gso_messages, 0u);
    EXPECT_EQ(ep.channel(i).stats().gro_buffers, 0u);
  }
}

TEST(LiveEndpoint, DelayTrackerIsABoundedReservoir) {
  LiveEndpoint ep(clean_config(2, 100.0, 3));
  EXPECT_TRUE(ep.delay_seconds().is_reservoir());

  // 100x its capacity from a known distribution (uniform on [0, 1)):
  // the reservoir stays at capacity, and its p50/p99 stay within 4.5
  // standard errors of a kDelaySamples-sample quantile (0.025 at p50,
  // 0.005 at p99) of the exact values, which an exact tracker confirms.
  PercentileTracker bounded = delay_tracker(7);
  PercentileTracker exact;
  Rng rng(77);
  const std::size_t n = 100 * kDelaySamples;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform();
    bounded.add(x);
    exact.add(x);
  }
  EXPECT_EQ(bounded.count(), n);
  EXPECT_EQ(bounded.retained(), kDelaySamples);
  EXPECT_NEAR(exact.percentile(50.0), 0.50, 0.002);
  EXPECT_NEAR(exact.percentile(99.0), 0.99, 0.002);
  EXPECT_NEAR(bounded.percentile(50.0), exact.percentile(50.0), 0.025);
  EXPECT_NEAR(bounded.percentile(99.0), exact.percentile(99.0), 0.005);
}

TEST(LiveEndpoint, PollFallbackBackendDeliversToo) {
  LiveConfig cfg = clean_config(2, 100.0, 5);
  cfg.poller_backend = Poller::Backend::Poll;
  LiveEndpoint ep(std::move(cfg));
  ASSERT_EQ(ep.poller_backend(), Poller::Backend::Poll);
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) { ++delivered; });
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ep.send(std::vector<std::uint8_t>(64, 0x5A)));
  }
  run_until(ep, 3000, [&] { return delivered >= 10; });
  EXPECT_EQ(delivered, 10u);
}

TEST(LiveEndpoint, InjectedEagainBackpressureDoesNotWedgeTheChannel) {
  LiveEndpoint ep(clean_config(3, 50.0, 21));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) { ++delivered; });
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    ep.channel(i).tx_socket().inject_wouldblock(3);
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ep.send(std::vector<std::uint8_t>(100, 0x33)));
  }
  run_until(ep, 5000, [&] { return delivered >= 20; });
  EXPECT_EQ(delivered, 20u);
  std::uint64_t wouldblock = 0;
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    wouldblock += ep.channel(i).stats().send_wouldblock;
    EXPECT_FALSE(ep.channel(i).wants_write());
  }
  EXPECT_GT(wouldblock, 0u);
}

TEST(LiveEndpoint, KeyedReceiverSurvivesAMalformedDatagramStorm) {
  const crypto::SipHashKey good_key{1, 2,  3,  4,  5,  6,  7,  8,
                                    9, 10, 11, 12, 13, 14, 15, 16};
  const crypto::SipHashKey bad_key{16, 15, 14, 13, 12, 11, 10, 9,
                                   8,  7,  6,  5,  4,  3,  2,  1};
  LiveConfig cfg = clean_config(2, 100.0, 31);
  cfg.auth_key = good_key;
  LiveEndpoint ep(std::move(cfg));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) { ++delivered; });

  // The storm: junk bytes and frames signed with the wrong key, fired at
  // every RX port while legitimate traffic flows.
  std::vector<UdpSocket> attackers;
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    UdpSocket s = UdpSocket::bound_loopback(0);
    s.connect_loopback(ep.channel(i).rx_port());
    attackers.push_back(std::move(s));
  }
  proto::ShareFrame forged;
  forged.packet_id = 7777;
  forged.k = 2;
  forged.share_index = 1;
  forged.payload = std::vector<std::uint8_t>(32, 0xEE);
  const auto forged_bytes = proto::encode(forged, &bad_key);
  Rng rng(1234);

  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ep.send(std::vector<std::uint8_t>(96, 0x11)));
    }
    for (auto& attacker : attackers) {
      std::vector<std::uint8_t> junk(48);
      rng.fill(junk);
      ASSERT_EQ(attacker.send(junk), UdpSocket::IoResult::Ok);
      ASSERT_EQ(attacker.send(forged_bytes), UdpSocket::IoResult::Ok);
    }
    ep.run_for(10'000'000);
  }
  run_until(ep, 5000, [&] { return delivered >= 30; });

  EXPECT_EQ(delivered, 30u);
  const auto& rs = ep.receiver().stats();
  EXPECT_EQ(rs.packets_delivered, 30u);
  EXPECT_GT(rs.malformed_frames, 0u) << "junk datagrams must be counted";
  EXPECT_GT(rs.auth_failures, 0u) << "wrong-key frames must be counted";
}

TEST(LiveEndpoint, KeyedEndpointAccountsEveryCorruptedFrame) {
  // A Byzantine channel flips one bit in some frames. The keyed receiver
  // verifies each receive batch in one pass; every corrupted frame must
  // still land in auth_failures or malformed_frames, every frame the
  // impairment released must reach the receiver, and no delivered
  // packet may be poisoned — on the batched and the legacy RX path.
  const crypto::SipHashKey key{7, 1, 7, 2, 7, 3, 7, 4,
                               7, 5, 7, 6, 7, 7, 7, 8};
  for (const std::size_t batch : {std::size_t{32}, std::size_t{1}}) {
    LiveConfig cfg = clean_config(4, 100.0, 47);
    for (auto& ch : cfg.channels) ch.config.corrupt = 0.1;
    cfg.auth_key = key;
    cfg.send_batch = batch;
    cfg.recv_batch = batch;
    LiveEndpoint ep(std::move(cfg));
    std::size_t delivered = 0;
    bool intact = true;
    ep.set_deliver([&](std::uint64_t id, std::vector<std::uint8_t> p) {
      ++delivered;
      intact = intact &&
               p == std::vector<std::uint8_t>(1000, static_cast<std::uint8_t>(id));
    });
    // 1000-byte shares: one frame per datagram, so a flipped length
    // field cannot swallow a clean neighbour. It can shorten its own
    // frame, though: the channel then forwards the frame's tail as a
    // second, undecodable piece, which must be counted too.
    for (int i = 1; i <= 60; ++i) {
      ASSERT_TRUE(ep.send(
          std::vector<std::uint8_t>(1000, static_cast<std::uint8_t>(i))));
    }
    std::uint64_t corrupted = 0;
    std::uint64_t released = 0;
    const auto settled = [&] {
      corrupted = 0;
      released = 0;
      for (std::size_t i = 0; i < ep.num_channels(); ++i) {
        corrupted += ep.channel(i).impair_stats().frames_corrupted;
        released += ep.channel(i).impair_stats().frames_delivered;
      }
      return ep.queued_packets() == 0 &&
             ep.receiver().stats().frames_received >= released;
    };
    run_until(ep, 3000, settled);
    ep.run_for(100'000'000);  // nothing may still be in flight
    ASSERT_TRUE(settled()) << "recv_batch " << batch;
    const auto& rs = ep.receiver().stats();
    const std::uint64_t split_tails = rs.frames_received - released;
    EXPECT_GT(corrupted, 0u) << "recv_batch " << batch;
    EXPECT_LE(split_tails, corrupted) << "recv_batch " << batch;
    EXPECT_EQ(rs.auth_failures + rs.malformed_frames, corrupted + split_tails)
        << "recv_batch " << batch;
    EXPECT_GT(delivered, 0u) << "recv_batch " << batch;
    EXPECT_TRUE(intact) << "recv_batch " << batch;
  }
}

TEST(LiveEndpoint, SeededImpairedRunMatchesConfiguredLossAndDelay) {
  // Five impaired channels in the Section VI style: diverse rates, loss,
  // and delay. Measured per-channel loss must track the Bernoulli
  // parameter; end-to-end delay must be bounded by the channel delays.
  const double rates_mbps[5] = {20, 20, 40, 40, 80};
  const double losses[5] = {0.05, 0.10, 0.02, 0.08, 0.0};
  const std::int64_t delays_ns[5] = {2'000'000, 4'000'000, 6'000'000,
                                     8'000'000, 10'000'000};
  LiveConfig cfg;
  for (int i = 0; i < 5; ++i) {
    ChannelConfig ch;
    ch.rate_bps = rates_mbps[i] * 1e6;
    ch.loss = losses[i];
    ch.delay = delays_ns[i];
    cfg.channels.push_back({ch, "impaired" + std::to_string(i)});
  }
  cfg.kappa = 2.0;
  cfg.mu = 3.0;
  cfg.seed = 77;
  cfg.max_queue_packets = 1024;
  LiveEndpoint ep(std::move(cfg));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) { ++delivered; });

  // Enough packets that even the least-preferred channel decides a few
  // hundred frames — at n >= 200 draws, the 0.06 tolerance sits beyond
  // 3 sigma of a Bernoulli(0.10) estimate.
  const int kPackets = 600;
  for (int i = 0; i < kPackets; ++i) {
    ASSERT_TRUE(ep.send(std::vector<std::uint8_t>(256, 0x77)));
  }
  // A few packets may legitimately lose > m - k shares, so do not wait
  // for a full house — settle for all-but-a-handful, then drain.
  run_until(ep, 6000,
            [&] { return delivered + 15 >= static_cast<std::size_t>(kPackets); });
  ep.run_for(30'000'000);  // let the last delayed shares land

  // k=2-of-m=3 over <=10% lossy channels: requiring >=90% end-to-end
  // delivery leaves a wide margin (the expected failure rate is <1%).
  EXPECT_GE(delivered, static_cast<std::size_t>(kPackets * 9 / 10));

  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    const auto& s = ep.channel(i).impair_stats();
    const std::uint64_t decided = s.frames_dropped_loss + s.frames_delivered;
    if (decided < 200) continue;  // too few samples to judge
    const double measured =
        static_cast<double>(s.frames_dropped_loss) / static_cast<double>(decided);
    EXPECT_NEAR(measured, losses[i], 0.06) << "channel " << i;
  }

  auto& delay = ep.delay_seconds();
  ASSERT_GT(delay.count(), 0u);
  // A packet needs k=2 shares, so its delay is at least the second-share
  // channel delay; the fastest pair is 2 ms + 4 ms -> >= ~2 ms. Loopback
  // scheduling noise only adds. Upper bound: slowest channel plus ample
  // pacing slack.
  EXPECT_GE(delay.percentile(10.0), 0.0015);
  EXPECT_LE(delay.median(), 0.060);
}

TEST(LiveEndpoint, TinyKernelBuffersDoNotWedgeTheLoop) {
  LiveConfig cfg = clean_config(2, 200.0, 41);
  cfg.max_queue_packets = 512;
  LiveEndpoint ep(std::move(cfg));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) { ++delivered; });
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    // The kernel clamps these to its floor (~2 KB), still small enough to
    // pressure a burst of coalesced datagrams.
    ep.channel(i).tx_socket().set_send_buffer(1);
    ep.channel(i).rx_socket().set_recv_buffer(1);
  }
  const int kPackets = 200;
  for (int i = 0; i < kPackets; ++i) {
    ASSERT_TRUE(ep.send(std::vector<std::uint8_t>(512, 0x9C)));
  }
  run_until(ep, 3000, [&] {
    return ep.queued_packets() == 0 &&
           delivered >= static_cast<std::size_t>(kPackets) * 8 / 10;
  });
  ep.run_for(20'000'000);

  // Datagrams may be dropped at the tiny receive buffer (that is loss,
  // which the protocol absorbs); the loop itself must make progress and
  // the books must balance.
  EXPECT_EQ(ep.sender_stats().packets_sent,
            static_cast<std::uint64_t>(kPackets));
  EXPECT_GT(delivered, 0u);
  EXPECT_LE(delivered, static_cast<std::size_t>(kPackets));
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    EXPECT_EQ(ep.channel(i).stats().send_errors, 0u) << "channel " << i;
  }
}

TEST(LiveEndpoint, BatchFromEnvParsesAndFallsBack) {
  // Save the caller's value: under the CI leg that runs the whole suite
  // with MCSS_LIVE_BATCH=1, this test must not strip the override from
  // the tests that run after it.
  const char* prior = ::getenv("MCSS_LIVE_BATCH");
  const std::string saved = prior ? prior : "";
  ASSERT_EQ(::unsetenv("MCSS_LIVE_BATCH"), 0);
  EXPECT_EQ(batch_from_env(), 32u);
  EXPECT_EQ(batch_from_env(8), 8u);
  ASSERT_EQ(::setenv("MCSS_LIVE_BATCH", "1", 1), 0);
  EXPECT_EQ(batch_from_env(), 1u) << "legacy escape hatch";
  ASSERT_EQ(::setenv("MCSS_LIVE_BATCH", "64", 1), 0);
  EXPECT_EQ(batch_from_env(), 64u);
  ASSERT_EQ(::setenv("MCSS_LIVE_BATCH", "0", 1), 0);
  EXPECT_EQ(batch_from_env(), 32u) << "zero is not a batch";
  ASSERT_EQ(::setenv("MCSS_LIVE_BATCH", "garbage", 1), 0);
  EXPECT_EQ(batch_from_env(), 32u);
  ASSERT_EQ(::setenv("MCSS_LIVE_BATCH", "4096", 1), 0);
  EXPECT_EQ(batch_from_env(), 32u) << "beyond the sane cap";
  if (prior) {
    ASSERT_EQ(::setenv("MCSS_LIVE_BATCH", saved.c_str(), 1), 0);
  } else {
    ASSERT_EQ(::unsetenv("MCSS_LIVE_BATCH"), 0);
  }
}

TEST(LiveEndpoint, LegacyUnbatchedModeStillDelivers) {
  // send_batch = recv_batch = 1 is the pre-batching transport, kept as
  // the bench baseline and the MCSS_LIVE_BATCH=1 escape hatch.
  LiveConfig cfg = clean_config(2, 100.0, 17);
  cfg.send_batch = 1;
  cfg.recv_batch = 1;
  LiveEndpoint ep(std::move(cfg));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ep.send(std::vector<std::uint8_t>(96, 0x2F)));
  }
  run_until(ep, 3000, [&] { return delivered >= 20; });
  EXPECT_EQ(delivered, 20u);
  EXPECT_EQ(ep.receiver().stats().malformed_frames, 0u);
}

TEST(LiveEndpoint, UringBackendDeliversOrFallsBackCleanly) {
  LiveConfig cfg = clean_config(2, 100.0, 19);
  cfg.poller_backend = Poller::Backend::Uring;
  LiveEndpoint ep(std::move(cfg));
  if (UringCore::supported()) {
    ASSERT_EQ(ep.poller_backend(), Poller::Backend::Uring);
  } else {
    ASSERT_NE(ep.poller_backend(), Poller::Backend::Uring)
        << "unsupported kernels must fall back, not wedge";
  }
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ep.send(std::vector<std::uint8_t>(80, 0x6B)));
  }
  run_until(ep, 3000, [&] { return delivered >= 20; });
  EXPECT_EQ(delivered, 20u);
}

TEST(LiveEndpoint, SyscallAndPoolAccountingIsPopulated) {
  LiveEndpoint ep(clean_config(2, 100.0, 23));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(ep.send(std::vector<std::uint8_t>(128, 0x3C)));
  }
  run_until(ep, 3000, [&] { return delivered >= 30; });
  ASSERT_EQ(delivered, 30u);

  EXPECT_GT(ep.poller().wait_calls(), 0u);
  std::uint64_t socket_calls = 0;
  std::uint64_t datagrams = 0;
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    socket_calls +=
        ep.channel(i).syscalls_send() + ep.channel(i).syscalls_recv();
    datagrams += ep.channel(i).stats().datagrams_sent;
  }
  EXPECT_GT(socket_calls, 0u);
  EXPECT_GT(datagrams, 0u);
  // Every TX frame was encoded straight into the shared arena.
  EXPECT_GT(ep.pool().stats().acquired, 0u);
  EXPECT_EQ(ep.pool().stats().exhausted, 0u) << "auto-sizing left slack";
  EXPECT_GT(ep.pool().stats().high_water, 0u);
}

TEST(LiveEndpoint, PublishesOffloadCountersAsChannelMetrics) {
  LiveEndpoint ep(clean_config(3, 1000.0, 29));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(ep.send(std::vector<std::uint8_t>(1200, 0x5A)));
  }
  run_until(ep, 3000, [&] { return delivered >= 40; });
  ASSERT_EQ(delivered, 40u);

  UdpChannelStats total;
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    const UdpChannelStats& s = ep.channel(i).stats();
    total.gso_messages += s.gso_messages;
    total.gso_segments += s.gso_segments;
    total.gro_buffers += s.gro_buffers;
    total.offload_refusals += s.offload_refusals;
  }
  obs::Registry registry;
  ep.publish_metrics(registry);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("mcss_channel_gso_messages"),
            total.gso_messages);
  EXPECT_EQ(snap.counter_value("mcss_channel_gso_segments"),
            total.gso_segments);
  EXPECT_EQ(snap.counter_value("mcss_channel_gro_buffers"),
            total.gro_buffers);
  EXPECT_EQ(snap.counter_value("mcss_channel_offload_refusals"),
            total.offload_refusals);
  EXPECT_GE(total.gso_segments, 2 * total.gso_messages);
}

TEST(LiveEndpoint, PortBaseFromEnvParsesAndFallsBack) {
  ASSERT_EQ(::unsetenv("MCSS_LIVE_PORT_BASE"), 0);
  EXPECT_EQ(port_base_from_env(0), 0);
  EXPECT_EQ(port_base_from_env(4000), 4000);
  ASSERT_EQ(::setenv("MCSS_LIVE_PORT_BASE", "23456", 1), 0);
  EXPECT_EQ(port_base_from_env(0), 23456);
  ASSERT_EQ(::setenv("MCSS_LIVE_PORT_BASE", "not-a-port", 1), 0);
  EXPECT_EQ(port_base_from_env(4000), 4000);
  ASSERT_EQ(::setenv("MCSS_LIVE_PORT_BASE", "70000", 1), 0);
  EXPECT_EQ(port_base_from_env(4000), 4000);
  ASSERT_EQ(::unsetenv("MCSS_LIVE_PORT_BASE"), 0);
}

TEST(LiveEndpoint, ReliabilityRecoversLossesOverRealSockets) {
  // End-to-end ARQ over real UDP loopback: lossy forward channels with
  // zero share slack (kappa = mu = 2), a lossy feedback channel, and the
  // RetransmitManager repairing the difference.
  LiveConfig cfg = clean_config(3, 50.0, 61);
  for (auto& spec : cfg.channels) {
    spec.config.loss = 0.05;
  }
  cfg.mu = 2.0;
  cfg.kappa = 2.0;
  cfg.reliability.enabled = true;
  cfg.reliability.retransmit.max_retransmits = 6;
  cfg.reliability.retransmit.initial_rto_ns = 60'000'000;
  cfg.reliability.retransmit.min_rto_ns = 30'000'000;
  cfg.reliability.report_interval_ns = 10'000'000;
  cfg.reliability.feedback_channel.loss = 0.05;
  LiveEndpoint ep(std::move(cfg));
  ASSERT_NE(ep.retransmit_manager(), nullptr);
  ASSERT_NE(ep.feedback_channel(), nullptr);

  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> delivered;
  ep.set_deliver([&](std::uint64_t id, std::vector<std::uint8_t> p) {
    delivered[id] = std::move(p);
  });
  Rng rng(7);
  const int count = 60;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < count; ++i) {
    std::vector<std::uint8_t> p(256);
    rng.fill(p);
    payloads.push_back(p);
    ASSERT_TRUE(ep.send(std::move(p)));
  }
  run_until(ep, 15000, [&] {
    return delivered.size() >= static_cast<std::size_t>(count);
  });

  // With 5% loss per share and no slack, ~10% of packets need a repair;
  // six retransmission rounds make residual failure negligible.
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    EXPECT_EQ(delivered[static_cast<std::uint64_t>(i) + 1],
              payloads[static_cast<std::size_t>(i)]);
  }
  const auto& stats = ep.retransmit_manager()->stats();
  EXPECT_GT(ep.reports_sent(), 0u);
  EXPECT_GT(stats.reports_received, 0u);
  EXPECT_GT(stats.packets_acked, 0u);
  // Realized exposure can only widen relative to the initial dispatch.
  EXPECT_GE(stats.exposure_channel_sum, stats.initial_channel_sum);
}

TEST(LiveEndpoint, ReliabilityWorksOnThePollBackend) {
  // Same loop under the poll() fallback poller (the CI matrix runs the
  // whole suite under MCSS_LIVE_POLLER=poll as well; this pins the
  // combination even on the default matrix leg).
  LiveConfig cfg = clean_config(2, 50.0, 71);
  cfg.poller_backend = Poller::Backend::Poll;
  cfg.reliability.enabled = true;
  cfg.reliability.report_interval_ns = 10'000'000;
  LiveEndpoint ep(std::move(cfg));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ep.send(std::vector<std::uint8_t>(64, 0x5A)));
  }
  run_until(ep, 5000, [&] {
    return delivered >= 20 &&
           ep.retransmit_manager()->stats().reports_received > 0;
  });
  EXPECT_EQ(delivered, 20u);
  EXPECT_GT(ep.reports_sent(), 0u);
  EXPECT_GT(ep.retransmit_manager()->stats().reports_received, 0u);
  EXPECT_EQ(ep.poller_backend(), Poller::Backend::Poll);
}

}  // namespace
}  // namespace mcss::transport
