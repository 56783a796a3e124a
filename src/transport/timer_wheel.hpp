// Hashed timer wheel for the impairment shim.
//
// The userspace netem needs one timer per in-flight frame (departure +
// delay + jitter), thousands per second, nearly all within a few tens of
// milliseconds — the classic timer-wheel workload (Varghese & Lauck).
// A binary heap would pay O(log n) per frame; the wheel pays O(1) to
// schedule and amortized O(1) to fire:
//
//   - time is bucketed into `tick_ns` slots arranged in a ring,
//   - schedule_at() drops the timer into slot (deadline / tick) % slots,
//   - advance(now) walks the ring from the last serviced tick to now's,
//     firing entries whose deadline has passed and carrying entries from
//     later rotations (deadline more than slots*tick ahead) around.
//
// Deadlines are absolute monotonic nanoseconds (wall_clock.hpp), so the
// wheel composes with the poller: wait(min(next_deadline - now, ...)).
// Firing order within one advance() is deadline order (ties: schedule
// order), matching the discrete-event simulator's (time, seq) rule so a
// live run replays impairment decisions in the same relative order the
// sim would.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace mcss::transport {

class TimerWheel {
 public:
  using Callback = std::function<void()>;

  /// Handle for cancel(). Never 0 — store kNoTimer for "nothing armed".
  using TimerId = std::uint64_t;
  static constexpr TimerId kNoTimer = 0;

  /// `tick_ns` is the firing granularity (timers fire within one tick of
  /// their deadline); `slots` * `tick_ns` is one rotation. Defaults: 0.5 ms
  /// ticks, 1024 slots = 512 ms per rotation, far beyond any netem-style
  /// delay this shim injects.
  explicit TimerWheel(std::int64_t tick_ns = 500'000, std::size_t slots = 1024);

  /// Schedule `fn` at absolute time `deadline_ns`. Deadlines in the past
  /// fire on the next advance(). O(1). The returned handle cancels the
  /// timer; callers that never cancel may ignore it.
  TimerId schedule_at(std::int64_t deadline_ns, Callback fn);

  /// Cancel a pending timer: its callback will NOT run. Returns true
  /// when `id` was pending; false when it already fired, was already
  /// cancelled, or never existed (a safe no-op, so teardown paths can
  /// cancel unconditionally). O(slot occupancy). Callable from within a
  /// firing callback — a timer cancelled by an earlier callback of the
  /// same advance() batch is suppressed, which is the whole point: a
  /// flow torn down between arm and fire must not have the stale
  /// callback touch its freed state.
  bool cancel(TimerId id);

  /// Fire every timer with deadline <= now_ns, in deadline order (ties in
  /// schedule order). Returns the number fired. Callbacks may schedule
  /// new timers; a new timer already due fires within this same call.
  std::size_t advance(std::int64_t now_ns);

  /// Earliest pending deadline, or nullopt when the wheel is empty.
  /// Exact. Walks forward from the current tick and stops at the first
  /// tick holding an entry due by then, so it costs the empty slots up
  /// to the next due timer plus that slot's entries; only when nothing
  /// is due within one rotation does it scan every entry. Called once
  /// per pump iteration to bound the poll timeout.
  [[nodiscard]] std::optional<std::int64_t> next_deadline() const;

  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  /// Entries the slots can hold without allocating: the memory the wheel
  /// keeps. A slot that empties keeps room for at most kSlotKeep, so this
  /// stays near pending() + slots * kSlotKeep however large the bursts.
  [[nodiscard]] std::size_t slot_capacity() const noexcept;
  static constexpr std::size_t kSlotKeep = 8;
  [[nodiscard]] std::int64_t tick_ns() const noexcept { return tick_ns_; }

 private:
  struct Entry {
    std::int64_t deadline_ns = 0;
    std::uint64_t seq = 0;  ///< schedule order, the tie-break
    Callback fn;
  };

  std::int64_t tick_ns_;
  std::vector<std::vector<Entry>> slots_;
  std::int64_t current_tick_;  ///< everything before this tick has fired
  bool started_ = false;       ///< current_tick_ anchors on first use
  std::uint64_t next_seq_ = 1;  ///< 0 is kNoTimer
  std::size_t pending_ = 0;
  /// seq -> slot index for every pending timer: cancel() erases the
  /// entry from its slot eagerly, so slots never accumulate dead
  /// entries and next_deadline()/pending() stay exact.
  std::unordered_map<std::uint64_t, std::uint32_t> live_;
  /// Timers cancelled while sitting in the current advance() due batch
  /// (already pulled out of their slot): the firing loop skips them.
  std::unordered_set<std::uint64_t> cancelled_inflight_;

  void anchor(std::int64_t t_ns);
  [[nodiscard]] std::size_t slot_of(std::int64_t tick) const noexcept {
    return static_cast<std::size_t>(tick) % slots_.size();
  }
};

}  // namespace mcss::transport
