#include "transport/timer_wheel.hpp"

#include <algorithm>
#include <utility>

#include "util/ensure.hpp"

namespace mcss::transport {

TimerWheel::TimerWheel(std::int64_t tick_ns, std::size_t slots)
    : tick_ns_(tick_ns), slots_(slots), current_tick_(0) {
  MCSS_ENSURE(tick_ns_ > 0, "tick must be positive");
  MCSS_ENSURE(slots >= 2, "wheel needs at least two slots");
}

void TimerWheel::anchor(std::int64_t t_ns) {
  if (!started_) {
    MCSS_ENSURE(t_ns >= 0, "wheel time must be non-negative");
    current_tick_ = t_ns / tick_ns_;
    started_ = true;
  }
}

TimerWheel::TimerId TimerWheel::schedule_at(std::int64_t deadline_ns,
                                            Callback fn) {
  MCSS_ENSURE(fn != nullptr, "null timer callback");
  anchor(deadline_ns);
  // Past deadlines land in the current tick's slot so the next advance()
  // fires them immediately.
  const std::int64_t tick =
      std::max(deadline_ns / tick_ns_, current_tick_);
  const std::size_t slot = slot_of(tick);
  const TimerId id = next_seq_++;
  slots_[slot].push_back(Entry{deadline_ns, id, std::move(fn)});
  live_.emplace(id, static_cast<std::uint32_t>(slot));
  ++pending_;
  return id;
}

bool TimerWheel::cancel(TimerId id) {
  const auto it = live_.find(id);
  if (it == live_.end()) return false;  // fired, cancelled, or unknown
  auto& slot = slots_[it->second];
  const auto pos = std::find_if(
      slot.begin(), slot.end(), [id](const Entry& e) { return e.seq == id; });
  if (pos != slot.end()) {
    slot.erase(pos);
  } else {
    // Not parked in its slot: advance() has already pulled it into the
    // current due batch (we are being called from a callback). Flag it
    // so the firing loop skips it.
    cancelled_inflight_.insert(id);
  }
  live_.erase(it);
  --pending_;
  return true;
}

std::size_t TimerWheel::advance(std::int64_t now_ns) {
  anchor(now_ns);
  const std::int64_t target_tick = now_ns / tick_ns_;
  if (target_tick < current_tick_) return 0;  // this tick already serviced
  std::size_t fired_total = 0;
  // Loop until quiescent: a fired callback may schedule a timer that is
  // already due (zero-delay release chains), which must not wait for the
  // caller's next advance(). schedule_at() clamps past deadlines to
  // current_tick_, so the rescan of the target slot picks them up.
  for (;;) {
    std::vector<Entry> due;
    const std::int64_t span = target_tick - current_tick_ + 1;
    // A gap longer than one rotation visits every slot exactly once.
    const std::int64_t steps =
        std::min<std::int64_t>(span, static_cast<std::int64_t>(slots_.size()));
    for (std::int64_t i = 0; i < steps; ++i) {
      auto& slot = slots_[slot_of(current_tick_ + i)];
      auto keep = slot.begin();
      for (auto& entry : slot) {
        if (entry.deadline_ns <= now_ns) {
          due.push_back(std::move(entry));
        } else {
          // A later rotation, or later within the still-running target
          // tick; stays parked.
          *keep++ = std::move(entry);
        }
      }
      slot.erase(keep, slot.end());
      // A burst leaves its slot with room for every entry it held, and
      // every slot sees bursts as the ring turns: keeping that room would
      // hold the peak per-tick burst times the slot count. Give it back.
      if (slot.empty() && slot.capacity() > kSlotKeep) {
        std::vector<Entry>().swap(slot);
      }
    }
    // The target tick has not fully elapsed: it stays current so entries
    // due later within it (and new past-deadline schedules) are seen by
    // the next advance() instead of waiting out a whole rotation.
    current_tick_ = target_tick;

    if (due.empty()) break;
    // Slot order approximates deadline order; make it exact (ties fire
    // in schedule order, mirroring the simulator's (time, seq) rule).
    std::sort(due.begin(), due.end(), [](const Entry& a, const Entry& b) {
      return a.deadline_ns != b.deadline_ns ? a.deadline_ns < b.deadline_ns
                                            : a.seq < b.seq;
    });
    for (Entry& entry : due) {
      // An earlier callback of this very batch may have cancelled this
      // timer (flow teardown between arm and fire) — suppress it.
      if (!cancelled_inflight_.empty() &&
          cancelled_inflight_.erase(entry.seq) > 0) {
        continue;
      }
      live_.erase(entry.seq);
      --pending_;
      ++fired_total;
      entry.fn();
    }
  }
  return fired_total;
}

std::size_t TimerWheel::slot_capacity() const noexcept {
  std::size_t n = 0;
  for (const auto& slot : slots_) n += slot.capacity();
  return n;
}

std::optional<std::int64_t> TimerWheel::next_deadline() const {
  if (pending_ == 0) return std::nullopt;
  // Every pending entry sits in slot (max(its tick, current_tick_)) %
  // slots, so walking forward from current_tick_, the first tick whose
  // slot holds an entry due by that tick holds the earliest deadline:
  // every entry met later is due in a later tick. Entries of later
  // rotations share slots with due ones and are skipped, not taken.
  const auto n = static_cast<std::int64_t>(slots_.size());
  for (std::int64_t tick = current_tick_; tick < current_tick_ + n; ++tick) {
    const std::int64_t tick_end = (tick + 1) * tick_ns_;
    std::optional<std::int64_t> best;
    for (const Entry& entry : slots_[slot_of(tick)]) {
      if (entry.deadline_ns < tick_end &&
          (!best || entry.deadline_ns < *best)) {
        best = entry.deadline_ns;
      }
    }
    if (best) return best;
  }
  // Nothing due within one rotation: every entry is at least a rotation
  // out, so take the plain minimum.
  std::optional<std::int64_t> best;
  for (const auto& slot : slots_) {
    for (const Entry& entry : slot) {
      if (!best || entry.deadline_ns < *best) best = entry.deadline_ns;
    }
  }
  return best;
}

}  // namespace mcss::transport
