// The simulation kernel: a clock plus the event queue.  Network models
// schedule callbacks; the kernel advances time monotonically until the queue
// drains or a horizon is reached.
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "util/units.hpp"

namespace wrht::sim {

class Simulator {
 public:
  [[nodiscard]] util::Seconds now() const { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// Schedule `callback` after `delay` (>= 0) from the current time.
  std::uint64_t schedule_in(util::Seconds delay, EventCallback callback);

  /// Schedule `callback` at absolute time `when` (>= now()).
  std::uint64_t schedule_at(util::Seconds when, EventCallback callback);

  bool cancel(std::uint64_t handle) { return queue_.cancel(handle); }

  /// Run until the event queue is empty.  Returns the final time.
  util::Seconds run();

  /// Run events with time <= horizon; the clock ends at
  /// min(horizon, last event time).  Events scheduled for later remain queued.
  util::Seconds run_until(util::Seconds horizon);

  [[nodiscard]] bool idle() const { return queue_.empty(); }

 private:
  void step();

  EventQueue queue_;
  util::Seconds now_{0.0};
  std::uint64_t processed_ = 0;
};

}  // namespace wrht::sim
