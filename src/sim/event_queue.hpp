// Priority queue of timestamped events with deterministic tie-breaking.
//
// Two events at the same simulated time fire in insertion order (FIFO), which
// makes every simulation in this repository bit-reproducible regardless of
// heap internals.
//
// The queue is built for million-event runs: callbacks live in recycled
// slots (generation-checked handles, so a stale handle can never alias a
// reused slot), the callback type stores small captures inline instead of
// allocating, and lazily-cancelled heap entries are compacted once they
// outnumber the live ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace wrht::sim {

/// Move-only callable of signature void().  Captures up to kInlineBytes are
/// stored inline; larger ones fall back to a single heap allocation.  The
/// inline budget is sized for the runtime's event lambdas (a `this` pointer
/// plus a shared_ptr or a couple of ids), which is what keeps a million-push
/// run allocation-quiet.
class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  EventCallback() noexcept = default;
  EventCallback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      invoke_ = [](void* obj) { (*static_cast<Fn*>(obj))(); };
      manage_ = [](Action action, void* self, void* dest) {
        auto* fn_self = static_cast<Fn*>(self);
        if (action == Action::kMoveTo) {
          ::new (dest) Fn(std::move(*fn_self));
        }
        fn_self->~Fn();
      };
    } else {
      ::new (static_cast<void*>(storage_))
          Fn*(new Fn(std::forward<F>(fn)));
      invoke_ = [](void* obj) { (**static_cast<Fn**>(obj))(); };
      manage_ = [](Action action, void* self, void* dest) {
        auto* fn_self = static_cast<Fn**>(self);
        if (action == Action::kMoveTo) {
          ::new (dest) Fn*(*fn_self);
        } else {
          delete *fn_self;
        }
      };
    }
  }

  EventCallback(EventCallback&& other) noexcept { move_from(other); }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventCallback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  void operator()() { invoke_(storage_); }

 private:
  enum class Action { kMoveTo, kDestroy };
  using InvokeFn = void (*)(void*);
  using ManageFn = void (*)(Action, void* self, void* dest);

  void move_from(EventCallback& other) noexcept {
    if (!other.invoke_) return;
    other.manage_(Action::kMoveTo, other.storage_, storage_);
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void reset() noexcept {
    if (invoke_) {
      manage_(Action::kDestroy, storage_, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

class EventQueue {
 public:
  /// Enqueue `callback` to fire at absolute time `when`.
  /// Returns a handle usable with `cancel`.
  std::uint64_t push(util::Seconds when, EventCallback callback);

  /// Mark an event as cancelled.  Cancelled events are skipped on pop.
  /// Returns false if the handle was already popped or cancelled.
  bool cancel(std::uint64_t handle);

  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event.  Requires !empty().
  [[nodiscard]] util::Seconds next_time() const;

  struct Popped {
    util::Seconds time;
    EventCallback callback;
  };
  /// Remove and return the earliest live event.  Requires !empty().
  Popped pop();

  /// Introspection for memory-flatness tests and benchmarks.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  [[nodiscard]] std::size_t heap_entry_count() const { return heap_.size(); }

 private:
  struct Slot {
    EventCallback callback;
    std::uint32_t generation = 0;
    bool live = false;
  };
  struct Entry {
    util::Seconds time;
    std::uint64_t sequence;
    // Generation-tagged slot reference; the heap entry stays lightweight.
    std::uint64_t handle;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return b.time < a.time;
      return b.sequence < a.sequence;
    }
  };

  static std::uint32_t slot_of(std::uint64_t handle) {
    return static_cast<std::uint32_t>(handle & 0xffffffffULL);
  }
  static std::uint32_t generation_of(std::uint64_t handle) {
    return static_cast<std::uint32_t>(handle >> 32);
  }

  [[nodiscard]] bool entry_dead(const Entry& entry) const;
  void drop_dead_entries() const;
  void retire_slot(std::uint32_t slot);
  void maybe_compact();

  // Max-heap under Later == min on (time, sequence) at front; kept as a raw
  // vector (std::push_heap/pop_heap) so compaction can rebuild it in place.
  mutable std::vector<Entry> heap_;
  mutable std::size_t dead_entries_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // retired slots awaiting reuse
  std::uint64_t next_sequence_ = 0;
  std::size_t live_ = 0;
};

}  // namespace wrht::sim
