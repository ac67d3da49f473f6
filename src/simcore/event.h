// Event primitives for the discrete-event engine.
//
// Events are heap-ordered by (time, group, sequence); the sequence number
// makes ordering of simultaneous events deterministic (FIFO in scheduling
// order), which the reproduction relies on for bit-for-bit repeatable runs.
//
// Storage: a pending event costs 52 bytes. The Simulation's heap holds a
// 24-byte QueuedEvent (time, sequence, group, slot); the slot indexes an
// EventArena of dense parallel arrays, a 24-byte EventCallback and a 4-byte
// generation per slot (plus 4 bytes in the free list once the slot is
// released). Scheduling on a warm simulation allocates nothing for a
// callback that EventCallback stores inline, and the processor-sharing
// resource cancels and reschedules completions every time its active set
// changes, so the schedule/cancel path is the hottest in the kernel. The
// generation is odd while the slot's event is live: firing or cancelling
// makes it even, which makes every handle to the slot inert, keeps cancel()
// O(1) and lazy (the queue drops dead entries when they surface), and lets
// the pop-time liveness check read 4 dense bytes.
//
// Lifetime rule: a handle must not be used after the Simulation that issued
// it is destroyed (handles are meant to be held by model objects, whose
// lifetime is bounded by the run's).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/time_units.h"

namespace conscale {

/// A move-only `void()` callable in 24 bytes: a 16-byte inline buffer and a
/// pointer to a static {invoke, destroy} table. A target is stored inline
/// exactly when libstdc++'s std::function stores it inline (trivially
/// copyable, at most 16 bytes, alignment at most 8), so a lambda costs the
/// allocations it cost in a std::function; any other target is boxed with
/// std::make_unique, a std::function handed over as the target included
/// (it is 32 bytes). An inline target is trivially copyable and a boxed one
/// is a pointer, so a move copies the 16 bytes and makes no indirect call —
/// the lane engine moves every message's callback from outbox to inbox to
/// the destination's arena. Empty when default-constructed or moved from.
class EventCallback {
 public:
  EventCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& target) {
    using T = std::decay_t<F>;
    if constexpr (kInline<T>) {
      std::construct_at(static_cast<T*>(static_cast<void*>(storage_)),
                        std::forward<F>(target));
      ops_ = &kInlineOps<T>;
    } else {
      T* boxed = std::make_unique<T>(std::forward<F>(target)).release();
      std::memcpy(storage_, &boxed, sizeof(T*));
      ops_ = &kBoxedOps<T>;
    }
  }

  EventCallback(EventCallback&& other) noexcept : ops_(other.ops_) {
    std::memcpy(storage_, other.storage_, sizeof storage_);
    other.ops_ = nullptr;
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      std::memcpy(storage_, other.storage_, sizeof storage_);
      ops_ = std::exchange(other.ops_, nullptr);
    }
    return *this;
  }

  ~EventCallback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Calls the target; the callback must not be empty.
  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    void (*destroy)(void* storage);  ///< null: nothing to release
  };

  template <typename T>
  static constexpr bool kInline = std::is_trivially_copyable_v<T> &&
                                  sizeof(T) <= 16 && alignof(T) <= 8;

  // The inline target is reached the way libstdc++'s std::function reaches
  // its own buffer; a boxed target's pointer is copied out of the bytes.
  template <typename T>
  static void invoke_inline(void* storage) {
    (*static_cast<T*>(storage))();
  }
  template <typename T>
  static T* boxed_target(void* storage) {
    T* target = nullptr;
    std::memcpy(&target, storage, sizeof(T*));
    return target;
  }
  template <typename T>
  static void invoke_boxed(void* storage) {
    (*boxed_target<T>(storage))();
  }
  template <typename T>
  static void destroy_boxed(void* storage) {
    const std::unique_ptr<T> owner(boxed_target<T>(storage));
  }

  // A trivially copyable target has a trivial destructor: nothing to call.
  template <typename T>
  static constexpr Ops kInlineOps{&invoke_inline<T>, nullptr};
  template <typename T>
  static constexpr Ops kBoxedOps{&invoke_boxed<T>, &destroy_boxed<T>};

  void reset() {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  alignas(8) unsigned char storage_[16] = {};
  const Ops* ops_ = nullptr;
};

namespace detail {

/// One entry of the Simulation's event heap. Order: (time, group,
/// sequence), a strict total order, so any correct heap pops the same
/// sequence.
struct QueuedEvent {
  SimTime time;
  std::uint64_t sequence;  ///< arrival counter (plain) or stream seq (keyed)
  std::uint32_t group;     ///< 0 = plain event; >0 = keyed stream id
  std::uint32_t slot;      ///< EventArena index of the callback
  bool operator>(const QueuedEvent& other) const {
    if (time != other.time) return time > other.time;
    if (group != other.group) return group > other.group;
    return sequence > other.sequence;
  }
};

/// Slot + generation pool for scheduled-event state. Owned by Simulation;
/// one slot per in-queue event, recycled through a free list of indices.
class EventArena {
 public:
  /// Claims a slot for `callback` and makes it live (odd generation);
  /// returns its index. Reuses a free slot if available, otherwise grows.
  std::uint32_t allocate(EventCallback callback) {
    auto index = static_cast<std::uint32_t>(callbacks_.size());
    if (free_.empty()) {
      callbacks_.push_back(std::move(callback));
      generations_.push_back(1);
    } else {
      index = free_.back();
      free_.pop_back();
      callbacks_[index] = std::move(callback);
      ++generations_[index];
    }
    ++live_;
    return index;
  }

  std::uint32_t generation(std::uint32_t index) const {
    return generations_[index];
  }

  /// True while the slot's event is scheduled and not cancelled.
  bool live(std::uint32_t index) const {
    return (generations_[index] & 1u) != 0;
  }

  /// Ends a live event's life (its handles report !pending() from here on)
  /// and moves its callback out for execution.
  EventCallback fire(std::uint32_t index) {
    ++generations_[index];
    --live_;
    return std::move(callbacks_[index]);
  }

  /// Returns a slot whose queue entry was popped to the free list, dropping
  /// the callback of a cancelled event.
  void release(std::uint32_t index) {
    callbacks_[index] = EventCallback();
    free_.push_back(index);
  }

  /// O(1) lazy cancel; returns true if this call performed the cancellation.
  bool cancel(std::uint32_t index, std::uint32_t generation) {
    if (!pending(index, generation)) return false;
    ++generations_[index];
    --live_;
    return true;
  }

  /// A handle's generation is the odd one its event was scheduled under,
  /// so equality means the event is still live.
  bool pending(std::uint32_t index, std::uint32_t generation) const {
    return index < generations_.size() && generations_[index] == generation;
  }

  /// Events scheduled and neither fired nor cancelled.
  std::size_t live_count() const { return live_; }

 private:
  std::vector<EventCallback> callbacks_;
  std::vector<std::uint32_t> generations_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
};

}  // namespace detail

/// Handle to a scheduled event; cheap to copy, safe to outlive the event
/// (but not the Simulation).
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(detail::EventArena* arena, std::uint32_t index,
              std::uint32_t generation)
      : arena_(arena), index_(index), generation_(generation) {}

  /// Cancels the event if it has not fired yet. Returns true if this call
  /// performed the cancellation.
  bool cancel() { return arena_ && arena_->cancel(index_, generation_); }

  /// True while the event is scheduled and not cancelled.
  bool pending() const {
    return arena_ && arena_->pending(index_, generation_);
  }

 private:
  detail::EventArena* arena_ = nullptr;
  std::uint32_t index_ = 0;
  std::uint32_t generation_ = 0;
};

}  // namespace conscale
