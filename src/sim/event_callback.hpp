// Move-only callable holder for scheduled events.
//
// std::function's small-object buffer (16 bytes on libstdc++) is too
// small for the simulator's typical callbacks — a capture of `this` plus
// a refcounted frame and a couple of scalars — so scheduling through
// std::function heap-allocates on the hot path. EventCallback widens the
// inline buffer to kInlineBytes, which holds the timer and control-plane
// callbacks in the event slab itself, and only falls back to the heap
// beyond that.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace wav::sim {

class EventCallback {
 public:
  /// Inline capacity. 48 bytes fits `this` + shared_ptr + 3 words, which
  /// covers the timer callbacks. The frame path's captures are larger and
  /// fall back to the heap: a link delivery captures 104 bytes, because
  /// it holds an 88-byte IpPacket, a bridge forward 88 and a WAV-Switch
  /// processing completion 56.
  static constexpr std::size_t kInlineBytes = 48;

  EventCallback() noexcept = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, EventCallback> &&
                                     std::is_invocable_r_v<void, D&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): callable wrapper
  EventCallback(F&& fn) {
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      *static_cast<D**>(static_cast<void*>(storage_)) = new D(std::forward<F>(fn));
      ops_ = &kHeapOps<D>;
    }
  }

  EventCallback(EventCallback&& other) noexcept { move_from(std::move(other)); }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(std::move(other));
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* s);
    /// Move-constructs dst from src and destroys src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* s) noexcept;
  };

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* s) { (*static_cast<D*>(s))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* s) noexcept { static_cast<D*>(s)->~D(); }};

  template <class D>
  static constexpr Ops kHeapOps{
      [](void* s) { (**static_cast<D**>(s))(); },
      [](void* dst, void* src) noexcept {
        *static_cast<D**>(dst) = *static_cast<D**>(src);
      },
      [](void* s) noexcept { delete *static_cast<D**>(s); }};

  void move_from(EventCallback&& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_{nullptr};
};

}  // namespace wav::sim
