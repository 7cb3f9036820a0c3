// Move-only type-erased callable with small-buffer optimization.
//
// The event loop stores one callback per scheduled event, and the request
// path chains continuations through pools, CPU schedulers and the network.
// std::function is the wrong tool there: its inline buffer (16 bytes in
// libstdc++, copy-constructible payloads only) forces a heap allocation for
// almost every capture list on the hot path, and it requires copyability.
// UniqueFunction stores any nothrow-movable callable of up to kInlineSize
// bytes inline and only falls back to the heap beyond that.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace sora {

/// Move-only `void()` callable. Callables up to kInlineSize bytes with
/// nothrow move construction live inline; larger ones are heap-allocated.
class UniqueFunction {
 public:
  /// Sized for the request-path continuations. The largest, in
  /// ServiceInstance::issue_call, fill it exactly: this, visit, the child
  /// span's id and 32-bit slot, gate, target and two indices (a static_assert
  /// there guards it; a whole SpanRef would not fit).
  static constexpr std::size_t kInlineSize = 64;

  UniqueFunction() = default;
  UniqueFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, UniqueFunction> &&
                                        std::is_invocable_r_v<void, D&>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { move_from(other); }
  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  UniqueFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;
  ~UniqueFunction() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  /// Destroy the held callable (and free its captures) immediately.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct dst's payload from src's and destroy src's.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*static_cast<D*>(s))(); },
      [](void* dst, void* src) {
        D* from = static_cast<D*>(src);
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* s) { static_cast<D*>(s)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**reinterpret_cast<D**>(s))(); },
      [](void* dst, void* src) {
        *reinterpret_cast<D**>(dst) = *reinterpret_cast<D**>(src);
      },
      [](void* s) { delete *reinterpret_cast<D**>(s); },
  };

  void move_from(UniqueFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
};

}  // namespace sora
