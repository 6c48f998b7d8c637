// A non-owning reference to a callable.
//
// std::function owns a copy of its callable, and a capture larger than its
// small-object buffer (16 bytes in libstdc++) is copied to the heap each
// time one is built. A call site that passes a fresh lambda per iteration
// of a hot loop then pays one allocation per iteration for an object that
// is only ever called during the call it is passed to. FunctionRef stores
// a pointer to the caller's callable and one to a trampoline that invokes
// it: two words, no allocation, no copy.
//
// Lifetime: the referenced callable must outlive every call through the
// FunctionRef. Use it only as a parameter type (the argument lambda lives
// until the full expression ends), never as a stored member.
#ifndef DIADS_COMMON_FUNCTION_REF_H_
#define DIADS_COMMON_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace diads {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& callable)  // NOLINT: implicit, like std::function.
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(callable)))),
        invoke_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return invoke_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*invoke_)(void*, Args...);
};

}  // namespace diads

#endif  // DIADS_COMMON_FUNCTION_REF_H_
