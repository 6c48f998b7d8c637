// Static tables with one row per enum value, in enum order, so a lookup is
// an array index. The enum ends with a `kCount` sentinel, so a missing,
// extra or misplaced row fails IsEnumIndexed.
#ifndef DIADS_COMMON_ENUM_TABLE_H_
#define DIADS_COMMON_ENUM_TABLE_H_

#include <cstddef>

namespace diads {

/// True iff `rows` has exactly one row per value of `Enum` below
/// `Enum::kCount`, row i holding value i in its `key` member.
template <typename Row, size_t N, typename Enum>
constexpr bool IsEnumIndexed(const Row (&rows)[N], Enum Row::*key) {
  if (N != static_cast<size_t>(Enum::kCount)) return false;
  for (size_t i = 0; i < N; ++i) {
    if (static_cast<size_t>(rows[i].*key) != i) return false;
  }
  return true;
}

/// The row for `value`, or `fallback` when `value` is not a row of the
/// table (the sentinel itself, or an out-of-range cast).
template <typename Row, size_t N, typename Enum>
constexpr const Row& EnumRow(const Row (&rows)[N], Enum value,
                             const Row& fallback) {
  const size_t i = static_cast<size_t>(value);
  return i < N ? rows[i] : fallback;
}

}  // namespace diads

#endif  // DIADS_COMMON_ENUM_TABLE_H_
