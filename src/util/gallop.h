#ifndef LAKE_UTIL_GALLOP_H_
#define LAKE_UTIL_GALLOP_H_

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>

namespace lake {

/// First position in sorted [first, last) not less than `x`, found by
/// doubling steps from `first` and a binary search inside the last step:
/// O(log d) for an answer d elements ahead.
template <typename It, typename T>
It Gallop(It first, It last, const T& x) {
  typename std::iterator_traits<It>::difference_type step = 1;
  while (step < last - first && first[step] < x) {
    first += step;
    step *= 2;
  }
  return std::lower_bound(first, first + std::min(step, last - first), x);
}

/// |A ∩ B| of two ascending, duplicate-free ranges. Gallops the shorter
/// range through the longer: O(s log(l / s)) for lengths s <= l, which
/// beats a linear merge when one side is much longer than the other.
template <typename It>
size_t SortedIntersectionSize(It a_first, It a_last, It b_first, It b_last) {
  if (a_last - a_first > b_last - b_first) {
    std::swap(a_first, b_first);
    std::swap(a_last, b_last);
  }
  size_t common = 0;
  for (; a_first != a_last; ++a_first) {
    b_first = Gallop(b_first, b_last, *a_first);
    if (b_first == b_last) break;
    if (*b_first == *a_first) {
      ++common;
      ++b_first;
    }
  }
  return common;
}

}  // namespace lake

#endif  // LAKE_UTIL_GALLOP_H_
