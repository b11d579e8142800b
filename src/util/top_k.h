#ifndef LAKE_UTIL_TOP_K_H_
#define LAKE_UTIL_TOP_K_H_

#include <algorithm>
#include <cstddef>
#include <queue>
#include <vector>

namespace lake {

/// Bounded max-collector: keeps the k items with the largest scores.
/// Ties are broken toward the item pushed first (stable for deterministic
/// search results). T must be movable.
template <typename T>
class TopK {
 public:
  struct Entry {
    double score;
    size_t seq;  // insertion sequence; lower wins ties
    T item;
  };

  explicit TopK(size_t k) : k_(k) {}

  /// Offers an item; keeps it only if it beats the current k-th score.
  void Push(double score, T item) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back(Entry{score, seq_++, std::move(item)});
      std::push_heap(heap_.begin(), heap_.end(), MinFirst);
      return;
    }
    // Strict: an equal score never displaces the held item, so the
    // first-seen item wins ties.
    if (score > heap_.front().score) {
      std::pop_heap(heap_.begin(), heap_.end(), MinFirst);
      heap_.back() = Entry{score, seq_++, std::move(item)};
      std::push_heap(heap_.begin(), heap_.end(), MinFirst);
    }
  }

  /// Current k-th best score, or `fallback` when fewer than k items are held.
  double Threshold(double fallback) const {
    return heap_.size() < k_ ? fallback : heap_.front().score;
  }

  bool Full() const { return heap_.size() >= k_; }
  size_t size() const { return heap_.size(); }

  /// Extracts results ordered by descending score (stable by insertion).
  std::vector<std::pair<double, T>> Take() {
    std::sort(heap_.begin(), heap_.end(), [](const Entry& a, const Entry& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.seq < b.seq;
    });
    std::vector<std::pair<double, T>> out;
    out.reserve(heap_.size());
    for (Entry& e : heap_) out.emplace_back(e.score, std::move(e.item));
    heap_.clear();
    return out;
  }

 private:
  static bool MinFirst(const Entry& a, const Entry& b) {
    if (a.score != b.score) return a.score > b.score;  // min-heap by score
    return a.seq < b.seq;  // among equal scores, newest is evicted first
  }

  size_t k_;
  size_t seq_ = 0;
  std::vector<Entry> heap_;
};

}  // namespace lake

#endif  // LAKE_UTIL_TOP_K_H_
