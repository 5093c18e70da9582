#include "model/column_segment.h"

#include <algorithm>

namespace twchase {

ColumnSegment::ColumnSegment(uint32_t arity)
    : arity_(arity),
      cols_(arity),
      indexes_(std::make_unique<ColumnIndex[]>(arity)) {}

ColumnSegment::ColumnSegment(const ColumnSegment& other)
    : arity_(other.arity_),
      slots_(other.slots_),
      cols_(other.cols_),
      indexes_(std::make_unique<ColumnIndex[]>(other.arity_)) {
  // Indexes are not copied: a copy (such as a derivation's F_0) is rarely
  // probed, so it rebuilds lazily.
}

void ColumnSegment::Append(uint32_t slot, const TermId* args) {
  slots_.push_back(slot);
  for (uint32_t c = 0; c < arity_; ++c) {
    cols_[c].push_back(args[c]);
    // Plain transition: mutation never races a probe (single-writer
    // discipline of the owning AtomSet). The new row joins the unmerged
    // tail [built_rows, rows()); the sorted prefix stays in place.
    indexes_[c].ready.store(false, std::memory_order_relaxed);
  }
}

void ColumnSegment::BuildIndex(uint32_t col, IndexBuildStats* build) const {
  ColumnIndex& index = indexes_[col];
  std::lock_guard<std::mutex> lock(index.mu);
  if (index.ready.load(std::memory_order_relaxed)) return;  // raced builder
  const std::vector<TermId>& values = cols_[col];
  size_t bytes_before = index.sorted_rows.capacity() * sizeof(uint32_t);
  size_t merge_from = index.sorted_rows.size();
  for (size_t row = merge_from; row < values.size(); ++row) {
    index.sorted_rows.push_back(static_cast<uint32_t>(row));
  }
  auto by_value_then_row = [&values](uint32_t a, uint32_t b) {
    return values[a] != values[b] ? values[a] < values[b] : a < b;
  };
  std::sort(index.sorted_rows.begin() + merge_from, index.sorted_rows.end(),
            by_value_then_row);
  std::inplace_merge(index.sorted_rows.begin(),
                     index.sorted_rows.begin() + merge_from,
                     index.sorted_rows.end(), by_value_then_row);
  // Release: a probe that acquire-loads the new built_rows also sees the
  // merged sorted_rows contents without taking the mutex.
  index.built_rows.store(values.size(), std::memory_order_release);
  size_t bytes_after = index.sorted_rows.capacity() * sizeof(uint32_t);
  index_bytes_.fetch_add(bytes_after - bytes_before,
                         std::memory_order_relaxed);
  index_builds_.fetch_add(1, std::memory_order_relaxed);
  if (build != nullptr) {
    ++build->builds;
    build->bytes += index.sorted_rows.size() * sizeof(uint32_t);
  }
  index.ready.store(true, std::memory_order_release);
}

ColumnSegment::ProbeResult ColumnSegment::EqualRange(
    uint32_t col, TermId id, IndexBuildStats* build) const {
  ColumnIndex& index = indexes_[col];
  // Merge only when the tail has outgrown the threshold: merging on every
  // append would make the apply-probe-apply loop of a chase round quadratic.
  // Rows and built_rows are fixed between mutations, so every probe between
  // two mutations computes the same decision — at most one build per
  // (column, mutation-free stretch).
  if (!index.ready.load(std::memory_order_acquire) &&
      rows() - index.built_rows.load(std::memory_order_acquire) >
          kTailMergeThreshold) {
    BuildIndex(col, build);
  }
  size_t built = index.built_rows.load(std::memory_order_acquire);
  const std::vector<TermId>& values = cols_[col];
  auto lo = std::lower_bound(
      index.sorted_rows.begin(), index.sorted_rows.end(), id,
      [&values](uint32_t row, TermId value) { return values[row] < value; });
  auto hi = std::upper_bound(
      lo, index.sorted_rows.end(), id,
      [&values](TermId value, uint32_t row) { return value < values[row]; });
  const uint32_t* base = index.sorted_rows.data();
  return ProbeResult{base + (lo - index.sorted_rows.begin()),
                     base + (hi - index.sorted_rows.begin()),
                     static_cast<uint32_t>(built),
                     static_cast<uint32_t>(rows())};
}

}  // namespace twchase
