#include "index/josie.h"

#include <algorithm>
#include <sstream>

#include "store/snapshot.h"
#include "text/normalizer.h"
#include "util/gallop.h"
#include "util/serialize.h"
#include "util/top_k.h"

namespace lake {

Status JosieIndex::AddSet(uint64_t external_id,
                          const std::vector<std::string>& values) {
  if (built_) return Status::FailedPrecondition("index already built");
  std::vector<uint32_t> tokens;
  tokens.reserve(values.size());
  for (const std::string& v : values) {
    const std::string norm = NormalizeValue(v);
    if (norm.empty()) continue;
    tokens.push_back(vocab_.GetOrAdd(norm));
  }
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  for (uint32_t t : tokens) vocab_.IncrementFrequency(t);
  external_ids_.push_back(external_id);
  sets_.push_back(std::move(tokens));
  return Status::OK();
}

Status JosieIndex::Build() {
  if (built_) return Status::FailedPrecondition("index already built");
  built_ = true;

  // Global rarest-first order: rank 0 is the least frequent token.
  const std::vector<uint32_t> by_freq = vocab_.IdsByAscendingFrequency();
  token_to_rank_.assign(vocab_.size(), 0);
  for (uint32_t rank = 0; rank < by_freq.size(); ++rank) {
    token_to_rank_[by_freq[rank]] = rank;
  }

  postings_.assign(vocab_.size(), {});
  for (uint32_t s = 0; s < sets_.size(); ++s) {
    for (uint32_t& t : sets_[s]) t = token_to_rank_[t];
    std::sort(sets_[s].begin(), sets_[s].end());
    for (uint32_t pos = 0; pos < sets_[s].size(); ++pos) {
      postings_[sets_[s][pos]].push_back(Posting{s, pos});
    }
  }
  return Status::OK();
}

std::vector<uint32_t> JosieIndex::QueryRanks(
    const std::vector<std::string>& query_values) const {
  std::vector<uint32_t> ranks;
  ranks.reserve(query_values.size());
  for (const std::string& v : query_values) {
    const std::string norm = NormalizeValue(v);
    if (norm.empty()) continue;
    const int64_t id = vocab_.Find(norm);
    if (id < 0) continue;  // token absent from the lake: contributes nothing
    ranks.push_back(token_to_rank_[static_cast<uint32_t>(id)]);
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  return ranks;
}

Result<std::vector<JosieIndex::Hit>> JosieIndex::TopK(
    const std::vector<std::string>& query_values, size_t k, QueryStats* stats,
    const CancelToken* cancel) const {
  if (!built_) return Status::FailedPrecondition("call Build() first");
  if (k == 0) return std::vector<Hit>{};
  QueryStats local;

  const std::vector<uint32_t> q = QueryRanks(query_values);
  // partial[s]: exact overlap among query tokens read so far.
  // last_pos[s]: the set position of the last matched token (for the
  // position filter). Dense per set; `touched` lists the sets with
  // partial[s] > 0 in first-seen order.
  std::vector<uint32_t> partial(sets_.size(), 0);
  std::vector<uint32_t> last_pos(sets_.size(), 0);
  std::vector<uint32_t> touched;
  // at_least[c]: number of candidates whose partial count is >= c. Counts
  // only ever grow by 1, so the k-th largest partial count (`kth_partial`,
  // 0 while fewer than k candidates are seen) only ever advances.
  std::vector<uint32_t> at_least(q.size() + 1, 0);
  uint32_t kth_partial = 0;

  ::lake::TopK<uint32_t> heap(k);  // holds set indices scored by exact overlap

  // Read lists rare-first, accumulating exact partial counts. The k-th
  // largest partial count is a lower bound on the k-th best final overlap;
  // once the number of unread lists (the max overlap of any *unseen* set)
  // cannot exceed it, no new candidate can enter the top-k and reading
  // stops (prefix filter). Seen candidates are finished by verification.
  size_t read = 0;
  for (; read < q.size(); ++read) {
    if (cancel != nullptr && ShouldCheck(read, 16)) {
      LAKE_RETURN_IF_ERROR(cancel->Check());
    }
    if (q.size() - read <= kth_partial) break;
    const auto& list = postings_[q[read]];
    ++local.lists_read;
    local.posting_entries_read += list.size();
    for (const Posting& p : list) {
      const uint32_t count = ++partial[p.set_index];
      if (count == 1) touched.push_back(p.set_index);
      last_pos[p.set_index] = p.position;
      if (++at_least[count] >= k && count > kth_partial) kth_partial = count;
    }
  }
  local.candidates_seen = touched.size();

  if (read == q.size()) {
    // All lists read: partial counts are exact overlaps. Pushing in set
    // order breaks ties at rank k the way TopKBruteForce does.
    std::sort(touched.begin(), touched.end());
    for (uint32_t s : touched) heap.Push(static_cast<double>(partial[s]), s);
  } else {
    // Position-filter verification for every seen candidate: bound the
    // remaining overlap by both the unread query suffix and the candidate's
    // own suffix beyond its last matched position.
    // Process most-promising first so the heap threshold rises quickly.
    const size_t q_remaining = q.size() - read;
    std::sort(touched.begin(), touched.end(), [&](uint32_t a, uint32_t b) {
      if (partial[a] != partial[b]) return partial[a] > partial[b];
      return a < b;
    });
    size_t processed = 0;
    for (uint32_t s : touched) {
      if (cancel != nullptr && ShouldCheck(processed++, 64)) {
        LAKE_RETURN_IF_ERROR(cancel->Check());
      }
      const std::vector<uint32_t>& set = sets_[s];
      const uint32_t count = partial[s];
      const size_t set_remaining = set.size() - (last_pos[s] + 1);
      const double upper =
          static_cast<double>(count) +
          static_cast<double>(std::min(q_remaining, set_remaining));
      if (heap.Full() && upper <= heap.Threshold(0.0)) continue;
      ++local.candidates_verified;
      // Unread query ranks all exceed the set's last matched rank, so only
      // the set's suffix past last_pos can hold them.
      const size_t extra = SortedIntersectionSize(
          q.begin() + read, q.end(), set.begin() + (last_pos[s] + 1),
          set.end());
      heap.Push(static_cast<double>(count + extra), s);
    }
  }

  std::vector<Hit> hits;
  for (auto& [score, s] : heap.Take()) {
    if (score <= 0) continue;
    hits.push_back(Hit{external_ids_[s], static_cast<uint32_t>(score)});
  }
  if (stats != nullptr) *stats = local;
  return hits;
}

Result<std::vector<JosieIndex::Hit>> JosieIndex::TopKBruteForce(
    const std::vector<std::string>& query_values, size_t k) const {
  if (!built_) return Status::FailedPrecondition("call Build() first");
  const std::vector<uint32_t> q = QueryRanks(query_values);
  ::lake::TopK<uint32_t> heap(k);
  for (uint32_t s = 0; s < sets_.size(); ++s) {
    const std::vector<uint32_t>& set = sets_[s];
    uint32_t overlap = 0;
    size_t i = 0, j = 0;
    while (i < q.size() && j < set.size()) {
      if (q[i] == set[j]) {
        ++overlap;
        ++i;
        ++j;
      } else if (q[i] < set[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    if (overlap > 0) heap.Push(overlap, s);
  }
  std::vector<Hit> hits;
  for (auto& [score, s] : heap.Take()) {
    hits.push_back(Hit{external_ids_[s], static_cast<uint32_t>(score)});
  }
  return hits;
}

}  // namespace lake

namespace lake {

namespace {
constexpr uint64_t kJosieMagic = 0x314a4b4c;  // "LKJ1"
}  // namespace

Status JosieIndex::Save(std::ostream* out) const {
  if (!built_) return Status::FailedPrecondition("save requires a built index");
  BinaryWriter w(out);
  w.WriteVarint(kJosieMagic);
  w.WriteVarint(vocab_.size());
  for (uint32_t id = 0; id < vocab_.size(); ++id) {
    w.WriteString(vocab_.token(id));
    w.WriteVarint(vocab_.frequency(id));
  }
  w.WriteU64Vector(external_ids_);
  w.WriteVarint(sets_.size());
  for (const auto& set : sets_) w.WriteU32Vector(set);
  w.WriteU32Vector(token_to_rank_);
  if (!w.ok()) return Status::IoError("write failed");
  return Status::OK();
}

Status JosieIndex::Load(std::istream* in) {
  BinaryReader r(in);
  LAKE_ASSIGN_OR_RETURN(uint64_t magic, r.ReadVarint());
  if (magic != kJosieMagic) return Status::IoError("not a JOSIE index file");

  JosieIndex fresh;
  LAKE_ASSIGN_OR_RETURN(uint64_t vocab_size, r.ReadVarint());
  for (uint64_t id = 0; id < vocab_size; ++id) {
    LAKE_ASSIGN_OR_RETURN(std::string token, r.ReadString());
    LAKE_ASSIGN_OR_RETURN(uint64_t freq, r.ReadVarint());
    const uint32_t got = fresh.vocab_.GetOrAdd(token);
    if (got != id) return Status::IoError("duplicate token in dictionary");
    fresh.vocab_.SetFrequency(got, freq);
  }
  LAKE_ASSIGN_OR_RETURN(fresh.external_ids_, r.ReadU64Vector());
  LAKE_ASSIGN_OR_RETURN(uint64_t num_sets, r.ReadVarint());
  if (num_sets != fresh.external_ids_.size()) {
    return Status::IoError("set/id count mismatch");
  }
  fresh.sets_.reserve(num_sets);
  for (uint64_t s = 0; s < num_sets; ++s) {
    LAKE_ASSIGN_OR_RETURN(std::vector<uint32_t> set, r.ReadU32Vector());
    for (uint32_t rank : set) {
      if (rank >= vocab_size) return Status::IoError("rank out of range");
    }
    fresh.sets_.push_back(std::move(set));
  }
  LAKE_ASSIGN_OR_RETURN(fresh.token_to_rank_, r.ReadU32Vector());
  if (fresh.token_to_rank_.size() != vocab_size) {
    return Status::IoError("rank table size mismatch");
  }

  // Rebuild postings from the rank arrays.
  fresh.postings_.assign(vocab_size, {});
  for (uint32_t s = 0; s < fresh.sets_.size(); ++s) {
    const auto& set = fresh.sets_[s];
    for (uint32_t pos = 0; pos < set.size(); ++pos) {
      fresh.postings_[set[pos]].push_back(Posting{s, pos});
    }
  }
  fresh.built_ = true;
  *this = std::move(fresh);
  return Status::OK();
}

Status JosieIndex::SaveToFile(const std::string& path) const {
  store::SnapshotWriter snapshot;
  snapshot.AddSection("meta", "josie");
  std::ostringstream payload;
  LAKE_RETURN_IF_ERROR(Save(&payload));
  snapshot.AddSection("index", std::move(payload).str());
  return snapshot.WriteToFile(path);
}

Status JosieIndex::LoadFromFile(const std::string& path) {
  LAKE_ASSIGN_OR_RETURN(store::SnapshotReader reader,
                        store::SnapshotReader::OpenFile(path));
  LAKE_ASSIGN_OR_RETURN(std::string kind, reader.ReadSection("meta"));
  if (kind != "josie") {
    return Status::IoError("snapshot holds a \"" + kind +
                           "\" index, not a JOSIE index");
  }
  LAKE_ASSIGN_OR_RETURN(std::string payload, reader.ReadSection("index"));
  std::istringstream in(payload);
  return Load(&in);
}

}  // namespace lake
