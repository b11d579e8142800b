#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <unordered_set>
#include <utility>

#include "approx/oracle.h"
#include "cluster/cluster_engine.h"
#include "embed/contextual_encoder.h"
#include "index/hnsw.h"
#include "ingest/compactor.h"
#include "ingest/live_engine.h"
#include "ingest/pipeline.h"
#include "lakegen/benchmark_lakes.h"
#include "lakegen/generator.h"
#include "search/discovery_engine.h"
#include "serve/query_service.h"
#include "sketch/minhash.h"
#include "store/snapshot.h"
#include "table/csv.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/string_util.h"

namespace lakebench {
namespace {

namespace fs = std::filesystem;
using lake::ColumnResult;
using lake::DataLakeCatalog;
using lake::DiscoveryEngine;
using lake::JoinMethod;
using lake::Rng;
using lake::Table;
using lake::TableId;
using lake::TableResult;
using lake::UnionMethod;
using lake::serve::QueryKind;
using lake::serve::QueryRequest;
using lake::serve::QueryResponse;
using lake::serve::QueryService;

constexpr size_t kTopK = 10;
/// Extra reference depth for tie-aware answer checks: an answer's k-th hit
/// may legitimately be any member of a score tie that straddles rank k.
constexpr size_t kTieSlack = 30;
/// Answer sampling for the gates: every kSampleEvery-th operation of a
/// family, at most kMaxSamples per family.
constexpr size_t kSampleEvery = 8;
constexpr size_t kMaxSamples = 24;
/// Tables encoded into the HNSW index the traced run builds.
constexpr size_t kHnswTables = 300;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

uint64_t OpSeed(uint64_t seed, const char* stream, uint64_t index) {
  return lake::HashCombine(lake::Hash64(std::string_view(stream), seed),
                           lake::Hash64(index, seed));
}

uint64_t HashStrings(const std::vector<std::string>& values) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::string& v : values) h = lake::HashCombine(h, lake::Hash64(v));
  return h;
}

uint64_t HashTableBytes(const Table& t) {
  return lake::HashCombine(lake::Hash64(t.name()),
                           lake::Hash64(lake::WriteCsvString(t)));
}

/// The modalities a workload builds; everything else stays off.
struct Modalities {
  bool keyword = false;
  bool exact = false;
  bool lsh = false;
  bool josie = false;
  bool approx = false;
  bool correlated = false;
  bool tus = false;
  bool starmie = false;

  DiscoveryEngine::Options Options() const {
    DiscoveryEngine::Options o;
    o.build_keyword = keyword;
    o.build_exact_join = exact;
    o.build_lsh_join = lsh;
    o.build_josie = josie;
    o.build_approx = approx;
    o.build_correlated = correlated;
    o.build_tus = tus;
    o.build_starmie = starmie;
    o.build_pexeso = false;
    o.build_mate = false;
    o.build_santos = false;
    o.build_d3l = false;
    o.synthesize_kb = false;
    o.train_annotator = false;
    return o;
  }
  std::string List() const {
    std::string s;
    auto add = [&](bool on, const char* name) {
      if (!on) return;
      if (!s.empty()) s += ",";
      s += name;
    };
    add(keyword, "keyword");
    add(exact, "exact");
    add(lsh, "lsh_ensemble");
    add(josie, "josie");
    add(approx, "approx");
    add(correlated, "correlated");
    add(tus, "tus");
    add(starmie, "starmie");
    return s;
  }
};

const char* kNotBuilt =
    "pexeso,mate,santos,d3l,annotator (no workload queries them; PEXESO alone "
    "takes ~51 s to build at 880 columns)";

/// Copy of `t` keeping each row with probability `keep` (at least 4 rows):
/// a distinct query table drawn from a lake table.
std::shared_ptr<Table> SampleRows(const Table& t, double keep, Rng& rng,
                                  std::string name) {
  std::vector<size_t> rows;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (rng.NextUnit() < keep) rows.push_back(r);
  }
  for (size_t r = 0; rows.size() < std::min<size_t>(4, t.num_rows()); ++r) {
    if (std::find(rows.begin(), rows.end(), r) == rows.end()) rows.push_back(r);
  }
  std::sort(rows.begin(), rows.end());
  auto out = std::make_shared<Table>(std::move(name));
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const lake::Column& src = t.column(c);
    lake::Column col(src.name(), src.type());
    col.Reserve(rows.size());
    for (size_t r : rows) col.Append(src.cell(r));
    (void)out->AddColumn(std::move(col));
  }
  return out;
}

/// Distinct values of one string column of `t`, keeping each with
/// probability `keep` (at least 2): a distinct join query.
std::vector<std::string> SampleColumnValues(const Table& t, double keep,
                                            Rng& rng) {
  std::vector<size_t> string_cols;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (!t.column(c).IsNumeric()) string_cols.push_back(c);
  }
  if (string_cols.empty()) return {};
  const lake::Column& col =
      t.column(string_cols[rng.NextBounded(string_cols.size())]);
  std::vector<std::string> all = col.DistinctStrings();
  std::vector<std::string> out;
  for (const std::string& v : all) {
    if (rng.NextUnit() < keep) out.push_back(v);
  }
  for (size_t i = 0; out.size() < std::min<size_t>(2, all.size()); ++i) {
    if (std::find(out.begin(), out.end(), all[i]) == out.end()) {
      out.push_back(all[i]);
    }
  }
  return out;
}

/// A free-text query: one table's name words and one of its attributes,
/// plus a second table's name words. Drawing both tables at random makes
/// repeats rare (about 10^6 combinations on a 680-table lake), so a
/// no-repeat workload does not hit the result cache by accident.
std::string KeywordFor(const Table& t, const Table& other, size_t column) {
  std::string q = t.name() + " " + other.name();
  std::replace(q.begin(), q.end(), '_', ' ');
  if (t.num_columns() > 0) q += " " + t.column(column % t.num_columns()).name();
  return q;
}

/// A read ready to submit; owns the union query table the request points
/// at.
struct PreparedRead {
  QueryRequest request;
  std::shared_ptr<const Table> table;
};

struct ReadSample {
  Op op;
  QueryResponse response;
};

/// In-flight read. Latency is the generator's lag behind the due time plus
/// the service's own admission-to-completion time, so the generator's
/// polling interval never inflates a measured latency.
class ReadHandle {
 public:
  ReadHandle(lake::serve::SubmittedQuery query, Clock::time_point due,
             Clock::time_point sent, std::shared_ptr<const Table> table,
             Op op, std::vector<ReadSample>* sink)
      : query_(std::move(query)),
        due_(due),
        sent_(sent),
        table_(std::move(table)),
        op_(op),
        sink_(sink) {}

  bool Ready() {
    return query_.response.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  }
  void WaitFor(Clock::duration d) { query_.response.wait_for(d); }
  Outcome Finish() {
    QueryResponse r = query_.response.get();
    Outcome out;
    out.ok = r.status.ok();
    if (!out.ok) out.error = r.status.ToString();
    out.latency_ms = Ms(sent_ - due_) + r.latency_ms;
    if (sink_ != nullptr && out.ok) {
      sink_->push_back(ReadSample{op_, std::move(r)});
    }
    return out;
  }

 private:
  lake::serve::SubmittedQuery query_;
  Clock::time_point due_;
  Clock::time_point sent_;
  std::shared_ptr<const Table> table_;
  Op op_;
  std::vector<ReadSample>* sink_;
};

/// Decides which answers the gates keep: every kSampleEvery-th operation
/// of each family, up to kMaxSamples.
class Sampler {
 public:
  bool Take(Family f) {
    const size_t i = static_cast<size_t>(f);
    const size_t n = seen_[i]++;
    if (n % kSampleEvery != 0 || taken_[i] >= kMaxSamples) return false;
    ++taken_[i];
    return true;
  }

 private:
  size_t seen_[kNumFamilies] = {};
  size_t taken_[kNumFamilies] = {};
};

/// Serves read operations through `service` from one generator thread,
/// with due times counted from `start`.
LoadLog ServeReads(QueryService* service, const std::vector<Op>& ops,
                   bool closed_loop, Clock::time_point start, double seconds,
                   const std::function<PreparedRead(const Op&)>& prepare,
                   std::vector<ReadSample>* sink) {
  LoadLog log;
  Sampler sampler;
  auto submit = [&](const Op& op,
                    Clock::time_point due) -> std::optional<ReadHandle> {
    PreparedRead p = prepare(op);
    const Clock::time_point sent = Clock::now();
    if (closed_loop) due = sent;
    auto submitted = service->Submit(std::move(p.request));
    if (!submitted.ok()) {
      log.Fail(std::string(FamilyName(op.family)) + ": " +
               submitted.status().ToString());
      return std::nullopt;
    }
    std::vector<ReadSample>* target =
        sink != nullptr && sampler.Take(op.family) ? sink : nullptr;
    return ReadHandle(std::move(submitted).value(), due, sent,
                      std::move(p.table), op, target);
  };
  const auto duration = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  RunGenerator<ReadHandle>(ops, closed_loop, Nproc(), start, duration, submit,
                           &log);
  return log;
}

/// Open-loop arrival times: Poisson at `rate` per second, seeded.
std::vector<int64_t> PoissonArrivals(Rng& rng, double rate, double seconds) {
  std::vector<int64_t> due;
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.NextUnit()) / rate;
    if (t >= seconds) break;
    due.push_back(static_cast<int64_t>(t * 1e9));
  }
  return due;
}

QueryService::Options ServiceOptions() {
  QueryService::Options o;
  o.num_workers = Nproc();
  return o;
}

/// Registry samples every service-backed workload records.
void RecordServeRegistry(QueryService* service, TraceRecorder* trace) {
  lake::serve::MetricsRegistry& m = service->metrics();
  const auto wait = m.GetHistogram("serve.queue_wait")->Snap();
  trace->RunCount("serve.queue_wait_p50_us", wait.p50());
  trace->RunCount("serve.queue_wait_p99_us", wait.p99());
  trace->RunCount("serve.queue_wait_samples", static_cast<double>(wait.count));
  for (const char* name :
       {"serve.cache.hits", "serve.cache.misses", "serve.queries.admitted",
        "serve.queries.rejected", "serve.shed.limit", "serve.shed.batch",
        "serve.shed.codel", "serve.brownout", "serve.ingest.base_hits",
        "serve.ingest.delta_hits"}) {
    trace->RunCount(name, static_cast<double>(m.GetCounter(name)->value()));
  }
}

/// Tie-aware check of a ranked answer against exact scores: the answer's
/// score sequence must equal the reference's, and every hit must carry its
/// exact score. Returns an empty string when the answer is right.
std::string CheckRanking(const std::vector<double>& answer_scores,
                         const std::vector<double>& exact_scores,
                         const std::vector<double>& reference_scores) {
  const size_t n = std::min(kTopK, reference_scores.size());
  if (answer_scores.size() != n) {
    return "answer has " + std::to_string(answer_scores.size()) +
           " hits, reference " + std::to_string(n);
  }
  for (size_t i = 0; i < n; ++i) {
    if (answer_scores[i] != reference_scores[i]) {
      return "rank " + std::to_string(i) + " score " +
             std::to_string(answer_scores[i]) + " != reference " +
             std::to_string(reference_scores[i]);
    }
    if (answer_scores[i] != exact_scores[i]) {
      return "rank " + std::to_string(i) + " reports " +
             std::to_string(answer_scores[i]) + " but its exact score is " +
             std::to_string(exact_scores[i]);
    }
  }
  return "";
}

/// Tie-aware recall@k: hits whose true score reaches the reference's k-th
/// score, over min(k, reference size).
double TieAwareRecall(const std::vector<double>& hit_true_scores,
                      const std::vector<double>& reference_scores) {
  const size_t n = std::min(kTopK, reference_scores.size());
  if (n == 0) return 1.0;
  const double kth = reference_scores[n - 1];
  size_t good = 0;
  for (double s : hit_true_scores) {
    if (s >= kth && s > 0) ++good;
  }
  return std::min(1.0, static_cast<double>(good) / static_cast<double>(n));
}

/// Builds an HNSW index over the contextual column embeddings of up to
/// kHnswTables lake tables, the structure Starmie probes.
std::unique_ptr<lake::HnswIndex> BuildColumnHnsw(
    const DataLakeCatalog& catalog, const DiscoveryEngine& engine) {
  const lake::ContextualColumnEncoder& enc = engine.contextual_encoder();
  lake::HnswIndex::Options o;
  o.dim = enc.dim();
  o.m = 16;
  o.ef_construction = 100;
  auto index = std::make_unique<lake::HnswIndex>(o);
  const size_t n = std::min(kHnswTables, catalog.num_tables());
  uint64_t id = 0;
  for (size_t t = 0; t < n; ++t) {
    for (lake::Vector& v : enc.EncodeTable(catalog.table(static_cast<TableId>(t)))) {
      (void)index->Insert(id++, std::move(v));
    }
  }
  return index;
}

/// Children of a returned search.starmie span: the query encoding and one
/// HNSW probe per encoded query column, as separate calls on the same input
/// (the parent's self time is therefore an estimate).
void TraceStarmieChildren(TraceRecorder* trace, uint64_t parent,
                          const DiscoveryEngine& engine,
                          const lake::HnswIndex* hnsw, const Table& query) {
  std::vector<lake::Vector> vecs;
  {
    TraceRecorder::Span s(trace, "embed.encode_table", parent);
    vecs = engine.contextual_encoder().EncodeTable(query);
  }
  if (hnsw == nullptr) return;
  for (const lake::Vector& v : vecs) {
    TraceRecorder::Span s(trace, "index.hnsw.search", parent);
    auto hits = hnsw->Search(v, 32, 64);
    s.Count("index.hnsw.hits", hits.ok() ? static_cast<double>(hits.value().size()) : 0);
  }
}

/// Child of a returned search.josie span: the JOSIE index probe on the same
/// query, with its work counters.
void TraceJosieChild(TraceRecorder* trace, uint64_t parent,
                     const DiscoveryEngine& engine,
                     const std::vector<std::string>& values) {
  if (engine.josie_join() == nullptr) return;
  TraceRecorder::Span s(trace, "index.josie.search", parent);
  lake::JosieIndex::QueryStats stats;
  auto r = engine.josie_join()->Search(values, kTopK, &stats);
  s.Count("index.josie.postings", static_cast<double>(stats.posting_entries_read));
  s.Count("index.josie.lists", static_cast<double>(stats.lists_read));
  s.Count("index.josie.verified", static_cast<double>(stats.candidates_verified));
  s.Count("index.josie.candidates", static_cast<double>(stats.candidates_seen));
  s.Count("index.josie.hits", r.ok() ? static_cast<double>(r.value().size()) : 0);
}

/// One direct engine call for `req` (span "search.<method>"), then its
/// per-layer children as separate calls.
void TraceEngineCall(TraceRecorder* trace, const DiscoveryEngine& engine,
                     const QueryRequest& req, Family family,
                     const lake::HnswIndex* hnsw) {
  uint64_t parent = 0;
  switch (family) {
    case Family::kKeyword: {
      TraceRecorder::Span s(trace, "search.keyword");
      (void)engine.Keyword(req.keyword, req.k);
      break;
    }
    case Family::kJosie: {
      {
        TraceRecorder::Span s(trace, "search.josie");
        (void)engine.Joinable(req.values, JoinMethod::kJosie, req.k);
        parent = s.id();
      }
      TraceJosieChild(trace, parent, engine, req.values);
      break;
    }
    case Family::kApprox: {
      TraceRecorder::Span s(trace, "search.approx");
      lake::approx::ApproxQueryStats stats;
      (void)engine.Joinable(req.values, JoinMethod::kApprox, req.k, nullptr,
                            -1, &stats);
      s.Count("approx.estimates", static_cast<double>(stats.estimates));
      s.Count("approx.exact_fallbacks", static_cast<double>(stats.exact_fallbacks));
      s.Count("approx.interval_decisions",
              static_cast<double>(stats.interval_decisions));
      break;
    }
    case Family::kLshEnsemble: {
      {
        TraceRecorder::Span s(trace, "search.lsh_ensemble");
        (void)engine.Joinable(req.values, JoinMethod::kLshEnsemble, req.k);
        parent = s.id();
      }
      // The query sketch LSH Ensemble probes with (128 hashes, its default).
      TraceRecorder::Span m(trace, "sketch.minhash", parent);
      (void)lake::MinHashSignature::Build(req.values, 128);
      break;
    }
    case Family::kCorrelated: {
      TraceRecorder::Span s(trace, "search.correlated");
      if (engine.correlated_join() != nullptr) {
        (void)engine.correlated_join()->Search(req.values, req.numeric_values,
                                               req.k);
      }
      break;
    }
    case Family::kStarmie: {
      {
        TraceRecorder::Span s(trace, "search.starmie");
        (void)engine.Unionable(*req.union_table, UnionMethod::kStarmie, req.k,
                               req.exclude);
        parent = s.id();
      }
      TraceStarmieChildren(trace, parent, engine, hnsw, *req.union_table);
      break;
    }
    case Family::kTus: {
      TraceRecorder::Span s(trace, "search.tus");
      (void)engine.Unionable(*req.union_table, UnionMethod::kTus, req.k,
                             req.exclude);
      break;
    }
    case Family::kAdd:
    case Family::kRemove:
      break;
  }
}

/// Weighted family draw for a closed-loop mix.
Family DrawFamily(Rng& rng, const std::vector<std::pair<Family, double>>& mix) {
  double u = rng.NextUnit();
  for (const auto& [f, w] : mix) {
    if (u < w) return f;
    u -= w;
  }
  return mix.back().first;
}

/// Closed-loop schedule: `count` operations with unique pool indices
/// starting at `first`, families drawn from `mix`.
std::vector<Op> ClosedSchedule(uint64_t seed, bool measured, size_t first,
                               size_t count,
                               const std::vector<std::pair<Family, double>>& mix) {
  Rng rng(OpSeed(seed, measured ? "mix.measured" : "mix.warmup", 0));
  std::vector<Op> ops;
  ops.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ops.push_back(Op{DrawFamily(rng, mix), static_cast<uint32_t>(first + i), 0});
  }
  return ops;
}

std::string DescribeOp(const Op& op, uint64_t content) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %u %lld %016llx", FamilyName(op.family),
                op.index, static_cast<long long>(op.due_ns),
                static_cast<unsigned long long>(content));
  return buf;
}

uint64_t HashRequest(const QueryRequest& r) {
  uint64_t h = lake::Hash64(static_cast<uint64_t>(r.kind));
  h = lake::HashCombine(h, static_cast<uint64_t>(r.join_method));
  h = lake::HashCombine(h, static_cast<uint64_t>(r.union_method));
  h = lake::HashCombine(h, r.approx_ok ? 1 : 0);
  h = lake::HashCombine(h, lake::Hash64(r.keyword));
  h = lake::HashCombine(h, HashStrings(r.values));
  for (double d : r.numeric_values) {
    h = lake::HashCombine(h, lake::Hash64(static_cast<uint64_t>(d * 1e9)));
  }
  if (r.union_table != nullptr) {
    h = lake::HashCombine(h, HashTableBytes(*r.union_table));
  }
  h = lake::HashCombine(h, static_cast<uint64_t>(r.exclude));
  h = lake::HashCombine(h, lake::Hash64(r.exclude_name));
  return h;
}

/// Common base: one QueryService, read answers sampled for the gates, and
/// the serial replay loop.
class ServiceWorkload : public Workload {
 public:
  std::string Describe(const Op& op) const override {
    PreparedRead p = Prepare(op);
    return DescribeOp(op, HashRequest(p.request));
  }

  void Replay(const std::vector<Op>& sample, TraceRecorder* trace) override {
    BeforeReplay();
    for (const Op& op : sample) {
      PreparedRead p = Prepare(op);
      trace->BeginRequest();
      TraceRecorder::Span root(trace, std::string("request.") +
                                          FamilyName(op.family));
      {
        QueryRequest req = p.request;
        req.bypass_cache = true;
        TraceRecorder::Span s(trace, "serve.execute");
        QueryResponse r = service_->Execute(std::move(req));
        s.Count("serve.ok", r.status.ok() ? 1 : 0);
      }
      ReplayDirect(op, p, trace);
    }
  }

 protected:
  virtual PreparedRead Prepare(const Op& op) const = 0;
  /// The direct (service-bypassing) calls for one replayed operation.
  virtual void ReplayDirect(const Op& op, const PreparedRead& p,
                            TraceRecorder* trace) = 0;
  virtual void BeforeReplay() {}

  std::unique_ptr<QueryService> service_;
  std::vector<ReadSample> samples_;
  uint64_t seed_ = 0;
};

// ---------------------------------------------------------------------------
// join-skewed: JOSIE / approx / LSH Ensemble / correlated over a lake of
// power-law-sized single-column tables, closed loop, no repeats.

class JoinSkewed : public ServiceWorkload {
 public:
  void Generate(uint64_t seed) override {
    seed_ = seed;
    // MakeSkewedSetsWorkload's power law, size = min * (max/min)^(u^1.2),
    // with u stratified over (0, 1) rather than drawn: every seed gets the
    // same size distribution (so the same work) and only the contents and
    // the size-to-set assignment change.
    Rng rng(OpSeed(seed, "sets", 0));
    std::vector<size_t> sizes(kSets);
    for (size_t i = 0; i < kSets; ++i) {
      const double u = (static_cast<double>(i) + 0.5) / kSets;
      sizes[i] = static_cast<size_t>(
          kMinSetSize * std::pow(static_cast<double>(kMaxSetSize) / kMinSetSize,
                                 std::pow(u, kSizeSkew)));
    }
    rng.Shuffle(sizes);
    catalog_ = std::make_unique<DataLakeCatalog>();
    for (size_t s = 0; s < kSets; ++s) {
      if (sizes[s] >= kQuerySize) hosts_.push_back(s);
      std::unordered_set<size_t> members;
      std::vector<lake::Value> cells;
      cells.reserve(sizes[s]);
      while (cells.size() < sizes[s]) {
        const size_t v = rng.NextBounded(kUniverse);
        if (members.insert(v).second) {
          cells.emplace_back("v" + std::to_string(v));
        }
      }
      Table t(lake::StrFormat("set_%05zu", s));
      (void)t.AddColumn(
          lake::Column("values", lake::DataType::kString, std::move(cells)));
      (void)catalog_->AddTable(std::move(t));
    }
    set_tables_ = catalog_->num_tables();
    lake::CorrelatedOptions co;
    co.seed = seed;
    co.query_rows = kCorrRows;
    co.num_pairs = kCorrPairs;
    corr_ = lake::MakeCorrelatedWorkload(co);
    for (const auto& pair : corr_.pairs) {
      Table t(pair.table_name);
      lake::Column keys("join key", lake::DataType::kString);
      lake::Column vals("metric", lake::DataType::kDouble);
      for (size_t r = 0; r < pair.keys.size(); ++r) {
        keys.Append(lake::Value(pair.keys[r]));
        vals.Append(lake::Value(pair.values[r]));
      }
      (void)t.AddColumn(std::move(keys));
      (void)t.AddColumn(std::move(vals));
      (void)catalog_->AddTable(std::move(t));
    }
  }

  std::vector<Op> Schedule(bool measured, double seconds) const override {
    return measured ? ClosedSchedule(seed_, true, kWarmupOps,
                                     static_cast<size_t>(kMaxQps * seconds) + 1,
                                     Mix())
                    : ClosedSchedule(seed_, false, 0, kWarmupOps, Mix());
  }

  void Setup(const RunConfig&) override {
    engine_ = std::make_unique<DiscoveryEngine>(catalog_.get(), nullptr,
                                                Mods().Options());
    service_ = std::make_unique<QueryService>(engine_.get(), ServiceOptions());
  }
  void Teardown() override {
    service_.reset();
    engine_.reset();
  }

  LoadLog Serve(const std::vector<Op>& ops, double seconds,
                bool measured) override {
    return ServeReads(service_.get(), ops, /*closed_loop=*/true, Clock::now(), seconds,
                      [this](const Op& op) { return Prepare(op); },
                      measured ? &samples_ : nullptr);
  }

  void Check(RunResult* result) override {
    const lake::JosieIndex& index = engine_->josie_join()->index();
    Gate josie{"josie_exact_vs_brute_force", true, 0, ""};
    Gate exact{"exact_containment_vs_oracle", true, 0, ""};
    std::map<Family, std::vector<double>> recall;
    size_t exact_checked = 0;
    for (const ReadSample& s : samples_) {
      if (s.op.family == Family::kCorrelated) continue;
      const std::vector<std::string> q = JoinQuery(s.op.index);
      const size_t qn = lake::approx::DiscoveryOracle::ExactDistinct(q);
      auto bf = index.TopKBruteForce(q, kTopK + kTieSlack);
      if (!bf.ok()) continue;
      std::vector<double> ref_overlap;
      for (const auto& h : bf.value()) ref_overlap.push_back(h.overlap);
      auto true_overlap = [&](const lake::ColumnRef& ref) {
        return static_cast<double>(lake::approx::DiscoveryOracle::ExactOverlap(
            q, catalog_->column(ref).DistinctStrings()));
      };
      std::vector<double> answer, truth;
      for (const ColumnResult& c : s.response.columns) {
        answer.push_back(c.score);
        truth.push_back(true_overlap(c.column));
      }
      if (s.op.family == Family::kJosie) {
        ++josie.checked;
        const std::string err = CheckRanking(answer, truth, ref_overlap);
        if (!err.empty() && josie.passed) {
          josie.passed = false;
          josie.detail = "op " + std::to_string(s.op.index) + ": " + err;
        }
        recall[Family::kJosie].push_back(TieAwareRecall(truth, ref_overlap));
        // The engine's exact containment method on the same query, against
        // the brute-force overlaps over |query|.
        if (exact_checked < kMaxSamples / 2) {
          ++exact_checked;
          ++exact.checked;
          auto ec = engine_->Joinable(q, JoinMethod::kExactContainment, kTopK);
          std::vector<double> ea, et, er;
          if (ec.ok()) {
            for (const ColumnResult& c : ec.value()) {
              ea.push_back(c.score);
              et.push_back(lake::approx::DiscoveryOracle::ExactContainment(
                  q, catalog_->column(c.column).DistinctStrings()));
            }
          }
          for (double o : ref_overlap) er.push_back(o / static_cast<double>(qn));
          std::string e = ec.ok() ? CheckRanking(ea, et, er)
                                  : ec.status().ToString();
          if (!e.empty() && exact.passed) {
            exact.passed = false;
            exact.detail = "op " + std::to_string(s.op.index) + ": " + e;
          }
        }
      } else if (s.op.family == Family::kLshEnsemble) {
        // LSH Ensemble answers a containment-threshold query (t = 0.5):
        // its reference is the exact top-k among columns at or above it.
        std::vector<double> ref;
        for (double o : ref_overlap) {
          if (o / static_cast<double>(qn) >= 0.5) ref.push_back(o);
        }
        recall[Family::kLshEnsemble].push_back(TieAwareRecall(truth, ref));
      } else {
        recall[s.op.family].push_back(TieAwareRecall(truth, ref_overlap));
      }
    }
    result->gates.push_back(josie);
    result->gates.push_back(exact);
    std::vector<double> all;
    for (auto& [f, v] : recall) {
      double sum = 0;
      for (double x : v) sum += x;
      result->Add(std::string(FamilyName(f)) + "_recall_at_10",
                  v.empty() ? 0 : sum / static_cast<double>(v.size()), "ratio");
      all.insert(all.end(), v.begin(), v.end());
    }
    double sum = 0;
    for (double x : all) sum += x;
    result->Add("recall_at_10",
                all.empty() ? 0 : sum / static_cast<double>(all.size()),
                "ratio");
  }

  void RecordRegistry(TraceRecorder* trace) override {
    RecordServeRegistry(service_.get(), trace);
  }

  void Facts(RunResult* r) const override {
    r->Fact("lake", lake::StrFormat(
                        "%zu single-column tables, sizes power-law 8..%zu "
                        "(skew 1.2, stratified; universe %zu), plus %zu "
                        "correlated key/number pairs of ~%zu rows",
                        set_tables_, kMaxSetSize, kUniverse, kCorrPairs,
                        kCorrRows * 3 / 2));
    r->Fact("modalities", Mods().List());
    r->Fact("not_built", kNotBuilt);
    r->Fact("traffic", "closed loop, window = service workers, no repeats; "
                       "50% josie, 20% approx_ok, 15% lsh_ensemble, 15% "
                       "correlated; k=10");
  }

 protected:
  PreparedRead Prepare(const Op& op) const override {
    PreparedRead p;
    QueryRequest& r = p.request;
    r.k = kTopK;
    switch (op.family) {
      case Family::kJosie:
      case Family::kApprox:
      case Family::kLshEnsemble:
        r.kind = QueryKind::kJoin;
        r.values = JoinQuery(op.index);
        r.join_method = op.family == Family::kLshEnsemble
                            ? JoinMethod::kLshEnsemble
                            : JoinMethod::kJosie;
        r.approx_ok = op.family == Family::kApprox;
        break;
      default: {
        r.kind = QueryKind::kCorrelated;
        Rng rng(OpSeed(seed_, "correlated", op.index));
        std::vector<size_t> rows(corr_.query_keys.size());
        for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
        rng.Shuffle(rows);
        rows.resize(rows.size() / 2);
        std::sort(rows.begin(), rows.end());
        for (size_t i : rows) {
          r.values.push_back(corr_.query_keys[i]);
          r.numeric_values.push_back(corr_.query_values[i]);
        }
        break;
      }
    }
    return p;
  }

  void ReplayDirect(const Op& op, const PreparedRead& p,
                    TraceRecorder* trace) override {
    TraceEngineCall(trace, *engine_, p.request, op.family, nullptr);
  }

 private:
  static constexpr size_t kSets = 4000;
  static constexpr size_t kMinSetSize = 8;
  static constexpr size_t kMaxSetSize = 4096;
  static constexpr double kSizeSkew = 1.2;
  static constexpr size_t kUniverse = 20000;
  static constexpr size_t kQuerySize = 64;
  static constexpr size_t kCorrPairs = 24;
  static constexpr size_t kCorrRows = 400;
  static constexpr size_t kWarmupOps = 200;
  static constexpr double kMaxQps = 3000;

  static Modalities Mods() {
    Modalities m;
    m.keyword = m.exact = m.lsh = m.josie = m.approx = m.correlated = true;
    return m;
  }
  static std::vector<std::pair<Family, double>> Mix() {
    return {{Family::kJosie, 0.5},
            {Family::kApprox, 0.2},
            {Family::kLshEnsemble, 0.15},
            {Family::kCorrelated, 0.15}};
  }

  /// Query i: three quarters drawn from one host set at least as large as
  /// the query, the rest from the universe (MakeSkewedSetsWorkload's
  /// recipe, one independent stream per query).
  std::vector<std::string> JoinQuery(uint32_t index) const {
    Rng rng(OpSeed(seed_, "join", index));
    const lake::Column& host =
        catalog_->table(static_cast<TableId>(hosts_[rng.NextBounded(hosts_.size())]))
            .column(0);
    std::unordered_set<std::string> members;
    std::vector<std::string> q;
    const size_t from_host = std::min(host.size(), kQuerySize * 3 / 4);
    while (q.size() < from_host) {
      const std::string& v = host.cell(rng.NextBounded(host.size())).as_string();
      if (members.insert(v).second) q.push_back(v);
    }
    while (q.size() < kQuerySize) {
      std::string v = "v" + std::to_string(rng.NextBounded(kUniverse));
      if (members.insert(v).second) q.push_back(std::move(v));
    }
    return q;
  }

  std::unique_ptr<DataLakeCatalog> catalog_;
  size_t set_tables_ = 0;
  std::vector<size_t> hosts_;
  lake::CorrelatedWorkload corr_;
  std::unique_ptr<DiscoveryEngine> engine_;
};

// ---------------------------------------------------------------------------
// Shared by the lakegen-based workloads: a generated lake and distinct
// keyword / join / union queries drawn from it.

class LakegenWorkload : public ServiceWorkload {
 protected:
  void GenerateLake(uint64_t seed, size_t templates, size_t per_template,
                    size_t distractors) {
    seed_ = seed;
    lake::GeneratorOptions o;
    o.seed = seed;
    o.num_domains = templates + 4;
    o.values_per_domain = 250;
    o.num_templates = templates;
    // A fixed schema width, so the work per table does not vary by seed.
    o.min_string_columns = 3;
    o.max_string_columns = 3;
    o.tables_per_template = per_template;
    o.distractor_tables = distractors;
    o.homograph_count = 6;
    lake_ = std::make_unique<lake::GeneratedLake>(
        lake::LakeGenerator(o).Generate());
  }

  /// Distinct query inputs for pool entry `index` over `catalog`.
  PreparedRead LakeQuery(const DataLakeCatalog& catalog, Family family,
                         uint32_t index, bool by_name) const {
    PreparedRead p;
    QueryRequest& r = p.request;
    r.k = kTopK;
    Rng rng(OpSeed(seed_, FamilyName(family), index));
    const TableId t = static_cast<TableId>(rng.NextBounded(catalog.num_tables()));
    const Table& table = catalog.table(t);
    switch (family) {
      case Family::kKeyword:
        r.kind = QueryKind::kKeyword;
        r.keyword = KeywordFor(
            table,
            catalog.table(static_cast<TableId>(rng.NextBounded(catalog.num_tables()))),
            rng.NextBounded(64));
        break;
      case Family::kJosie:
        r.kind = QueryKind::kJoin;
        r.join_method = JoinMethod::kJosie;
        r.values = SampleColumnValues(table, 0.8, rng);
        break;
      case Family::kStarmie:
      case Family::kTus: {
        r.kind = QueryKind::kUnion;
        r.union_method = family == Family::kStarmie ? UnionMethod::kStarmie
                                                    : UnionMethod::kTus;
        p.table = SampleRows(table, 0.8, rng,
                             lake::StrFormat("query_%u", index));
        r.union_table = p.table.get();
        if (by_name) {
          r.exclude_name = table.name();
        } else {
          r.exclude = static_cast<int64_t>(t);
        }
        break;
      }
      default:
        break;
    }
    return p;
  }

  std::unique_ptr<lake::GeneratedLake> lake_;
};

// ---------------------------------------------------------------------------
// union-wide: Starmie / TUS / keyword over a wide lakegen lake, closed loop.

class UnionWide : public LakegenWorkload {
 public:
  void Generate(uint64_t seed) override {
    GenerateLake(seed, kTemplates, kPerTemplate, kDistractors);
  }

  std::vector<Op> Schedule(bool measured, double seconds) const override {
    return measured ? ClosedSchedule(seed_, true, kWarmupOps,
                                     static_cast<size_t>(kMaxQps * seconds) + 1,
                                     Mix())
                    : ClosedSchedule(seed_, false, 0, kWarmupOps, Mix());
  }

  void Setup(const RunConfig&) override {
    engine_ = std::make_unique<DiscoveryEngine>(&lake_->catalog, &lake_->kb,
                                                Mods().Options());
    service_ = std::make_unique<QueryService>(engine_.get(), ServiceOptions());
  }
  void Teardown() override {
    service_.reset();
    engine_.reset();
  }

  LoadLog Serve(const std::vector<Op>& ops, double seconds,
                bool measured) override {
    return ServeReads(service_.get(), ops, /*closed_loop=*/true, Clock::now(), seconds,
                      [this](const Op& op) { return Prepare(op); },
                      measured ? &samples_ : nullptr);
  }

  void Check(RunResult* result) override {
    // The service must return exactly what the engine returns for the same
    // request, never the query's own table, and (reported, not gated) how
    // much of the query's unionable group it finds.
    Gate same{"service_equals_engine", true, 0, ""};
    Gate self{"self_table_excluded", true, 0, ""};
    std::vector<double> recall;
    for (const ReadSample& s : samples_) {
      PreparedRead p = Prepare(s.op);
      const QueryRequest& r = p.request;
      std::vector<TableResult> direct;
      if (r.kind == QueryKind::kKeyword) {
        direct = engine_->Keyword(r.keyword, r.k);
      } else {
        auto d = engine_->Unionable(*r.union_table, r.union_method, r.k,
                                    r.exclude);
        if (d.ok()) direct = d.value();
      }
      ++same.checked;
      bool equal = direct.size() == s.response.tables.size();
      for (size_t i = 0; equal && i < direct.size(); ++i) {
        equal = direct[i].table_id == s.response.tables[i].table_id &&
                direct[i].score == s.response.tables[i].score;
      }
      if (!equal && same.passed) {
        same.passed = false;
        same.detail = DescribeOp(s.op, 0) + ": service answer differs";
      }
      if (r.kind != QueryKind::kUnion) continue;
      ++self.checked;
      for (const TableResult& t : s.response.tables) {
        if (static_cast<int64_t>(t.table_id) == r.exclude && self.passed) {
          self.passed = false;
          self.detail = DescribeOp(s.op, 0) + ": answer contains the query";
        }
      }
      auto tmpl = lake_->template_of.find(static_cast<TableId>(r.exclude));
      if (tmpl == lake_->template_of.end()) continue;
      const auto& group = lake_->unionable_groups[tmpl->second];
      if (std::find(group.begin(), group.end(),
                    static_cast<TableId>(r.exclude)) == group.end()) {
        continue;  // distractor query: no unionable ground truth
      }
      std::set<TableId> relevant(group.begin(), group.end());
      relevant.erase(static_cast<TableId>(r.exclude));
      size_t found = 0;
      for (const TableResult& t : s.response.tables) found += relevant.count(t.table_id);
      recall.push_back(static_cast<double>(found) /
                       static_cast<double>(std::min(kTopK, relevant.size())));
    }
    result->gates.push_back(same);
    result->gates.push_back(self);
    double sum = 0;
    for (double x : recall) sum += x;
    result->Add("recall_at_10",
                recall.empty() ? 0 : sum / static_cast<double>(recall.size()),
                "ratio");
  }

  void RecordRegistry(TraceRecorder* trace) override {
    RecordServeRegistry(service_.get(), trace);
  }

  void Facts(RunResult* r) const override {
    r->Fact("lake", lake::StrFormat(
                        "%zu lakegen tables (%zu templates x %zu, %zu "
                        "distractors, 6 homographs), %zu columns",
                        lake_->catalog.num_tables(), kTemplates, kPerTemplate,
                        kDistractors, lake_->catalog.num_columns()));
    r->Fact("modalities", Mods().List());
    r->Fact("not_built", kNotBuilt);
    r->Fact("traffic", "closed loop, window = service workers, no repeats; "
                       "60% starmie, 20% tus, 20% keyword; query table = a "
                       "row sample of a lake table, that table excluded");
  }

 protected:
  PreparedRead Prepare(const Op& op) const override {
    return LakeQuery(lake_->catalog, op.family, op.index, /*by_name=*/false);
  }
  void BeforeReplay() override {
    hnsw_ = BuildColumnHnsw(lake_->catalog, *engine_);
  }
  void ReplayDirect(const Op& op, const PreparedRead& p,
                    TraceRecorder* trace) override {
    TraceEngineCall(trace, *engine_, p.request, op.family, hnsw_.get());
  }

 private:
  static constexpr size_t kTemplates = 8;
  static constexpr size_t kPerTemplate = 80;
  static constexpr size_t kDistractors = 40;
  static constexpr size_t kWarmupOps = 300;
  static constexpr double kMaxQps = 6000;

  static Modalities Mods() {
    Modalities m;
    m.keyword = m.tus = m.starmie = true;
    return m;
  }
  static std::vector<std::pair<Family, double>> Mix() {
    return {{Family::kStarmie, 0.6}, {Family::kTus, 0.2}, {Family::kKeyword, 0.2}};
  }

  std::unique_ptr<DiscoveryEngine> engine_;
  std::unique_ptr<lake::HnswIndex> hnsw_;
};

// ---------------------------------------------------------------------------
// ingest-live: an open-loop CSV writer (adds plus ~10% removes) beside an
// open-loop reader over a LiveEngine with a per-append-fsync WAL.

class IngestLive;

/// In-flight write; latency runs from the due time until the ingest future
/// resolves (WAL-durable and published).
class WriteHandle {
 public:
  WriteHandle(IngestLive* owner, Op op, Clock::time_point due,
              std::future<lake::Result<TableId>> add,
              std::future<lake::Status> remove)
      : owner_(owner), op_(op), due_(due), add_(std::move(add)),
        remove_(std::move(remove)) {}
  bool Ready() {
    return op_.family == Family::kAdd
               ? add_.wait_for(std::chrono::seconds(0)) == std::future_status::ready
               : remove_.wait_for(std::chrono::seconds(0)) ==
                     std::future_status::ready;
  }
  void WaitFor(Clock::duration d) {
    if (op_.family == Family::kAdd) {
      add_.wait_for(d);
    } else {
      remove_.wait_for(d);
    }
  }
  Outcome Finish();

 private:
  IngestLive* owner_;
  Op op_;
  Clock::time_point due_;
  std::future<lake::Result<TableId>> add_;
  std::future<lake::Status> remove_;
};

class IngestLive : public LakegenWorkload {
 public:
  void Generate(uint64_t seed) override {
    GenerateLake(seed, kTemplates, (kBaseTables + kStreamTables) / kTemplates,
                 0);
    // Hold a seeded sample of the lake out as the write stream; the rest
    // is the base the engine starts from.
    std::vector<TableId> ids = lake_->catalog.AllTables();
    Rng rng(OpSeed(seed, "stream", 0));
    rng.Shuffle(ids);
    std::set<TableId> stream(ids.begin(), ids.begin() + kStreamTables);
    auto base = std::make_shared<DataLakeCatalog>();
    for (TableId t = 0; t < lake_->catalog.num_tables(); ++t) {
      const Table& table = lake_->catalog.table(t);
      if (stream.count(t) != 0) {
        stream_names_.push_back(table.name());
        stream_csv_.push_back(lake::WriteCsvString(table));
      } else {
        (void)base->AddTable(table);
      }
    }
    base_ = std::move(base);
    BuildWriteSchedules();
  }

  std::vector<Op> Schedule(bool measured, double seconds) const override {
    const double phase = measured ? seconds : kWarmupSeconds;
    Rng rng(OpSeed(seed_, measured ? "reads.measured" : "reads.warmup", 0));
    std::vector<Op> ops;
    uint32_t next = measured ? 1u << 20 : 0;
    for (int64_t due : PoissonArrivals(rng, kReadQps, phase)) {
      const Family f = std::array<Family, 3>{Family::kKeyword, Family::kJosie,
                                             Family::kStarmie}[rng.NextBounded(3)];
      ops.push_back(Op{f, next++, due});
    }
    // Writes: a fixed rate, in the same sequence (merged by due time).
    const std::vector<Op>& writes = measured ? measured_writes_ : warmup_writes_;
    for (const Op& w : writes) {
      if (w.due_ns < static_cast<int64_t>(phase * 1e9)) ops.push_back(w);
    }
    std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
      return a.due_ns < b.due_ns;
    });
    return ops;
  }

  std::string Describe(const Op& op) const override {
    if (op.family == Family::kAdd) {
      return DescribeOp(op, lake::HashCombine(lake::Hash64(stream_names_[op.index]),
                                              lake::Hash64(stream_csv_[op.index])));
    }
    if (op.family == Family::kRemove) {
      return DescribeOp(op, lake::Hash64(stream_names_[op.index]));
    }
    return ServiceWorkload::Describe(op);
  }

  void Setup(const RunConfig& config) override {
    dir_ = config.work_dir + "/ingest-live";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    store_ = std::make_unique<lake::store::SnapshotStore>(dir_);
    lake::ingest::LiveEngine::Options lo;
    lo.base_options = Mods().Options();
    lo.kb = &lake_->kb;
    lo.store = store_.get();
    lo.metrics = &registry_;
    lo.enable_wal = true;
    lo.wal_options.sync = lake::store::WalWriter::SyncPolicy::kEveryAppend;
    live_ = std::make_unique<lake::ingest::LiveEngine>(base_, lo);
    pipeline_ = std::make_unique<lake::ingest::IngestPipeline>(live_.get());
    lake::ingest::Compactor::Options co;
    co.max_delta_tables = kCompactAtDelta;
    compactor_ = std::make_unique<lake::ingest::Compactor>(live_.get(), co);
    service_ = std::make_unique<QueryService>(live_.get(), ServiceOptions());
  }

  void Teardown() override {
    service_.reset();
    if (compactor_ != nullptr) compactor_->Stop();
    compactor_.reset();
    pipeline_.reset();
    live_.reset();
    store_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  LoadLog Serve(const std::vector<Op>& ops, double seconds,
                bool /*measured*/) override {
    std::vector<Op> reads, writes;
    for (const Op& op : ops) (IsWrite(op.family) ? writes : reads).push_back(op);
    // One generator thread for writes, one (this) for reads; both share
    // the phase start so due times line up.
    LoadLog write_log;
    const Clock::time_point start = Clock::now();
    const auto duration = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
    std::jthread writer([&] {
      auto submit = [&](const Op& op,
                        Clock::time_point due) -> std::optional<WriteHandle> {
        if (op.family == Family::kAdd) {
          csv_bytes_submitted_ += stream_csv_[op.index].size();
          return WriteHandle(this, op, due,
                             pipeline_->SubmitCsvString(stream_csv_[op.index],
                                                        stream_names_[op.index]),
                             {});
        }
        return WriteHandle(this, op, due, {},
                           pipeline_->SubmitRemove(stream_names_[op.index]));
      };
      RunGenerator<WriteHandle>(writes, false, 0, start, duration, submit,
                                &write_log);
    });
    LoadLog log = ServeReads(
        service_.get(), reads, /*closed_loop=*/false, start, seconds,
        [this](const Op& op) { return Prepare(op); }, nullptr);
    writer.join();
    log.Merge(write_log);
    return log;
  }

  void Check(RunResult* result) override {
    // Quiesce: everything submitted is published, no compaction running.
    pipeline_->Flush();
    compactor_->Stop();
    auto gen = live_->Acquire();
    Gate adds{"acked_adds_discoverable", true, 0, ""};
    Gate removes{"acked_removes_absent", true, 0, ""};
    for (const auto& [name, present] : acked_) {
      const bool visible = gen->FindTable(name).ok();
      Gate& g = present ? adds : removes;
      ++g.checked;
      if (visible != present && g.passed) {
        g.passed = false;
        g.detail = name + (present ? " acknowledged but not discoverable"
                                   : " removed but still visible");
      }
    }
    result->gates.push_back(adds);
    result->gates.push_back(removes);
    result->Add("compactions", static_cast<double>(live_->compactions()),
                "count");
    result->Add("delta_tables_max", static_cast<double>(delta_max_), "count");
  }

  void RecordRegistry(TraceRecorder* trace) override {
    pipeline_->Flush();
    RecordServeRegistry(service_.get(), trace);
    const auto publish = registry_.GetHistogram("ingest.publish_ms")->Snap();
    trace->RunCount("ingest.publish_p50_us", publish.p50());
    trace->RunCount("ingest.publish_p99_us", publish.p99());
    const auto compaction =
        registry_.GetHistogram("ingest.compaction_ms")->Snap();
    trace->RunCount("ingest.compaction_p50_us", compaction.p50());
    trace->RunCount("ingest.compaction_samples",
                    static_cast<double>(compaction.count));
    for (const char* name :
         {"ingest.publishes", "ingest.compactions", "ingest.tables.added",
          "ingest.tables.removed", "ingest.wal.appends", "ingest.wal.fsyncs",
          "ingest.wal.bytes"}) {
      trace->RunCount(name, static_cast<double>(registry_.GetCounter(name)->value()));
    }
    trace->RunCount("ingest.delta_tables_max", static_cast<double>(delta_max_));
    uint64_t disk = 0;
    for (const auto& e : fs::recursive_directory_iterator(dir_)) {
      if (e.is_regular_file()) disk += e.file_size();
    }
    trace->RunCount("store.disk_bytes", static_cast<double>(disk));
    trace->RunCount("store.csv_bytes_submitted",
                    static_cast<double>(csv_bytes_submitted_));
  }

  void Facts(RunResult* r) const override {
    r->Fact("lake", lake::StrFormat(
                        "%zu-table lakegen base (%zu templates), %zu held-out "
                        "tables from the same templates streamed as CSV",
                        base_->num_tables(), kTemplates, kStreamTables));
    r->Fact("modalities", Mods().List() + " (delta: LiveEngine default)");
    r->Fact("not_built", kNotBuilt);
    r->Fact("wal", "enabled, sync=every_append (fsync per batch)");
    r->Fact("compactor", lake::StrFormat("max_delta_tables=%zu (default 64), "
                                         "other options default",
                                         kCompactAtDelta));
    r->Fact("traffic", lake::StrFormat(
                           "open loop; reads Poisson %.0f/s (1/3 keyword, "
                           "josie, starmie); writes every %.0f ms, every "
                           "10th a remove of an earlier add",
                           kReadQps, 1000.0 / kWritesPerSecond));
  }

  void OnWrite(const Op& op, bool ok) {
    if (ok) acked_[stream_names_[op.index]] = op.family == Family::kAdd;
    delta_max_ = std::max(delta_max_, live_->num_delta_tables());
  }

 protected:
  PreparedRead Prepare(const Op& op) const override {
    return LakeQuery(*base_, op.family, op.index, /*by_name=*/false);
  }

  void BeforeReplay() override {
    pipeline_->Flush();
    auto gen = live_->Acquire();
    hnsw_ = BuildColumnHnsw(gen->base_catalog(), gen->base());
  }

  void ReplayDirect(const Op& op, const PreparedRead& p,
                    TraceRecorder* trace) override {
    auto gen = live_->Acquire();
    const QueryRequest& r = p.request;
    {
      lake::ingest::MergeStats stats;
      TraceRecorder::Span s(trace, std::string("ingest.merged.") +
                                       FamilyName(op.family));
      if (r.kind == QueryKind::kKeyword) {
        (void)lake::ingest::MergedKeyword(*gen, r.keyword, r.k, &stats);
      } else if (r.kind == QueryKind::kJoin) {
        (void)lake::ingest::MergedJoinable(*gen, r.values, r.join_method, r.k,
                                           nullptr, &stats);
      } else {
        (void)lake::ingest::MergedUnionable(*gen, *r.union_table,
                                            r.union_method, r.k, r.exclude,
                                            nullptr, &stats);
      }
      s.Count("ingest.base_results", static_cast<double>(stats.base_results));
      s.Count("ingest.delta_results", static_cast<double>(stats.delta_results));
    }
    TraceEngineCall(trace, gen->base(), r, op.family, hnsw_.get());
  }

 public:
  void Replay(const std::vector<Op>& sample, TraceRecorder* trace) override {
    std::vector<Op> reads;
    for (const Op& op : sample) {
      if (!IsWrite(op.family)) reads.push_back(op);
    }
    ServiceWorkload::Replay(reads, trace);
    // The write path's parse and durability layers, replayed on the CSVs
    // this run wrote.
    for (const Op& op : sample) {
      if (op.family != Family::kAdd) continue;
      trace->BeginRequest();
      TraceRecorder::Span root(trace, "request.add");
      TraceRecorder::Span s(trace, "table.csv_parse");
      (void)lake::ReadCsvString(stream_csv_[op.index], stream_names_[op.index]);
    }
    for (int i = 0; i < 3; ++i) {
      trace->BeginRequest();
      TraceRecorder::Span root(trace, "request.checkpoint");
      TraceRecorder::Span s(trace, "store.checkpoint");
      (void)live_->Checkpoint();
    }
  }

 private:
  static constexpr size_t kTemplates = 6;
  static constexpr size_t kBaseTables = 240;
  static constexpr size_t kStreamTables = 120;
  static constexpr double kReadQps = 150;
  static constexpr double kWritesPerSecond = 6;
  static constexpr double kWarmupSeconds = 1.5;
  static constexpr size_t kCompactAtDelta = 16;

  static Modalities Mods() {
    Modalities m;
    m.keyword = m.lsh = m.josie = m.tus = m.starmie = true;
    return m;
  }

  /// Writes for both phases: adds consume the stream in order; every 10th
  /// write removes a table added at least 2 s (12 writes) earlier.
  void BuildWriteSchedules() {
    Rng rng(OpSeed(seed_, "writes", 0));
    uint32_t next_add = 0;
    std::vector<uint32_t> added;
    std::set<uint32_t> removed;
    auto phase = [&](double seconds, std::vector<Op>* out) {
      const size_t n = static_cast<size_t>(seconds * kWritesPerSecond);
      for (size_t i = 0; i < n; ++i) {
        const int64_t due = static_cast<int64_t>(
            (static_cast<double>(i) + 0.5) / kWritesPerSecond * 1e9);
        const bool remove = (i % 10 == 9) && added.size() > 12;
        if (remove) {
          uint32_t victim;
          do {
            victim = added[rng.NextBounded(added.size() - 12)];
          } while (removed.count(victim) != 0 && removed.size() < added.size() - 12);
          if (removed.insert(victim).second) {
            out->push_back(Op{Family::kRemove, victim, due});
            continue;
          }
        }
        if (next_add >= stream_names_.size()) break;
        added.push_back(next_add);
        out->push_back(Op{Family::kAdd, next_add++, due});
      }
    };
    phase(kWarmupSeconds, &warmup_writes_);
    phase(static_cast<double>(kStreamTables) / kWritesPerSecond, &measured_writes_);
  }

  std::shared_ptr<const DataLakeCatalog> base_;
  std::vector<std::string> stream_names_;
  std::vector<std::string> stream_csv_;
  std::vector<Op> warmup_writes_;
  std::vector<Op> measured_writes_;
  std::string dir_;
  lake::serve::MetricsRegistry registry_;
  std::unique_ptr<lake::store::SnapshotStore> store_;
  std::unique_ptr<lake::ingest::LiveEngine> live_;
  std::unique_ptr<lake::ingest::IngestPipeline> pipeline_;
  std::unique_ptr<lake::ingest::Compactor> compactor_;
  std::unique_ptr<lake::HnswIndex> hnsw_;
  /// Written from the writer generator thread only; read after it joins.
  std::map<std::string, bool> acked_;
  size_t delta_max_ = 0;
  uint64_t csv_bytes_submitted_ = 0;
};

Outcome WriteHandle::Finish() {
  Outcome out;
  lake::Status st = op_.family == Family::kAdd ? add_.get().status()
                                               : remove_.get();
  out.ok = st.ok();
  if (!out.ok) out.error = st.ToString();
  out.latency_ms = Ms(Clock::now() - due_);
  owner_->OnWrite(op_, out.ok);
  return out;
}

// ---------------------------------------------------------------------------
// cluster-zipf: Zipf-popular queries from a bounded pool through the result
// cache and a 2-shard x 2-replica hedged cluster, open loop.

class ClusterZipf : public LakegenWorkload {
 public:
  void Generate(uint64_t seed) override {
    GenerateLake(seed, kTemplates, kPerTemplate, kDistractors);
    // Pool entries: [0, kKeywords) keyword, then JOSIE, then Starmie.
    for (uint32_t i = 0; i < kPool; ++i) {
      pool_.push_back(LakeQuery(lake_->catalog, EntryFamily(i), i,
                                /*by_name=*/true));
    }
  }

  /// Each arrival draws its family from the fixed 40/40/20 mix, then an
  /// entry of that family's sub-pool by Zipf rank. Fixing the mix first
  /// keeps the traffic's composition the same for every seed; the hottest
  /// entries of each family get most of its traffic.
  std::vector<Op> Schedule(bool measured, double seconds) const override {
    Rng rng(OpSeed(seed_, measured ? "arrivals.measured" : "arrivals.warmup", 0));
    const lake::ZipfSampler keyword(kKeywords, kZipfS);
    const lake::ZipfSampler join(kJoins, kZipfS);
    const lake::ZipfSampler star(kPool - kKeywords - kJoins, kZipfS);
    std::vector<Op> ops;
    for (int64_t due :
         PoissonArrivals(rng, kQps, measured ? seconds : kWarmupSeconds)) {
      const double u = rng.NextUnit();
      const uint32_t entry =
          u < 0.4   ? static_cast<uint32_t>(keyword.Sample(rng))
          : u < 0.8 ? kKeywords + static_cast<uint32_t>(join.Sample(rng))
                    : kKeywords + kJoins + static_cast<uint32_t>(star.Sample(rng));
      ops.push_back(Op{EntryFamily(entry), entry, due});
    }
    return ops;
  }

  void Setup(const RunConfig&) override {
    lake::cluster::ClusterEngine::Options co;
    co.num_shards = 2;
    co.num_replicas = 2;
    co.engine.base_options = Mods().Options();
    co.engine.kb = &lake_->kb;
    co.metrics = &registry_;
    co.tail.enable_hedging = true;
    cluster_ = std::make_unique<lake::cluster::ClusterEngine>(lake_->catalog, co);
    service_ = std::make_unique<QueryService>(cluster_.get(), ServiceOptions());
  }
  void Teardown() override {
    service_.reset();
    cluster_.reset();
  }

  LoadLog Serve(const std::vector<Op>& ops, double seconds,
                bool measured) override {
    return ServeReads(service_.get(), ops, /*closed_loop=*/false, Clock::now(), seconds,
                      [this](const Op& op) { return Prepare(op); },
                      measured ? &samples_ : nullptr);
  }

  void Check(RunResult* result) override {
    BuildReference();
    // I5 style for the exact methods: keyword (two-phase BM25) and JOSIE
    // answers carry the same names, columns and scores as one unpartitioned
    // engine. Starmie retrieves candidates approximately (HNSW per shard),
    // so its answers are held to exact per-hit scores instead, and their
    // agreement with the single node is reported.
    Gate same{"cluster_equals_single_node", true, 0, ""};
    Gate starmie{"starmie_hit_scores_exact", true, 0, ""};
    std::vector<double> agreement;
    auto key = [](const std::string& name, size_t col) {
      return name + "#" + std::to_string(col);
    };
    for (const ReadSample& s : samples_) {
      const QueryRequest& r = pool_[s.op.index].request;
      const QueryResponse& resp = s.response;
      const bool join = r.kind == QueryKind::kJoin;
      const size_t hits = join ? resp.columns.size() : resp.tables.size();
      const std::string where =
          DescribeOp(s.op, 0) + (resp.cache_hit ? " (cache hit): " : ": ");
      auto fail = [&](Gate& g, const std::string& why) {
        if (!g.passed) return;
        g.passed = false;
        g.detail = where + why;
      };
      if (resp.table_names.size() != hits) {
        fail(join || r.kind == QueryKind::kKeyword ? same : starmie,
             "provenance names missing");
        continue;
      }
      // Full-depth reference ranking: keyword and join scores tie in long
      // runs, so the k-th hit may sit anywhere in a tie.
      const size_t depth = lake_->catalog.num_tables();
      std::vector<std::pair<std::string, double>> ref;  // (name#col, score)
      if (r.kind == QueryKind::kKeyword) {
        for (const TableResult& t : reference_->Keyword(r.keyword, depth)) {
          ref.emplace_back(key(lake_->catalog.table(t.table_id).name(), 0), t.score);
        }
      } else if (join) {
        auto d = reference_->Joinable(r.values, r.join_method, depth);
        if (d.ok()) {
          for (const ColumnResult& c : d.value()) {
            ref.emplace_back(key(lake_->catalog.table(c.column.table_id).name(),
                                 c.column.column_index),
                             c.score);
          }
        }
      } else {
        auto self = lake_->catalog.FindTable(r.exclude_name);
        auto d = reference_->Unionable(
            *r.union_table, r.union_method, kTopK,
            self.ok() ? static_cast<int64_t>(self.value()) : -1);
        if (d.ok()) {
          for (const TableResult& t : d.value()) {
            ref.emplace_back(key(lake_->catalog.table(t.table_id).name(), 0), t.score);
          }
        }
      }
      if (r.kind == QueryKind::kUnion) {
        ++starmie.checked;
        std::set<std::string> single;
        for (const auto& [name, score] : ref) single.insert(name);
        size_t agree = 0;
        for (size_t i = 0; i < hits; ++i) {
          const std::string& name = resp.table_names[i];
          auto id = lake_->catalog.FindTable(name);
          const double score = resp.tables[i].score;
          if (name == r.exclude_name || !id.ok()) {
            fail(starmie, "hit " + name + " is the query or unknown");
          } else if (score != reference_->starmie()->ScoreTable(*r.union_table,
                                                                id.value())) {
            fail(starmie, "hit " + name + " reports score " +
                              std::to_string(score) + ", not its exact score");
          } else if (i > 0 && score > resp.tables[i - 1].score) {
            fail(starmie, "hits not ranked by score");
          }
          agree += single.count(key(name, 0));
        }
        agreement.push_back(ref.empty() ? 1.0
                                        : static_cast<double>(agree) /
                                              static_cast<double>(ref.size()));
        continue;
      }
      std::map<std::string, double> ref_score(ref.begin(), ref.end());
      std::vector<double> answer, truth, ref_scores;
      for (const auto& [n, sc] : ref) ref_scores.push_back(sc);
      for (size_t i = 0; i < hits; ++i) {
        const double score = join ? resp.columns[i].score : resp.tables[i].score;
        const size_t col = join ? resp.columns[i].column.column_index : 0;
        auto it = ref_score.find(key(resp.table_names[i], col));
        answer.push_back(score);
        truth.push_back(it == ref_score.end() ? -1 : it->second);
      }
      ++same.checked;
      const std::string err = CheckRanking(answer, truth, ref_scores);
      if (!err.empty()) fail(same, err);
    }
    result->gates.push_back(same);
    result->gates.push_back(starmie);
    double sum = 0;
    for (double x : agreement) sum += x;
    result->Add("union_agreement_at_10",
                agreement.empty() ? 0 : sum / static_cast<double>(agreement.size()),
                "ratio");
  }

  void RecordRegistry(TraceRecorder* trace) override {
    RecordServeRegistry(service_.get(), trace);
    for (const char* name : {"cluster.queries", "cluster.failovers",
                             "cluster.tail.hedges", "cluster.tail.hedge_wins",
                             "cluster.tail.budget_denied"}) {
      trace->RunCount(name, static_cast<double>(registry_.GetCounter(name)->value()));
    }
  }

  void Facts(RunResult* r) const override {
    r->Fact("lake", lake::StrFormat(
                        "%zu lakegen tables (%zu templates x %zu, %zu "
                        "distractors)",
                        lake_->catalog.num_tables(), kTemplates, kPerTemplate,
                        kDistractors));
    r->Fact("modalities", Mods().List());
    r->Fact("not_built", kNotBuilt);
    r->Fact("cluster", "2 shards x 2 replicas, hedging on, default 32 MB cache");
    r->Fact("traffic", lake::StrFormat(
                           "open loop, Poisson %.0f/s; 40%% keyword, 40%% "
                           "josie, 20%% starmie, each Zipf(s=%.1f) over its "
                           "share of %u distinct queries",
                           kQps, kZipfS, kPool));
  }

 protected:
  PreparedRead Prepare(const Op& op) const override { return pool_[op.index]; }

  void BeforeReplay() override {
    BuildReference();
    hnsw_ = BuildColumnHnsw(lake_->catalog, *reference_);
  }

  void ReplayDirect(const Op& op, const PreparedRead& p,
                    TraceRecorder* trace) override {
    const QueryRequest& r = p.request;
    {
      TraceRecorder::Span s(trace, "cluster.scatter");
      std::vector<lake::cluster::ShardTrace> traces;
      if (r.kind == QueryKind::kKeyword) {
        traces = cluster_->Keyword(r.keyword, r.k).traces;
      } else if (r.kind == QueryKind::kJoin) {
        traces = cluster_->Joinable(r.values, r.join_method, r.k).traces;
      } else {
        traces = cluster_->Unionable(*r.union_table, r.union_method, r.k,
                                     r.exclude_name)
                     .traces;
      }
      double lo = 1e300, hi = 0;
      double hedged = 0, won = 0, failover = 0;
      for (const auto& t : traces) {
        lo = std::min(lo, t.latency_ms);
        hi = std::max(hi, t.latency_ms);
        hedged += t.hedged ? 1 : 0;
        won += t.hedge_won ? 1 : 0;
        failover += t.attempts > 1 ? 1 : 0;
      }
      s.Count("cluster.shards", static_cast<double>(traces.size()));
      s.Count("cluster.shard_max_ms", traces.empty() ? 0 : hi);
      s.Count("cluster.shard_min_ms", traces.empty() ? 0 : lo);
      s.Count("cluster.hedged", hedged);
      s.Count("cluster.hedge_won", won);
      s.Count("cluster.failover", failover);
    }
    // The same request on one unpartitioned engine.
    QueryRequest single = r;
    if (r.kind == QueryKind::kUnion) {
      auto self = lake_->catalog.FindTable(r.exclude_name);
      single.exclude = self.ok() ? static_cast<int64_t>(self.value()) : -1;
    }
    TraceEngineCall(trace, *reference_, single, op.family, hnsw_.get());
  }

 private:
  static constexpr size_t kTemplates = 8;
  static constexpr size_t kPerTemplate = 55;
  static constexpr size_t kDistractors = 40;
  static constexpr uint32_t kPool = 2000;
  static constexpr uint32_t kKeywords = 800;
  static constexpr uint32_t kJoins = 800;
  static constexpr double kZipfS = 1.0;
  static constexpr double kQps = 500;
  static constexpr double kWarmupSeconds = 1.5;

  static Modalities Mods() {
    Modalities m;
    m.keyword = m.lsh = m.josie = m.tus = m.starmie = true;
    return m;
  }
  static Family EntryFamily(uint32_t entry) {
    if (entry < kKeywords) return Family::kKeyword;
    if (entry < kKeywords + kJoins) return Family::kJosie;
    return Family::kStarmie;
  }

  void BuildReference() {
    if (reference_ == nullptr) {
      reference_ = std::make_unique<DiscoveryEngine>(
          &lake_->catalog, &lake_->kb, Mods().Options());
    }
  }

  std::vector<PreparedRead> pool_;
  lake::serve::MetricsRegistry registry_;
  std::unique_ptr<lake::cluster::ClusterEngine> cluster_;
  std::unique_ptr<DiscoveryEngine> reference_;
  std::unique_ptr<lake::HnswIndex> hnsw_;
};

}  // namespace

size_t Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "join-skewed") return std::make_unique<JoinSkewed>();
  if (name == "union-wide") return std::make_unique<UnionWide>();
  if (name == "ingest-live") return std::make_unique<IngestLive>();
  if (name == "cluster-zipf") return std::make_unique<ClusterZipf>();
  return nullptr;
}

}  // namespace lakebench
