// E22 — the accuracy/latency knob (survey §7, "approximate discovery with
// guarantees"): exact-vs-sampled crossover for joinable-column search.
//
// Claims demonstrated: (1) the sampling tier's per-query cost is bounded
// by the sample budget plus the rare exact fallbacks, not by the lake's
// value volume, so its advantage over the exact domain scan widens with
// lake size — at the largest benched lake approximate p95 must be <= 0.5x
// exact p95 at the default 0.1 error budget (the acceptance gate);
// (2) recall@k against planted ground truth stays >= 0.95 at every
// budget, because candidates whose interval straddles the final top-k
// boundary are settled by exact verification rather than guessed;
// (3) the reported exact-fallback rate is the price of that guarantee,
// and it stays a small fraction of the candidates screened.
//
// Workload: a skewed background lake (power-law column sizes, random
// values — realistic noise that must be screened out) plus, per query, a
// planted "ladder" of host columns at containments 0.92, 0.85, ..., 0.15.
// The true top-k is the top of the ladder, with well-defined gaps, so
// recall measures ranking fidelity rather than coin-flips among exact
// ties. Recall is tie-aware: a returned column counts if its true
// containment reaches the true k-th best.
//
// Sweep: lakes of {200, 800, 3200} background columns x error budgets
// {0.05, 0.1, 0.2}, plus two exact rows per lake: the kExactContainment
// scan the acceptance gate compares against, and JOSIE (exact top-k
// overlap, the best exact method), reported beside it and not gated.
// Rows are RESULT_JSON with p50/p95 latency, recall@k, and the
// exact-fallback rate.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "approx/verifier.h"
#include "bench_common.h"
#include "search/discovery_engine.h"
#include "table/catalog.h"
#include "table/table.h"
#include "util/random.h"
#include "util/string_util.h"

namespace {

using lake::ColumnResult;
using lake::DataLakeCatalog;
using lake::DataType;
using lake::DiscoveryEngine;
using lake::JoinMethod;
using lake::Rng;
using lake::StrFormat;
using lake::TableId;
using lake::Value;
using lake::approx::ApproxQueryStats;

constexpr size_t kTopK = 10;
constexpr size_t kQueries = 12;
constexpr size_t kQuerySize = 1024;
constexpr size_t kLadderRungs = 12;  // planted hosts per query
constexpr size_t kRounds = 3;        // repeat the query set for stable tails
constexpr double kDefaultBudget = 0.1;
constexpr double kAcceptP95Ratio = 0.5;

struct PlantedWorkload {
  std::vector<std::vector<std::string>> sets;
  std::vector<std::vector<std::string>> queries;
  /// Exact containment of query q in set s (ground truth), [q][s].
  std::vector<std::vector<double>> containment;
};

std::string ValueName(size_t i) { return "v" + std::to_string(i); }

/// Background columns follow a power law (the lake's realistic noise);
/// each query gets a planted ladder of hosts at containments 0.92 down to
/// 0.15 in steps of 0.07, so the true top-k has well-separated scores.
PlantedWorkload MakePlantedWorkload(uint64_t seed, size_t num_background) {
  Rng rng(seed);
  PlantedWorkload w;
  // Universe scales with the lake so background columns stay noise: even
  // the largest (4096 values) covers < 2% of it, well under the ladder's
  // bottom rung — the true top-k is the ladder, at every lake size.
  const size_t universe = num_background * 256;
  const size_t min_size = 256, max_size = 4096;

  for (size_t s = 0; s < num_background; ++s) {
    const double u = std::pow(rng.NextUnit(), 1.2);
    const size_t size = static_cast<size_t>(
        min_size * std::pow(static_cast<double>(max_size) / min_size, u));
    std::unordered_set<size_t> members;
    std::vector<std::string> set;
    while (set.size() < size) {
      const size_t v = rng.NextBounded(universe);
      if (members.insert(v).second) set.push_back(ValueName(v));
    }
    w.sets.push_back(std::move(set));
  }

  for (size_t q = 0; q < kQueries; ++q) {
    std::unordered_set<size_t> qmembers;
    std::vector<size_t> qids;
    while (qids.size() < kQuerySize) {
      const size_t v = rng.NextBounded(universe);
      if (qmembers.insert(v).second) qids.push_back(v);
    }
    std::vector<std::string> query;
    for (size_t v : qids) query.push_back(ValueName(v));
    w.queries.push_back(std::move(query));

    for (size_t rung = 0; rung < kLadderRungs; ++rung) {
      const double fraction = 0.92 - 0.07 * static_cast<double>(rung);
      const size_t planted =
          static_cast<size_t>(fraction * static_cast<double>(kQuerySize));
      std::vector<size_t> shuffled = qids;
      rng.Shuffle(shuffled);
      std::unordered_set<size_t> members(shuffled.begin(),
                                         shuffled.begin() + planted);
      std::vector<std::string> host;
      for (size_t i = 0; i < planted; ++i) host.push_back(ValueName(shuffled[i]));
      const size_t filler = 1024 + rng.NextBounded(4096);
      while (host.size() < planted + filler) {
        const size_t v = rng.NextBounded(universe);
        if (members.insert(v).second) host.push_back(ValueName(v));
      }
      w.sets.push_back(std::move(host));
    }
  }

  // Ground-truth containment of every query in every set. Filler values
  // can collide with query values, so this is measured, not assumed.
  w.containment.resize(w.queries.size());
  for (size_t q = 0; q < w.queries.size(); ++q) {
    std::unordered_set<std::string> qset(w.queries[q].begin(),
                                         w.queries[q].end());
    w.containment[q].resize(w.sets.size());
    for (size_t s = 0; s < w.sets.size(); ++s) {
      size_t overlap = 0;
      for (const std::string& v : w.sets[s]) {
        if (qset.count(v)) ++overlap;
      }
      w.containment[q][s] = static_cast<double>(overlap) /
                            static_cast<double>(w.queries[q].size());
    }
  }
  return w;
}

DataLakeCatalog BuildCatalog(const PlantedWorkload& workload) {
  DataLakeCatalog catalog;
  for (size_t s = 0; s < workload.sets.size(); ++s) {
    lake::Table t("set" + std::to_string(s));
    lake::Column c("values", DataType::kString);
    for (const auto& v : workload.sets[s]) c.Append(Value(v));
    if (!t.AddColumn(std::move(c)).ok()) continue;
    (void)catalog.AddTable(std::move(t));
  }
  return catalog;
}

/// Exact join tiers (scan and JOSIE) and the sampling tier only; the
/// heavyweight long tail would dominate build time without touching any
/// measured path.
DiscoveryEngine::Options LeanOptions() {
  DiscoveryEngine::Options opts;
  opts.build_keyword = false;
  opts.build_lsh_join = false;
  opts.build_pexeso = false;
  opts.build_mate = false;
  opts.build_correlated = false;
  opts.build_tus = false;
  opts.build_santos = false;
  opts.build_starmie = false;
  opts.build_d3l = false;
  opts.synthesize_kb = false;
  opts.train_annotator = false;
  return opts;
}

struct LatencyStats {
  double p50_us = 0;
  double p95_us = 0;
};

LatencyStats Percentiles(std::vector<double> micros) {
  LatencyStats out;
  if (micros.empty()) return out;
  std::sort(micros.begin(), micros.end());
  out.p50_us = micros[micros.size() / 2];
  out.p95_us = micros[std::min(micros.size() - 1,
                               static_cast<size_t>(micros.size() * 0.95))];
  return out;
}

struct ModeResult {
  LatencyStats latency;
  /// Returned top-k table ids per query (recall subjects).
  std::vector<std::vector<TableId>> tables;
  ApproxQueryStats stats;
};

ModeResult RunMode(const DiscoveryEngine& engine,
                   const PlantedWorkload& workload, JoinMethod method,
                   double error_budget) {
  ModeResult out;
  std::vector<double> micros;
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      ApproxQueryStats stats;
      const auto start = std::chrono::steady_clock::now();
      const auto results =
          engine
              .Joinable(workload.queries[q], method, kTopK, nullptr,
                        error_budget,
                        method == JoinMethod::kApprox ? &stats : nullptr)
              .value();
      const auto end = std::chrono::steady_clock::now();
      micros.push_back(
          std::chrono::duration<double, std::micro>(end - start).count());
      out.stats.Merge(stats);
      if (round == 0) {
        std::vector<TableId> ids;
        for (const ColumnResult& r : results) ids.push_back(r.column.table_id);
        out.tables.push_back(std::move(ids));
      }
    }
  }
  out.latency = Percentiles(std::move(micros));
  return out;
}

/// Tie-aware recall@k against planted truth: a returned column counts if
/// its true containment reaches the true k-th best (minus float fuzz).
double MeanRecall(const PlantedWorkload& workload,
                  const std::vector<std::vector<TableId>>& returned) {
  double sum = 0;
  for (size_t q = 0; q < returned.size(); ++q) {
    std::vector<double> truth = workload.containment[q];
    std::nth_element(truth.begin(), truth.begin() + (kTopK - 1), truth.end(),
                     std::greater<double>());
    const double kth = truth[kTopK - 1];
    size_t hits = 0;
    for (TableId id : returned[q]) {
      if (workload.containment[q][static_cast<size_t>(id)] >= kth - 1e-9) {
        ++hits;
      }
    }
    sum += static_cast<double>(hits) / static_cast<double>(kTopK);
  }
  return returned.empty() ? 1.0 : sum / static_cast<double>(returned.size());
}

}  // namespace

int main() {
  lake::bench::PrintHeader(
      "E22: bench_approx",
      "sampling-based approximate join search crosses over the exact scan "
      "as the lake grows; recall@k >= 0.95 at every error budget");

  const size_t lake_sizes[] = {200, 800, 3200};
  const double budgets[] = {0.05, 0.1, 0.2};
  bool accept = true;
  double largest_exact_p95 = 0, largest_approx_p95 = 0;

  for (size_t num_sets : lake_sizes) {
    const PlantedWorkload workload = MakePlantedWorkload(61, num_sets);
    const DataLakeCatalog catalog = BuildCatalog(workload);
    const DiscoveryEngine engine(&catalog, nullptr, LeanOptions());

    const ModeResult exact =
        RunMode(engine, workload, JoinMethod::kExactContainment, -1);
    const double exact_recall = MeanRecall(workload, exact.tables);
    std::printf(
        "lake=%zu columns  exact scan: p50 %.0fus p95 %.0fus recall %.3f\n",
        workload.sets.size(), exact.latency.p50_us, exact.latency.p95_us,
        exact_recall);
    lake::bench::PrintJsonLine(
        "E22:bench_approx:exact",
        StrFormat("\"lake_sets\":%zu,\"p50_us\":%.1f,\"p95_us\":%.1f,"
                  "\"recall_at_k\":%.4f",
                  workload.sets.size(), exact.latency.p50_us,
                  exact.latency.p95_us, exact_recall));

    const ModeResult josie = RunMode(engine, workload, JoinMethod::kJosie, -1);
    const double josie_recall = MeanRecall(workload, josie.tables);
    std::printf("  josie: p50 %.0fus p95 %.0fus recall %.3f\n",
                josie.latency.p50_us, josie.latency.p95_us, josie_recall);
    lake::bench::PrintJsonLine(
        "E22:bench_approx:josie",
        StrFormat("\"lake_sets\":%zu,\"p50_us\":%.1f,\"p95_us\":%.1f,"
                  "\"recall_at_k\":%.4f",
                  workload.sets.size(), josie.latency.p50_us,
                  josie.latency.p95_us, josie_recall));

    for (double budget : budgets) {
      const ModeResult approx =
          RunMode(engine, workload, JoinMethod::kApprox, budget);
      const double recall = MeanRecall(workload, approx.tables);
      const size_t decisions = approx.stats.decisions();
      const double fallback_rate =
          decisions == 0 ? 0
                         : static_cast<double>(approx.stats.exact_fallbacks) /
                               static_cast<double>(decisions);
      const double mean_sample =
          decisions == 0 ? 0
                         : static_cast<double>(approx.stats.sum_sample_size) /
                               static_cast<double>(decisions);
      std::printf(
          "  approx eb=%.2f: p50 %.0fus p95 %.0fus recall@%zu %.3f "
          "fallback %.3f mean_sample %.0f\n",
          budget, approx.latency.p50_us, approx.latency.p95_us, kTopK,
          recall, fallback_rate, mean_sample);
      lake::bench::PrintJsonLine(
          "E22:bench_approx:approx",
          StrFormat("\"lake_sets\":%zu,\"error_budget\":%.2f,"
                    "\"p50_us\":%.1f,\"p95_us\":%.1f,\"recall_at_k\":%.4f,"
                    "\"fallback_rate\":%.4f,\"mean_sample\":%.1f",
                    workload.sets.size(), budget, approx.latency.p50_us,
                    approx.latency.p95_us, recall, fallback_rate,
                    mean_sample));
      if (recall < 0.95 - 1e-9) {
        std::printf("  FAIL: recall %.3f < 0.95 at eb=%.2f lake=%zu\n",
                    recall, budget, num_sets);
        accept = false;
      }
      if (num_sets == lake_sizes[2] && budget == kDefaultBudget) {
        largest_exact_p95 = exact.latency.p95_us;
        largest_approx_p95 = approx.latency.p95_us;
      }
    }
  }

  const bool crossover =
      largest_approx_p95 <= kAcceptP95Ratio * largest_exact_p95;
  std::printf(
      "\nacceptance: largest lake approx p95 %.0fus vs exact p95 %.0fus "
      "(need <= %.0f%%): %s\n",
      largest_approx_p95, largest_exact_p95, kAcceptP95Ratio * 100,
      crossover ? "PASS" : "FAIL");
  if (!crossover) accept = false;
  lake::bench::PrintJsonLine(
      "E22:bench_approx:acceptance",
      StrFormat("\"approx_p95_us\":%.1f,\"exact_p95_us\":%.1f,"
                "\"ratio\":%.3f,\"pass\":%s",
                largest_approx_p95, largest_exact_p95,
                largest_exact_p95 == 0
                    ? 0.0
                    : largest_approx_p95 / largest_exact_p95,
                accept ? "true" : "false"));
  return accept ? 0 : 1;
}
