// lakefind_cli — interactive/scriptable shell over the discovery engine.
//
//   $ ./lakefind_cli <csv-directory>        # interactive
//   $ echo "keyword city" | ./lakefind_cli <csv-directory>
//
// Commands:
//   info                       lake statistics
//   tables                     list tables
//   show <table>               preview a table
//   keyword <text...>          BM25 metadata search
//   join [<method>] <table> <column...>
//                              joinable-column search (exact_jaccard|
//                              exact_containment|lsh_ensemble|josie|
//                              pexeso|approx; default josie)
//   union <method> <table>     unionable search (tus|santos|starmie|d3l)
//   annotate <table> <column>  query-time semantic type annotation
//   related <table>            linkage-graph neighbors
//   help / quit
//
// With no directory argument, a small demo lake is generated.

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

#include "lakegen/benchmark_lakes.h"
#include "nav/linkage_graph.h"
#include "search/discovery_engine.h"
#include "table/catalog.h"

namespace {

using lake::DataLakeCatalog;
using lake::DiscoveryEngine;
using lake::TableId;

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  info | tables | show <table> | keyword <text...>\n"
      "  join [<method>] <table> <column> | union <method> <table>\n"
      "  annotate <table> <column> | related <table> | help | quit\n");
}

/// Join method by its serving-layer name; false when `name` is none.
bool ParseJoinMethod(const std::string& name, lake::JoinMethod* method) {
  static const std::pair<const char*, lake::JoinMethod> kMethods[] = {
      {"exact_jaccard", lake::JoinMethod::kExactJaccard},
      {"exact_containment", lake::JoinMethod::kExactContainment},
      {"lsh_ensemble", lake::JoinMethod::kLshEnsemble},
      {"josie", lake::JoinMethod::kJosie},
      {"pexeso", lake::JoinMethod::kPexeso},
      {"approx", lake::JoinMethod::kApprox},
  };
  for (const auto& [n, m] : kMethods) {
    if (name == n) {
      *method = m;
      return true;
    }
  }
  return false;
}

int FindColumn(const lake::Table& table, const std::string& name) {
  const int idx = table.FindColumn(name);
  if (idx < 0) {
    std::printf("no column '%s' in '%s' (columns:", name.c_str(),
                table.name().c_str());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      std::printf(" %s", table.column(c).name().c_str());
    }
    std::printf(")\n");
  }
  return idx;
}

}  // namespace

int main(int argc, char** argv) {
  DataLakeCatalog catalog;
  lake::KnowledgeBase kb;
  if (argc > 1) {
    auto loaded = catalog.LoadDirectory(argv[1]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load %s: %s\n", argv[1],
                   loaded.status().ToString().c_str());
      return 1;
    }
    std::printf("loaded %zu tables from %s\n", loaded->size(), argv[1]);
  } else {
    lake::GeneratedLake generated = lake::MakeUnionBenchmarkLake(
        /*seed=*/5, /*tables_per_template=*/4, /*distractors=*/0);
    kb = generated.kb;
    catalog = std::move(generated.catalog);
    std::printf("no directory given; generated a %zu-table demo lake\n",
                catalog.num_tables());
  }

  std::printf("building indexes...\n");
  DiscoveryEngine engine(&catalog, &kb, DiscoveryEngine::Options{});
  lake::LinkageGraph graph(&catalog);
  std::printf("ready. type 'help' for commands.\n");

  std::string line;
  while (std::printf("lakefind> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      PrintHelp();
    } else if (cmd == "info") {
      std::printf("%zu tables, %zu columns; KB: %zu entities, %zu facts\n",
                  catalog.num_tables(), catalog.num_columns(),
                  engine.kb().num_entities(),
                  engine.kb().num_relation_instances());
    } else if (cmd == "tables") {
      for (TableId t : catalog.AllTables()) {
        const lake::Table& table = catalog.table(t);
        std::printf("  %-32s %4zu x %zu\n", table.name().c_str(),
                    table.num_rows(), table.num_columns());
      }
    } else if (cmd == "show") {
      std::string name;
      in >> name;
      auto id = catalog.FindTable(name);
      if (!id.ok()) {
        std::printf("%s\n", id.status().ToString().c_str());
        continue;
      }
      std::printf("%s", catalog.table(*id).Preview(8).c_str());
    } else if (cmd == "keyword") {
      std::string rest;
      std::getline(in, rest);
      for (const auto& r : engine.Keyword(rest, 8)) {
        std::printf("  %-32s %.3f\n", catalog.table(r.table_id).name().c_str(),
                    r.score);
      }
    } else if (cmd == "join") {
      // The method is optional; the column is the rest of the line, so
      // names with spaces work.
      std::string tname, cname;
      in >> tname;
      lake::JoinMethod method = lake::JoinMethod::kJosie;
      if (ParseJoinMethod(tname, &method)) in >> tname;
      std::getline(in >> std::ws, cname);
      auto id = catalog.FindTable(tname);
      if (!id.ok()) {
        std::printf("%s\n", id.status().ToString().c_str());
        continue;
      }
      const lake::Table& table = catalog.table(*id);
      const int col = FindColumn(table, cname);
      if (col < 0) continue;
      auto results =
          engine.Joinable(table.column(col).DistinctStrings(), method, 8);
      if (!results.ok()) {
        std::printf("%s\n", results.status().ToString().c_str());
        continue;
      }
      for (const auto& r : *results) {
        const lake::Table& hit = catalog.table(r.column.table_id);
        std::printf("  %-28s . %-16s %s\n", hit.name().c_str(),
                    hit.column(r.column.column_index).name().c_str(),
                    r.why.c_str());
      }
    } else if (cmd == "union") {
      std::string method_name, tname;
      in >> method_name >> tname;
      lake::UnionMethod method;
      if (method_name == "tus") method = lake::UnionMethod::kTus;
      else if (method_name == "santos") method = lake::UnionMethod::kSantos;
      else if (method_name == "starmie") method = lake::UnionMethod::kStarmie;
      else if (method_name == "d3l") method = lake::UnionMethod::kD3l;
      else {
        std::printf("unknown method '%s' (tus|santos|starmie|d3l)\n",
                    method_name.c_str());
        continue;
      }
      auto id = catalog.FindTable(tname);
      if (!id.ok()) {
        std::printf("%s\n", id.status().ToString().c_str());
        continue;
      }
      auto results = engine.Unionable(catalog.table(*id), method, 8, *id);
      if (!results.ok()) {
        std::printf("%s\n", results.status().ToString().c_str());
        continue;
      }
      for (const auto& r : *results) {
        std::printf("  %-32s %s\n", catalog.table(r.table_id).name().c_str(),
                    r.why.c_str());
      }
    } else if (cmd == "annotate") {
      std::string tname, cname;
      in >> tname >> cname;
      auto id = catalog.FindTable(tname);
      if (!id.ok()) {
        std::printf("%s\n", id.status().ToString().c_str());
        continue;
      }
      const lake::Table& table = catalog.table(*id);
      const int col = FindColumn(table, cname);
      if (col < 0) continue;
      auto ann = engine.AnnotateValues(table.column(col).DistinctStrings());
      if (!ann.ok()) {
        std::printf("%s\n", ann.status().ToString().c_str());
        continue;
      }
      std::printf("  %s (confidence %.2f)\n", ann->type_label.c_str(),
                  ann->confidence);
    } else if (cmd == "related") {
      std::string tname;
      in >> tname;
      auto id = catalog.FindTable(tname);
      if (!id.ok()) {
        std::printf("%s\n", id.status().ToString().c_str());
        continue;
      }
      for (const auto& [t, hops] : graph.RelatedTables(*id, 2)) {
        std::printf("  %-32s %d hop%s\n",
                    catalog.table(t).name().c_str(), hops,
                    hops == 1 ? "" : "s");
      }
    } else {
      std::printf("unknown command '%s'; try 'help'\n", cmd.c_str());
    }
  }
  return 0;
}
