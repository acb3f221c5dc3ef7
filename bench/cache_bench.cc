// cache_bench — cold vs warm cost of the cross-request cache plane
// (ROADMAP item 2; docs/caching.md), committed as BENCH_cache.json.
//
// Three measurements, driven transport-free through
// DimService::HandleRequest so the numbers isolate the request plane
// and the engines (no socket noise):
//
//   1. service cold/warm — a fixed pool of distinct requests (checks,
//      implies, summarizable over the location example and generated
//      layered schemas) runs once cold, once against the response
//      layer, and once against the closure layer (response layer
//      cleared in between). The warm rows carry cache_hit_ratio and
//      speedup_vs_cold — the fields CI floors (report-only).
//   2. no-good warm-up — the DIMSAT engine alone in enumerate mode
//      (the mode that explores whole subtrees instead of stopping at
//      the first witness, so barren subtrees actually complete and
//      record), every category of a set of generated schemas with one
//      shared NoGoodStore: each search runs once to fill the store and
//      once more as an exact repeat, which shows the expand-call
//      reduction learned pruning buys without any response/closure
//      short-circuit. signatures_learned counts the store's entries:
//      each search's maximal barren subtrees plus one marker per
//      search key.
//   3. repeat-fraction sweep — loadgen-shaped traffic where a request
//      is a repeat of an earlier one with probability f; the achieved
//      hit ratio and mean latency per f show how the win scales with
//      traffic self-similarity.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "core/nogood.h"
#include "io/schema_io.h"
#include "obs/http_server.h"
#include "obs/json.h"
#include "service/dim_service.h"
#include "service/schema_registry.h"
#include "service/service_caches.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

struct Query {
  std::string path;
  std::string body;
};

obs::HttpRequest Post(const Query& query) {
  obs::HttpRequest request;
  request.method = "POST";
  request.path = query.path;
  request.body = query.body;
  return request;
}

/// The generated slice of the workload: deterministic layered schemas
/// small enough that every query is definitive within the deadline.
std::vector<DimensionSchema> GeneratedSchemas() {
  std::vector<DimensionSchema> schemas;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SchemaGenOptions schema_options;
    schema_options.num_levels = 4;
    schema_options.categories_per_level = 4;
    schema_options.extra_edge_prob = 0.4;
    schema_options.max_level_jump = 2;
    schema_options.seed = seed;
    HierarchySchemaPtr hierarchy =
        bench::Unwrap(GenerateLayeredHierarchy(schema_options));
    ConstraintGenOptions constraint_options;
    constraint_options.into_fraction = 0.7;
    constraint_options.num_choice_constraints = 4;
    constraint_options.num_equality_constraints = 3;
    constraint_options.seed = seed;
    schemas.push_back(bench::Unwrap(
        GenerateConstrainedSchema(hierarchy, constraint_options)));
  }
  return schemas;
}

/// Smaller schemas for the enumerate-mode no-good phase: full frozen
/// enumeration is exponential in practice, so the phase sizes its
/// inputs to finish in seconds while still giving the store thousands
/// of subtrees to learn.
std::vector<DimensionSchema> NoGoodSchemas() {
  std::vector<DimensionSchema> schemas;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SchemaGenOptions schema_options;
    schema_options.num_levels = 4;
    schema_options.categories_per_level = 3;
    schema_options.extra_edge_prob = 0.3;
    schema_options.max_level_jump = 2;
    schema_options.seed = seed;
    HierarchySchemaPtr hierarchy =
        bench::Unwrap(GenerateLayeredHierarchy(schema_options));
    ConstraintGenOptions constraint_options;
    constraint_options.into_fraction = 0.5;
    constraint_options.num_choice_constraints = 3;
    constraint_options.num_equality_constraints = 2;
    constraint_options.seed = seed;
    schemas.push_back(bench::Unwrap(
        GenerateConstrainedSchema(hierarchy, constraint_options)));
  }
  return schemas;
}

/// Distinct request pool over every registered schema: a check per
/// category, a summarizable per intermediate category, and a few
/// implies on the location example (whose constraint grammar is
/// documented).
std::vector<Query> BuildQueries(
    const std::vector<std::pair<std::string, const DimensionSchema*>>&
        schemas) {
  std::vector<Query> queries;
  for (const auto& [name, schema] : schemas) {
    const HierarchySchema& hierarchy = schema->hierarchy();
    for (CategoryId c = 0; c < hierarchy.num_categories(); ++c) {
      if (c == hierarchy.all()) continue;
      queries.push_back(
          {"/v1/check",
           "{\"schema\": " + obs::JsonString(name) + ", \"category\": " +
               obs::JsonString(hierarchy.CategoryName(c)) + "}"});
    }
    for (CategoryId c = 0; c < hierarchy.num_categories(); ++c) {
      if (c == hierarchy.all()) continue;
      bool is_bottom = false;
      for (CategoryId bottom : hierarchy.bottom_categories()) {
        is_bottom |= bottom == c;
      }
      if (is_bottom) continue;
      queries.push_back(
          {"/v1/summarizable",
           "{\"schema\": " + obs::JsonString(name) + ", \"category\": " +
               obs::JsonString(hierarchy.CategoryName(c)) +
               ", \"sources\": []}"});
    }
  }
  for (const char* constraint :
       {"Store/City", "Store.Country -> Store.City.Country",
        "Store/SaleRegion -> Store/City"}) {
    queries.push_back({"/v1/implies",
                       "{\"schema\": \"loc\", \"constraint\": " +
                           obs::JsonString(constraint) + "}"});
  }
  return queries;
}

struct PassResult {
  double total_us = 0;
  uint64_t requests = 0;
  uint64_t cache_served = 0;
  uint64_t non_200 = 0;
};

PassResult RunPass(service::DimService& service,
                   const std::vector<Query>& queries) {
  PassResult pass;
  bench::WallTimer timer;
  for (const Query& query : queries) {
    const obs::HttpResponse response = service.HandleRequest(Post(query));
    ++pass.requests;
    if (response.status != 200) ++pass.non_200;
    if (response.body.find("\"cached\": true") != std::string::npos) {
      ++pass.cache_served;
    }
  }
  pass.total_us = timer.ElapsedUs();
  return pass;
}

double MeanUs(const PassResult& pass) {
  return pass.requests > 0
             ? pass.total_us / static_cast<double>(pass.requests)
             : 0.0;
}

int Run() {
  bench::BenchReporter reporter("cache");
  bench::PrintHeader("cross-request cache plane: cold vs warm");

  DimensionSchema location = bench::Unwrap(LocationSchema());
  std::vector<DimensionSchema> generated = GeneratedSchemas();
  std::vector<std::pair<std::string, const DimensionSchema*>> schemas;
  schemas.emplace_back("loc", &location);
  for (size_t i = 0; i < generated.size(); ++i) {
    schemas.emplace_back("gen" + std::to_string(i), &generated[i]);
  }
  const std::vector<Query> queries = BuildQueries(schemas);

  service::SchemaRegistry registry;
  for (const auto& [name, schema] : schemas) {
    registry.RegisterParsed(name, DimensionSchema(*schema));
  }
  service::ServiceCaches caches;
  service::DimService::Options options;
  options.registry = &registry;
  options.caches = &caches;
  options.default_deadline_ms = 30000;
  service::DimService service(options);

  // --- 1. service cold / response-warm / closure-warm ---------------
  const PassResult cold = RunPass(service, queries);
  const PassResult warm = RunPass(service, queries);
  caches.ClearResponses();
  const PassResult closure = RunPass(service, queries);

  const double warm_ratio =
      warm.requests > 0 ? static_cast<double>(warm.cache_served) /
                              static_cast<double>(warm.requests)
                        : 0.0;
  const double closure_ratio =
      closure.requests > 0 ? static_cast<double>(closure.cache_served) /
                                 static_cast<double>(closure.requests)
                           : 0.0;
  std::printf("%zu distinct queries (%llu non-200 cold)\n", queries.size(),
              static_cast<unsigned long long>(cold.non_200));
  std::printf("cold    %9.1f us/query\n", MeanUs(cold));
  std::printf("warm    %9.1f us/query  (%.0fx, hit ratio %.3f)\n",
              MeanUs(warm), MeanUs(cold) / MeanUs(warm), warm_ratio);
  std::printf("closure %9.1f us/query  (%.0fx, hit ratio %.3f)\n",
              MeanUs(closure), MeanUs(cold) / MeanUs(closure),
              closure_ratio);

  reporter.AddRow()
      .Set("case", "service_cold")
      .Set("queries", cold.requests)
      .Set("non_200", cold.non_200)
      .Set("mean_us_per_query", MeanUs(cold));
  reporter.AddRow()
      .Set("case", "service_warm_response")
      .Set("queries", warm.requests)
      .Set("mean_us_per_query", MeanUs(warm))
      .Set("speedup_vs_cold", MeanUs(cold) / MeanUs(warm))
      .Set("cache_hit_ratio", warm_ratio);
  reporter.AddRow()
      .Set("case", "service_warm_closure")
      .Set("queries", closure.requests)
      .Set("mean_us_per_query", MeanUs(closure))
      .Set("speedup_vs_cold", MeanUs(cold) / MeanUs(closure))
      .Set("cache_hit_ratio", closure_ratio);

  // --- 2. no-good warm-up, engine only ------------------------------
  // Enumerate mode: stop-at-first-witness searches on satisfiable
  // categories never complete a barren subtree, so they have nothing
  // to record — enumeration (the /v1/check shape for frozen-dimension
  // listings, and the engine shape behind implies on unsatisfiable
  // extensions) is where learned pruning pays.
  bench::PrintHeader("DIMSAT no-good store: expand-call reduction");
  uint64_t expand_cold = 0, expand_warm = 0, nogood_prunes = 0;
  double cold_us = 0, warm_us = 0;
  NoGoodStore store;
  for (const DimensionSchema& schema : NoGoodSchemas()) {
    for (CategoryId c = 0; c < schema.hierarchy().num_categories(); ++c) {
      if (c == schema.hierarchy().all()) continue;
      DimsatOptions plain;
      plain.enumerate_all = true;
      bench::WallTimer cold_timer;
      expand_cold += RunDimsat(schema, c, plain).stats.expand_calls;
      cold_us += cold_timer.ElapsedUs();
      DimsatOptions learned = plain;
      learned.nogoods = &store;
      RunDimsat(schema, c, learned);  // fill
      bench::WallTimer warm_timer;
      const DimsatResult warm_result = RunDimsat(schema, c, learned);
      expand_warm += warm_result.stats.expand_calls;
      nogood_prunes += warm_result.stats.nogood_prunes;
      warm_us += warm_timer.ElapsedUs();
    }
  }
  const double reduction =
      expand_cold > 0 ? 100.0 * (1.0 - static_cast<double>(expand_warm) /
                                           static_cast<double>(expand_cold))
                      : 0.0;
  std::printf(
      "expand calls %llu -> %llu (-%.1f%%), %.0f -> %.0f us, %llu "
      "store entries (signatures + search markers), %llu warm prunes\n",
      static_cast<unsigned long long>(expand_cold),
      static_cast<unsigned long long>(expand_warm), reduction, cold_us,
      warm_us, static_cast<unsigned long long>(store.size()),
      static_cast<unsigned long long>(nogood_prunes));
  reporter.AddRow()
      .Set("case", "dimsat_nogood_warm")
      .Set("expand_calls_cold", expand_cold)
      .Set("expand_calls_warm", expand_warm)
      .Set("expand_reduction_pct", reduction)
      .Set("signatures_learned", store.size())
      .Set("nogood_prunes", nogood_prunes)
      .Set("speedup_vs_cold", warm_us > 0 ? cold_us / warm_us : 0.0);

  // --- 3. repeat-fraction sweep -------------------------------------
  bench::PrintHeader("repeat-fraction sweep (fresh caches per point)");
  for (const double f : {0.0, 0.25, 0.5, 0.75, 0.95}) {
    service::ServiceCaches sweep_caches;
    service::DimService::Options sweep_options = options;
    sweep_options.caches = &sweep_caches;
    service::DimService sweep_service(sweep_options);
    uint64_t rng = 0x9E3779B97F4A7C15ull;
    auto rand01 = [&rng]() {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return static_cast<double>(rng >> 11) / 9007199254740992.0;
    };
    size_t next = 0;
    std::vector<size_t> sent;
    PassResult pass;
    bench::WallTimer timer;
    // The fresh stream never recycles the pool, so f=0 really is an
    // all-miss baseline; the request count is capped by the fresh
    // queries available at this f.
    const size_t kRequests = static_cast<size_t>(
        static_cast<double>(queries.size()) / (1.0 - f + 0.05));
    for (size_t i = 0; i < kRequests && next < queries.size(); ++i) {
      size_t pick;
      if (!sent.empty() && rand01() < f) {
        pick = sent[static_cast<size_t>(rand01() *
                                        static_cast<double>(sent.size())) %
                    sent.size()];
      } else {
        pick = next++;
        sent.push_back(pick);
      }
      const obs::HttpResponse response =
          sweep_service.HandleRequest(Post(queries[pick]));
      ++pass.requests;
      if (response.status != 200) ++pass.non_200;
      if (response.body.find("\"cached\": true") != std::string::npos) {
        ++pass.cache_served;
      }
    }
    pass.total_us = timer.ElapsedUs();
    const double achieved =
        static_cast<double>(pass.cache_served) /
        static_cast<double>(pass.requests);
    std::printf("f=%.2f  hit ratio %.3f  %9.1f us/query\n", f, achieved,
                MeanUs(pass));
    reporter.AddRow()
        .Set("case", "repeat_sweep")
        .Set("repeat_fraction", f)
        .Set("achieved_hit_ratio", achieved)
        .Set("mean_us_per_query", MeanUs(pass));
  }

  reporter.WriteJson();
  return 0;
}

}  // namespace
}  // namespace olapdc

int main() { return olapdc::Run(); }
