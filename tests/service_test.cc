// Tests for src/service — the olapdcd request plane (DimService +
// SchemaRegistry) and its hostile-client defenses on the HttpServer
// transport: pipelined requests, truncated POST bodies,
// Content-Length mismatches, oversized JSON, UTF-8 garbage schema
// names. Every hostile shape must be a clean 4xx with a counted
// metric — never a crash, never a 200.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <string>

#include "common/fault_injector.h"
#include "constraint/parser.h"
#include "core/location_example.h"
#include "exec/admission.h"
#include "gtest/gtest.h"
#include "io/json_parse.h"
#include "io/schema_io.h"
#include "obs/http_server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "service/dim_service.h"
#include "service/schema_registry.h"
#include "service/service_caches.h"
#include "tests/test_util.h"
#include "workload/schema_generator.h"

namespace olapdc::service {
namespace {

using obs::HttpRequest;
using obs::HttpResponse;

HttpRequest Post(const std::string& path, const std::string& body) {
  HttpRequest request;
  request.method = "POST";
  request.path = path;
  request.body = body;
  return request;
}

std::string LocationSchemaText() {
  Result<DimensionSchema> loc = LocationSchema();
  EXPECT_TRUE(loc.ok());
  return SerializeSchema(*loc);
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::Global().Enable();
    ASSERT_TRUE(registry_.Register("loc", LocationSchemaText()).ok());
    options_.registry = &registry_;
    options_.max_threads = 2;
  }

  static uint64_t Counter(const std::string& name) {
    return obs::MetricsRegistry::Global().Snapshot().counter(name);
  }

  SchemaRegistry registry_;
  DimService::Options options_;
};

// ---------------------------------------------------------------------------
// The request plane, transport-free (HandleRequest directly).

TEST_F(ServiceTest, CheckAnswersDefinitivelyOnLocationExample) {
  DimService service(options_);
  HttpResponse response = service.HandleRequest(
      Post("/v1/check", "{\"schema\": \"loc\", \"category\": \"Store\"}"));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"definitive\": true"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"satisfiable\": "), std::string::npos);
  EXPECT_NE(response.body.find("\"expand_calls\": "), std::string::npos);
  EXPECT_EQ(service.ok(), 1u);
  EXPECT_EQ(service.requests(), 1u);
}

TEST_F(ServiceTest, ImpliesAndSummarizableAndBatchAnswer) {
  DimService service(options_);
  HttpResponse implies = service.HandleRequest(Post(
      "/v1/implies",
      "{\"schema\": \"loc\", \"constraint\": \"Store/City\"}"));
  EXPECT_EQ(implies.status, 200);
  EXPECT_NE(implies.body.find("\"implied\": "), std::string::npos)
      << implies.body;

  HttpResponse summarizable = service.HandleRequest(Post(
      "/v1/summarizable",
      "{\"schema\": \"loc\", \"category\": \"Country\", "
      "\"sources\": [\"Store\"]}"));
  EXPECT_EQ(summarizable.status, 200);
  EXPECT_NE(summarizable.body.find("\"summarizable\": "), std::string::npos)
      << summarizable.body;

  HttpResponse batch = service.HandleRequest(Post(
      "/v1/batch",
      "{\"requests\": [{\"op\": \"check\", \"schema\": \"loc\", "
      "\"category\": \"Store\"}, {\"op\": \"implies\", \"schema\": "
      "\"loc\", \"constraint\": \"Store/City\"}]}"));
  EXPECT_EQ(batch.status, 200);
  EXPECT_NE(batch.body.find("\"count\": 2"), std::string::npos) << batch.body;
  JsonValue parsed;
  std::string parse_error;
  EXPECT_TRUE(ParseJsonText(batch.body, &parsed, &parse_error))
      << parse_error << "\n" << batch.body;
  EXPECT_EQ(service.requests(), service.ok());
}

TEST_F(ServiceTest, UnknownSchemaIs404AndUnknownPathIs404) {
  DimService service(options_);
  HttpResponse unknown_schema = service.HandleRequest(
      Post("/v1/check", "{\"schema\": \"nope\", \"category\": \"X\"}"));
  EXPECT_EQ(unknown_schema.status, 404);
  EXPECT_NE(unknown_schema.body.find("Not found"), std::string::npos)
      << unknown_schema.body;

  HttpResponse unknown_path = service.HandleRequest(Post("/v1/zap", "{}"));
  EXPECT_EQ(unknown_path.status, 404);
  EXPECT_EQ(service.errors(), 2u);
}

TEST_F(ServiceTest, NonPostIs405) {
  DimService service(options_);
  HttpRequest get;
  get.method = "GET";
  get.path = "/v1/check";
  EXPECT_EQ(service.HandleRequest(get).status, 405);
}

TEST_F(ServiceTest, MalformedJsonIs400WithLineColumnAndCountedMetric) {
  DimService service(options_);
  const uint64_t before = Counter("olapdc.service.bad_json");
  HttpResponse response =
      service.HandleRequest(Post("/v1/check", "{\"schema\": "));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("line 1:"), std::string::npos) << response.body;
  EXPECT_EQ(Counter("olapdc.service.bad_json"), before + 1);

  // A non-object body is rejected before any field lookup.
  EXPECT_EQ(service.HandleRequest(Post("/v1/check", "[1, 2]")).status, 400);
  EXPECT_EQ(service.errors(), 2u);
}

TEST_F(ServiceTest, MistypedFieldIs400NamingTheField) {
  DimService service(options_);
  HttpResponse response = service.HandleRequest(Post(
      "/v1/check",
      "{\"schema\": \"loc\", \"category\": \"Store\", "
      "\"deadline_ms\": \"soon\"}"));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("deadline_ms"), std::string::npos)
      << response.body;
}

TEST_F(ServiceTest, Utf8GarbageSchemaNamesAre400NeverCrash) {
  DimService service(options_);
  const std::string hostile_names[] = {
      std::string("\xFF\xFE"),     // invalid lead bytes
      std::string("\xC0\xAF"),     // overlong encoding
      std::string("\x80garbled"),  // stray continuation byte
      std::string("trunc\xC3"),    // truncated multibyte sequence
      std::string(200, 'a'),       // over the 128-byte length cap
  };
  for (const std::string& name : hostile_names) {
    // The raw bytes travel inside the JSON string literal unescaped —
    // exactly what a hostile client would send.
    HttpResponse response = service.HandleRequest(Post(
        "/v1/check",
        "{\"schema\": \"" + name + "\", \"category\": \"Store\"}"));
    EXPECT_EQ(response.status, 400) << "name bytes: " << name;
    EXPECT_NE(response.body.find("\"code\": "), std::string::npos)
        << response.body;
  }
  // Valid multibyte UTF-8 is a legal name.
  ASSERT_TRUE(registry_.Register("sch\xC3\xA9ma", LocationSchemaText()).ok());
  HttpResponse ok = service.HandleRequest(Post(
      "/v1/check",
      "{\"schema\": \"sch\xC3\xA9ma\", \"category\": \"Store\"}"));
  EXPECT_EQ(ok.status, 200) << ok.body;
}

TEST_F(ServiceTest, AdmissionShedIs503WithRetryAfterHeader) {
  exec::AdmissionGate gate(exec::AdmissionGate::Options{1, 50});
  options_.gate = &gate;
  DimService service(options_);
  // Hold the only slot so the service's ticket is shed.
  ASSERT_TRUE(gate.TryAdmit().ok());
  HttpResponse response = service.HandleRequest(
      Post("/v1/check", "{\"schema\": \"loc\", \"category\": \"Store\"}"));
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("retry-after-ms="), std::string::npos)
      << response.body;
  bool has_retry_after = false;
  for (const auto& [key, value] : response.headers) {
    if (key == "Retry-After") {
      has_retry_after = true;
      EXPECT_GE(std::stoll(value), 1);
    }
  }
  EXPECT_TRUE(has_retry_after);
  EXPECT_EQ(service.shed(), 1u);
  gate.Release();

  // With the slot free the same request is admitted and succeeds.
  EXPECT_EQ(service
                .HandleRequest(Post("/v1/check",
                                    "{\"schema\": \"loc\", \"category\": "
                                    "\"Store\"}"))
                .status,
            200);
  EXPECT_EQ(service.requests(), service.ok() + service.shed());
}

// Draining sheds every new request with the same 503 and Retry-After,
// with or without an admission gate; a request already holding a gate
// slot keeps it.
TEST_F(ServiceTest, DrainShedsNewRequests) {
  exec::AdmissionGate gate;
  for (exec::AdmissionGate* attached :
       {&gate, static_cast<exec::AdmissionGate*>(nullptr)}) {
    SCOPED_TRACE(attached != nullptr ? "with a gate" : "without a gate");
    options_.gate = attached;
    DimService service(options_);
    if (attached != nullptr) {
      ASSERT_TRUE(gate.TryAdmit().ok());  // a request in flight
    }
    service.BeginDrain();
    EXPECT_TRUE(service.draining());
    HttpResponse response = service.HandleRequest(Post(
        "/v1/check", "{\"schema\": \"loc\", \"category\": \"Store\"}"));
    EXPECT_EQ(response.status, 503) << response.body;
    EXPECT_NE(response.body.find("retry-after-ms="), std::string::npos)
        << response.body;
    size_t retry_after_headers = 0;
    for (const auto& [key, value] : response.headers) {
      if (key == "Retry-After") {
        ++retry_after_headers;
        EXPECT_GE(std::stoll(value), 1);
      }
    }
    EXPECT_EQ(retry_after_headers, 1u);
    EXPECT_EQ(service.shed(), 1u);
    if (attached != nullptr) {
      EXPECT_EQ(gate.in_flight(), 1);
      gate.Release();
    }
  }
}

// Pulls the value of a JSON string field out of a rendered response
// body and undoes obs::JsonEscape (checkpoints serialize to printable
// ASCII + newlines, so the n/r/t escapes cover it).
std::string ExtractStringField(const std::string& body,
                               const std::string& field) {
  const std::string key = "\"" + field + "\": \"";
  const size_t start = body.find(key);
  if (start == std::string::npos) return "";
  std::string out;
  size_t i = start + key.size();
  while (i < body.size() && body[i] != '"') {
    if (body[i] == '\\' && i + 1 < body.size()) {
      ++i;
      switch (body[i]) {
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        default: out += body[i];
      }
    } else {
      out += body[i];
    }
    ++i;
  }
  return out;
}

TEST_F(ServiceTest, TinyDeadlineDegradesWithCheckpointAndResumesToTruth) {
  // A workload big enough that a 1ms deadline genuinely interrupts the
  // search on most machines. Either outcome of one hop is legitimate;
  // when interrupted, the response must carry a resumable checkpoint
  // and the resume chain must converge to the unbudgeted answer.
  SchemaGenOptions gen;
  gen.num_levels = 5;
  gen.categories_per_level = 4;
  gen.extra_edge_prob = 0.4;
  gen.seed = 1234;
  auto hierarchy = GenerateLayeredHierarchy(gen);
  ASSERT_TRUE(hierarchy.ok());
  ConstraintGenOptions cgen;
  cgen.into_fraction = 0.4;
  cgen.num_choice_constraints = 2;
  cgen.seed = 99;
  auto schema = GenerateConstrainedSchema(*hierarchy, cgen);
  ASSERT_TRUE(schema.ok());
  registry_.RegisterParsed("big", std::move(*schema));

  DimService service(options_);
  // Ground truth with an effectively unbounded budget.
  HttpResponse truth = service.HandleRequest(Post(
      "/v1/check",
      "{\"schema\": \"big\", \"category\": \"Base\", "
      "\"deadline_ms\": 30000}"));
  ASSERT_EQ(truth.status, 200) << truth.body;
  ASSERT_NE(truth.body.find("\"definitive\": true"), std::string::npos)
      << truth.body;
  const bool truth_satisfiable =
      truth.body.find("\"satisfiable\": true") != std::string::npos;

  std::string body =
      "{\"schema\": \"big\", \"category\": \"Base\", \"deadline_ms\": 1}";
  for (int hop = 0; hop < 512; ++hop) {
    HttpResponse response = service.HandleRequest(Post("/v1/check", body));
    ASSERT_EQ(response.status, 200) << response.body;
    if (response.body.find("\"definitive\": true") != std::string::npos) {
      EXPECT_EQ(
          response.body.find("\"satisfiable\": true") != std::string::npos,
          truth_satisfiable)
          << response.body;
      return;
    }
    ASSERT_NE(response.body.find("\"definitive\": false"), std::string::npos);
    const std::string checkpoint =
        ExtractStringField(response.body, "checkpoint");
    if (checkpoint.empty()) {
      continue;  // expired before any frontier existed; try again
    }
    // Give resume hops a workable deadline so the chain terminates.
    body = "{\"schema\": \"big\", \"category\": \"Base\", "
           "\"deadline_ms\": 500, \"resume\": " +
           obs::JsonString(checkpoint) + "}";
  }
  FAIL() << "resume chain did not converge in 512 hops";
}

// A resume token is client text. Tokens no run writes are a 400, not a
// definitive verdict: a v2 token, a v1 token without frames, one whose
// frame holds an edge the schema lacks (Store->All; every completion
// of it fails CHECK, so replaying it would answer "unsatisfiable" for
// a satisfiable category), one naming two billion categories (refused
// before a frame's Subhierarchy asks for O(n²) bits), and one claiming
// 2^24 frames but holding one (nothing is reserved for the claim).
TEST_F(ServiceTest, ResumeTokensNoRunWritesAre400) {
  std::shared_ptr<const DimensionSchema> loc = registry_.Find("loc");
  ASSERT_NE(loc, nullptr);
  const HierarchySchema& h = loc->hierarchy();
  const std::string store = std::to_string(h.FindCategory("Store"));
  const std::string header = "dimsat-checkpoint v1\nroot " + store +
                             " categories " +
                             std::to_string(h.num_categories()) + " frames ";
  const std::string tokens[] = {
      "dimsat-checkpoint v2\nroot " + store + " categories " +
          std::to_string(h.num_categories()) +
          " frames 1 components 2 solved 0\nframe 1 0 0 0\n",
      header + "0\n",
      header + "1\nframe 0 1 1 " + store + " " + std::to_string(h.all()) +
          "\n",
      "dimsat-checkpoint v1\nroot 0 categories 2000000000 frames 1\n"
      "frame 0 0 0\n",
      header + "16777216\nframe 0 0 0\n",
  };
  DimService service(options_);
  for (const std::string& token : tokens) {
    HttpResponse response = service.HandleRequest(
        Post("/v1/check", "{\"schema\": \"loc\", \"category\": \"Store\", "
                          "\"resume\": " +
                              obs::JsonString(token) + "}"));
    EXPECT_EQ(response.status, 400) << token << "\n" << response.body;
    EXPECT_EQ(response.body.find("\"definitive\""), std::string::npos)
        << response.body;
  }
  HttpResponse fresh = service.HandleRequest(
      Post("/v1/check", "{\"schema\": \"loc\", \"category\": \"Store\"}"));
  EXPECT_EQ(fresh.status, 200) << fresh.body;
  EXPECT_NE(fresh.body.find("\"satisfiable\": true"), std::string::npos)
      << fresh.body;
}

// A resume token's frames are charged to the request's memory budget
// as they are read: 75,000 frames of the 7-category location schema
// need about 170 MB, past the default 64 MiB, so the read stops early
// with a degraded reply instead of building every frame uncharged.
TEST_F(ServiceTest, OversizedResumeTokenIsChargedAndNotDefinitive) {
  std::string token =
      "dimsat-checkpoint v1\nroot 0 categories 7 frames 75000\n";
  for (int i = 0; i < 75000; ++i) token += "frame 0 0 0\n";
  DimService service(options_);
  HttpResponse response = service.HandleRequest(
      Post("/v1/check", "{\"schema\": \"loc\", \"category\": \"Store\", "
                        "\"resume\": " +
                            obs::JsonString(token) + "}"));
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(response.body.find("\"definitive\": true"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"definitive\": false"), std::string::npos)
      << response.body;

  HttpResponse fresh = service.HandleRequest(
      Post("/v1/check", "{\"schema\": \"loc\", \"category\": \"Store\"}"));
  EXPECT_EQ(fresh.status, 200) << fresh.body;
  EXPECT_NE(fresh.body.find("\"satisfiable\": true"), std::string::npos)
      << fresh.body;
}

TEST_F(ServiceTest, RegisterEndpointRoundTripsAndHonorsDisable) {
  DimService service(options_);
  HttpResponse registered = service.HandleRequest(Post(
      "/v1/schemas", "{\"name\": \"copy\", \"text\": " +
                         obs::JsonString(LocationSchemaText()) + "}"));
  EXPECT_EQ(registered.status, 200) << registered.body;
  EXPECT_NE(registered.body.find("\"categories\": "), std::string::npos);
  EXPECT_NE(registry_.Find("copy"), nullptr);

  // A bad schema text must not disturb the existing entry.
  auto before = registry_.Find("copy");
  HttpResponse bad = service.HandleRequest(Post(
      "/v1/schemas", "{\"name\": \"copy\", \"text\": \"category \"}"));
  EXPECT_EQ(bad.status, 400) << bad.body;
  EXPECT_EQ(registry_.Find("copy"), before);

  options_.allow_register = false;
  DimService frozen(options_);
  HttpResponse denied = frozen.HandleRequest(Post(
      "/v1/schemas", "{\"name\": \"x\", \"text\": \"\"}"));
  EXPECT_EQ(denied.status, 400);
  EXPECT_NE(denied.body.find("disabled"), std::string::npos) << denied.body;
}

// A category with more successor choices than EXPAND enumerates is a
// clean 400 for that request; the service keeps answering.
TEST_F(ServiceTest, TooWideCategoryIs400AndTheServiceSurvives) {
  std::string text;
  for (int i = 0; i < 33; ++i) {
    text += "edge A P" + std::to_string(i) + "\n";
    text += "edge P" + std::to_string(i) + " All\n";
  }
  DimService service(options_);
  HttpResponse registered = service.HandleRequest(Post(
      "/v1/schemas",
      "{\"name\": \"wide\", \"text\": " + obs::JsonString(text) + "}"));
  ASSERT_EQ(registered.status, 200) << registered.body;

  HttpResponse wide = service.HandleRequest(
      Post("/v1/check", "{\"schema\": \"wide\", \"category\": \"A\"}"));
  EXPECT_EQ(wide.status, 400) << wide.body;
  EXPECT_NE(wide.body.find("category A has 33"), std::string::npos)
      << wide.body;

  HttpResponse next = service.HandleRequest(
      Post("/v1/check", "{\"schema\": \"wide\", \"category\": \"P0\"}"));
  EXPECT_EQ(next.status, 200) << next.body;
  EXPECT_NE(next.body.find("\"satisfiable\": true"), std::string::npos)
      << next.body;
}

// Theorem 1's S is a set: a repeated source is a 400 naming the
// category, with or without the cache plane in front, and the service
// keeps answering.
TEST_F(ServiceTest, RepeatedSummarizabilitySourceIs400) {
  ServiceCaches caches;
  for (ServiceCaches* plane : {static_cast<ServiceCaches*>(nullptr), &caches}) {
    options_.caches = plane;
    DimService service(options_);
    HttpResponse repeated = service.HandleRequest(Post(
        "/v1/summarizable",
        "{\"schema\": \"loc\", \"category\": \"All\", "
        "\"sources\": [\"Country\", \"Country\"]}"));
    EXPECT_EQ(repeated.status, 400) << repeated.body;
    EXPECT_NE(repeated.body.find("Country"), std::string::npos)
        << repeated.body;

    HttpResponse next = service.HandleRequest(Post(
        "/v1/summarizable",
        "{\"schema\": \"loc\", \"category\": \"All\", "
        "\"sources\": [\"Country\"]}"));
    EXPECT_EQ(next.status, 200) << next.body;
    EXPECT_NE(next.body.find("\"summarizable\": true"), std::string::npos)
        << next.body;
  }
}

TEST_F(ServiceTest, BatchCapsFanOutAndEmbedsPerItemErrors) {
  options_.max_batch = 2;
  DimService service(options_);
  HttpResponse overflow = service.HandleRequest(Post(
      "/v1/batch",
      "{\"requests\": [{\"op\": \"check\"}, {\"op\": \"check\"}, "
      "{\"op\": \"check\"}]}"));
  EXPECT_EQ(overflow.status, 400) << overflow.body;

  HttpResponse mixed = service.HandleRequest(Post(
      "/v1/batch",
      "{\"requests\": [{\"op\": \"check\", \"schema\": \"loc\", "
      "\"category\": \"Store\"}, {\"op\": \"check\", \"schema\": "
      "\"nope\", \"category\": \"X\"}]}"));
  EXPECT_EQ(mixed.status, 200);
  // The whole body is JSON, the failed item included.
  JsonValue parsed;
  std::string parse_error;
  ASSERT_TRUE(ParseJsonText(mixed.body, &parsed, &parse_error))
      << parse_error << "\n" << mixed.body;
  auto results = parsed.RequireArray("results");
  ASSERT_TRUE(results.ok()) << mixed.body;
  ASSERT_EQ((*results)->array.size(), 2u);
  const JsonValue& failed = (*results)->array[1];
  auto http_status = failed.RequireInt("http_status");
  ASSERT_TRUE(http_status.ok()) << mixed.body;
  EXPECT_EQ(*http_status, 404);
  auto error = failed.RequireString("error");
  ASSERT_TRUE(error.ok()) << mixed.body;
  EXPECT_EQ(*error, "schema \"nope\" is not registered");
}

// ---------------------------------------------------------------------------
// The cross-request cache plane (ServiceCaches wired into DimService).

TEST_F(ServiceTest, CacheHitAfterMissServesMarkedResponse) {
  ServiceCaches caches;
  options_.caches = &caches;
  DimService service(options_);
  const std::string body = "{\"schema\": \"loc\", \"category\": \"Store\"}";

  HttpResponse cold = service.HandleRequest(Post("/v1/check", body));
  ASSERT_EQ(cold.status, 200) << cold.body;
  EXPECT_EQ(cold.body.find("\"cached\""), std::string::npos) << cold.body;
  const bool truth =
      cold.body.find("\"satisfiable\": true") != std::string::npos;

  const uint64_t served_before = Counter("olapdc.service.cache_served");
  HttpResponse warm = service.HandleRequest(Post("/v1/check", body));
  ASSERT_EQ(warm.status, 200);
  EXPECT_NE(warm.body.find("\"cached\": true"), std::string::npos)
      << warm.body;
  EXPECT_NE(warm.body.find("\"cache_layer\": \"response\""),
            std::string::npos)
      << warm.body;
  EXPECT_EQ(warm.body.find("\"satisfiable\": true") != std::string::npos,
            truth);
  EXPECT_EQ(Counter("olapdc.service.cache_served"), served_before + 1);

  // With the response layer flushed, the closure layer still knows the
  // verdict: the served body is synthesized, with zero engine work.
  caches.ClearResponses();
  HttpResponse closure = service.HandleRequest(Post("/v1/check", body));
  ASSERT_EQ(closure.status, 200);
  EXPECT_NE(closure.body.find("\"cache_layer\": \"closure\""),
            std::string::npos)
      << closure.body;
  EXPECT_NE(closure.body.find("\"expand_calls\": 0"), std::string::npos)
      << closure.body;
  EXPECT_EQ(closure.body.find("\"satisfiable\": true") != std::string::npos,
            truth);

  // The other two ops memoize the same way.
  const std::string implies =
      "{\"schema\": \"loc\", \"constraint\": \"Store/City\"}";
  HttpResponse implies_cold = service.HandleRequest(Post("/v1/implies", implies));
  ASSERT_EQ(implies_cold.status, 200) << implies_cold.body;
  HttpResponse implies_warm = service.HandleRequest(Post("/v1/implies", implies));
  EXPECT_NE(implies_warm.body.find("\"cached\": true"), std::string::npos)
      << implies_warm.body;

  const std::string summarizable =
      "{\"schema\": \"loc\", \"category\": \"City\", \"sources\": []}";
  HttpResponse sum_cold =
      service.HandleRequest(Post("/v1/summarizable", summarizable));
  ASSERT_EQ(sum_cold.status, 200) << sum_cold.body;
  HttpResponse sum_warm =
      service.HandleRequest(Post("/v1/summarizable", summarizable));
  EXPECT_NE(sum_warm.body.find("\"cached\": true"), std::string::npos)
      << sum_warm.body;
}

// An α whose atoms abbreviate more simple paths than the canonical key
// may list runs uncached: the listing would sit outside every request
// budget and the key would be the whole path disjunction. On the
// ladder, Base.L<k>a abbreviates 2^(k-1) paths: one atom past the cap,
// and two atoms that each fit but not together.
TEST_F(ServiceTest, ImpliesPastTheKeyPathLimitStoresNoClosureEntry) {
  int levels = 1;
  while ((size_t{1} << (levels - 1)) <= DimService::kCanonicalKeyPathLimit) {
    ++levels;
  }
  std::string ladder;
  for (const auto& [from, to] : testing_util::LadderEdges(levels)) {
    ladder += "edge " + from + " " + to + "\n";
  }
  ASSERT_TRUE(registry_.Register("ladder", ladder).ok());
  ServiceCaches caches;
  options_.caches = &caches;
  DimService service(options_);
  const std::string top = "Base.L" + std::to_string(levels) + "a";
  const std::string below = "Base.L" + std::to_string(levels - 1) + "a";
  for (const std::string& alpha : {top, below + " | " + below}) {
    const std::string body =
        "{\"schema\": \"ladder\", \"constraint\": \"" + alpha + "\"}";
    for (int ask = 0; ask < 2; ++ask) {
      HttpResponse reply = service.HandleRequest(Post("/v1/implies", body));
      ASSERT_EQ(reply.status, 200) << reply.body;
      EXPECT_NE(
          reply.body.find("\"definitive\": true, \"implied\": false"),
          std::string::npos)
          << reply.body;
      EXPECT_EQ(reply.body.find("\"cached\""), std::string::npos)
          << reply.body;
    }
  }
  EXPECT_EQ(caches.closure().size(), 0u);
}

TEST_F(ServiceTest, EpochBumpInvalidatesEveryCacheLayer) {
  ServiceCaches caches;
  options_.caches = &caches;
  DimService service(options_);
  const std::string body = "{\"schema\": \"loc\", \"category\": \"Store\"}";

  // Warm all layers for the current epoch.
  ASSERT_EQ(service.HandleRequest(Post("/v1/check", body)).status, 200);
  HttpResponse warm = service.HandleRequest(Post("/v1/check", body));
  ASSERT_NE(warm.body.find("\"cached\": true"), std::string::npos);

  // Replace "loc" with a *different* theory (one extra constraint):
  // the content epoch changes, so every cached answer for the old
  // theory is logically gone in the same instant.
  Result<DimensionSchema> loc = LocationSchema();
  ASSERT_TRUE(loc.ok());
  auto extra = ParseConstraint(loc->hierarchy(), "Store/SaleRegion");
  ASSERT_TRUE(extra.ok()) << extra.status().ToString();
  registry_.RegisterParsed("loc", loc->WithExtraConstraint(*extra));
  EXPECT_EQ(registry_.invalidations(), 1u);

  HttpResponse fresh = service.HandleRequest(Post("/v1/check", body));
  ASSERT_EQ(fresh.status, 200) << fresh.body;
  EXPECT_EQ(fresh.body.find("\"cached\""), std::string::npos)
      << "served a stale epoch: " << fresh.body;
  // The recompute ran the engine (no closure short-circuit either).
  EXPECT_EQ(fresh.body.find("\"expand_calls\": 0"), std::string::npos)
      << fresh.body;

  // Restoring byte-identical content restores the *original* epoch —
  // and with it every cached answer learned under it.
  Result<DimensionSchema> restored = LocationSchema();
  ASSERT_TRUE(restored.ok());
  registry_.RegisterParsed("loc", std::move(*restored));
  HttpResponse back = service.HandleRequest(Post("/v1/check", body));
  ASSERT_EQ(back.status, 200);
  EXPECT_NE(back.body.find("\"cached\": true"), std::string::npos)
      << back.body;
}

TEST_F(ServiceTest, TinyCacheBudgetEvictsButNeverChangesAnswers) {
  // Truth from an uncached service.
  DimService uncached(options_);
  ServiceCaches::Options tiny;
  tiny.memory_budget_bytes = 4 << 10;  // a few responses at most
  tiny.num_shards = 1;
  ServiceCaches caches(tiny);
  options_.caches = &caches;
  DimService service(options_);

  Result<DimensionSchema> loc = LocationSchema();
  ASSERT_TRUE(loc.ok());
  const HierarchySchema& hierarchy = loc->hierarchy();
  for (int pass = 0; pass < 3; ++pass) {
    for (CategoryId c = 0; c < hierarchy.num_categories(); ++c) {
      if (c == hierarchy.all()) continue;
      const std::string body =
          "{\"schema\": \"loc\", \"category\": " +
          obs::JsonString(hierarchy.CategoryName(c)) + "}";
      HttpResponse truth = uncached.HandleRequest(Post("/v1/check", body));
      HttpResponse cached = service.HandleRequest(Post("/v1/check", body));
      ASSERT_EQ(truth.status, 200);
      ASSERT_EQ(cached.status, 200);
      EXPECT_EQ(
          cached.body.find("\"satisfiable\": true") != std::string::npos,
          truth.body.find("\"satisfiable\": true") != std::string::npos)
          << "category " << hierarchy.CategoryName(c) << " pass " << pass;
    }
  }
}

TEST_F(ServiceTest, ResumeRequestsBypassTheCacheReadPath) {
  SchemaGenOptions gen;
  gen.num_levels = 5;
  gen.categories_per_level = 4;
  gen.extra_edge_prob = 0.4;
  gen.seed = 1234;
  auto hierarchy = GenerateLayeredHierarchy(gen);
  ASSERT_TRUE(hierarchy.ok());
  ConstraintGenOptions cgen;
  cgen.into_fraction = 0.4;
  cgen.num_choice_constraints = 2;
  cgen.seed = 99;
  auto schema = GenerateConstrainedSchema(*hierarchy, cgen);
  ASSERT_TRUE(schema.ok());
  registry_.RegisterParsed("big", std::move(*schema));

  ServiceCaches caches;
  options_.caches = &caches;
  DimService service(options_);

  std::string body =
      "{\"schema\": \"big\", \"category\": \"Base\", \"deadline_ms\": 1}";
  bool saw_resume = false;
  for (int hop = 0; hop < 512; ++hop) {
    HttpResponse response = service.HandleRequest(Post("/v1/check", body));
    ASSERT_EQ(response.status, 200) << response.body;
    // Neither a degraded answer nor a resumed one may come from (or
    // land in) the response cache: only definitive first-shot answers
    // are memoized.
    EXPECT_EQ(response.body.find("\"cached\""), std::string::npos)
        << response.body;
    if (response.body.find("\"definitive\": true") != std::string::npos) {
      // On most machines the 1ms first hop was interrupted and the
      // chain went through >= 1 resume; a machine fast enough to finish
      // inside the deadline legitimately never exercises the bypass.
      (void)saw_resume;
      return;
    }
    const std::string checkpoint =
        ExtractStringField(response.body, "checkpoint");
    if (checkpoint.empty()) continue;
    saw_resume = true;
    body = "{\"schema\": \"big\", \"category\": \"Base\", "
           "\"deadline_ms\": 500, \"resume\": " +
           obs::JsonString(checkpoint) + "}";
  }
  FAIL() << "resume chain did not converge in 512 hops";
}

TEST_F(ServiceTest, ChaosMidCacheFillNeverCachesFailures) {
  ServiceCaches caches;
  options_.caches = &caches;
  DimService service(options_);
  const std::string body = "{\"schema\": \"loc\", \"category\": \"Store\"}";
  {
    ScopedFaultInjection guard(/*seed=*/77);
    FaultInjector::Global().SetFault("dimsat.expand", StatusCode::kInternal,
                                     1.0, "injected mid-fill bug");
    HttpResponse failed = service.HandleRequest(Post("/v1/check", body));
    EXPECT_EQ(failed.status, 500) << failed.body;
  }
  // The failure must not have populated any layer: the first fault-free
  // request recomputes, the second is the real first hit.
  HttpResponse recomputed = service.HandleRequest(Post("/v1/check", body));
  ASSERT_EQ(recomputed.status, 200) << recomputed.body;
  EXPECT_EQ(recomputed.body.find("\"cached\""), std::string::npos)
      << recomputed.body;
  HttpResponse warm = service.HandleRequest(Post("/v1/check", body));
  ASSERT_EQ(warm.status, 200);
  EXPECT_NE(warm.body.find("\"cached\": true"), std::string::npos)
      << warm.body;
}

// Every reply shape of the three verdict endpoints, byte for byte: each
// one degraded (every memory reservation fails), the degraded check's
// token resumed, each one as an engine answer, a response-layer hit and
// a closure-layer hit, the error replies, and a batch whose items are
// embedded as their endpoints reply, a per-item error included. The
// rows run in order against one cached service, so each row meets the
// cache state the rows above it left.
TEST_F(ServiceTest, EveryReplyShapeIsByteStable) {
  enum class Setup { kNone, kClearResponses, kFailReservations };
  struct Row {
    const char* path;
    const char* body;
    Setup setup;
    int status;
    const char* reply;
  };
  const Row rows[] = {
      {"/v1/check", R"({"schema": "loc", "category": "Store"})",
       Setup::kFailReservations, 200,
       R"({"schema": "loc", "category": "Store", "definitive": false, "status": "Resource exhausted", "checkpoint": "dimsat-checkpoint v1\nroot 2 categories 7 frames 1\nframe 0 0 0\n", "expand_calls": 0})"},
      {"/v1/check", R"({"schema": "loc", "category": "Store", "threads": 2})",
       Setup::kFailReservations, 200,
       R"({"schema": "loc", "category": "Store", "definitive": false, "status": "Resource exhausted", "expand_calls": 0})"},
      {"/v1/implies", R"({"schema": "loc", "constraint": "Store/City"})",
       Setup::kFailReservations, 200,
       R"({"schema": "loc", "constraint": "Store/City", "definitive": false, "status": "Resource exhausted", "expand_calls": 0})"},
      {"/v1/summarizable",
       R"({"schema": "loc", "category": "City", "sources": []})",
       Setup::kFailReservations, 200,
       R"({"schema": "loc", "category": "City", "definitive": false, "status": "Resource exhausted", "bottoms_checked": 0, "expand_calls": 0})"},
      {"/v1/check",
       R"({"schema": "loc", "category": "Store", "resume": "dimsat-checkpoint v1\nroot 2 categories 7 frames 1\nframe 0 0 0\n"})",
       Setup::kNone, 200,
       R"({"schema": "loc", "category": "Store", "definitive": true, "satisfiable": true, "expand_calls": 6})"},
      {"/v1/check", R"({"schema": "loc", "category": "Store"})", Setup::kNone,
       200,
       R"({"schema": "loc", "category": "Store", "definitive": true, "satisfiable": true, "expand_calls": 6})"},
      {"/v1/check", R"({"schema": "loc", "category": "Store"})", Setup::kNone,
       200,
       R"({"schema": "loc", "category": "Store", "definitive": true, "satisfiable": true, "expand_calls": 6, "cached": true, "cache_layer": "response"})"},
      {"/v1/check", R"({"schema": "loc", "category": "Store"})",
       Setup::kClearResponses, 200,
       R"({"schema": "loc", "category": "Store", "definitive": true, "satisfiable": true, "expand_calls": 0, "cached": true, "cache_layer": "closure"})"},
      {"/v1/implies", R"({"schema": "loc", "constraint": "Store/City"})",
       Setup::kNone, 200,
       R"({"schema": "loc", "constraint": "Store/City", "definitive": true, "implied": true, "counterexample": false, "expand_calls": 48})"},
      {"/v1/implies", R"({"schema": "loc", "constraint": "Store/City"})",
       Setup::kNone, 200,
       R"({"schema": "loc", "constraint": "Store/City", "definitive": true, "implied": true, "counterexample": false, "expand_calls": 48, "cached": true, "cache_layer": "response"})"},
      {"/v1/implies", R"({"schema": "loc", "constraint": "Store/City"})",
       Setup::kClearResponses, 200,
       R"({"schema": "loc", "constraint": "Store/City", "definitive": true, "implied": true, "expand_calls": 0, "cached": true, "cache_layer": "closure"})"},
      {"/v1/summarizable",
       R"({"schema": "loc", "category": "City", "sources": []})",
       Setup::kNone, 200,
       R"({"schema": "loc", "category": "City", "definitive": true, "summarizable": false, "bottoms_checked": 1, "expand_calls": 6})"},
      {"/v1/summarizable",
       R"({"schema": "loc", "category": "City", "sources": []})",
       Setup::kNone, 200,
       R"({"schema": "loc", "category": "City", "definitive": true, "summarizable": false, "bottoms_checked": 1, "expand_calls": 6, "cached": true, "cache_layer": "response"})"},
      {"/v1/summarizable",
       R"({"schema": "loc", "category": "City", "sources": []})",
       Setup::kClearResponses, 200,
       R"({"schema": "loc", "category": "City", "definitive": true, "summarizable": false, "bottoms_checked": 1, "expand_calls": 0, "cached": true, "cache_layer": "closure"})"},
      {"/v1/check", R"({"schema": "nope", "category": "X"})", Setup::kNone,
       404,
       R"({"error": "schema \"nope\" is not registered", "code": "Not found"})"},
      {"/v1/check", R"({"schema": "loc", "category": "Nowhere"})",
       Setup::kNone, 404,
       R"({"error": "unknown category 'Nowhere'", "code": "Not found"})"},
      {"/v1/check",
       R"({"schema": "loc", "category": "Store", "resume": "garbage"})",
       Setup::kNone, 400,
       R"({"error": "not a dimsat-checkpoint v1 header", "code": "Parse error"})"},
      {"/v1/batch",
       R"({"requests": [{"op": "check", "schema": "loc", "category": "Store"}, {"op": "check", "schema": "nope", "category": "X"}, {"op": "implies", "schema": "loc", "constraint": "Store/City"}]})",
       Setup::kNone, 200,
       R"({"results": [{"schema": "loc", "category": "Store", "definitive": true, "satisfiable": true, "expand_calls": 0, "cached": true, "cache_layer": "closure"}, {"http_status": 404, "error": "schema \"nope\" is not registered", "code": "Not found"}, {"schema": "loc", "constraint": "Store/City", "definitive": true, "implied": true, "expand_calls": 0, "cached": true, "cache_layer": "closure"}], "count": 3})"},
  };
  ServiceCaches caches;
  options_.caches = &caches;
  DimService service(options_);
  for (const Row& row : rows) {
    if (row.setup == Setup::kClearResponses) caches.ClearResponses();
    std::optional<ScopedFaultInjection> faults;
    if (row.setup == Setup::kFailReservations) {
      faults.emplace(/*seed=*/1);
      FaultInjector::Global().SetFault(
          "mem.reserve", StatusCode::kResourceExhausted, 1.0);
    }
    HttpResponse response = service.HandleRequest(Post(row.path, row.body));
    EXPECT_EQ(response.status, row.status) << row.path << " " << row.body;
    EXPECT_EQ(response.body, std::string(row.reply) + "\n")
        << row.path << " " << row.body;
    JsonValue parsed;
    std::string parse_error;
    EXPECT_TRUE(ParseJsonText(response.body, &parsed, &parse_error))
        << parse_error << "\n" << response.body;
  }
}

// ---------------------------------------------------------------------------
// The transport: hostile parsing edges over a real loopback socket.

/// Sends raw bytes and collects everything the server writes back
/// until it closes (or `linger_ms` of quiet).
std::string RawExchange(int port, const std::string& bytes,
                        bool half_close = true, int linger_ms = 5000) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  if (half_close) ::shutdown(fd, SHUT_WR);
  timeval tv{linger_ms / 1000, (linger_ms % 1000) * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

class ServiceTransportTest : public ServiceTest {
 protected:
  void StartServer(obs::HttpServer::Options overrides = {}) {
    service_.emplace(options_);
    overrides.handler = [this](const HttpRequest& request) {
      return service_->HandleRequest(request);
    };
    ASSERT_TRUE(server_.Start(overrides)) << server_.last_error();
  }

  void TearDown() override { server_.Stop(); }

  static std::string FramedPost(const std::string& path,
                                const std::string& body) {
    return "POST " + path + " HTTP/1.1\r\nHost: x\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
  }

  std::optional<DimService> service_;
  obs::HttpServer server_;
};

TEST_F(ServiceTransportTest, PipelinedRequestsAllServedInOrder) {
  StartServer();
  const std::string one = FramedPost(
      "/v1/check", "{\"schema\": \"loc\", \"category\": \"Store\"}");
  const std::string two = FramedPost(
      "/v1/implies", "{\"schema\": \"loc\", \"constraint\": \"Store/City\"}");
  const std::string response = RawExchange(server_.port(), one + two);
  // Two complete responses on one connection, in request order.
  const size_t first = response.find("HTTP/1.1 200");
  ASSERT_NE(first, std::string::npos) << response;
  ASSERT_NE(response.find("HTTP/1.1 200", first + 1), std::string::npos)
      << response;
  EXPECT_LT(response.find("\"satisfiable\""), response.find("\"implied\""))
      << response;
  EXPECT_EQ(service_->requests(), 2u);
}

TEST_F(ServiceTransportTest, TruncatedPostBodyIs400AndCounted) {
  StartServer();
  const uint64_t before = Counter("olapdc.http.bad_requests");
  // Promise 100 bytes, deliver 9, half-close: the server must answer
  // 400 (truncated request), count it, and survive.
  const std::string response = RawExchange(
      server_.port(),
      "POST /v1/check HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n"
      "{\"trunc\":");
  EXPECT_NE(response.find("400"), std::string::npos) << response;
  EXPECT_GE(Counter("olapdc.http.bad_requests"), before + 1);
  EXPECT_EQ(service_->requests(), 0u);  // never reached the handler
}

TEST_F(ServiceTransportTest, ContentLengthMismatchFailsCleanly) {
  StartServer();
  // Content-Length smaller than the bytes actually sent: the surplus
  // is parsed as a next pipelined request and must fail as a clean
  // 4xx on that connection, leaving the server healthy.
  const std::string body =
      "{\"schema\": \"loc\", \"category\": \"Store\"}GARBAGE TRAILING";
  const std::string request =
      "POST /v1/check HTTP/1.1\r\nHost: x\r\nContent-Length: " +
      std::to_string(body.size() - 16) + "\r\n\r\n" + body;
  const std::string response = RawExchange(server_.port(), request);
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;

  // The server is still healthy for the next connection.
  const std::string again = RawExchange(
      server_.port(),
      FramedPost("/v1/check",
                 "{\"schema\": \"loc\", \"category\": \"Store\"}"));
  EXPECT_NE(again.find("HTTP/1.1 200"), std::string::npos) << again;
}

TEST_F(ServiceTransportTest, OversizedJsonBodyIs413AndCounted) {
  obs::HttpServer::Options small;
  small.max_body_bytes = 1024;
  StartServer(small);
  const uint64_t before = Counter("olapdc.http.bad_requests");
  const std::string big = "{\"pad\": \"" + std::string(4096, 'x') + "\"}";
  const std::string response =
      RawExchange(server_.port(), FramedPost("/v1/check", big));
  EXPECT_NE(response.find("413"), std::string::npos) << response;
  EXPECT_GE(Counter("olapdc.http.bad_requests"), before + 1);
  EXPECT_EQ(service_->requests(), 0u);
}

TEST_F(ServiceTransportTest, OversizedHeadersAre431) {
  obs::HttpServer::Options small;
  small.max_header_bytes = 512;
  StartServer(small);
  const std::string response = RawExchange(
      server_.port(), "POST /v1/check HTTP/1.1\r\nX-Pad: " +
                          std::string(2048, 'h') + "\r\n\r\n");
  EXPECT_NE(response.find("431"), std::string::npos) << response;
}

TEST_F(ServiceTransportTest, SlowLorisTimesOutWith408) {
  obs::HttpServer::Options impatient;
  impatient.read_timeout_ms = 150;
  StartServer(impatient);
  const uint64_t before = Counter("olapdc.http.timeouts");
  // Dribble an incomplete request line and then stall (no half-close:
  // the connection stays open, the server's read deadline must fire).
  const std::string response = RawExchange(
      server_.port(), "POST /v1/check HTT", /*half_close=*/false,
      /*linger_ms=*/5000);
  EXPECT_NE(response.find("408"), std::string::npos) << response;
  EXPECT_GE(Counter("olapdc.http.timeouts"), before + 1);
}

TEST_F(ServiceTransportTest, GarbageRequestLineIs400) {
  StartServer();
  const std::string response =
      RawExchange(server_.port(), "EXPLODE now\r\n\r\n");
  EXPECT_NE(response.find("400"), std::string::npos) << response;
}

}  // namespace
}  // namespace olapdc::service
