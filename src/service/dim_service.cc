#include "service/dim_service.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "common/memory_budget.h"
#include "common/status.h"
#include "constraint/normalize.h"
#include "constraint/parser.h"
#include "constraint/printer.h"
#include "core/checkpoint.h"
#include "core/dimsat.h"
#include "core/implication.h"
#include "core/summarizability.h"
#include "io/json_parse.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "service/service_caches.h"

namespace olapdc::service {

namespace {

using obs::HttpRequest;
using obs::HttpResponse;

constexpr char kJsonContentType[] = "application/json";

int HttpStatusForCode(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kInvalidModel:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kDeadlineExceeded:
      return 408;
    case StatusCode::kResourceExhausted:
      return 413;
    case StatusCode::kUnavailable:
    case StatusCode::kCancelled:
      return 503;
    default:
      return 500;
  }
}

HttpResponse JsonResponse(int status, std::string body) {
  return HttpResponse{status, kJsonContentType, std::move(body) + "\n", {}};
}

HttpResponse ErrorResponse(const Status& status) {
  std::string body = "{\"error\": " + obs::JsonString(status.message()) +
                     ", \"code\": " +
                     obs::JsonString(StatusCodeToString(status.code())) + "}";
  return JsonResponse(HttpStatusForCode(status.code()), std::move(body));
}

/// Schema names travel back in responses, logs, and metrics, so refuse
/// byte garbage up front: control characters and invalid UTF-8 are a
/// 400, not a name.
bool ValidSchemaName(std::string_view name) {
  if (name.empty() || name.size() > 128) return false;
  size_t i = 0;
  while (i < name.size()) {
    const unsigned char c = static_cast<unsigned char>(name[i]);
    if (c < 0x20 || c == 0x7F) return false;
    size_t continuation = 0;
    if (c < 0x80) {
      continuation = 0;
    } else if ((c & 0xE0) == 0xC0 && c >= 0xC2) {
      continuation = 1;
    } else if ((c & 0xF0) == 0xE0) {
      continuation = 2;
    } else if ((c & 0xF8) == 0xF0 && c <= 0xF4) {
      continuation = 3;
    } else {
      return false;  // stray continuation byte or overlong lead
    }
    for (size_t k = 1; k <= continuation; ++k) {
      if (i + k >= name.size() ||
          (static_cast<unsigned char>(name[i + k]) & 0xC0) != 0x80) {
        return false;
      }
    }
    i += continuation + 1;
  }
  return true;
}

std::string BoolJson(bool value) { return value ? "true" : "false"; }

/// Renders the shared tail of an engine response: either a definitive
/// answer or the budget-expiry degradation (status name, optional
/// checkpoint).
struct EngineTail {
  bool definitive = false;
  std::string json;  // fragment starting with ", ..."
  bool checkpointed = false;
};

EngineTail RenderBudgetTail(const Status& status,
                            const DimsatCheckpoint* checkpoint) {
  EngineTail tail;
  tail.json = ", \"definitive\": false, \"status\": " +
              obs::JsonString(StatusCodeToString(status.code()));
  if (checkpoint != nullptr && !checkpoint->empty()) {
    tail.json +=
        ", \"checkpoint\": " + obs::JsonString(checkpoint->Serialize());
    tail.checkpointed = true;
  }
  return tail;
}

/// The prefix every cache key carries: a theory replacement mints a new
/// epoch, so every key under the old one goes permanently cold.
std::string EpochScope(const Fingerprint128& epoch) {
  return "e" + epoch.ToHex() + "/";
}

/// Marks a cache-served body on its way out. Stored bodies never carry
/// the marker, so a hit re-served later stays byte-identical.
HttpResponse CachedResponse(std::string body, const char* layer) {
  if (!body.empty() && body.back() == '}') {
    body.pop_back();
    body += ", \"cached\": true, \"cache_layer\": \"";
    body += layer;
    body += "\"}";
  }
  if (obs::MetricsEnabled()) obs::Count("olapdc.service.cache_served");
  return JsonResponse(200, std::move(body));
}

}  // namespace

void DimService::BeginDrain() {
  draining_.store(true, std::memory_order_release);
  if (options_.gate != nullptr) options_.gate->BeginDrain();
  if (obs::MetricsEnabled()) obs::Gauge("olapdc.service.draining", 1);
}

void DimService::CancelInFlight() { drain_cancel_.RequestCancel(); }

HttpResponse DimService::HandleRequest(const HttpRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (obs::MetricsEnabled()) obs::Count("olapdc.service.requests");

  HttpResponse response = Route(request);

  if (response.status == 503) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    if (obs::MetricsEnabled()) obs::Count("olapdc.service.shed");
  } else if (response.status >= 400) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    if (obs::MetricsEnabled()) obs::Count("olapdc.service.errors");
  } else {
    ok_.fetch_add(1, std::memory_order_relaxed);
    if (obs::MetricsEnabled()) obs::Count("olapdc.service.ok");
  }
  if (obs::MetricsEnabled()) {
    obs::LatencyUs("olapdc.service.latency_us",
                   std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - start)
                       .count());
    if (options_.caches != nullptr) options_.caches->PublishGauges();
  }
  return response;
}

HttpResponse DimService::Route(const HttpRequest& request) {
  if (request.method != "POST") {
    return HttpResponse{405, kJsonContentType,
                        "{\"error\": \"request plane endpoints are "
                        "POST-only\"}\n",
                        {}};
  }
  const bool known_path =
      request.path == "/v1/check" || request.path == "/v1/implies" ||
      request.path == "/v1/summarizable" || request.path == "/v1/batch" ||
      request.path == "/v1/schemas";
  if (!known_path) {
    return ErrorResponse(Status::NotFound("no such endpoint: " +
                                          request.path));
  }

  // Admission before any parsing: a shed request must cost microseconds.
  exec::AdmissionGate::Ticket ticket(options_.gate);
  if (!ticket.admitted()) {
    const int64_t retry_ms = exec::RetryAfterMsFromStatus(ticket.status());
    HttpResponse response = ErrorResponse(ticket.status());
    // HTTP Retry-After is whole seconds; the JSON error body carries
    // the precise ms hint inside the message.
    const int64_t retry_s = retry_ms <= 0 ? 1 : (retry_ms + 999) / 1000;
    response.headers.emplace_back("Retry-After", std::to_string(retry_s));
    return response;
  }

  JsonValue body;
  {
    std::string parse_error;
    if (!ParseJsonText(request.body, &body, &parse_error)) {
      if (obs::MetricsEnabled()) obs::Count("olapdc.service.bad_json");
      return ErrorResponse(Status::ParseError(parse_error));
    }
  }
  if (!body.is_object()) {
    if (obs::MetricsEnabled()) obs::Count("olapdc.service.bad_json");
    return ErrorResponse(
        Status::InvalidArgument("request body must be a JSON object"));
  }

  auto deadline_ms = body.OptionalInt("deadline_ms",
                                      options_.default_deadline_ms);
  if (!deadline_ms.ok()) return ErrorResponse(deadline_ms.status());
  int64_t clamped_ms = *deadline_ms;
  if (clamped_ms < 1) clamped_ms = 1;
  if (clamped_ms > options_.max_deadline_ms) {
    clamped_ms = options_.max_deadline_ms;
  }

  MemoryBudget memory(options_.memory_budget_bytes);
  Budget budget = Budget::WithDeadlineMs(clamped_ms);
  budget.SetCancellation(drain_cancel_.token());
  budget.SetMemory(&memory);

  if (request.path == "/v1/check") return DoCheck(body, budget);
  if (request.path == "/v1/implies") return DoImplies(body, budget);
  if (request.path == "/v1/summarizable") {
    return DoSummarizable(body, budget);
  }
  if (request.path == "/v1/batch") return DoBatch(body, budget);
  return DoRegisterSchema(body, budget);
}

namespace {

/// Shared per-op context resolved from a request body.
struct OpContext {
  std::shared_ptr<const DimensionSchema> schema;
  std::string schema_name;
  /// Content epoch of the snapshot — the cache-key scope for this op.
  Fingerprint128 epoch;
  int threads = 1;
};

Result<OpContext> ResolveOp(const SchemaRegistry& registry,
                            const JsonValue& body, int max_threads) {
  OpContext ctx;
  OLAPDC_ASSIGN_OR_RETURN(ctx.schema_name, body.RequireString("schema"));
  if (!ValidSchemaName(ctx.schema_name)) {
    return Status::InvalidArgument(
        "field \"schema\" must be non-empty, valid UTF-8 without control "
        "characters, and at most 128 bytes");
  }
  SchemaRegistry::Snapshot snapshot = registry.FindEntry(ctx.schema_name);
  ctx.schema = snapshot.schema;
  ctx.epoch = snapshot.epoch;
  if (ctx.schema == nullptr) {
    return Status::NotFound("schema \"" + ctx.schema_name +
                            "\" is not registered");
  }
  OLAPDC_ASSIGN_OR_RETURN(int64_t threads, body.OptionalInt("threads", 1));
  if (threads < 1) threads = 1;
  if (threads > max_threads) threads = max_threads;
  ctx.threads = static_cast<int>(threads);
  return ctx;
}

DimsatOptions EngineOptions(const DimService::Options& options,
                            const Budget& budget, int threads) {
  DimsatOptions dopt;
  dopt.budget = &budget;
  dopt.max_expand_calls = options.max_expand_calls;
  dopt.num_threads = threads;
  return dopt;
}

}  // namespace

HttpResponse DimService::DoCheck(const JsonValue& body, const Budget& budget) {
  auto ctx = ResolveOp(*options_.registry, body, options_.max_threads);
  if (!ctx.ok()) return ErrorResponse(ctx.status());
  auto category = body.RequireString("category");
  if (!category.ok()) return ErrorResponse(category.status());
  auto root = ctx->schema->hierarchy().CategoryIdOf(*category);
  if (!root.ok()) return ErrorResponse(root.status());
  auto resume = body.OptionalString("resume", "");
  if (!resume.ok()) return ErrorResponse(resume.status());

  // Cache read path: response layer first (one hash lookup), then the
  // closure layer (verdict known, body re-synthesized). Resume requests
  // bypass reads — the client explicitly asked to continue a search —
  // but still warm the no-good layer below.
  ServiceCaches* const caches = options_.caches;
  const bool cacheable = caches != nullptr && resume->empty();
  std::string closure_key, response_key;
  if (cacheable) {
    closure_key = EpochScope(ctx->epoch) + "s/" + std::to_string(*root);
    response_key = "check/" + closure_key;
    std::string cached_body;
    if (caches->LookupResponse(response_key, &cached_body)) {
      return CachedResponse(std::move(cached_body), "response");
    }
    bool satisfiable = false;
    if (caches->closure().Lookup(closure_key, &satisfiable)) {
      std::string out = "{\"schema\": " + obs::JsonString(ctx->schema_name) +
                        ", \"category\": " + obs::JsonString(*category) +
                        ", \"definitive\": true, \"satisfiable\": " +
                        BoolJson(satisfiable) + ", \"expand_calls\": 0}";
      return CachedResponse(std::move(out), "closure");
    }
  }

  DimsatOptions dopt = EngineOptions(options_, budget, ctx->threads);
  std::shared_ptr<NoGoodStore> nogoods;
  if (caches != nullptr) {
    // Keep the store alive for the whole run even if its epoch is aged
    // out of the LRU concurrently.
    nogoods = caches->NoGoodsFor(ctx->epoch);
    dopt.nogoods = nogoods.get();
  }
  DimsatCheckpoint captured;
  DimsatResult result;
  if (!resume->empty()) {
    // ResumeDimsat rejects a token for another root, category count or
    // schema as kInvalidArgument, a 400 like a malformed one.
    auto parsed = DimsatCheckpoint::Deserialize(*resume);
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    dopt.checkpoint = &captured;
    dopt.num_threads = 1;  // resume is a property of one DFS
    result = ResumeDimsat(*ctx->schema, *root, dopt, std::move(*parsed));
  } else {
    if (ctx->threads <= 1) dopt.checkpoint = &captured;
    result = RunDimsat(*ctx->schema, *root, dopt);
  }

  std::string out = "{\"schema\": " + obs::JsonString(ctx->schema_name) +
                    ", \"category\": " + obs::JsonString(*category);
  if (result.status.ok()) {
    out += ", \"definitive\": true, \"satisfiable\": " +
           BoolJson(result.satisfiable);
    if (cacheable) caches->closure().Insert(closure_key, result.satisfiable);
  } else if (IsBudgetError(result.status)) {
    EngineTail tail = RenderBudgetTail(result.status, &captured);
    out += tail.json;
    if (tail.checkpointed) {
      checkpointed_.fetch_add(1, std::memory_order_relaxed);
      if (obs::MetricsEnabled()) obs::Count("olapdc.service.checkpointed");
    }
  } else {
    return ErrorResponse(result.status);
  }
  out += ", \"expand_calls\": " +
         std::to_string(result.stats.expand_calls) + "}";
  // Only definitive answers are cached: a budget expiry is a property
  // of this request's budget, not of the theory.
  if (cacheable && result.status.ok()) {
    caches->InsertResponse(response_key, out);
  }
  return JsonResponse(200, std::move(out));
}

HttpResponse DimService::DoImplies(const JsonValue& body,
                                   const Budget& budget) {
  auto ctx = ResolveOp(*options_.registry, body, options_.max_threads);
  if (!ctx.ok()) return ErrorResponse(ctx.status());
  auto constraint_text = body.RequireString("constraint");
  if (!constraint_text.ok()) return ErrorResponse(constraint_text.status());
  auto alpha = ParseConstraint(ctx->schema->hierarchy(), *constraint_text);
  if (!alpha.ok()) return ErrorResponse(alpha.status());

  // The closure layer keys on the *canonical* form (shorthands
  // expanded to plain path atoms, constants folded) so textually
  // different spellings of one constraint share a verdict. The
  // response layer keys on the raw text, because the body echoes it.
  // An expansion failure (path_limit) just runs this request uncached.
  ServiceCaches* const caches = options_.caches;
  std::string closure_key, response_key;
  uint64_t theory_salt = 0;
  bool cacheable = false;
  if (caches != nullptr) {
    auto expanded = ExpandShorthands(ctx->schema->hierarchy(), alpha->expr);
    if (expanded.ok()) {
      const std::string scope = EpochScope(ctx->epoch);
      const std::string canonical =
          std::to_string(alpha->root) + ":" +
          ExprToString(ctx->schema->hierarchy(), Simplify(*expanded));
      closure_key = scope + "i/" + canonical;
      response_key =
          "implies/" + scope + FingerprintBytes(*constraint_text).ToHex();
      theory_salt = FingerprintBytes(canonical).lo;
      cacheable = true;
      std::string cached_body;
      if (caches->LookupResponse(response_key, &cached_body)) {
        return CachedResponse(std::move(cached_body), "response");
      }
      bool implied = false;
      if (caches->closure().Lookup(closure_key, &implied)) {
        // Verdict-only synthesis: no "counterexample" field (the
        // closure layer keeps verdicts, not witnesses).
        std::string out =
            "{\"schema\": " + obs::JsonString(ctx->schema_name) +
            ", \"constraint\": " + obs::JsonString(*constraint_text) +
            ", \"definitive\": true, \"implied\": " + BoolJson(implied) +
            ", \"expand_calls\": 0}";
        return CachedResponse(std::move(out), "closure");
      }
    }
  }

  DimsatOptions dopt = EngineOptions(options_, budget, ctx->threads);
  std::shared_ptr<NoGoodStore> nogoods;
  if (cacheable) {
    // Implies() searches Σ ∪ {¬α}, a different theory than /v1/check's
    // plain Σ — the salt keeps their no-good signatures apart while
    // letting repeats of the *same* constraint share learned pruning.
    nogoods = caches->NoGoodsFor(ctx->epoch);
    dopt.nogoods = nogoods.get();
    dopt.nogood_salt = theory_salt;
  }
  auto result = Implies(*ctx->schema, *alpha, dopt);
  if (!result.ok()) return ErrorResponse(result.status());

  std::string out = "{\"schema\": " + obs::JsonString(ctx->schema_name) +
                    ", \"constraint\": " + obs::JsonString(*constraint_text);
  if (result->status.ok()) {
    out += ", \"definitive\": true, \"implied\": " + BoolJson(result->implied);
    out += ", \"counterexample\": " +
           BoolJson(result->counterexample.has_value());
    if (cacheable) caches->closure().Insert(closure_key, result->implied);
  } else if (IsBudgetError(result->status)) {
    out += RenderBudgetTail(result->status, nullptr).json;
  } else {
    return ErrorResponse(result->status);
  }
  out += ", \"expand_calls\": " +
         std::to_string(result->stats.expand_calls) + "}";
  if (cacheable && result->status.ok()) {
    caches->InsertResponse(response_key, out);
  }
  return JsonResponse(200, std::move(out));
}

HttpResponse DimService::DoSummarizable(const JsonValue& body,
                                        const Budget& budget) {
  auto ctx = ResolveOp(*options_.registry, body, options_.max_threads);
  if (!ctx.ok()) return ErrorResponse(ctx.status());
  auto category = body.RequireString("category");
  if (!category.ok()) return ErrorResponse(category.status());
  auto root = ctx->schema->hierarchy().CategoryIdOf(*category);
  if (!root.ok()) return ErrorResponse(root.status());
  auto sources = body.RequireArray("sources");
  if (!sources.ok()) return ErrorResponse(sources.status());
  std::vector<CategoryId> s;
  s.reserve((*sources)->array.size());
  for (const JsonValue& item : (*sources)->array) {
    if (!item.is_string()) {
      return ErrorResponse(Status::InvalidArgument(
          "field \"sources\" must be an array of category names"));
    }
    auto id = ctx->schema->hierarchy().CategoryIdOf(item.string_value);
    if (!id.ok()) return ErrorResponse(id.status());
    s.push_back(*id);
  }

  // Canonical form: target id plus the source ids sorted (ExactlyOne
  // over the through-atoms is order-independent, so sorting is
  // semantics-preserving).
  ServiceCaches* const caches = options_.caches;
  std::string closure_key, response_key;
  uint64_t theory_salt = 0;
  const bool cacheable = caches != nullptr;
  if (cacheable) {
    std::vector<CategoryId> sorted_sources = s;
    std::sort(sorted_sources.begin(), sorted_sources.end());
    std::string canonical = std::to_string(*root);
    for (CategoryId id : sorted_sources) {
      canonical += "," + std::to_string(id);
    }
    closure_key = EpochScope(ctx->epoch) + "m/" + canonical;
    response_key = "summarizable/" + closure_key;
    theory_salt = FingerprintBytes(closure_key).lo;
    std::string cached_body;
    if (caches->LookupResponse(response_key, &cached_body)) {
      return CachedResponse(std::move(cached_body), "response");
    }
    bool summarizable = false;
    if (caches->closure().Lookup(closure_key, &summarizable)) {
      // A cached definitive verdict always covered every bottom.
      size_t bottoms = 0;
      for (CategoryId bottom : ctx->schema->hierarchy().bottom_categories()) {
        if (bottom != ctx->schema->hierarchy().all()) ++bottoms;
      }
      std::string out = "{\"schema\": " + obs::JsonString(ctx->schema_name) +
                        ", \"category\": " + obs::JsonString(*category) +
                        ", \"definitive\": true, \"summarizable\": " +
                        BoolJson(summarizable) +
                        ", \"bottoms_checked\": " + std::to_string(bottoms) +
                        ", \"expand_calls\": 0}";
      return CachedResponse(std::move(out), "closure");
    }
  }

  DimsatOptions dopt = EngineOptions(options_, budget, ctx->threads);
  std::shared_ptr<NoGoodStore> nogoods;
  if (cacheable) {
    // Each per-bottom Implies() searches Σ ∪ {¬α_bottom}; α_bottom is
    // determined by (bottom, target, sources), the salt covers
    // (target, sources), and the bottom is the signature's root — so
    // (salt, root) pins the exact theory of every run.
    nogoods = caches->NoGoodsFor(ctx->epoch);
    dopt.nogoods = nogoods.get();
    dopt.nogood_salt = theory_salt;
  }
  auto result = IsSummarizable(*ctx->schema, *root, s, dopt);
  if (!result.ok()) return ErrorResponse(result.status());

  std::string out = "{\"schema\": " + obs::JsonString(ctx->schema_name) +
                    ", \"category\": " + obs::JsonString(*category);
  if (result->status.ok()) {
    out += ", \"definitive\": true, \"summarizable\": " +
           BoolJson(result->summarizable);
    if (cacheable) {
      caches->closure().Insert(closure_key, result->summarizable);
    }
  } else if (IsBudgetError(result->status)) {
    out += RenderBudgetTail(result->status, nullptr).json;
  } else {
    return ErrorResponse(result->status);
  }
  out += ", \"bottoms_checked\": " + std::to_string(result->details.size());
  out += ", \"expand_calls\": " +
         std::to_string(result->stats.expand_calls) + "}";
  if (cacheable && result->status.ok()) {
    caches->InsertResponse(response_key, out);
  }
  return JsonResponse(200, std::move(out));
}

HttpResponse DimService::DoBatch(const JsonValue& body, const Budget& budget) {
  auto requests = body.RequireArray("requests");
  if (!requests.ok()) return ErrorResponse(requests.status());
  const std::vector<JsonValue>& items = (*requests)->array;
  if (items.size() > options_.max_batch) {
    return ErrorResponse(Status::InvalidArgument(
        "batch of " + std::to_string(items.size()) + " exceeds the cap of " +
        std::to_string(options_.max_batch)));
  }

  std::string out = "{\"results\": [";
  bool first = true;
  bool expired = false;
  for (const JsonValue& item : items) {
    if (!first) out += ", ";
    first = false;
    if (expired || !budget.Check().ok()) {
      // The shared batch budget is gone; report the remaining items as
      // skipped instead of burning the drain deadline on them.
      expired = true;
      out += "{\"definitive\": false, \"skipped\": true}";
      continue;
    }
    if (!item.is_object()) {
      out += "{\"error\": \"batch item must be a JSON object\"}";
      continue;
    }
    auto op = item.RequireString("op");
    if (!op.ok()) {
      out += "{\"error\": " + obs::JsonString(op.status().message()) + "}";
      continue;
    }
    HttpResponse sub;
    if (*op == "check") {
      sub = DoCheck(item, budget);
    } else if (*op == "implies") {
      sub = DoImplies(item, budget);
    } else if (*op == "summarizable") {
      sub = DoSummarizable(item, budget);
    } else {
      out += "{\"error\": " + obs::JsonString("unknown op \"" + *op + "\"") +
             "}";
      continue;
    }
    // Sub-responses are JSON objects either way (result or error
    // body); embed them with their HTTP status attached.
    std::string sub_body = std::move(sub.body);
    while (!sub_body.empty() &&
           (sub_body.back() == '\n' || sub_body.back() == ' ')) {
      sub_body.pop_back();
    }
    if (sub.status == 200) {
      out += sub_body;
    } else {
      out += "{\"http_status\": " + std::to_string(sub.status) +
             ", \"detail\": " + sub_body.substr(1);
    }
  }
  out += "], \"count\": " + std::to_string(items.size()) + "}";
  return JsonResponse(200, std::move(out));
}

HttpResponse DimService::DoRegisterSchema(const JsonValue& body,
                                          const Budget& budget) {
  if (!options_.allow_register) {
    return ErrorResponse(Status::InvalidArgument(
        "schema registration is disabled on this server"));
  }
  auto name = body.RequireString("name");
  if (!name.ok()) return ErrorResponse(name.status());
  if (!ValidSchemaName(*name)) {
    return ErrorResponse(Status::InvalidArgument(
        "field \"name\" must be non-empty, valid UTF-8 without control "
        "characters, and at most 128 bytes"));
  }
  auto text = body.RequireString("text");
  if (!text.ok()) return ErrorResponse(text.status());

  Status registered = options_.registry->Register(*name, *text, &budget);
  if (!registered.ok()) return ErrorResponse(registered);
  std::shared_ptr<const DimensionSchema> schema =
      options_.registry->Find(*name);
  std::string out = "{\"name\": " + obs::JsonString(*name);
  if (schema != nullptr) {
    out += ", \"categories\": " +
           std::to_string(schema->hierarchy().num_categories());
    out += ", \"constraints\": " +
           std::to_string(schema->constraints().size());
  }
  out += "}";
  return JsonResponse(200, std::move(out));
}

}  // namespace olapdc::service
