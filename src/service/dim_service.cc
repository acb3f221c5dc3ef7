#include "service/dim_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
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

/// The backoff a draining service without an admission gate suggests
/// (with one, the gate's adaptive hint).
constexpr int64_t kDrainRetryAfterMs = 50;

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

/// An unframed reply: HandleRequest appends the body's newline once,
/// so /v1/batch can embed an item's body as it is.
HttpResponse JsonResponse(int status, std::string body) {
  return HttpResponse{status, kJsonContentType, std::move(body), {}};
}

HttpResponse ErrorResponse(const Status& status) {
  std::string body = "{\"error\": " + obs::JsonString(status.message()) +
                     ", \"code\": " +
                     obs::JsonString(StatusCodeToString(status.code())) + "}";
  return JsonResponse(HttpStatusForCode(status.code()), std::move(body));
}

/// The 503 for a request shed before any work. HTTP Retry-After is
/// whole seconds; the JSON error body carries the precise ms hint
/// inside the kUnavailable message.
HttpResponse ShedResponse(const Status& status) {
  const int64_t retry_ms = exec::RetryAfterMsFromStatus(status);
  HttpResponse response = ErrorResponse(status);
  const int64_t retry_s = retry_ms <= 0 ? 1 : (retry_ms + 999) / 1000;
  response.headers.emplace_back("Retry-After", std::to_string(retry_s));
  return response;
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
  if (obs::MetricsEnabled()) obs::Gauge("olapdc.service.draining", 1);
}

void DimService::CancelInFlight() { drain_cancel_.RequestCancel(); }

HttpResponse DimService::HandleRequest(const HttpRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (obs::MetricsEnabled()) obs::Count("olapdc.service.requests");

  HttpResponse response = Route(request);
  response.body += '\n';

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
    return JsonResponse(
        405, "{\"error\": \"request plane endpoints are POST-only\"}");
  }
  const bool known_path =
      request.path == "/v1/check" || request.path == "/v1/implies" ||
      request.path == "/v1/summarizable" || request.path == "/v1/batch" ||
      request.path == "/v1/schemas";
  if (!known_path) {
    return ErrorResponse(Status::NotFound("no such endpoint: " +
                                          request.path));
  }

  // Drain and admission before any parsing: a shed request must cost
  // microseconds.
  if (draining_.load(std::memory_order_acquire)) {
    const int64_t retry_ms = options_.gate != nullptr
                                 ? options_.gate->RetryAfterMsHint()
                                 : kDrainRetryAfterMs;
    return ShedResponse(Status::Unavailable(
        "service draining; retry-after-ms=" + std::to_string(retry_ms)));
  }
  exec::AdmissionGate::Ticket ticket(options_.gate);
  if (!ticket.admitted()) return ShedResponse(ticket.status());

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

/// One verdict question, as the answer routine sees it.
/// ResolveQuestion fills in what every question has (schema snapshot,
/// thread count, subject, echo); the handler adds the rest from its
/// body.
struct Question {
  std::shared_ptr<const DimensionSchema> schema;
  /// Content epoch of the snapshot: the scope of every cache key.
  Fingerprint128 epoch;
  int threads = 1;
  /// What is asked about: a category name or a constraint's text.
  std::string subject;
  /// The reply's leading fields (schema and subject), rendered from its
  /// opening brace.
  std::string echo;
  /// The name of the verdict field.
  const char* verdict = "";
  /// Keys of the response and closure layers. Without a response key
  /// the request neither reads nor writes either layer.
  std::string response_key;
  std::string closure_key;
  /// The salt the epoch's no-good store is attached under; without one
  /// the engine runs storeless.
  std::optional<uint64_t> nogood_salt;
  /// Fields a closure-served body carries after the verdict.
  std::string closure_fields;
};

/// What one engine call reports back to the answer routine.
struct EngineAnswer {
  Status status;
  bool verdict = false;
  /// Answer fields, rendered after the verdict (or after the status of
  /// a degraded reply).
  std::string fields{};
  uint64_t expand_calls = 0;
  /// The frontier an interrupted search stopped at, or null.
  const DimsatCheckpoint* checkpoint = nullptr;
};

/// Reads what every verdict question has: the schema (resolved to its
/// registry snapshot), the thread count and the `subject_field`.
Result<Question> ResolveQuestion(const SchemaRegistry& registry,
                                 const JsonValue& body, int max_threads,
                                 const char* subject_field) {
  OLAPDC_ASSIGN_OR_RETURN(std::string schema_name,
                          body.RequireString("schema"));
  if (!ValidSchemaName(schema_name)) {
    return Status::InvalidArgument(
        "field \"schema\" must be non-empty, valid UTF-8 without control "
        "characters, and at most 128 bytes");
  }
  SchemaRegistry::Snapshot snapshot = registry.FindEntry(schema_name);
  if (snapshot.schema == nullptr) {
    return Status::NotFound("schema \"" + schema_name +
                            "\" is not registered");
  }
  Question q;
  q.schema = std::move(snapshot.schema);
  q.epoch = snapshot.epoch;
  OLAPDC_ASSIGN_OR_RETURN(int64_t threads, body.OptionalInt("threads", 1));
  if (threads < 1) threads = 1;
  if (threads > max_threads) threads = max_threads;
  q.threads = static_cast<int>(threads);
  OLAPDC_ASSIGN_OR_RETURN(q.subject, body.RequireString(subject_field));
  q.echo = "{\"schema\": " + obs::JsonString(schema_name) + ", \"" +
           subject_field + "\": " + obs::JsonString(q.subject);
  return q;
}

/// The one answer path of /v1/check, /v1/implies and /v1/summarizable:
/// response-layer read, closure-layer read (the body re-synthesized
/// from the verdict), no-good store attach, `engine`, then the
/// definitive, degraded or error reply, and for a definitive answer
/// the closure and response inserts.
template <typename Engine>
HttpResponse Answer(const Question& q, const Budget& budget,
                    ServiceCaches* caches,
                    std::atomic<uint64_t>* checkpointed,
                    const Engine& engine) {
  const auto definitive = [&q](bool verdict) {
    return q.echo + ", \"definitive\": true, \"" + q.verdict +
           "\": " + BoolJson(verdict);
  };
  const bool cached = caches != nullptr && !q.response_key.empty();
  if (cached) {
    std::string body;
    if (caches->LookupResponse(q.response_key, &body)) {
      return CachedResponse(std::move(body), "response");
    }
    bool verdict = false;
    if (caches->closure().Lookup(q.closure_key, &verdict)) {
      return CachedResponse(
          definitive(verdict) + q.closure_fields + ", \"expand_calls\": 0}",
          "closure");
    }
  }

  DimsatOptions dopt;
  dopt.budget = &budget;
  dopt.num_threads = q.threads;
  std::shared_ptr<NoGoodStore> nogoods;
  if (caches != nullptr && q.nogood_salt.has_value()) {
    // Keep the store alive for the whole run even if its epoch is aged
    // out of the LRU concurrently.
    nogoods = caches->NoGoodsFor(q.epoch);
    dopt.nogoods = nogoods.get();
    dopt.nogood_salt = *q.nogood_salt;
  }
  const EngineAnswer answer = engine(dopt);

  std::string out;
  if (answer.status.ok()) {
    out = definitive(answer.verdict);
  } else if (IsBudgetError(answer.status)) {
    out = q.echo + ", \"definitive\": false, \"status\": " +
          obs::JsonString(StatusCodeToString(answer.status.code()));
    if (answer.checkpoint != nullptr && !answer.checkpoint->empty()) {
      out += ", \"checkpoint\": " +
             obs::JsonString(answer.checkpoint->Serialize());
      checkpointed->fetch_add(1, std::memory_order_relaxed);
      if (obs::MetricsEnabled()) obs::Count("olapdc.service.checkpointed");
    }
  } else {
    return ErrorResponse(answer.status);
  }
  out += answer.fields;
  out += ", \"expand_calls\": " + std::to_string(answer.expand_calls) + "}";
  // Only definitive answers are cached: a budget expiry is a property
  // of this request's budget, not of the theory.
  if (cached && answer.status.ok()) {
    caches->closure().Insert(q.closure_key, answer.verdict);
    caches->InsertResponse(q.response_key, out);
  }
  return JsonResponse(200, std::move(out));
}

}  // namespace

HttpResponse DimService::DoCheck(const JsonValue& body, const Budget& budget) {
  auto resolved = ResolveQuestion(*options_.registry, body,
                                  options_.max_threads, "category");
  if (!resolved.ok()) return ErrorResponse(resolved.status());
  Question& q = *resolved;
  auto root = q.schema->hierarchy().CategoryIdOf(q.subject);
  if (!root.ok()) return ErrorResponse(root.status());
  auto resume = body.OptionalString("resume", "");
  if (!resume.ok()) return ErrorResponse(resume.status());

  q.verdict = "satisfiable";
  // Resume requests bypass the verdict layers (the client explicitly
  // asked to continue a search) but still warm the no-good layer.
  q.nogood_salt = 0;
  if (options_.caches != nullptr && resume->empty()) {
    q.closure_key = EpochScope(q.epoch) + "s/" + std::to_string(*root);
    q.response_key = "check/" + q.closure_key;
  }
  DimsatCheckpoint captured;
  const auto engine = [&](DimsatOptions& dopt) {
    DimsatResult result;
    if (resume->empty()) {
      if (dopt.num_threads <= 1) dopt.checkpoint = &captured;
      result = RunDimsat(*q.schema, *root, dopt);
    } else {
      // A token for another category count, root or schema is
      // kInvalidArgument, a 400 like a malformed one. Its frames are
      // charged to the request's memory budget as they are read, so a
      // token that does not fit is a degraded reply.
      auto parsed = DimsatCheckpoint::Deserialize(
          *resume, q.schema->hierarchy().num_categories(),
          dopt.budget->memory());
      if (!parsed.ok()) return EngineAnswer{.status = parsed.status()};
      dopt.checkpoint = &captured;
      dopt.num_threads = 1;  // resume is a property of one DFS
      result = ResumeDimsat(*q.schema, *root, dopt, std::move(*parsed));
    }
    return EngineAnswer{.status = result.status,
                        .verdict = result.satisfiable,
                        .expand_calls = result.stats.expand_calls,
                        .checkpoint = &captured};
  };
  return Answer(q, budget, options_.caches, &checkpointed_, engine);
}

HttpResponse DimService::DoImplies(const JsonValue& body,
                                   const Budget& budget) {
  auto resolved = ResolveQuestion(*options_.registry, body,
                                  options_.max_threads, "constraint");
  if (!resolved.ok()) return ErrorResponse(resolved.status());
  Question& q = *resolved;
  auto alpha = ParseConstraint(q.schema->hierarchy(), q.subject);
  if (!alpha.ok()) return ErrorResponse(alpha.status());

  q.verdict = "implied";
  // The closure layer keys on the *canonical* form (shorthands
  // expanded to plain path atoms, constants folded) so textually
  // different spellings of one constraint share a verdict. The
  // response layer keys on the raw text, because the body echoes it.
  // Implies() searches Σ ∪ {¬α}, a different theory than /v1/check's
  // plain Σ: the salt keeps their no-good signatures apart while
  // letting repeats of the *same* constraint share learned pruning.
  // An expansion failure (path_limit) runs this request uncached and
  // storeless.
  if (options_.caches != nullptr) {
    auto expanded = ExpandShorthands(q.schema->hierarchy(), alpha->expr);
    if (expanded.ok()) {
      const std::string scope = EpochScope(q.epoch);
      const std::string canonical =
          std::to_string(alpha->root) + ":" +
          ExprToString(q.schema->hierarchy(), Simplify(*expanded));
      q.closure_key = scope + "i/" + canonical;
      q.response_key =
          "implies/" + scope + FingerprintBytes(q.subject).ToHex();
      q.nogood_salt = FingerprintBytes(canonical).lo;
    }
  }
  const auto engine = [&](DimsatOptions& dopt) {
    auto result = Implies(*q.schema, *alpha, dopt);
    if (!result.ok()) return EngineAnswer{.status = result.status()};
    EngineAnswer answer{.status = result->status,
                        .verdict = result->implied,
                        .expand_calls = result->stats.expand_calls};
    if (result->status.ok()) {
      answer.fields = ", \"counterexample\": " +
                      BoolJson(result->counterexample.has_value());
    }
    return answer;
  };
  return Answer(q, budget, options_.caches, &checkpointed_, engine);
}

HttpResponse DimService::DoSummarizable(const JsonValue& body,
                                        const Budget& budget) {
  auto resolved = ResolveQuestion(*options_.registry, body,
                                  options_.max_threads, "category");
  if (!resolved.ok()) return ErrorResponse(resolved.status());
  Question& q = *resolved;
  const HierarchySchema& h = q.schema->hierarchy();
  auto root = h.CategoryIdOf(q.subject);
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
    auto id = h.CategoryIdOf(item.string_value);
    if (!id.ok()) return ErrorResponse(id.status());
    s.push_back(*id);
  }

  q.verdict = "summarizable";
  if (options_.caches != nullptr) {
    // Canonical form: target id plus the source ids sorted (ExactlyOne
    // over the through-atoms is order-independent, so sorting is
    // semantics-preserving).
    std::vector<CategoryId> sorted_sources = s;
    std::sort(sorted_sources.begin(), sorted_sources.end());
    std::string canonical = std::to_string(*root);
    for (CategoryId id : sorted_sources) {
      canonical += "," + std::to_string(id);
    }
    q.closure_key = EpochScope(q.epoch) + "m/" + canonical;
    q.response_key = "summarizable/" + q.closure_key;
    // Each per-bottom Implies() searches Σ ∪ {¬α_bottom}; α_bottom is
    // determined by (bottom, target, sources), the salt covers
    // (target, sources), and the bottom is the signature's root — so
    // (salt, root) pins the exact theory of every run.
    q.nogood_salt = FingerprintBytes(q.closure_key).lo;
    // A cached definitive verdict always covered every bottom.
    size_t bottoms = 0;
    for (CategoryId bottom : h.bottom_categories()) {
      if (bottom != h.all()) ++bottoms;
    }
    q.closure_fields = ", \"bottoms_checked\": " + std::to_string(bottoms);
  }
  const auto engine = [&](DimsatOptions& dopt) {
    auto result = IsSummarizable(*q.schema, *root, s, dopt);
    if (!result.ok()) return EngineAnswer{.status = result.status()};
    return EngineAnswer{
        .status = result->status,
        .verdict = result->summarizable,
        .fields = ", \"bottoms_checked\": " +
                  std::to_string(result->details.size()),
        .expand_calls = result->stats.expand_calls};
  };
  return Answer(q, budget, options_.caches, &checkpointed_, engine);
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
    // An item reply is a JSON object either way (answer or error); an
    // error gains its HTTP status as the first field.
    if (sub.status != 200) {
      out += "{\"http_status\": " + std::to_string(sub.status) + ", ";
      sub.body.erase(0, 1);
    }
    out += sub.body;
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
