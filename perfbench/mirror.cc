#include "mirror.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/memory_budget.h"
#include "constraint/normalize.h"
#include "constraint/parser.h"
#include "constraint/printer.h"
#include "core/checkpoint.h"
#include "core/dimsat.h"
#include "core/implication.h"
#include "core/summarizability.h"
#include "io/json_parse.h"
#include "io/schema_io.h"

namespace perfbench {

namespace {

// The daemon's defaults (tools/olapdcd.cc): deadline, per-request
// memory envelope, sequential engine.
constexpr int64_t kDeadlineMs = 2000;
constexpr uint64_t kMemoryBudgetBytes = 64ull << 20;

std::string EpochScope(const olapdc::Fingerprint128& epoch) {
  return "e" + epoch.ToHex() + "/";
}

std::string BoolJson(bool value) { return value ? "true" : "false"; }

olapdc::DimsatOptions EngineOptions(const olapdc::Budget& budget) {
  olapdc::DimsatOptions options;
  options.budget = &budget;
  options.num_threads = 1;
  return options;
}

/// The verdict inside a stored response body of the mirror's own cache.
bool CachedVerdict(const std::string& body, const char* field) {
  return body.find(std::string("\"") + field + "\": true") !=
         std::string::npos;
}

}  // namespace

void LayerRecorder::BeginRequest(uint64_t request_id) {
  request_id_ = request_id;
  root_id_ = recording ? log_->NextId() : 0;
  root_start_ = Clock::now();
  request_sum_ = 0;
}

void LayerRecorder::Layer(const char* name, Clock::time_point start,
                          Clock::time_point end) {
  if (!recording) return;
  const double us = MicrosBetween(start, end);
  request_sum_ += us;
  samples[name].push_back(us);
  log_->Record(name, log_->NextId(), root_id_, request_id_, 2, start, end);
}

double LayerRecorder::EndRequest() {
  if (recording) {
    log_->Record("mirror.request", root_id_, request_id_, request_id_, 1,
                 root_start_, Clock::now());
  }
  return request_sum_;
}

Mirror::Mirror() = default;

bool Mirror::Replay(const Request& request, LayerRecorder* rec,
                    std::string* error) {
  auto t0 = Clock::now();
  olapdc::JsonValue body;
  std::string parse_error;
  const bool parsed = olapdc::ParseJsonText(request.body, &body, &parse_error);
  rec->Layer("json.parse", t0, Clock::now());
  if (!parsed || !body.is_object()) {
    *error = "mirror: body does not parse: " + parse_error;
    return false;
  }
  olapdc::MemoryBudget memory(kMemoryBudgetBytes);
  olapdc::Budget budget = olapdc::Budget::WithDeadlineMs(kDeadlineMs);
  budget.SetCancellation(drain_cancel_.token());
  budget.SetMemory(&memory);

  if (request.op == Op::kRegister) {
    auto name = body.RequireString("name");
    auto text = body.RequireString("text");
    if (!name.ok() || !text.ok()) {
      *error = "mirror: malformed registration";
      return false;
    }
    t0 = Clock::now();
    auto schema = olapdc::ParseSchemaText(*text, &budget);
    auto t1 = Clock::now();
    rec->Layer("schema_io.parse", t0, t1);
    if (!schema.ok()) {
      *error = "mirror: schema does not parse: " + schema.status().ToString();
      return false;
    }
    registry_.RegisterParsed(*name, std::move(*schema));
    auto t2 = Clock::now();
    rec->Layer("registry.register", t1, t2);
    const bool found = registry_.Find(*name) != nullptr;
    rec->Layer("registry.find", t2, Clock::now());
    return found;
  }
  if (request.op == Op::kBatch) {
    auto items = body.RequireArray("requests");
    if (!items.ok() || (*items)->array.size() != request.questions.size()) {
      *error = "mirror: malformed batch";
      return false;
    }
    for (size_t i = 0; i < request.questions.size(); ++i) {
      if (!ReplayQuestion((*items)->array[i], request.questions[i], budget,
                          rec, error)) {
        return false;
      }
    }
    return true;
  }
  return ReplayQuestion(body, request.questions.at(0), budget, rec, error);
}

bool Mirror::ReplayQuestion(const olapdc::JsonValue& item, const Question& q,
                            const olapdc::Budget& budget, LayerRecorder* rec,
                            std::string* error) {
  auto t0 = Clock::now();
  auto schema_name = item.RequireString("schema");
  olapdc::service::SchemaRegistry::Snapshot snapshot;
  if (schema_name.ok()) snapshot = registry_.FindEntry(*schema_name);
  rec->Layer("registry.find", t0, Clock::now());
  if (snapshot.schema == nullptr) {
    *error = "mirror: unknown schema";
    return false;
  }
  const olapdc::DimensionSchema& ds = *snapshot.schema;
  const olapdc::HierarchySchema& h = ds.hierarchy();
  const std::string scope = EpochScope(snapshot.epoch);
  olapdc::DimsatOptions options = EngineOptions(budget);
  bool verdict = false;

  if (q.op == Op::kCheck) {
    auto root = h.CategoryIdOf(q.category);
    if (!root.ok()) {
      *error = "mirror: unknown category " + q.category;
      return false;
    }
    const std::string closure_key = scope + "s/" + std::to_string(*root);
    const std::string response_key = "check/" + closure_key;
    t0 = Clock::now();
    std::string cached;
    bool hit = caches_.LookupResponse(response_key, &cached);
    bool closure_hit = false;
    if (hit) {
      verdict = CachedVerdict(cached, "satisfiable");
    } else {
      closure_hit = caches_.closure().Lookup(closure_key, &verdict);
    }
    rec->Layer("cache.lookup", t0, Clock::now());
    if (!hit && !closure_hit) {
      t0 = Clock::now();
      std::shared_ptr<olapdc::NoGoodStore> nogoods =
          caches_.NoGoodsFor(snapshot.epoch);
      options.nogoods = nogoods.get();
      olapdc::DimsatCheckpoint captured;
      options.checkpoint = &captured;
      olapdc::DimsatResult r = olapdc::RunDimsat(ds, *root, options);
      rec->Layer("dimsat.check", t0, Clock::now());
      rec->engine_expands += r.stats.expand_calls;
      if (!r.status.ok()) {
        *error = "mirror: check not definitive";
        return false;
      }
      verdict = r.satisfiable;
      const std::string out =
          "{\"schema\": \"" + *schema_name + "\", \"category\": \"" +
          q.category + "\", \"definitive\": true, \"satisfiable\": " +
          BoolJson(verdict) +
          ", \"expand_calls\": " + std::to_string(r.stats.expand_calls) + "}";
      t0 = Clock::now();
      caches_.closure().Insert(closure_key, verdict);
      caches_.InsertResponse(response_key, out);
      rec->Layer("cache.insert", t0, Clock::now());
    }
  } else if (q.op == Op::kImplies) {
    t0 = Clock::now();
    auto alpha = olapdc::ParseConstraint(h, q.constraint);
    auto t1 = Clock::now();
    rec->Layer("constraint.parse", t0, t1);
    if (!alpha.ok()) {
      *error = "mirror: constraint does not parse: " + q.constraint;
      return false;
    }
    auto expanded = olapdc::ExpandShorthands(h, alpha->expr);
    if (!expanded.ok()) {
      *error = "mirror: constraint does not expand";
      return false;
    }
    const std::string canonical =
        std::to_string(alpha->root) + ":" +
        olapdc::ExprToString(h, olapdc::Simplify(*expanded));
    const std::string closure_key = scope + "i/" + canonical;
    const std::string response_key =
        "implies/" + scope + olapdc::FingerprintBytes(q.constraint).ToHex();
    const uint64_t salt = olapdc::FingerprintBytes(canonical).lo;
    auto t2 = Clock::now();
    rec->Layer("constraint.normalize", t1, t2);
    std::string cached;
    bool hit = caches_.LookupResponse(response_key, &cached);
    bool closure_hit = false;
    if (hit) {
      verdict = CachedVerdict(cached, "implied");
    } else {
      closure_hit = caches_.closure().Lookup(closure_key, &verdict);
    }
    rec->Layer("cache.lookup", t2, Clock::now());
    if (!hit && !closure_hit) {
      t0 = Clock::now();
      std::shared_ptr<olapdc::NoGoodStore> nogoods =
          caches_.NoGoodsFor(snapshot.epoch);
      options.nogoods = nogoods.get();
      options.nogood_salt = salt;
      auto r = olapdc::Implies(ds, *alpha, options);
      rec->Layer("dimsat.implies", t0, Clock::now());
      if (!r.ok() || !r->status.ok()) {
        *error = "mirror: implies not definitive";
        return false;
      }
      rec->engine_expands += r->stats.expand_calls;
      verdict = r->implied;
      const std::string out =
          "{\"schema\": \"" + *schema_name + "\", \"definitive\": true, "
          "\"implied\": " + BoolJson(verdict) +
          ", \"counterexample\": " +
          BoolJson(r->counterexample.has_value()) +
          ", \"expand_calls\": " + std::to_string(r->stats.expand_calls) + "}";
      t0 = Clock::now();
      caches_.closure().Insert(closure_key, verdict);
      caches_.InsertResponse(response_key, out);
      rec->Layer("cache.insert", t0, Clock::now());
    }
  } else if (q.op == Op::kSummarizable) {
    auto target = h.CategoryIdOf(q.category);
    std::vector<olapdc::CategoryId> sources;
    for (const std::string& s : q.sources) {
      auto id = h.CategoryIdOf(s);
      if (!id.ok()) break;
      sources.push_back(*id);
    }
    if (!target.ok() || sources.size() != q.sources.size()) {
      *error = "mirror: unknown summarizability category";
      return false;
    }
    std::vector<olapdc::CategoryId> sorted = sources;
    std::sort(sorted.begin(), sorted.end());
    std::string canonical = std::to_string(*target);
    for (olapdc::CategoryId id : sorted) canonical += "," + std::to_string(id);
    const std::string closure_key = scope + "m/" + canonical;
    const std::string response_key = "summarizable/" + closure_key;
    const uint64_t salt = olapdc::FingerprintBytes(closure_key).lo;
    t0 = Clock::now();
    std::string cached;
    bool hit = caches_.LookupResponse(response_key, &cached);
    bool closure_hit = false;
    if (hit) {
      verdict = CachedVerdict(cached, "summarizable");
    } else {
      closure_hit = caches_.closure().Lookup(closure_key, &verdict);
    }
    rec->Layer("cache.lookup", t0, Clock::now());
    if (!hit && !closure_hit) {
      t0 = Clock::now();
      std::shared_ptr<olapdc::NoGoodStore> nogoods =
          caches_.NoGoodsFor(snapshot.epoch);
      options.nogoods = nogoods.get();
      options.nogood_salt = salt;
      auto r = olapdc::IsSummarizable(ds, *target, sources, options);
      rec->Layer("dimsat.summarizable", t0, Clock::now());
      if (!r.ok() || !r->status.ok()) {
        *error = "mirror: summarizable not definitive";
        return false;
      }
      rec->engine_expands += r->stats.expand_calls;
      verdict = r->summarizable;
      const std::string out =
          "{\"schema\": \"" + *schema_name + "\", \"category\": \"" +
          q.category + "\", \"definitive\": true, \"summarizable\": " +
          BoolJson(verdict) + ", \"bottoms_checked\": " +
          std::to_string(r->details.size()) +
          ", \"expand_calls\": " + std::to_string(r->stats.expand_calls) + "}";
      t0 = Clock::now();
      caches_.closure().Insert(closure_key, verdict);
      caches_.InsertResponse(response_key, out);
      rec->Layer("cache.insert", t0, Clock::now());
    }
  } else {
    *error = "mirror: unexpected op";
    return false;
  }
  if (verdict != q.verdict) {
    *error = std::string("mirror: wrong ") + OpName(q.op) + " verdict";
    return false;
  }
  return true;
}

}  // namespace perfbench
