#include "inputs.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>

#include "bench_common.h"
#include "common/cache_shard.h"
#include "constraint/parser.h"
#include "core/dimsat.h"
#include "core/implication.h"
#include "core/location_example.h"
#include "core/summarizability.h"
#include "io/schema_io.h"
#include "obs/json.h"
#include "workload/realistic.h"
#include "workload/schema_generator.h"

namespace perfbench {

using olapdc::CategoryId;
using olapdc::DimensionSchema;
using olapdc::DimsatOptions;
using olapdc::HierarchySchema;

namespace {

/// Ground-truth searches beyond this many EXPAND calls are screened out:
/// at 1-2 us per EXPAND that is tens of milliseconds, far from the
/// daemon's 2000 ms default request deadline.
constexpr uint64_t kExpandCap = 20000;

/// A corpus file's enumeration must also take this many EXPAND calls, so
/// that the search effort per file, not only its model count, is about
/// the same for every seed.
constexpr uint64_t kCorpusMinExpands = 50000;
constexpr uint64_t kCorpusMaxExpands = 110000;

/// The hot pool's composition is fixed; the seed picks and orders it.
constexpr size_t kHotImplies = 150;
constexpr size_t kHotBatches = 40;
/// serve_hot's endpoint weights (check, implies, summarizable, batch):
/// those of the well-formed shapes in tools/loadgen.cc's request mix,
/// where one of the four checks carries a 1 ms deadline. Batch items
/// are drawn with the first three.
constexpr size_t kHotWeights[] = {4, 2, 2, 1};

/// A cold session audits every category plus these many generated
/// constraints and summarizability questions, each screened into an
/// EXPAND band so every one is engine work of bounded size. On the
/// multi-component shapes nearly every question is decided within a few
/// hundred EXPANDs, so they get no lower bound and a lower cap (their
/// rare large searches are also the memory-hungry ones).
constexpr size_t kColdImplies = 4;
constexpr size_t kColdSummarizable = 2;
constexpr uint64_t kColdMinExpandsLayered = 300;
constexpr uint64_t kColdMaxExpandsLayered = 8000;
constexpr uint64_t kColdMaxExpandsMultiComponent = 2000;
/// A layered session's questions must add up to this band, so the
/// engine cost per session, and with it the throughput, is about the
/// same for every seed.
constexpr uint64_t kColdSessionMinExpands = 8000;
constexpr uint64_t kColdSessionMaxExpands = 20000;
/// One session in four is multi-component: enough registrations and
/// checks of that shape, while the engine still does most of the work.
constexpr size_t kColdMultiComponentEvery = 4;
constexpr size_t kColdAttempts = 24;

DimensionSchema Parsed(const std::string& text) {
  auto parsed = olapdc::ParseSchemaText(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: generated schema does not parse: %s\n",
                 parsed.status().ToString().c_str());
    std::abort();
  }
  return std::move(*parsed);
}

template <typename T>
T Unwrap(olapdc::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(*result);
}

/// Decides `q` against `ds` with the library, no caches, under the
/// EXPAND cap. False when the search hit the cap or the question is
/// malformed (the caller screens it out).
bool ComputeGroundTruth(const DimensionSchema& ds, Question* q,
                        uint64_t expand_cap = kExpandCap) {
  const HierarchySchema& h = ds.hierarchy();
  DimsatOptions options;
  options.max_expand_calls = expand_cap;
  const auto start = Clock::now();
  bool ok = false;
  switch (q->op) {
    case Op::kCheck: {
      const CategoryId c = h.FindCategory(q->category);
      if (c == olapdc::kNoCategory) return false;
      olapdc::DimsatResult r = olapdc::RunDimsat(ds, c, options);
      ok = r.status.ok();
      q->verdict = r.satisfiable;
      q->gt_expands = r.stats.expand_calls;
      break;
    }
    case Op::kImplies: {
      auto alpha = olapdc::ParseConstraint(h, q->constraint);
      if (!alpha.ok()) return false;
      auto r = olapdc::Implies(ds, *alpha, options);
      ok = r.ok() && r->status.ok();
      if (r.ok()) {
        q->verdict = r->implied;
        q->gt_expands = r->stats.expand_calls;
      }
      break;
    }
    case Op::kSummarizable: {
      const CategoryId target = h.FindCategory(q->category);
      if (target == olapdc::kNoCategory) return false;
      std::vector<CategoryId> sources;
      for (const std::string& s : q->sources) {
        const CategoryId id = h.FindCategory(s);
        if (id == olapdc::kNoCategory) return false;
        sources.push_back(id);
      }
      auto r = olapdc::IsSummarizable(ds, target, sources, options);
      ok = r.ok() && r->status.ok();
      if (r.ok()) {
        q->verdict = r->summarizable;
        q->gt_expands = r->stats.expand_calls;
      }
      break;
    }
    default:
      return false;
  }
  q->gt_us = MicrosSince(start);
  return ok;
}

bool IsBottom(const HierarchySchema& h, CategoryId c) {
  const auto& bottoms = h.bottom_categories();
  return std::find(bottoms.begin(), bottoms.end(), c) != bottoms.end();
}

/// Constraint texts over `ds` from a fixed set of templates: into
/// atoms and their negations, composed and through atoms, exclusive
/// and inclusive choices, equality atoms, and conditional rollups.
std::vector<std::string> ImpliesCandidates(const DimensionSchema& ds) {
  const HierarchySchema& h = ds.hierarchy();
  const auto& g = h.graph();
  auto name = [&h](CategoryId c) { return h.CategoryName(c); };
  std::vector<std::string> out;
  for (CategoryId c = 0; c < h.num_categories(); ++c) {
    if (c == h.all()) continue;
    const std::vector<int>& parents = g.OutNeighbors(c);
    for (CategoryId p : parents) {
      out.push_back(name(c) + "/" + name(p));
      out.push_back("!" + name(c) + "/" + name(p));
    }
    for (size_t i = 0; i < parents.size(); ++i) {
      for (size_t j = i + 1; j < parents.size(); ++j) {
        const std::string a = name(c) + "/" + name(parents[i]);
        const std::string b = name(c) + "/" + name(parents[j]);
        out.push_back("one(" + a + ", " + b + ")");
        out.push_back(a + " | " + b);
      }
    }
    for (CategoryId a = 0; a < h.num_categories(); ++a) {
      if (a == c || a == h.all() || !h.Reaches(c, a)) continue;
      if (!h.HasEdge(c, a)) out.push_back(name(c) + "." + name(a));
      for (const std::string& k : ds.ConstantsOf(a)) {
        out.push_back(name(c) + "." + name(a) + " = '" + k + "'");
      }
      for (CategoryId p : parents) {
        if (p != a && h.Reaches(p, a)) {
          out.push_back(name(c) + "/" + name(p) + " -> " + name(c) + "." +
                        name(a));
        }
      }
      for (CategoryId m = 0; m < h.num_categories(); ++m) {
        if (m == c || m == a || m == h.all()) continue;
        if (h.Reaches(c, m) && h.Reaches(m, a)) {
          out.push_back(name(c) + "." + name(m) + "." + name(a));
        }
      }
    }
  }
  return out;
}

/// (target, sources) pairs: an intermediate target and one or two
/// intermediate categories below it.
std::vector<std::pair<std::string, std::vector<std::string>>>
SummarizableCandidates(const HierarchySchema& h) {
  std::vector<std::pair<std::string, std::vector<std::string>>> out;
  for (CategoryId t = 0; t < h.num_categories(); ++t) {
    if (t == h.all() || IsBottom(h, t)) continue;
    std::vector<CategoryId> below;
    for (CategoryId c = 0; c < h.num_categories(); ++c) {
      if (c != t && !IsBottom(h, c) && h.Reaches(c, t)) below.push_back(c);
    }
    for (size_t i = 0; i < below.size(); ++i) {
      out.push_back({h.CategoryName(t), {h.CategoryName(below[i])}});
      for (size_t j = i + 1; j < below.size(); ++j) {
        out.push_back({h.CategoryName(t),
                       {h.CategoryName(below[i]), h.CategoryName(below[j])}});
      }
    }
  }
  return out;
}

Question MakeQuestion(Op op, const std::string& schema) {
  Question q;
  q.op = op;
  q.schema = schema;
  return q;
}

/// Rewrites every identifier token outside quotes that names a category
/// to prefix + name (constants and keywords are untouched).
std::string RenameTokens(const std::string& text,
                         const std::unordered_set<std::string>& names,
                         const std::string& prefix) {
  if (prefix.empty()) return text;
  std::string out;
  out.reserve(text.size() + text.size() / 4);
  char quote = 0;
  size_t i = 0;
  const size_t n = text.size();
  auto word_char = [](char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_';
  };
  while (i < n) {
    const char ch = text[i];
    if (quote != 0) {
      out += ch;
      if (ch == quote) quote = 0;
      ++i;
    } else if (ch == '\'' || ch == '"') {
      quote = ch;
      out += ch;
      ++i;
    } else if (word_char(ch)) {
      size_t j = i;
      while (j < n && word_char(text[j])) ++j;
      const std::string token = text.substr(i, j - i);
      if (!std::isdigit(static_cast<unsigned char>(ch)) &&
          names.count(token) != 0) {
        out += prefix;
      }
      out += token;
      i = j;
    } else {
      out += ch;
      ++i;
    }
  }
  return out;
}

/// Runs fn(i) for i in [begin, end) on `threads` threads.
void ParallelFor(size_t begin, size_t end, int threads,
                 const std::function<void(size_t)>& fn) {
  std::vector<std::thread> pool;
  const size_t workers = static_cast<size_t>(std::max(1, threads));
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (size_t i = begin + w; i < end; i += workers) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

/// Screens candidates in index order, `threads` at a time, until
/// `count` are accepted, every `mc_every`-th from the multi-component
/// generator and the rest from the layered one, so every seed gets the
/// same mix. `make(i, layered)` builds candidate i of a kind; the
/// accepted set depends on the seed only.
template <typename T>
std::vector<T> ScreenMixed(
    size_t count, size_t mc_every, int threads,
    const std::function<std::optional<T>(size_t, bool)>& make) {
  std::vector<T> kinds[2];
  for (int kind = 0; kind < 2; ++kind) {
    const bool layered = kind == 0;
    const size_t want = layered ? count - count / mc_every : count / mc_every;
    std::vector<T>& accepted = kinds[kind];
    size_t next = 0;
    while (accepted.size() < want) {
      const size_t batch = std::max<size_t>(want - accepted.size(), 4) * 2;
      std::vector<std::optional<T>> round(batch);
      ParallelFor(0, batch, threads,
                  [&](size_t i) { round[i] = make(next + i, layered); });
      next += batch;
      for (auto& item : round) {
        if (item.has_value() && accepted.size() < want) {
          accepted.push_back(std::move(*item));
        }
      }
      if (next > want * 64 + 256) {
        std::fprintf(stderr, "perfbench: generator screens out everything\n");
        std::abort();
      }
    }
  }
  std::vector<T> out;
  size_t next_of[2] = {0, 0};
  for (size_t i = 0; i < count; ++i) {
    const int kind = i % mc_every == mc_every - 1 ? 1 : 0;
    out.push_back(std::move(kinds[kind][next_of[kind]++]));
  }
  return out;
}

DimensionSchema GenerateLayered(uint64_t seed) {
  olapdc::SchemaGenOptions shape;
  shape.num_levels = 4;
  shape.categories_per_level = 4;
  shape.extra_edge_prob = 0.4;
  shape.max_level_jump = 2;
  shape.seed = seed;
  olapdc::ConstraintGenOptions constraints;
  constraints.into_fraction = 0.7;
  constraints.num_choice_constraints = 3;
  constraints.num_equality_constraints = 2;
  constraints.num_constants = 2;
  constraints.seed = seed;
  return Unwrap(olapdc::GenerateConstrainedSchema(
                    Unwrap(olapdc::GenerateLayeredHierarchy(shape), "layered"),
                    constraints),
                "constraints");
}

DimensionSchema GenerateMultiComponent(uint64_t seed) {
  olapdc::MultiComponentGenOptions options;
  options.num_components = 3;
  options.levels_per_component = 2;
  options.categories_per_level = 3;
  options.seed = seed;
  return Unwrap(olapdc::GenerateMultiComponentSchema(options),
                "multi-component");
}

}  // namespace

const char* OpPath(Op op) {
  switch (op) {
    case Op::kCheck: return "/v1/check";
    case Op::kImplies: return "/v1/implies";
    case Op::kSummarizable: return "/v1/summarizable";
    case Op::kBatch: return "/v1/batch";
    case Op::kRegister: return "/v1/schemas";
  }
  return "/";
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kCheck: return "check";
    case Op::kImplies: return "implies";
    case Op::kSummarizable: return "summarizable";
    case Op::kBatch: return "batch";
    case Op::kRegister: return "register";
  }
  return "?";
}

std::string QuestionBody(const Question& q, bool with_op) {
  using olapdc::obs::JsonString;
  std::string body = "{";
  if (with_op) body += "\"op\": " + JsonString(OpName(q.op)) + ", ";
  body += "\"schema\": " + JsonString(q.schema);
  switch (q.op) {
    case Op::kCheck:
      body += ", \"category\": " + JsonString(q.category);
      break;
    case Op::kImplies:
      body += ", \"constraint\": " + JsonString(q.constraint);
      break;
    case Op::kSummarizable: {
      body += ", \"category\": " + JsonString(q.category) + ", \"sources\": [";
      for (size_t i = 0; i < q.sources.size(); ++i) {
        if (i > 0) body += ", ";
        body += JsonString(q.sources[i]);
      }
      body += "]";
      break;
    }
    default:
      break;
  }
  return body + "}";
}

Request MakeRequest(Question q) {
  Request r;
  r.op = q.op;
  r.body = QuestionBody(q, /*with_op=*/false);
  r.questions.push_back(std::move(q));
  return r;
}

Request MakeBatch(std::vector<Question> items) {
  Request r;
  r.op = Op::kBatch;
  r.body = "{\"requests\": [";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) r.body += ", ";
    r.body += QuestionBody(items[i], /*with_op=*/true);
  }
  r.body += "]}";
  r.questions = std::move(items);
  return r;
}

Request MakeRegister(const std::string& name, const std::string& text) {
  Request r;
  r.op = Op::kRegister;
  r.body = "{\"name\": " + olapdc::obs::JsonString(name) +
           ", \"text\": " + olapdc::obs::JsonString(text) + "}";
  return r;
}

namespace {

struct NamedSchema {
  std::string name;
  std::string text;
};

std::vector<NamedSchema> SetupSchemas() {
  return {
      {"location", olapdc::SerializeSchema(
                       Unwrap(olapdc::LocationSchema(), "location"))},
      {"healthcare", olapdc::SerializeSchema(
                         Unwrap(olapdc::HealthcareSchema(), "healthcare"))},
      {"product", olapdc::SerializeSchema(
                      Unwrap(olapdc::ProductSchema(), "product"))},
      {"time", olapdc::SerializeSchema(Unwrap(olapdc::TimeSchema(), "time"))},
  };
}

}  // namespace

std::vector<Request> SetupRegistrations() {
  std::vector<Request> out;
  for (const NamedSchema& s : SetupSchemas()) {
    out.push_back(MakeRegister(s.name, s.text));
  }
  return out;
}

HotPool BuildHotPool(uint64_t seed) {
  Rng rng(SubSeed(seed, 1));
  std::map<std::string, DimensionSchema> schemas;
  std::vector<Question> checks, implies, summarizable;
  for (const NamedSchema& s : SetupSchemas()) {
    const DimensionSchema& ds =
        schemas.emplace(s.name, Parsed(s.text)).first->second;
    const HierarchySchema& h = ds.hierarchy();
    for (CategoryId c = 0; c < h.num_categories(); ++c) {
      Question q = MakeQuestion(Op::kCheck, s.name);
      q.category = h.CategoryName(c);
      if (ComputeGroundTruth(ds, &q)) checks.push_back(std::move(q));
    }
    for (const std::string& text : ImpliesCandidates(ds)) {
      Question q = MakeQuestion(Op::kImplies, s.name);
      q.constraint = text;
      implies.push_back(std::move(q));
    }
    for (auto& [target, sources] : SummarizableCandidates(h)) {
      Question q = MakeQuestion(Op::kSummarizable, s.name);
      q.category = target;
      q.sources = sources;
      if (ComputeGroundTruth(ds, &q)) summarizable.push_back(std::move(q));
    }
  }
  // Sample the implies pool, then decide the survivors.
  rng.Shuffle(&implies);
  std::vector<Question> chosen;
  for (Question& q : implies) {
    if (chosen.size() == kHotImplies) break;
    if (ComputeGroundTruth(schemas.at(q.schema), &q)) chosen.push_back(q);
  }
  const std::vector<Question>* singles[] = {&checks, &chosen, &summarizable};
  std::vector<Request> by_endpoint[4];
  for (int e = 0; e < 3; ++e) {
    for (const Question& q : *singles[e]) {
      by_endpoint[e].push_back(MakeRequest(q));
    }
  }
  const size_t single_weights =
      kHotWeights[0] + kHotWeights[1] + kHotWeights[2];
  for (size_t b = 0; b < kHotBatches; ++b) {
    std::vector<Question> items;
    const size_t n = 2 + rng.Below(4);
    for (size_t i = 0; i < n; ++i) {
      size_t pick = rng.Below(single_weights);
      int e = 0;
      while (pick >= kHotWeights[e]) pick -= kHotWeights[e++];
      items.push_back((*singles[e])[rng.Below(singles[e]->size())]);
    }
    by_endpoint[3].push_back(MakeBatch(std::move(items)));
  }
  // Enough rounds of the weights that every body is scheduled.
  size_t rounds = 0;
  for (int e = 0; e < 4; ++e) {
    rounds = std::max(rounds, (by_endpoint[e].size() + kHotWeights[e] - 1) /
                                  kHotWeights[e]);
  }
  HotPool pool;
  for (int e = 0; e < 4; ++e) {
    const size_t first = pool.bodies.size();
    const size_t n = by_endpoint[e].size();
    for (Request& r : by_endpoint[e]) pool.bodies.push_back(std::move(r));
    for (size_t k = 0; k < kHotWeights[e] * rounds; ++k) {
      pool.schedule.push_back(first + k % n);
    }
  }
  return pool;
}

std::vector<Session> BuildColdSessions(uint64_t seed, size_t count,
                                       int threads) {
  const uint64_t base = SubSeed(seed, 2);
  return ScreenMixed<Session>(count, kColdMultiComponentEvery, threads,
                             [base](size_t i, bool layered)
                                  -> std::optional<Session> {
    Rng rng(SubSeed(base, 2 * i + (layered ? 0 : 1)));
    const uint64_t min_expands = layered ? kColdMinExpandsLayered : 0;
    const uint64_t max_expands =
        layered ? kColdMaxExpandsLayered : kColdMaxExpandsMultiComponent;
    Session session;
    session.layered = layered;
    const uint64_t gen_seed = rng.Next();
    session.text = olapdc::SerializeSchema(
        session.layered ? GenerateLayered(gen_seed)
                        : GenerateMultiComponent(gen_seed));
    const DimensionSchema ds = Parsed(session.text);
    const HierarchySchema& h = ds.hierarchy();
    for (CategoryId c = 0; c < h.num_categories(); ++c) {
      if (c != h.all()) session.categories.push_back(h.CategoryName(c));
      Question q = MakeQuestion(Op::kCheck, "");
      q.category = h.CategoryName(c);
      if (!ComputeGroundTruth(ds, &q, max_expands)) return std::nullopt;
      session.audit.push_back(std::move(q));
    }
    std::vector<std::string> constraints = ImpliesCandidates(ds);
    rng.Shuffle(&constraints);
    size_t accepted = 0;
    for (size_t k = 0; k < constraints.size() && k < kColdAttempts &&
                       accepted < kColdImplies;
         ++k) {
      Question q = MakeQuestion(Op::kImplies, "");
      q.constraint = constraints[k];
      if (!ComputeGroundTruth(ds, &q, max_expands) ||
          q.gt_expands < min_expands) {
        continue;
      }
      session.audit.push_back(std::move(q));
      ++accepted;
    }
    if (accepted < kColdImplies) return std::nullopt;
    auto targets = SummarizableCandidates(h);
    rng.Shuffle(&targets);
    accepted = 0;
    for (size_t k = 0; k < targets.size() && k < kColdAttempts &&
                       accepted < kColdSummarizable;
         ++k) {
      Question q = MakeQuestion(Op::kSummarizable, "");
      q.category = targets[k].first;
      q.sources = targets[k].second;
      if (!ComputeGroundTruth(ds, &q, max_expands) ||
          q.gt_expands < min_expands) {
        continue;
      }
      session.audit.push_back(std::move(q));
      ++accepted;
    }
    if (accepted < kColdSummarizable) return std::nullopt;
    for (const Question& q : session.audit) {
      if (q.op != Op::kCheck) session.heavy_expands += q.gt_expands;
    }
    if (layered && (session.heavy_expands < kColdSessionMinExpands ||
                    session.heavy_expands > kColdSessionMaxExpands)) {
      return std::nullopt;
    }
    return session;
  });
}

std::vector<Request> SessionRequests(const Session& session,
                                     const std::string& schema_name,
                                     uint64_t cycle) {
  const std::string prefix = cycle == 0 ? "" : "R" + std::to_string(cycle) + "_";
  const std::unordered_set<std::string> names(session.categories.begin(),
                                              session.categories.end());
  auto rename = [&](const std::string& s) {
    return RenameTokens(s, names, prefix);
  };
  std::vector<Request> out;
  out.push_back(MakeRegister(schema_name, rename(session.text)));
  for (Question q : session.audit) {
    q.schema = schema_name;
    q.category = rename(q.category);
    q.constraint = rename(q.constraint);
    for (std::string& s : q.sources) s = rename(s);
    out.push_back(MakeRequest(std::move(q)));
  }
  return out;
}

std::vector<CorpusFile> BuildCorpus(uint64_t seed, size_t count,
                                    uint64_t min_models, uint64_t max_models,
                                    int threads, const std::string& dir) {
  const uint64_t base = SubSeed(seed, 3);
  std::vector<CorpusFile> corpus = ScreenMixed<CorpusFile>(
      count, /*mc_every=*/2, threads,
      [&](size_t i, bool layered) -> std::optional<CorpusFile> {
        Rng rng(SubSeed(base, 2 * i + (layered ? 0 : 1)));
        CorpusFile file;
        file.layered = layered;
        const uint64_t gen_seed = rng.Next();
        file.text = olapdc::SerializeSchema(
            file.layered ? GenerateLayered(gen_seed)
                         : GenerateMultiComponent(gen_seed));
        const DimensionSchema ds = Parsed(file.text);
        const CategoryId base_category = ds.hierarchy().FindCategory("Base");
        if (base_category == olapdc::kNoCategory) return std::nullopt;
        DimsatOptions options;
        options.max_frozen = max_models + 1;
        options.max_expand_calls = kCorpusMaxExpands;
        const auto start = Clock::now();
        olapdc::DimsatResult r =
            olapdc::EnumerateFrozenDimensions(ds, base_category, options);
        if (!r.status.ok() || r.frozen.size() < min_models ||
            r.frozen.size() > max_models ||
            r.stats.expand_calls < kCorpusMinExpands ||
            r.stats.expand_calls > kCorpusMaxExpands) {
          return std::nullopt;
        }
        file.models = r.frozen.size();
        file.expands = r.stats.expand_calls;
        for (const olapdc::FrozenDimension& f : r.frozen) {
          file.lines_digest += LineDigest("  " + f.ToString(ds.hierarchy()));
        }
        file.gt_us = MicrosSince(start);
        return file;
      });
  for (size_t i = 0; i < corpus.size(); ++i) {
    corpus[i].path = dir + "/f" + std::to_string(i) + ".olapdc";
    std::ofstream out(corpus[i].path, std::ios::trunc);
    out << corpus[i].text;
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   corpus[i].path.c_str());
      std::abort();
    }
  }
  return corpus;
}

uint64_t LineDigest(const std::string& line) {
  return olapdc::FingerprintBytes(line).lo;
}

uint64_t DigestRequests(const std::vector<Request>& requests) {
  olapdc::Fingerprinter f;
  for (const Request& r : requests) f.Mix(OpPath(r.op)).Mix(r.body);
  return f.Final().lo;
}

uint64_t DigestSessions(const std::vector<Session>& sessions) {
  olapdc::Fingerprinter f;
  for (const Session& s : sessions) {
    f.Mix(s.text);
    for (const Question& q : s.audit) {
      f.Mix(QuestionBody(q, true)).Mix(static_cast<uint64_t>(q.verdict));
    }
  }
  return f.Final().lo;
}

uint64_t DigestCorpus(const std::vector<CorpusFile>& corpus) {
  olapdc::Fingerprinter f;
  for (const CorpusFile& c : corpus) f.Mix(c.text).Mix(c.models);
  return f.Final().lo;
}

}  // namespace perfbench
