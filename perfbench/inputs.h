// Workload inputs and their ground truth.
//
// Every input derives from --seed through src/workload's generators;
// every verdict and model count is computed here, off the clock and
// in-process, with the library and no caches. The same step screens
// out generated queries whose ground-truth search exceeds an EXPAND
// cap (a deterministic stand-in for "comes near the 2000 ms request
// deadline"), so a seed names the same inputs on every machine.

#ifndef OLAPDC_PERFBENCH_INPUTS_H_
#define OLAPDC_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Op { kCheck, kImplies, kSummarizable, kBatch, kRegister };

/// "/v1/check", ... — the request-plane path of `op`.
const char* OpPath(Op op);
/// "check", ... — also the /v1/batch "op" field.
const char* OpName(Op op);

/// One reasoning question and its ground-truth verdict.
struct Question {
  Op op = Op::kCheck;
  std::string schema;
  /// Check and summarizable target.
  std::string category;
  /// Implies.
  std::string constraint;
  /// Summarizable.
  std::vector<std::string> sources;
  bool verdict = false;
  /// Ground-truth search effort (EXPAND calls, wall time).
  uint64_t gt_expands = 0;
  double gt_us = 0;
};

/// One POST of a daemon workload.
struct Request {
  Op op = Op::kCheck;
  std::string body;
  /// The question, the batch items in order, or empty (registration).
  std::vector<Question> questions;
};

/// Builds the JSON body of a single question or of a batch of them.
std::string QuestionBody(const Question& q, bool with_op);
Request MakeRequest(Question q);
Request MakeBatch(std::vector<Question> items);
Request MakeRegister(const std::string& name, const std::string& text);

/// The set-up schemas both daemon workloads register first: the
/// paper's location schema plus the healthcare, product and time
/// schemas of src/workload/realistic.h.
std::vector<Request> SetupRegistrations();

/// serve_hot: a few hundred distinct check / implies / summarizable /
/// batch bodies over the set-up schemas, and the traffic over them.
struct HotPool {
  /// Every distinct body once (the warm-up pass sends each).
  std::vector<Request> bodies;
  /// Indices into `bodies` in the traffic's endpoint mix: check,
  /// implies, summarizable and batch at the 4 : 2 : 2 : 1 weights of
  /// tools/loadgen.cc's well-formed shapes, the bodies of one endpoint
  /// about equally often. Each connection walks it in its own seeded
  /// order.
  std::vector<size_t> schedule;
};
HotPool BuildHotPool(uint64_t seed);

/// serve_cold: one schema-design session — a freshly generated schema
/// version and the audit run against it.
struct Session {
  std::string text;
  /// Category names of the schema (All excluded): the tokens a renamed
  /// replay rewrites.
  std::vector<std::string> categories;
  /// /v1/check on every category, /v1/implies on generated
  /// constraints, /v1/summarizable on intermediate categories; the
  /// `schema` field is filled per connection.
  std::vector<Question> audit;
  bool layered = true;
  /// Ground-truth EXPAND calls of the implies and summarizability
  /// questions: the session's engine cost, screened into a band.
  uint64_t heavy_expands = 0;
};

/// `count` screened sessions; generation and ground truth run on
/// `threads` threads, and the result depends on the seed only.
std::vector<Session> BuildColdSessions(uint64_t seed, size_t count,
                                       int threads);

/// The requests of `session` as connection `schema_name` sends them in
/// replay cycle `cycle`. Cycle 0 is the generated text; cycle k > 0
/// prefixes every category name with "R<k>_", which yields new schema
/// content (a new epoch, so every cache misses) with the identical
/// search and therefore the identical verdicts.
std::vector<Request> SessionRequests(const Session& session,
                                     const std::string& schema_name,
                                     uint64_t cycle);

/// cli_enumerate: one schema file of the corpus and the ground truth
/// of `olapdc frozen <file> Base`.
struct CorpusFile {
  std::string path;
  std::string text;
  bool layered = true;
  uint64_t models = 0;
  /// Ground-truth EXPAND calls of the enumeration.
  uint64_t expands = 0;
  /// Order-independent digest of the listed model lines.
  uint64_t lines_digest = 0;
  double gt_us = 0;
};

/// `count` screened files (written under `dir`), each listing between
/// `min_models` and `max_models` frozen dimensions rooted at Base.
std::vector<CorpusFile> BuildCorpus(uint64_t seed, size_t count,
                                    uint64_t min_models, uint64_t max_models,
                                    int threads, const std::string& dir);

/// Multiset digest of lines: the sum of their 64-bit fingerprints.
uint64_t LineDigest(const std::string& line);

/// Digest of everything a run will send (provenance).
uint64_t DigestRequests(const std::vector<Request>& requests);
uint64_t DigestSessions(const std::vector<Session>& sessions);
uint64_t DigestCorpus(const std::vector<CorpusFile>& corpus);

}  // namespace perfbench

#endif  // OLAPDC_PERFBENCH_INPUTS_H_
