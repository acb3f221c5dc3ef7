// The in-process mirror of DimService's request path, for the traced
// run's per-layer breakdown. It replays a request with the same public
// calls in the same order as src/service/dim_service.cc — ParseJsonText,
// SchemaRegistry::FindEntry / Register (as ParseSchemaText +
// RegisterParsed), ParseConstraint, ExpandShorthands + Simplify +
// ExprToString, the ServiceCaches lookups and inserts, and RunDimsat /
// Implies / IsSummarizable with the service's options — against its own
// registry and caches, and times each call as one layer span. Its
// verdicts are checked against ground truth like the daemon's.

#ifndef OLAPDC_PERFBENCH_MIRROR_H_
#define OLAPDC_PERFBENCH_MIRROR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/budget.h"
#include "inputs.h"
#include "service/schema_registry.h"
#include "service/service_caches.h"
#include "trace.h"

namespace olapdc {
struct JsonValue;
}

namespace perfbench {

/// Per-thread collector of layer spans: records each into the span log
/// and keeps its duration as a sample of its layer.
class LayerRecorder {
 public:
  explicit LayerRecorder(SpanLog* log) : log_(log) {}

  /// Opens the mirror's root span for one request (the client round
  /// trip span `request_id` is its parent).
  void BeginRequest(uint64_t request_id);
  /// Records one layer call of the open request.
  void Layer(const char* name, Clock::time_point start, Clock::time_point end);
  /// Closes the root span; returns the summed layer time of the request.
  double EndRequest();

  /// Layer name -> span durations (us).
  std::map<std::string, std::vector<double>> samples;
  /// Engine work of the mirrored runs.
  uint64_t engine_expands = 0;
  /// Whether recording is on (set-up replays only warm the caches).
  bool recording = true;

 private:
  SpanLog* log_;
  uint64_t request_id_ = 0;
  uint64_t root_id_ = 0;
  Clock::time_point root_start_;
  double request_sum_ = 0;
};

class Mirror {
 public:
  Mirror();

  /// Replays `request`; returns false (with `*error`) when the request
  /// cannot be mirrored or a verdict disagrees with ground truth.
  bool Replay(const Request& request, LayerRecorder* recorder,
              std::string* error);

 private:
  bool ReplayQuestion(const olapdc::JsonValue& item, const Question& question,
                      const olapdc::Budget& budget, LayerRecorder* recorder,
                      std::string* error);

  olapdc::service::SchemaRegistry registry_;
  olapdc::service::ServiceCaches caches_;
  olapdc::CancellationSource drain_cancel_;
};

}  // namespace perfbench

#endif  // OLAPDC_PERFBENCH_MIRROR_H_
