// TelemetryServer: the telemetry GET routes that olapdcd serves next
// to its request plane, on the same port and HttpServer transport:
//
//   /metrics  Prometheus text exposition of MetricsRegistry::Snapshot()
//   /varz     the same snapshot as the --metrics-json JSON schema
//   /         an index of the two
//
// It owns no socket: the caller's HttpServer handler passes a GET's
// path to Handle(). olapdcd answers /healthz itself, because only it
// sees the admission gate and the drain state.

#ifndef OLAPDC_OBS_TELEMETRY_SERVER_H_
#define OLAPDC_OBS_TELEMETRY_SERVER_H_

#include <string>

namespace olapdc {
namespace obs {

class TelemetryServer {
 public:
  /// One rendered HTTP response.
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  TelemetryServer() = default;

  /// Routes one request path to its response; 404 for any other path.
  Response Handle(const std::string& path) const;
};

}  // namespace obs
}  // namespace olapdc

#endif  // OLAPDC_OBS_TELEMETRY_SERVER_H_
