#include "obs/telemetry_server.h"

#include "obs/metrics.h"
#include "obs/prometheus.h"

namespace olapdc {
namespace obs {

TelemetryServer::Response TelemetryServer::Handle(
    const std::string& path) const {
  if (path == "/metrics") {
    return Response{
        200, "text/plain; version=0.0.4; charset=utf-8",
        RenderPrometheusText(MetricsRegistry::Global().Snapshot())};
  }
  if (path == "/varz") {
    return Response{200, "application/json",
                    MetricsRegistry::Global().ToJson() + "\n"};
  }
  if (path == "/" || path.empty()) {
    return Response{200, "text/plain; charset=utf-8",
                    "olapdc telemetry: /metrics /varz\n"};
  }
  return Response{404, "text/plain; charset=utf-8", "not found\n"};
}

}  // namespace obs
}  // namespace olapdc
