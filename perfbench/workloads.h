// The benchmark's workloads. Each checks every answer it gets against
// ground truth (failures go to `outcome`) and adds its metrics to
// `report`: the end-to-end set with tracing off, the per-layer set with
// tracing on.

#ifndef OLAPDC_PERFBENCH_WORKLOADS_H_
#define OLAPDC_PERFBENCH_WORKLOADS_H_

#include "bench_common.h"

namespace perfbench {

/// serve_hot and serve_cold: olapdcd over loopback HTTP.
void RunServe(const RunOptions& options, Report* report, Outcome* outcome);

/// cli_enumerate: `olapdc frozen <file> Base --threads 2` over a corpus.
void RunCliEnumerate(const RunOptions& options, Report* report,
                     Outcome* outcome);

}  // namespace perfbench

#endif  // OLAPDC_PERFBENCH_WORKLOADS_H_
