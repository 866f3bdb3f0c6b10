// Sample statistics and output formats of the wire-to-store benchmark:
// nearest-rank percentiles, the in-memory span log written as Chrome trace
// JSON, and the one-line JSON result the last stdout line carries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in (0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& values);

/// One interval the benchmark recorded around a public call.  Spans of one
/// update batch share `request` across depths.
struct Span {
  const char* name = "";  ///< "<depth>.<call>", e.g. "wire.submit"
  int tid = 0;            ///< Chrome trace row
  double start_s = 0.0;   ///< benchmark clock, seconds
  double end_s = 0.0;
  std::uint64_t request = 0;
};

/// Writes `spans` as Chrome trace_event JSON; false on I/O error.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints one aligned "name value unit" line per metric.
void PrintMetrics(const std::vector<Metric>& metrics);

/// The result object: {"correct": .., "attempted": .., "failed": ..,
/// "metrics": {"<name>": {"value": .., "unit": ".."}, ...}}.
std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench
