#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {
namespace {

/// JSON has no NaN or infinity; a ratio over an empty base reports 0.
double Finite(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const char* dot = std::strchr(s.name, '.');
    const int category = dot == nullptr ? static_cast<int>(std::strlen(s.name))
                                        : static_cast<int>(dot - s.name);
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"request\": %llu}}",
                 i == 0 ? "" : ",", s.name, category, s.name, s.tid,
                 s.start_s * 1e6, (s.end_s - s.start_s) * 1e6,
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %18.6f %s\n", m.name.c_str(), Finite(m.value),
                m.unit.c_str());
  }
}

std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof value, "%.17g", Finite(metrics[i].value));
    out += i == 0 ? "\"" : ", \"";
    out += metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
