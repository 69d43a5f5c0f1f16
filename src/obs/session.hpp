// One-object wiring of the telemetry layer into a binary's main():
//
//   util::ArgParser args("next_char", "...");
//   obs::add_cli_flags(args);               // registers --trace / --metrics
//   if (!args.parse(argc, argv)) return 1;
//   obs::ObsSession session("next_char", args, obs::ReportMode::kJsonl);
//   ...
//   session.log("epoch", {{"loss", 1.23}});  // JSONL mode only
//
// The session enables span tracing when --trace was given, names the main
// thread, and on destruction writes the chrome-trace JSON and the metrics
// report. Both flags default to empty = disabled, so instrumented binaries
// cost nothing when telemetry is not requested.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "obs/report.hpp"
#include "util/cli.hpp"

namespace bpar::obs {

enum class ReportMode {
  kJson,   // single RunReport document (benches)
  kJsonl,  // streaming run_meta/rows/metrics lines (examples)
};

/// Registers the shared --trace=<path> / --metrics=<path> options.
void add_cli_flags(util::ArgParser& args);

class ObsSession {
 public:
  ObsSession(std::string binary, const util::ArgParser& args, ReportMode mode);
  ~ObsSession();

  /// JSONL mode: appends one typed row (no-op when --metrics is unset or the
  /// session is in kJson mode).
  void log(std::string_view type, const std::map<std::string, double>& fields);

  /// JSON mode: the report to fill with tables before destruction.
  [[nodiscard]] RunReport& report() { return report_; }

  /// Writes the outputs now instead of at destruction (idempotent).
  void finish();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  std::string binary_;
  std::string trace_path_;
  std::string metrics_path_;
  ReportMode mode_;
  RunReport report_;
  std::unique_ptr<MetricsLogger> logger_;
  bool finished_ = false;
};

}  // namespace bpar::obs
