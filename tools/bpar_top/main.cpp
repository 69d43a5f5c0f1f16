// bpar_top — live terminal dashboard for a serving engine's stats
// endpoint (bpar_serve --stats-port N, or any InferenceEngine with
// EngineOptions::stats_port set).
//
//   ./bpar_top --port 18990                 # refresh every second
//   ./bpar_top --port 18990 --interval-ms 250
//   ./bpar_top --port 18990 --once          # one frame, no clear (CI)
//
// Polls /statz, renders health + degradation, windowed throughput,
// per-class queue depths, rolling latency percentiles, the SLO burn-rate
// panel, and a throughput sparkline from the sampler's serve.completed
// rate series. Exits 1 when the endpoint cannot be reached (--once) or
// vanishes mid-watch.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/stats_server.hpp"
#include "util/cli.hpp"

namespace {

using bpar::obs::JsonValue;

volatile std::sig_atomic_t g_stop = 0;
void handle_sigint(int) { g_stop = 1; }

double num(const JsonValue* v, double fallback = 0.0) {
  return v != nullptr && v->is_number() ? v->number : fallback;
}

std::string str(const JsonValue* v, const std::string& fallback = "?") {
  return v != nullptr && v->is_string() ? v->str : fallback;
}

/// Unicode block-character sparkline of the last `width` values.
std::string sparkline(const std::vector<double>& values, std::size_t width) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty()) return "(no samples yet)";
  const std::size_t n = std::min(values.size(), width);
  const std::size_t start = values.size() - n;
  double hi = 0.0;
  for (std::size_t i = start; i < values.size(); ++i) {
    hi = std::max(hi, values[i]);
  }
  std::string out;
  for (std::size_t i = start; i < values.size(); ++i) {
    const double frac = hi > 0.0 ? values[i] / hi : 0.0;
    const int level =
        std::min(7, static_cast<int>(frac * 8.0));
    out += kBlocks[level];
  }
  return out;
}

/// "" when the payload looks like a /statz document this bpar_top can
/// render; otherwise a one-line description of what is wrong (exits 1).
/// Guards against pointing --port at some other HTTP server, or at a
/// bpar_serve from an incompatible schema generation.
std::string validate_statz(const JsonValue& statz) {
  if (!statz.is_object()) return "payload is not a JSON object";
  const JsonValue* type = statz.find("type");
  if (type == nullptr || !type->is_string() || type->str != "statz") {
    return "missing or wrong \"type\" (want \"statz\" — is this a "
           "bpar_serve stats endpoint?)";
  }
  const JsonValue* version = statz.find("schema_version");
  if (version == nullptr || !version->is_number()) {
    return "missing \"schema_version\"";
  }
  if (version->number != 1.0) {
    return "unsupported schema_version " +
           std::to_string(static_cast<int>(version->number)) + " (want 1)";
  }
  const JsonValue* engine = statz.find("engine");
  if (engine == nullptr || !engine->is_object()) {
    return "missing \"engine\" section";
  }
  return {};
}

/// The sampler publishes counter rates as registry ring series; /statz
/// carries them under metrics.series.
std::vector<double> rate_series(const JsonValue& statz,
                                const std::string& name) {
  std::vector<double> out;
  const JsonValue* metrics = statz.find("metrics");
  if (metrics == nullptr) return out;
  const JsonValue* series = metrics->find("series");
  if (series == nullptr) return out;
  const JsonValue* values = series->find(name);
  if (values == nullptr || !values->is_array()) return out;
  for (const JsonValue& v : values->array) {
    if (v.is_number()) out.push_back(v.number);
  }
  return out;
}

void print_frame(const JsonValue& statz, const std::string& endpoint) {
  const JsonValue* engine = statz.find("engine");
  const JsonValue* slo = statz.find("slo");
  const JsonValue* sampler = statz.find("sampler");

  std::printf("bpar_top — %s   uptime %.1fs\n", endpoint.c_str(),
              num(statz.find("uptime_s")));
  if (engine != nullptr) {
    const JsonValue* qd = engine->find("queue_depth");
    std::printf(
        "health %-9s queue %d (high %d / normal %d / batch %d)\n",
        str(engine->find("health")).c_str(),
        qd != nullptr ? static_cast<int>(num(qd->find("total"))) : 0,
        qd != nullptr ? static_cast<int>(num(qd->find("high"))) : 0,
        qd != nullptr ? static_cast<int>(num(qd->find("normal"))) : 0,
        qd != nullptr ? static_cast<int>(num(qd->find("batch"))) : 0);
    std::printf(
        "requests %llu   ok %llu   shed %llu   expired %llu   rejected "
        "%llu   internal %llu\n",
        static_cast<unsigned long long>(num(engine->find("submitted"))),
        static_cast<unsigned long long>(num(engine->find("completed"))),
        static_cast<unsigned long long>(num(engine->find("shed"))),
        static_cast<unsigned long long>(num(engine->find("expired"))),
        static_cast<unsigned long long>(num(engine->find("rejected"))),
        static_cast<unsigned long long>(
            num(engine->find("internal_errors"))));
    std::printf(
        "batches %llu   retries %llu   bisections %llu   rebuilds %llu\n",
        static_cast<unsigned long long>(num(engine->find("batches"))),
        static_cast<unsigned long long>(num(engine->find("retries"))),
        static_cast<unsigned long long>(num(engine->find("bisections"))),
        static_cast<unsigned long long>(
            num(engine->find("executor_rebuilds"))));
  }

  if (sampler != nullptr && sampler->is_object()) {
    const double window_s = num(sampler->find("window_s"), 10.0);
    const JsonValue* windows = sampler->find("windows");
    const JsonValue* counters =
        windows != nullptr ? windows->find("counters") : nullptr;
    const JsonValue* histos =
        windows != nullptr ? windows->find("histograms") : nullptr;
    if (counters != nullptr) {
      const JsonValue* completed = counters->find("serve.completed");
      const JsonValue* requests = counters->find("serve.requests");
      std::printf("last %.0fs: %.1f done/s (offered %.1f/s)\n", window_s,
                  completed != nullptr
                      ? num(completed->find("rate_per_s"))
                      : 0.0,
                  requests != nullptr ? num(requests->find("rate_per_s"))
                                      : 0.0);
    }
    if (histos != nullptr) {
      const JsonValue* request_us = histos->find("serve.request_us");
      const JsonValue* exec_us = histos->find("serve.exec_us");
      if (request_us != nullptr) {
        std::printf(
            "latency (last %.0fs): p50 %.2fms  p95 %.2fms  p99 %.2fms\n",
            window_s, num(request_us->find("p50")) / 1000.0,
            num(request_us->find("p95")) / 1000.0,
            num(request_us->find("p99")) / 1000.0);
      }
      if (exec_us != nullptr) {
        std::printf("exec    (last %.0fs): p50 %.2fms  p99 %.2fms\n",
                    window_s, num(exec_us->find("p50")) / 1000.0,
                    num(exec_us->find("p99")) / 1000.0);
      }
    }
  }

  if (slo != nullptr) {
    std::printf(
        "SLO: avail %.4f (obj %.4f)   latency attainment %.4f (target "
        "%.0fms)\n",
        num(slo->find("availability"), 1.0),
        num(slo->find("availability_objective"), 0.0),
        num(slo->find("latency_attainment"), 1.0),
        num(slo->find("latency_target_us")) / 1000.0);
    const bool alerting = [&] {
      const JsonValue* a = slo->find("alerting");
      return a != nullptr && a->boolean;
    }();
    std::printf(
        "     budget burn: short %.2fx  long %.2fx  consumed %.2f%%  %s\n",
        num(slo->find("burn_short")), num(slo->find("burn_long")),
        num(slo->find("budget_consumed")) * 100.0,
        alerting ? "** ALERTING **" : "");
  }

  // Memory panel (DESIGN.md §5j): subsystem trackers + /proc/self.
  const JsonValue* memory = statz.find("memory");
  if (memory != nullptr && memory->is_object()) {
    constexpr double kMiB = 1024.0 * 1024.0;
    const auto tracker_mb = [&](const char* sub, const char* field) {
      const JsonValue* t = memory->find(sub);
      return t != nullptr ? num(t->find(field)) / kMiB : 0.0;
    };
    std::printf(
        "mem: tensor %.1f MiB (peak %.1f)   programs %.2f MiB   queue "
        "%.2f MiB\n",
        tracker_mb("tensor", "bytes"), tracker_mb("tensor", "peak_bytes"),
        tracker_mb("program_cache", "bytes"),
        tracker_mb("serve_queue", "bytes"));
    const JsonValue* proc = memory->find("proc");
    if (proc != nullptr && proc->is_object()) {
      std::printf(
          "proc: rss %.1f MiB   threads %d   faults %llu minor / %llu "
          "major   ctx %llu vol / %llu invol\n",
          num(proc->find("rss_bytes")) / kMiB,
          static_cast<int>(num(proc->find("threads"))),
          static_cast<unsigned long long>(num(proc->find("minor_faults"))),
          static_cast<unsigned long long>(num(proc->find("major_faults"))),
          static_cast<unsigned long long>(num(proc->find("ctx_voluntary"))),
          static_cast<unsigned long long>(
              num(proc->find("ctx_involuntary"))));
    }
  }
  const JsonValue* flight = statz.find("flight");
  const JsonValue* profiler = statz.find("profiler");
  if ((flight != nullptr && flight->is_object()) ||
      (profiler != nullptr && profiler->is_object())) {
    std::printf("obs:");
    if (flight != nullptr && flight->is_object()) {
      std::printf(" dumps %llu (suppressed %llu) -> %s  ",
                  static_cast<unsigned long long>(num(flight->find("dumps"))),
                  static_cast<unsigned long long>(
                      num(flight->find("suppressed"))),
                  str(flight->find("dir"), "dumps").c_str());
    }
    if (profiler != nullptr && profiler->is_object()) {
      std::printf(" profiler %llu sample(s), %llu torn",
                  static_cast<unsigned long long>(
                      num(profiler->find("samples"))),
                  static_cast<unsigned long long>(num(profiler->find("torn"))));
    }
    std::printf("\n");
  }

  const std::vector<double> rates = rate_series(statz,
                                                "serve.completed.rate");
  std::printf("throughput %s\n", sparkline(rates, 60).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bpar::util::ArgParser args("bpar_top",
                             "live dashboard for a serving stats endpoint");
  args.add_string("host", "127.0.0.1", "stats endpoint host");
  args.add_int("port", 0, "stats endpoint port (bpar_serve --stats-port)");
  args.add_int("interval-ms", 1000, "refresh period");
  args.add_flag("once", "print one frame and exit (no screen clearing)");
  if (!args.parse(argc, argv)) return 2;
  const std::string host = args.get_string("host");
  const auto port = static_cast<std::uint16_t>(args.get_int("port"));
  const bool once = args.flag("once");
  if (port == 0) {
    std::fprintf(stderr, "bpar_top: --port is required\n");
    return 2;
  }
  std::signal(SIGINT, handle_sigint);

  const std::string endpoint =
      host + ":" + std::to_string(static_cast<int>(port));
  int consecutive_failures = 0;
  while (g_stop == 0) {
    const bpar::obs::HttpResult result =
        bpar::obs::http_get(host, port, "/statz");
    if (!result.ok || result.status != 200) {
      if (once || ++consecutive_failures >= 3) {
        std::fprintf(stderr, "bpar_top: %s/statz unreachable: %s\n",
                     endpoint.c_str(),
                     result.error.empty()
                         ? ("HTTP " + std::to_string(result.status)).c_str()
                         : result.error.c_str());
        return 1;
      }
    } else {
      consecutive_failures = 0;
      JsonValue statz;
      try {
        statz = bpar::obs::json_parse(result.body);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bpar_top: bad /statz payload: %s\n", e.what());
        return 1;
      }
      if (const std::string problem = validate_statz(statz);
          !problem.empty()) {
        std::fprintf(stderr, "bpar_top: %s/statz: %s\n", endpoint.c_str(),
                     problem.c_str());
        return 1;
      }
      if (!once) std::printf("\x1b[2J\x1b[H");  // clear + home
      print_frame(statz, endpoint);
      std::fflush(stdout);
      if (once) return 0;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(args.get_int("interval-ms")));
  }
  return 0;
}
