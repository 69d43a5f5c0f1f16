// bpar_prof — offline analysis of B-Par traces and run reports.
//
//   bpar_prof analyze <trace.json> [--json] [--out <path>]
//       Measured critical path, per-worker idle attribution, and the
//       scheduler scorecard from a unified trace (bench --trace output).
//
//   bpar_prof diff <old.json> <new.json> [more-new.json ...]
//       Noise-aware comparison of two reports/baselines/benchmark dumps.
//       Extra <new> files are min-of-N merged before comparing, so noisy
//       machines can diff against the best of several fresh runs.
//       Exit 0 = clean, 1 = performance regression, 2 = structural
//       mismatch (unreadable/incompatible documents).
//
//   bpar_prof baseline --out <baseline.json> <run.json> [...]
//       Seeds or (with --merge) updates a min-of-N baseline from run
//       reports / google-benchmark JSON. See EXPERIMENTS.md for the
//       refresh procedure.
//
//   bpar_prof request <id> <trace.json>
//       One request's stage-by-stage timeline (submit → queue → seal →
//       form → execute → respond, retries/bisections included) from the
//       `req.<stage>` instants a serving trace carries while span tracing
//       was on (bpar_serve --trace, and its flight dumps). Markers hold
//       the id mod 2^32, so <id> matches on its low 32 bits.
//
//   bpar_prof flame <profile.folded> [--out <path>] [--min-percent P]
//   bpar_prof flame --host <h> --port <p> [--seconds N] [--out <path>]
//       Top-down hot-path tree from collapsed-flamegraph text — either a
//       .folded file (SpanProfiler output, a flight-dump profile) or a
//       live /profilez capture from a serving engine's stats endpoint.
//       --out re-emits the folded text for flamegraph.pl / speedscope.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/stats_server.hpp"

#include "obs/analysis.hpp"
#include "obs/diff.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "serve/engine.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

using bpar::obs::JsonValue;

JsonValue load_json(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) {
    BPAR_RAISE(bpar::util::Error, "cannot open ", path);
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  return bpar::obs::json_parse(ss.str());
}

int cmd_analyze(int argc, const char* const* argv) {
  bpar::util::ArgParser args("bpar_prof analyze",
                             "Analyze a unified trace JSON file");
  args.add_flag("json", "emit machine-readable JSON instead of tables");
  args.add_string("out", "", "write the (JSON) analysis to this path");
  args.add_int("model-critical-path-ns", 0,
               "TaskGraph::critical_path_cost for the same run, for "
               "measured-vs-model comparison");
  if (!args.parse(argc, argv)) return 2;
  if (args.positional().size() != 1) {
    std::cerr << "usage: bpar_prof analyze <trace.json> [--json] "
                 "[--out <path>]\n";
    return 2;
  }
  const bpar::obs::analysis::TraceModel model =
      bpar::obs::analysis::model_from_trace_json(
          load_json(args.positional()[0]));
  const bpar::obs::analysis::Analysis analysis = bpar::obs::analysis::analyze(
      model,
      static_cast<std::uint64_t>(args.get_int("model-critical-path-ns")));
  if (!args.get_string("out").empty()) {
    std::ofstream os = bpar::obs::open_output_file(args.get_string("out"));
    os << bpar::obs::analysis::to_json(analysis);
  }
  if (args.flag("json")) {
    std::cout << bpar::obs::analysis::to_json(analysis);
  } else {
    bpar::obs::analysis::print_human(analysis, std::cout);
  }
  return 0;
}

int cmd_diff(int argc, const char* const* argv) {
  bpar::util::ArgParser args("bpar_prof diff",
                             "Diff two reports with noise-aware thresholds");
  args.add_double("rel", 0.15, "relative change threshold (fraction)");
  args.add_double("abs", 0.5,
                  "absolute floor for lower-is-better metrics (ms-scale)");
  args.add_double("abs-hb", 0.05,
                  "absolute floor for higher-is-better metrics");
  if (!args.parse(argc, argv)) return 2;
  if (args.positional().size() < 2) {
    std::cerr << "usage: bpar_prof diff <old.json> <new.json> [...]\n";
    return 2;
  }
  bpar::obs::diff::DiffOptions options;
  options.rel_threshold = args.get_double("rel");
  options.abs_threshold = args.get_double("abs");
  options.abs_threshold_hb = args.get_double("abs-hb");

  bpar::obs::diff::DiffResult result;
  try {
    const bpar::obs::diff::MetricMap old_map =
        bpar::obs::diff::flatten(load_json(args.positional()[0]));
    // Min-of-N over the new side: merge every fresh run, keep the best
    // value per metric, and only then compare.
    bpar::obs::diff::Baseline fresh;
    for (std::size_t i = 1; i < args.positional().size(); ++i) {
      bpar::obs::diff::merge_baseline(
          fresh, bpar::obs::diff::flatten(load_json(args.positional()[i])));
    }
    result = bpar::obs::diff::diff_maps(
        old_map, bpar::obs::diff::baseline_metrics(fresh), options);
  } catch (const bpar::util::Error& e) {
    result.structural = true;
    result.structural_reason = e.what();
  }
  bpar::obs::diff::print_diff(result, std::cout);
  return result.exit_code();
}

int cmd_baseline(int argc, const char* const* argv) {
  bpar::util::ArgParser args("bpar_prof baseline",
                             "Seed/update a min-of-N perf baseline");
  args.add_string("out", "bench_results/baseline.json",
                  "baseline file to write");
  args.add_flag("merge", "start from the existing --out contents");
  if (!args.parse(argc, argv)) return 2;
  if (args.positional().empty()) {
    std::cerr << "usage: bpar_prof baseline --out <baseline.json> "
                 "<run.json> [...]\n";
    return 2;
  }
  bpar::obs::diff::Baseline baseline;
  if (args.flag("merge")) {
    baseline = bpar::obs::diff::load_baseline(load_json(args.get_string("out")));
  }
  for (const std::string& path : args.positional()) {
    bpar::obs::diff::merge_baseline(
        baseline, bpar::obs::diff::flatten(load_json(path)));
  }
  std::ofstream os = bpar::obs::open_output_file(args.get_string("out"));
  os << bpar::obs::diff::baseline_json(baseline);
  std::cout << "wrote " << baseline.size() << " metric(s) to "
            << args.get_string("out") << "\n";
  return 0;
}

/// One per-request stage marker recovered from a serving trace. Times are
/// chrome-trace microseconds (trace-relative).
struct RequestMark {
  double ts_us = 0.0;
  std::string stage;  // "submitted", "queued", ... (name minus "req.")
  int arg = 0;
};

int cmd_request(int argc, const char* const* argv) {
  bpar::util::ArgParser args("bpar_prof request",
                             "Reconstruct one request's stage timeline");
  if (!args.parse(argc, argv)) return 2;
  if (args.positional().size() != 2) {
    std::cerr << "usage: bpar_prof request <id> <trace.json>\n";
    return 2;
  }
  const std::uint64_t want_id = std::stoull(args.positional()[0]);
  const std::uint64_t want_key = want_id & 0xFFFFFFFFULL;
  const JsonValue doc = load_json(args.positional()[1]);
  if (!doc.is_array()) {
    std::cerr << "bpar_prof request: " << args.positional()[1]
              << " is not a chrome-trace event array\n";
    return 2;
  }

  std::vector<RequestMark> marks;
  std::size_t total_markers = 0;
  std::vector<std::uint64_t> seen_ids;
  for (const JsonValue& ev : doc.array) {
    if (!ev.is_object()) continue;
    const JsonValue* ph = ev.find("ph");
    const JsonValue* name = ev.find("name");
    if (ph == nullptr || name == nullptr || ph->str != "i" ||
        name->str.rfind("req.", 0) != 0) {
      continue;
    }
    const JsonValue* ev_args = ev.find("args");
    if (ev_args == nullptr || !ev_args->is_object()) continue;
    // The exporter writes a 32-bit id and a one-byte argument; anything
    // else is not one of its markers.
    const JsonValue* id_arg = ev_args->find("id");
    if (id_arg == nullptr || !id_arg->is_number() || id_arg->number < 0.0 ||
        id_arg->number > 4294967295.0) {
      continue;
    }
    ++total_markers;
    const auto id = static_cast<std::uint64_t>(id_arg->number);
    if (std::find(seen_ids.begin(), seen_ids.end(), id) == seen_ids.end()) {
      seen_ids.push_back(id);
    }
    if (id != want_key) continue;
    RequestMark mark;
    const JsonValue* ts = ev.find("ts");
    mark.ts_us = ts != nullptr ? ts->number : 0.0;
    mark.stage = name->str.substr(4);
    if (const JsonValue* arg = ev_args->find("arg"); arg != nullptr) {
      mark.arg = static_cast<int>(std::clamp(arg->number, 0.0, 255.0));
    }
    marks.push_back(std::move(mark));
  }

  if (marks.empty()) {
    std::cerr << "bpar_prof request: no events for request " << want_id
              << " (trace holds " << total_markers
              << " request event(s) across " << seen_ids.size()
              << " id(s)";
    if (!seen_ids.empty()) {
      std::sort(seen_ids.begin(), seen_ids.end());
      std::cerr << ", ids " << seen_ids.front() << ".." << seen_ids.back();
    } else {
      std::cerr << "; markers are recorded only while span tracing is on";
    }
    std::cerr << ")\n";
    return 1;
  }
  std::stable_sort(marks.begin(), marks.end(),
                   [](const RequestMark& a, const RequestMark& b) {
                     return a.ts_us < b.ts_us;
                   });

  // The name of the Status a "responded" marker's argument holds.
  const auto status = [](const RequestMark& m) {
    return bpar::serve::status_name(static_cast<bpar::serve::Status>(m.arg));
  };
  // Named stage timestamps for the summary (first occurrence wins, except
  // exec_end / responded where the last one is the real finish).
  const auto first_ts = [&](const std::string& stage) -> const RequestMark* {
    for (const RequestMark& m : marks) {
      if (m.stage == stage) return &m;
    }
    return nullptr;
  };
  const auto last_ts = [&](const std::string& stage) -> const RequestMark* {
    const RequestMark* hit = nullptr;
    for (const RequestMark& m : marks) {
      if (m.stage == stage) hit = &m;
    }
    return hit;
  };

  std::printf("request %llu: %zu event(s)\n\n",
              static_cast<unsigned long long>(want_id), marks.size());
  std::printf("  %12s  %12s  %-10s  %s\n", "t (us)", "+delta (us)", "stage",
              "detail");
  double prev = marks.front().ts_us;
  for (const RequestMark& m : marks) {
    std::string detail;
    if (m.stage == "sealed") {
      detail = "batch size " + std::to_string(m.arg);
    } else if (m.stage == "formed") {
      detail = "padded rows " + std::to_string(m.arg);
    } else if (m.stage == "retry") {
      detail = "attempt " + std::to_string(m.arg);
    } else if (m.stage == "bisect") {
      detail = "depth " + std::to_string(m.arg);
    } else if (m.stage == "queued") {
      detail = "class " + std::to_string(m.arg);
    } else if (m.stage == "responded") {
      detail = std::string("status ") + status(m);
    } else if (m.stage == "exec_end") {
      detail = m.arg != 0 ? "failed" : "ok";
    }
    std::printf("  %12.1f  %12.1f  %-10s  %s\n", m.ts_us, m.ts_us - prev,
                m.stage.c_str(), detail.c_str());
    prev = m.ts_us;
  }

  const RequestMark* submitted = first_ts("submitted");
  const RequestMark* queued = first_ts("queued");
  const RequestMark* sealed = first_ts("sealed");
  const RequestMark* formed = first_ts("formed");
  const RequestMark* exec_begin = first_ts("exec_begin");
  const RequestMark* exec_end = last_ts("exec_end");
  const RequestMark* responded = last_ts("responded");
  std::printf("\nsummary:\n");
  if (queued != nullptr && sealed != nullptr) {
    std::printf("  queue wait   %10.1f us\n", sealed->ts_us - queued->ts_us);
  }
  if (sealed != nullptr && formed != nullptr) {
    std::printf("  batch form   %10.1f us\n", formed->ts_us - sealed->ts_us);
  }
  if (exec_begin != nullptr && exec_end != nullptr) {
    std::printf("  execute      %10.1f us\n",
                exec_end->ts_us - exec_begin->ts_us);
  }
  if (submitted != nullptr && responded != nullptr) {
    std::printf("  total        %10.1f us  (%s)\n",
                responded->ts_us - submitted->ts_us,
                status(*responded));
  } else if (responded == nullptr) {
    std::printf("  (no responded marker — request still in flight when the "
                "trace was written?)\n");
  }
  return 0;
}

/// One node of the top-down flame tree built from folded stacks.
struct FlameNode {
  std::uint64_t total = 0;  // samples in this frame or below
  std::uint64_t self = 0;   // samples with this frame as the leaf
  std::map<std::string, std::unique_ptr<FlameNode>> children;
};

/// Parses collapsed-flamegraph text ("a;b;c count" lines) into (stack,
/// count) rows. Malformed lines are skipped.
std::vector<std::pair<std::vector<std::string>, std::uint64_t>> parse_folded(
    const std::string& text) {
  std::vector<std::pair<std::vector<std::string>, std::uint64_t>> rows;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    const std::string count_str = line.substr(space + 1);
    char* end = nullptr;
    const std::uint64_t count = std::strtoull(count_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || count == 0) continue;
    std::vector<std::string> frames;
    std::size_t pos = 0;
    const std::string stack = line.substr(0, space);
    while (pos <= stack.size()) {
      std::size_t semi = stack.find(';', pos);
      if (semi == std::string::npos) semi = stack.size();
      if (semi > pos) frames.push_back(stack.substr(pos, semi - pos));
      pos = semi + 1;
    }
    if (!frames.empty()) rows.emplace_back(std::move(frames), count);
  }
  return rows;
}

void print_flame(const FlameNode& node, const std::string& name, int depth,
                 std::uint64_t root_total, double min_percent) {
  const double percent =
      root_total != 0
          ? 100.0 * static_cast<double>(node.total) / static_cast<double>(root_total)
          : 0.0;
  if (percent < min_percent) return;
  if (depth >= 0) {
    std::printf("  %6.2f%%  %10llu  %*s%s", percent,
                static_cast<unsigned long long>(node.total), 2 * depth, "",
                name.c_str());
    if (node.self != 0 && !node.children.empty()) {
      std::printf("  (self %llu)",
                  static_cast<unsigned long long>(node.self));
    }
    std::printf("\n");
  }
  // Hottest subtree first.
  std::vector<const std::pair<const std::string,
                              std::unique_ptr<FlameNode>>*> kids;
  for (const auto& kv : node.children) kids.push_back(&kv);
  std::stable_sort(kids.begin(), kids.end(), [](const auto* a, const auto* b) {
    return a->second->total > b->second->total;
  });
  for (const auto* kv : kids) {
    print_flame(*kv->second, kv->first, depth + 1, root_total, min_percent);
  }
}

int cmd_flame(int argc, const char* const* argv) {
  bpar::util::ArgParser args("bpar_prof flame",
                             "Render a top-down hot-path tree from folded "
                             "stacks (file or live /profilez)");
  args.add_string("host", "", "fetch live from this stats host");
  args.add_int("port", 0, "stats port for --host");
  args.add_int("seconds", 2, "live capture window (--host mode)");
  args.add_string("out", "", "re-emit the folded text to this path");
  args.add_double("min-percent", 0.0,
                  "hide tree rows below this share of samples");
  if (!args.parse(argc, argv)) return 2;

  std::string folded;
  std::string source;
  if (!args.get_string("host").empty()) {
    if (args.get_int("port") <= 0) {
      std::cerr << "bpar_prof flame: --host requires --port\n";
      return 2;
    }
    const std::string path =
        "/profilez?seconds=" + std::to_string(args.get_int("seconds"));
    const auto reply = bpar::obs::http_get(
        args.get_string("host"),
        static_cast<std::uint16_t>(args.get_int("port")), path);
    if (!reply.ok || reply.status != 200) {
      std::cerr << "bpar_prof flame: GET " << path << " failed: "
                << (reply.ok ? "HTTP " + std::to_string(reply.status)
                             : reply.error)
                << "\n";
      return 1;
    }
    folded = reply.body;
    source = args.get_string("host") + path;
  } else if (args.positional().size() == 1) {
    std::ifstream is(args.positional()[0]);
    if (!is.good()) {
      std::cerr << "bpar_prof flame: cannot open " << args.positional()[0]
                << "\n";
      return 1;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    folded = ss.str();
    source = args.positional()[0];
  } else {
    std::cerr << "usage: bpar_prof flame <profile.folded> [--out <path>]\n"
                 "       bpar_prof flame --host <h> --port <p> "
                 "[--seconds N] [--out <path>]\n";
    return 2;
  }

  const auto rows = parse_folded(folded);
  if (rows.empty()) {
    std::cerr << "bpar_prof flame: no folded stacks in " << source
              << " (profiler not running, or nothing instrumented ran in "
                 "the window)\n";
    return 1;
  }

  FlameNode root;
  for (const auto& [frames, count] : rows) {
    root.total += count;
    FlameNode* node = &root;
    for (const std::string& frame : frames) {
      auto& child = node->children[frame];
      if (child == nullptr) child = std::make_unique<FlameNode>();
      child->total += count;
      node = child.get();
    }
    node->self += count;
  }

  std::printf("%llu sample(s), %zu unique stack(s) from %s\n\n",
              static_cast<unsigned long long>(root.total), rows.size(),
              source.c_str());
  std::printf("  %7s  %10s  %s\n", "share", "samples", "span path");
  print_flame(root, "", -1, root.total, args.get_double("min-percent"));

  if (!args.get_string("out").empty()) {
    std::ofstream os = bpar::obs::open_output_file(args.get_string("out"));
    os << folded;
    std::cout << "\nwrote folded stacks to " << args.get_string("out")
              << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: bpar_prof <analyze|diff|baseline|request|flame> "
                 "[args...]\n"
                 "run 'bpar_prof <command> --help' for details\n";
    return 2;
  }
  const std::string command = argv[1];
  try {
    if (command == "analyze") return cmd_analyze(argc - 1, argv + 1);
    if (command == "diff") return cmd_diff(argc - 1, argv + 1);
    if (command == "baseline") return cmd_baseline(argc - 1, argv + 1);
    if (command == "request") return cmd_request(argc - 1, argv + 1);
    if (command == "flame") return cmd_flame(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::cerr << "bpar_prof " << command << ": " << e.what() << "\n";
    return 2;
  }
  std::cerr << "bpar_prof: unknown command '" << command
            << "' (expected analyze, diff, baseline, request, or flame)\n";
  return 2;
}
