#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "graph/passes/registry.hpp"

#include "obs/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "rnn/flops.hpp"
#include "taskrt/export.hpp"
#include "taskrt/task_graph.hpp"

namespace bench {
namespace {

// Last simulated B-Par schedule, kept when analysis capture is armed so
// emit_csv can write an analyzable trace and report section for it.
bool g_capture_analysis = false;
std::optional<bpar::obs::analysis::TraceModel> g_last_model;
std::uint64_t g_last_model_cp_ns = 0;
std::string g_last_pass_signature;

}  // namespace

bool analysis_capture_enabled() { return g_capture_analysis; }

using bpar::exec::FrameworkProfile;
using bpar::graph::BuildOptions;
using bpar::graph::TrainingProgram;
using bpar::rnn::NetworkConfig;
using bpar::sim::Calibration;
using bpar::sim::SimOptions;
using bpar::sim::SimResult;
using bpar::sim::Simulator;

Calibration paper_core_calibration() {
  // One Xeon 8160 core at 2.1 GHz with AVX-512 MKL sustains ~40 Gflop/s on
  // the gate-GEMM sizes involved; per-core stream bandwidth ~12 GB/s.
  return {.gflops = 40.0, .mem_gbps = 12.0, .fixed_ns = 300.0};
}

void add_common_flags(bpar::util::ArgParser& args) {
  args.add_flag("host-calibration",
                "use this machine's measured kernel rates instead of the "
                "Xeon-8160 paper calibration");
  args.add_flag("full", "run the full (slow) configuration sweep");
  args.add_string("csv-dir", "bench_results", "directory for CSV output");
  args.add_string("passes", "",
                  "graph-optimizer pass spec for B-Par graphs (\"default\", "
                  "\"none\", \"list\", or e.g. \"gate_fusion,coarsen:1200\"; "
                  "empty = off)");
  bpar::obs::add_cli_flags(args);  // --trace / --metrics
}

Calibration resolve_calibration(const bpar::util::ArgParser& args) {
  // Every bench resolves its calibration before running the workload, so
  // this is the one shared hook where --trace can arm span recording.
  if (!args.get_string("trace").empty()) {
    bpar::obs::set_tracing_enabled(true);
    bpar::obs::set_thread_name("main");
  }
  g_capture_analysis = !args.get_string("trace").empty() ||
                       !args.get_string("metrics").empty();
  return args.flag("host-calibration") ? bpar::sim::calibrate()
                                       : paper_core_calibration();
}

std::string resolve_passes(const bpar::util::ArgParser& args) {
  const std::string spec = args.get_string("passes");
  if (spec == "list") {
    std::printf("registered graph passes:\n");
    for (const std::string& name : bpar::graph::passes::known_passes()) {
      std::printf("  %s\n", name.c_str());
    }
    std::printf("default pipeline: %s\n",
                std::string(bpar::graph::passes::kDefaultPassSpec).c_str());
    std::exit(0);
  }
  if (spec.empty()) return "";
  return bpar::graph::passes::effective_pass_spec(spec);
}

double simulate_bpar(bpar::rnn::Network& net, const SimSetup& setup,
                     int replicas, SimResult* result,
                     const std::string& schedule_profile,
                     const std::string& passes) {
  BuildOptions bo;
  bo.num_replicas = std::min(replicas, net.config().batch_size);
  bo.training = setup.training;
  bo.executable = false;
  bo.schedule_profile = schedule_profile;
  bo.passes = passes;
  TrainingProgram program(net, net.config().batch_size, bo);
  const auto costs =
      bpar::sim::modeled_costs(program.graph(), setup.calibration);
  Simulator simulator(SimOptions{.policy = setup.policy,
                                 .cores = setup.cores,
                                 .record_trace = g_capture_analysis});
  SimResult r = simulator.run(program.graph(), costs);
  if (g_capture_analysis && !r.trace.empty()) {
    g_last_model = bpar::taskrt::make_trace_model(
        program.graph(), std::span<const bpar::taskrt::TaskTrace>(r.trace),
        setup.cores);
    g_last_model_cp_ns = program.graph().critical_path_cost(costs);
    g_last_pass_signature = program.pass_signature();
  }
  if (result != nullptr) *result = r;
  return r.makespan_ms;
}

double simulate_framework(bpar::rnn::Network& net, const SimSetup& setup,
                          const FrameworkProfile& profile) {
  const BuildOptions bo = bpar::exec::baseline_build_options(
      profile, setup.cores, net.config().batch_size, setup.training);
  TrainingProgram program(net, net.config().batch_size, bo);
  const auto costs =
      bpar::exec::profile_costs(program.graph(), setup.calibration, profile);
  Simulator simulator(
      SimOptions{.policy = bpar::taskrt::SchedulerPolicy::kFifo,
                 .cores = setup.cores});
  return simulator.run(program.graph(), costs).makespan_ms;
}

double best_over_cores(const std::vector<int>& cores_list,
                       const std::function<double(int)>& run) {
  double best = 1e300;
  for (const int cores : cores_list) best = std::min(best, run(cores));
  return best;
}

NetworkConfig table_network(bpar::rnn::CellType cell, int input, int hidden,
                            int batch, int seq, int layers,
                            bool many_to_many) {
  NetworkConfig cfg;
  cfg.cell = cell;
  cfg.merge = bpar::rnn::MergeOp::kSum;  // H-wide: matches paper params
  cfg.input_size = input;
  cfg.hidden_size = hidden;
  cfg.num_layers = layers;
  cfg.seq_length = seq;
  cfg.batch_size = batch;
  cfg.num_classes = 11;
  cfg.many_to_many = many_to_many;
  return cfg;
}

std::string gpu_cell(const bpar::perf::GpuModelParams& params,
                     const NetworkConfig& cfg) {
  const bpar::perf::GpuWorkload w{
      .gates = bpar::rnn::gate_count(cfg.cell),
      .input_size = cfg.input_size,
      .hidden_size = cfg.hidden_size,
      .batch_size = cfg.batch_size,
      .seq_length = cfg.seq_length,
      .layers = cfg.num_layers,
      .training = true};
  const auto t = bpar::perf::gpu_batch_time_ms(params, w);
  return t.has_value() ? bpar::util::fmt_ms(*t) : "-";
}

void emit_csv(const bpar::util::ArgParser& args, const bpar::util::Table& t,
              const std::string& name) {
  t.write_csv(args.get_string("csv-dir") + "/" + name + ".csv");

  // Telemetry side channel: each emitted table also lands in the bench's
  // RunReport. The report (and the trace, when armed) is rewritten after
  // every table so a bench that emits several stays complete even if a
  // later stage dies.
  static bpar::obs::RunReport report;
  if (report.binary.empty()) {
    report.binary = args.program();
    report.params = args.values();
  }
  report.add_table(name, t.header(), t.data());
  if (g_last_model.has_value()) {
    bpar::obs::analysis::Analysis analysis =
        bpar::obs::analysis::analyze(*g_last_model, g_last_model_cp_ns);
    analysis.pass_signature = g_last_pass_signature;
    report.analysis_json = bpar::obs::analysis::to_json(analysis);
  }
  if (const std::string& metrics_path = args.get_string("metrics");
      !metrics_path.empty()) {
    report.write_json_file(metrics_path,
                           bpar::obs::Registry::instance().snapshot());
  }
  if (const std::string& trace_path = args.get_string("trace");
      !trace_path.empty()) {
    if (g_last_model.has_value()) {
      // Analyzable trace: the last simulated B-Par schedule (task slices
      // with {task, deps, worker} args on pid 1) plus the live obs spans
      // (pid 2; the two timebases are unrelated, so separate rows).
      std::ofstream os = bpar::obs::open_output_file(trace_path);
      bpar::obs::ChromeTraceWriter writer(os);
      bpar::obs::analysis::write_model_events(writer, *g_last_model,
                                              /*pid=*/1);
      const std::vector<bpar::obs::ThreadTrace> threads =
          bpar::obs::collect();
      const std::uint64_t base = bpar::obs::earliest_ts(threads);
      for (const bpar::obs::ThreadTrace& thread : threads) {
        const int tid = 200 + thread.ring_id;
        std::string label = thread.name.empty()
                                ? "thread " + std::to_string(thread.ring_id)
                                : thread.name;
        // "(obs)", not "(spans)": these rows are wall-clock spans from this
        // process, not the simulated workers — the trace parser must not
        // mistake them for the model's park/fault rows.
        writer.thread_name(2, tid, label + " (obs)");
        bpar::obs::write_thread_events(writer, thread, 2, tid, base);
      }
    } else {
      bpar::obs::write_trace_json_file(trace_path);
    }
  }
}

}  // namespace bench
