// The four bpar_bench workloads. Each runs in one child process: timed
// set-ups, a warm-up phase, a measured phase, and a check of every output
// against the SequentialExecutor reference on identical weights and inputs.
//
// Only public entry points are timed: BParExecutor::train_batch / infer /
// train_program / infer_program, Optimizer::step, InferenceEngine::submit /
// warmup. Bench-side BPAR_SPANs wrap the same calls so a traced run shows
// them on the unified timeline.
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "exec/bpar_executor.hpp"
#include "exec/sequential.hpp"
#include "graph/passes/registry.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "sim/cost_model.hpp"
#include "taskrt/export.hpp"
#include "train/optimizer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bench_e2e {
namespace {

using bpar::exec::BParExecutor;
using bpar::exec::BParOptions;
using bpar::exec::SequentialExecutor;
using bpar::rnn::BatchData;
using bpar::rnn::CellType;
using bpar::rnn::MergeOp;
using bpar::rnn::Network;
using bpar::rnn::NetworkConfig;
using bpar::serve::InferenceEngine;
using bpar::serve::Request;
using bpar::serve::Response;
using bpar::serve::Status;

// Training uses every core: its tasks are GEMM-bound and 3 workers run a
// step about 35% slower than 4. A batch-1 call has about two ready tasks at
// a time (one per direction); with 4 workers plus the waiting caller on 4
// vCPUs its p50 was 1.95 ms with a 10% spread over 10 runs, with 2 workers
// 1.22 ms and 5%.
constexpr int kTrainWorkers = 4;
constexpr int kInferWorkers = 2;
// Model weights come from NetworkConfig::seed and never change with
// --seed: the benchmark seed drives only inputs, labels and arrival times.
constexpr std::uint64_t kWeightSeed = 1234;
// Tolerances pinned by tests/test_executors.cpp and tests/test_serve.cpp.
constexpr double kLossRelTol = 1e-4;
constexpr double kLossAbsTol = 1e-6;
constexpr float kGradTol = 2e-4F;
constexpr double kServeLossTol = 1e-5;

std::string jnum(double v) { return bpar::obs::json_number(v); }

BParOptions bpar_options(int workers, int replicas, bool traced) {
  BParOptions o;
  o.common.num_workers = workers;
  o.common.num_replicas = replicas;
  o.passes = std::string(bpar::graph::passes::kDefaultPassSpec);
  o.record_trace = traced;
  return o;
}

/// Peak resident set of this process image. VmHWM rather than ru_maxrss:
/// Linux carries ru_maxrss across execve, so a spawned child would report
/// its parent's peak.
double rss_peak_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  BPAR_RAISE(bpar::util::Error, "no VmHWM in /proc/self/status");
}

bool loss_matches(double got, double want) {
  return std::abs(got - want) <= kLossRelTol * std::abs(want) + kLossAbsTol;
}

/// Closed-loop driver: calls `op(i)` (which returns its own latency in ms)
/// until `seconds` have elapsed and at least `min_ops` calls were made.
template <class Op>
std::vector<double> closed_loop(double seconds, int min_ops, Op&& op) {
  std::vector<double> ms;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < min_ops || seconds_since(start) < seconds; ++i) {
    ms.push_back(op(i));
  }
  return ms;
}

/// Warm-up length before a measured phase: a tenth of it, at least 0.2 s.
double warmup_seconds(double measured) {
  return std::max(0.2, 0.1 * measured);
}

std::string output_path(const ChildOptions& options,
                        const std::string& workload) {
  std::filesystem::create_directories(options.out_dir);
  return (std::filesystem::path(options.out_dir) / (workload + ".trace.json"))
      .string();
}

/// Same-run host peaks: the best of three sim::calibrate() passes, since a
/// single pass on a shared host can read far below what the core sustains.
void add_host_metrics(std::map<std::string, double>& out) {
  double gflops = 0.0;
  double gbps = 0.0;
  for (int i = 0; i < 3; ++i) {
    const bpar::sim::Calibration cal = bpar::sim::calibrate();
    gflops = std::max(gflops, cal.gflops);
    gbps = std::max(gbps, cal.mem_gbps);
  }
  out["host.gemm_gflops"] = gflops;
  out["host.stream_gbps"] = gbps;
}

void add_graph_metrics(const bpar::graph::TrainingProgram& program,
                       std::map<std::string, double>& out) {
  const auto& graph = program.graph();
  out["graph.tasks"] = static_cast<double>(graph.size());
  out["graph.edges"] = static_cast<double>(graph.edge_count());
  out["graph.gemm_launches"] = static_cast<double>(program.gemm_launches());
  out["graph.critical_path_tasks"] =
      static_cast<double>(graph.critical_path_length());
}

/// Per-class busy sums must equal the runtime's own busy accounting.
bool busy_sums_match(const bpar::taskrt::RunStats& stats) {
  std::uint64_t sum = 0;
  for (const std::uint64_t d : stats.task_duration_ns) sum += d;
  const auto total = static_cast<double>(stats.total_busy_ns());
  return total == 0.0 ||
         std::abs(static_cast<double>(sum) - total) <= 0.01 * total;
}

/// Traced-phase bookkeeping of the closed-loop workloads. Odd calls are
/// analysed after they finish, with the obs rings cleared before them so
/// the trace model holds exactly that call; even calls follow an analysis
/// pause, so only odd calls are timed for obs.trace_overhead_frac.
struct CallAnalyzer {
  explicit CallAnalyzer(LayerStats* stats) : layers(stats) {}

  LayerStats* layers;  // null in an untraced phase
  bpar::taskrt::RunStats last;
  std::uint64_t errors = 0;  // busy-accounting disagreements

  /// Whether call `i` is analysed (and timed for the overhead ratio).
  bool begin(int i) {
    const bool analyse = layers != nullptr && i % 2 == 1;
    if (analyse) bpar::obs::clear();
    return analyse;
  }
  void end(const bpar::graph::TrainingProgram& program,
           bpar::taskrt::RunStats stats) {
    layers->add(program.graph(),
                bpar::taskrt::make_trace_model(program.graph(), stats));
    if (!busy_sums_match(stats)) ++errors;
    last = std::move(stats);
  }
  /// Writes the last analysed call's unified trace and re-reads it the way
  /// `bpar_prof analyze` does, so a trace that tool rejects fails here.
  void write_trace(const bpar::graph::TrainingProgram& program,
                   const std::string& path) const {
    if (layers == nullptr) return;
    bpar::taskrt::write_unified_trace_file(program.graph(), last, path);
    (void)bpar::obs::analysis::analyze(load_trace_model(path));
  }
};

// ---------------------------------------------------------------- training

struct TrainShape {
  NetworkConfig cfg;
  int replicas = 1;
  bool one_hot = false;  // next-char inputs (Fig 8) instead of dense frames
};

TrainShape train_shape(const std::string& name) {
  TrainShape s;
  NetworkConfig& c = s.cfg;
  c.seed = kWeightSeed;
  if (name == "train-blstm") {
    c.cell = CellType::kLstm;
    c.input_size = 64;
    c.hidden_size = 128;
    c.num_layers = 4;
    c.seq_length = 50;
    c.batch_size = 64;
    c.num_classes = 11;
    s.replicas = 4;
  } else {  // train-bgru-m2m
    c.cell = CellType::kGru;
    c.merge = MergeOp::kSum;
    c.input_size = 64;
    c.hidden_size = 32;
    c.num_layers = 3;
    c.seq_length = 100;
    c.batch_size = 16;
    c.num_classes = 64;
    c.many_to_many = true;
    s.replicas = 2;
    s.one_hot = true;
  }
  return s;
}

std::vector<BatchData> make_train_batches(const TrainShape& shape,
                                          std::uint64_t seed, int count) {
  const NetworkConfig& cfg = shape.cfg;
  bpar::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  std::vector<BatchData> batches(static_cast<std::size_t>(count));
  for (BatchData& b : batches) {
    b.x.resize(static_cast<std::size_t>(cfg.seq_length));
    for (auto& m : b.x) m.resize(cfg.batch_size, cfg.input_size);
    if (shape.one_hot) {
      // Random text: char t of row r is the input, char t+1 the label.
      b.labels.resize(static_cast<std::size_t>(cfg.seq_length) *
                      static_cast<std::size_t>(cfg.batch_size));
      for (int r = 0; r < cfg.batch_size; ++r) {
        int c = static_cast<int>(rng.uniform_index(
            static_cast<std::uint64_t>(cfg.input_size)));
        for (int t = 0; t < cfg.seq_length; ++t) {
          b.x[static_cast<std::size_t>(t)].at(r, c) = 1.0F;
          c = static_cast<int>(rng.uniform_index(
              static_cast<std::uint64_t>(cfg.input_size)));
          b.labels[static_cast<std::size_t>(t * cfg.batch_size + r)] = c;
        }
      }
    } else {
      for (auto& m : b.x) {
        bpar::tensor::fill_uniform(m.view(), rng, -1.0F, 1.0F);
      }
      b.labels.resize(static_cast<std::size_t>(cfg.batch_size));
      for (int& l : b.labels) {
        l = static_cast<int>(rng.uniform_index(
            static_cast<std::uint64_t>(cfg.num_classes)));
      }
    }
  }
  return batches;
}

struct TrainInstance {
  std::unique_ptr<Network> net;
  std::unique_ptr<BParExecutor> exec;
  std::unique_ptr<bpar::train::Adam> opt;
  double build_ms = 0.0;
  double setup_s = 0.0;
  double step0_loss = 0.0;
};

/// Construction + program build + one warm step (train_batch + Adam::step),
/// exactly what a Model::train_batch user pays before steady state.
TrainInstance setup_train(const TrainShape& shape, const BatchData& first,
                          bool traced) {
  BPAR_SPAN("bench.setup");
  TrainInstance inst;
  const Clock::time_point t0 = Clock::now();
  inst.net = std::make_unique<Network>(shape.cfg);
  inst.exec = std::make_unique<BParExecutor>(
      *inst.net, bpar_options(kTrainWorkers, shape.replicas, traced));
  inst.opt = std::make_unique<bpar::train::Adam>(bpar::train::Adam::Config{});
  const Clock::time_point tb = Clock::now();
  {
    BPAR_SPAN("bench.train_program");
    (void)inst.exec->train_program();
  }
  inst.build_ms = ms_between(tb, Clock::now());
  {
    BPAR_SPAN("bench.train_batch");
    inst.step0_loss = inst.exec->train_batch(first).loss;
  }
  {
    BPAR_SPAN("bench.optimizer_step");
    inst.opt->step(*inst.net, inst.exec->grads());
  }
  inst.setup_s = seconds_since(t0);
  return inst;
}

bool grads_match(bpar::rnn::NetworkGrads& a, bpar::rnn::NetworkGrads& b) {
  const auto close = [](const bpar::tensor::Matrix& x,
                        const bpar::tensor::Matrix& y) {
    return bpar::tensor::allclose(x.cview(), y.cview(), kGradTol, kGradTol);
  };
  for (int dir = 0; dir < 2; ++dir) {
    for (std::size_t l = 0; l < a.layers[dir].size(); ++l) {
      if (!close(a.layers[dir][l].dw, b.layers[dir][l].dw) ||
          !close(a.layers[dir][l].db, b.layers[dir][l].db)) {
        return false;
      }
    }
  }
  return close(a.dw_out, b.dw_out) && close(a.db_out, b.db_out);
}

struct TrainPhase {
  std::vector<double> step_ms;      // train_batch + Adam::step
  std::vector<double> optimizer_ms;
  std::vector<double> exec_ms;      // StepResult::wall_ms
  std::vector<double> overhead_ms;  // traced phase: calls timed cleanly
  std::uint64_t errors = 0;         // non-finite losses, busy accounting
};

TrainPhase train_phase(TrainInstance& inst,
                       const std::vector<BatchData>& batches, double seconds,
                       LayerStats* layers, const std::string& trace_path) {
  TrainPhase phase;
  CallAnalyzer analyzer(layers);
  const auto step = [&](int i) {
    const bool analyse = analyzer.begin(i);
    const BatchData& batch =
        batches[static_cast<std::size_t>(i + 1) % batches.size()];
    const Clock::time_point t0 = Clock::now();
    bpar::exec::StepResult r;
    {
      BPAR_SPAN("bench.train_batch");
      r = inst.exec->train_batch(batch);
    }
    const Clock::time_point t1 = Clock::now();
    {
      BPAR_SPAN("bench.optimizer_step");
      inst.opt->step(*inst.net, inst.exec->grads());
    }
    const Clock::time_point t2 = Clock::now();
    if (!std::isfinite(r.loss)) ++phase.errors;
    phase.optimizer_ms.push_back(ms_between(t1, t2));
    phase.exec_ms.push_back(r.wall_ms);
    if (analyse) {
      phase.overhead_ms.push_back(ms_between(t0, t2));
      analyzer.end(inst.exec->train_program(), std::move(r.stats));
    }
    return ms_between(t0, t2);
  };
  phase.step_ms = closed_loop(seconds, layers != nullptr ? 4 : 2, step);
  analyzer.write_trace(inst.exec->train_program(), trace_path);
  phase.errors += analyzer.errors;
  return phase;
}

ChildResult run_train(const std::string& workload,
                      const ChildOptions& options) {
  const TrainShape shape = train_shape(workload);
  const std::vector<BatchData> batches =
      make_train_batches(shape, options.seed, 4);
  ChildResult result;
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  TrainInstance inst;
  for (int s = 0; s < timed_setups(options); ++s) {
    inst = TrainInstance{};  // release the previous instance first
    inst = setup_train(shape, batches[0], false);
    setup_s.push_back(inst.setup_s);
    build_ms.push_back(inst.build_ms);
  }
  // Step-0 gradients of the measured instance, checked after the phase so
  // the reference's memory stays out of rss_peak_mb.
  bpar::rnn::NetworkGrads step0_grads = inst.exec->grads();
  const double step0_loss = inst.step0_loss;
  const std::string signature = inst.exec->train_program().pass_signature();

  // A traced child splits its time: untraced half, then traced half.
  const double measured =
      options.traced ? options.seconds / 2 : options.seconds;
  (void)train_phase(inst, batches, warmup_seconds(measured), nullptr, "");
  const TrainPhase phase = train_phase(inst, batches, measured, nullptr, "");
  const double rss_mb = rss_peak_mb();
  inst = TrainInstance{};
  result.attempted = phase.step_ms.size();
  result.failed = phase.errors;

  std::map<std::string, double>& m = result.metrics;
  std::string layers_json = "{}";
  if (options.traced) {
    LayerStats layers;
    bpar::obs::set_tracing_enabled(true);
    TrainInstance tinst = setup_train(shape, batches[0], true);
    const RuntimeCounters before = RuntimeCounters::read();
    const TrainPhase tphase = train_phase(tinst, batches, measured, &layers,
                                          output_path(options, workload));
    (RuntimeCounters::read() - before).emit(m);
    bpar::obs::set_tracing_enabled(false);
    add_host_metrics(m);
    layers.emit(m.at("host.gemm_gflops"), m);
    add_graph_metrics(tinst.exec->train_program(), m);
    m["graph.build_ms"] = tinst.build_ms;
    m["exec.call_ms.p50"] = median(tphase.exec_ms);
    m["exec.programs"] = static_cast<double>(tinst.exec->cached_programs(true));
    m["obs.trace_overhead_frac"] =
        median(tphase.overhead_ms) / median(phase.step_ms) - 1.0;
    result.failed += tphase.errors;
    layers_json = layers.table_json();
  } else {
    EndToEnd& e = result.e2e;
    e.latency_ms = phase.step_ms;
    e.setup_s = setup_s;
    e.units = static_cast<double>(shape.cfg.batch_size) *
              static_cast<double>(phase.step_ms.size());
    for (const double ms : phase.step_ms) e.seconds += ms / 1e3;
    e.rss_peak_mb = rss_mb;
  }

  // Reference: the sequential executor on the same initial weights and the
  // same first batch must reproduce step 0's loss and gradients.
  Network ref_net(shape.cfg);
  SequentialExecutor ref(ref_net);
  std::vector<double> ref_ms;
  const double ref_budget_s = options.traced ? 1.0 : 0.0;
  const Clock::time_point ref_start = Clock::now();
  for (int i = 0; i == 0 || (i < 3 && seconds_since(ref_start) < ref_budget_s);
       ++i) {
    const Clock::time_point t0 = Clock::now();
    const double loss = ref.train_batch(batches[0]).loss;
    ref_ms.push_back(ms_between(t0, Clock::now()));
    if (i == 0 && (!loss_matches(step0_loss, loss) ||
                   !grads_match(step0_grads, ref.grads()))) {
      result.mismatches += 1;
      result.failed += 1;
    }
  }
  if (options.traced) m["ref.sequential_ms.p50"] = median(ref_ms);

  std::ostringstream detail;
  detail << "{\"pass_signature\": " << bpar::obs::json_quote(signature)
         << ", \"steps\": " << phase.step_ms.size()
         << ", \"latency_ms.p90\": " << jnum(quantile(phase.step_ms, 0.9))
         << ", \"train.optimizer_ms.p50\": "
         << jnum(median(phase.optimizer_ms))
         << ", \"exec.call_ms.p50\": " << jnum(median(phase.exec_ms))
         << ", \"graph.build_ms\": " << jnum(median(build_ms))
         << ", \"ref.sequential_ms.p50\": " << jnum(median(ref_ms))
         << ", \"layers\": " << layers_json << "}";
  result.detail_json = detail.str();
  return result;
}

// -------------------------------------------------------- batch-1 inference

NetworkConfig infer_config() {
  NetworkConfig c;  // the examples/latency_inference shape
  c.cell = CellType::kLstm;
  c.input_size = 16;
  c.hidden_size = 64;
  c.num_layers = 4;
  c.seq_length = 40;
  c.batch_size = 1;
  c.num_classes = 11;
  c.seed = kWeightSeed;
  return c;
}

struct InferReference {
  std::vector<BatchData> pool;
  std::vector<std::vector<int>> predictions;
  std::vector<double> loss;
  std::vector<double> ms;  // sequential latency per request
};

InferReference make_infer_pool(const NetworkConfig& cfg, std::uint64_t seed,
                               int count) {
  InferReference ref;
  bpar::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 23);
  ref.pool.resize(static_cast<std::size_t>(count));
  for (BatchData& b : ref.pool) {
    b.x.resize(static_cast<std::size_t>(cfg.seq_length));
    for (auto& m : b.x) {
      m.resize(1, cfg.input_size);
      bpar::tensor::fill_uniform(m.view(), rng, -1.0F, 1.0F);
    }
    b.labels = {static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(cfg.num_classes)))};
  }
  Network net(cfg);
  SequentialExecutor seq(net);
  for (const BatchData& b : ref.pool) {
    const Clock::time_point t0 = Clock::now();
    bpar::exec::InferResult r = seq.infer(b);
    ref.ms.push_back(ms_between(t0, Clock::now()));
    ref.predictions.push_back(std::move(r.predictions));
    ref.loss.push_back(r.loss);
  }
  return ref;
}

struct InferInstance {
  std::unique_ptr<Network> net;
  std::unique_ptr<BParExecutor> exec;
  double build_ms = 0.0;
  double setup_s = 0.0;
};

InferInstance setup_infer(const NetworkConfig& cfg, const BatchData& first,
                          bool traced) {
  BPAR_SPAN("bench.setup");
  InferInstance inst;
  const Clock::time_point t0 = Clock::now();
  inst.net = std::make_unique<Network>(cfg);
  inst.exec = std::make_unique<BParExecutor>(
      *inst.net, bpar_options(kInferWorkers, 1, traced));
  const Clock::time_point tb = Clock::now();
  {
    BPAR_SPAN("bench.infer_program");
    (void)inst.exec->infer_program();
  }
  inst.build_ms = ms_between(tb, Clock::now());
  {
    BPAR_SPAN("bench.infer");
    (void)inst.exec->infer(first);
  }
  inst.setup_s = seconds_since(t0);
  return inst;
}

struct InferPhase {
  std::vector<double> ms;
  std::vector<double> exec_ms;
  std::vector<double> overhead_ms;
  std::uint64_t mismatches = 0;
  std::uint64_t errors = 0;  // busy accounting
};

InferPhase infer_phase(InferInstance& inst, const InferReference& ref,
                       double seconds, LayerStats* layers,
                       const std::string& trace_path) {
  InferPhase phase;
  CallAnalyzer analyzer(layers);
  const auto call = [&](int i) {
    const bool analyse = analyzer.begin(i);
    const auto k = static_cast<std::size_t>(i) % ref.pool.size();
    const Clock::time_point t0 = Clock::now();
    bpar::exec::InferResult r;
    {
      BPAR_SPAN("bench.infer");
      r = inst.exec->infer(ref.pool[k]);
    }
    const double ms = ms_between(t0, Clock::now());
    if (r.predictions != ref.predictions[k] ||
        !loss_matches(r.loss, ref.loss[k])) {
      ++phase.mismatches;
    }
    phase.exec_ms.push_back(r.wall_ms);
    if (analyse) {
      phase.overhead_ms.push_back(ms);
      analyzer.end(inst.exec->infer_program(), std::move(r.stats));
    }
    return ms;
  };
  phase.ms = closed_loop(seconds, layers != nullptr ? 4 : 2, call);
  analyzer.write_trace(inst.exec->infer_program(), trace_path);
  phase.errors = analyzer.errors;
  return phase;
}

ChildResult run_infer(const ChildOptions& options) {
  const NetworkConfig cfg = infer_config();
  const InferReference ref = make_infer_pool(cfg, options.seed, 256);
  ChildResult result;
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  InferInstance inst;
  for (int s = 0; s < timed_setups(options); ++s) {
    inst = InferInstance{};
    inst = setup_infer(cfg, ref.pool[0], false);
    setup_s.push_back(inst.setup_s);
    build_ms.push_back(inst.build_ms);
  }
  const std::string signature = inst.exec->infer_program().pass_signature();
  const double measured =
      options.traced ? options.seconds / 2 : options.seconds;
  (void)infer_phase(inst, ref, warmup_seconds(measured), nullptr, "");
  const InferPhase phase = infer_phase(inst, ref, measured, nullptr, "");
  inst = InferInstance{};
  result.attempted = phase.ms.size();
  result.mismatches = phase.mismatches;
  result.failed = phase.errors;

  std::string layers_json = "{}";
  if (options.traced) {
    LayerStats layers;
    std::map<std::string, double>& m = result.metrics;
    bpar::obs::set_tracing_enabled(true);
    InferInstance tinst = setup_infer(cfg, ref.pool[0], true);
    const RuntimeCounters before = RuntimeCounters::read();
    const InferPhase tphase =
        infer_phase(tinst, ref, measured, &layers,
                    output_path(options, "infer-b1"));
    (RuntimeCounters::read() - before).emit(m);
    bpar::obs::set_tracing_enabled(false);
    add_host_metrics(m);
    layers.emit(m.at("host.gemm_gflops"), m);
    add_graph_metrics(tinst.exec->infer_program(), m);
    m["graph.build_ms"] = tinst.build_ms;
    m["exec.call_ms.p50"] = median(tphase.exec_ms);
    m["exec.programs"] =
        static_cast<double>(tinst.exec->cached_programs(false));
    m["ref.sequential_ms.p50"] = median(ref.ms);
    m["obs.trace_overhead_frac"] =
        median(tphase.overhead_ms) / median(phase.ms) - 1.0;
    result.mismatches += tphase.mismatches;
    result.failed += tphase.errors;
    layers_json = layers.table_json();
  } else {
    EndToEnd& e = result.e2e;
    e.latency_ms = phase.ms;
    e.setup_s = setup_s;
    e.units = static_cast<double>(phase.ms.size());
    for (const double ms : phase.ms) e.seconds += ms / 1e3;
    e.rss_peak_mb = rss_peak_mb();
  }
  result.failed += result.mismatches;
  std::ostringstream detail;
  detail << "{\"pass_signature\": " << bpar::obs::json_quote(signature)
         << ", \"calls\": " << phase.ms.size()
         << ", \"latency_ms.p99\": " << jnum(quantile(phase.ms, 0.99))
         << ", \"exec.call_ms.p50\": " << jnum(median(phase.exec_ms))
         << ", \"graph.build_ms\": " << jnum(median(build_ms))
         << ", \"ref.sequential_ms.p50\": " << jnum(median(ref.ms))
         << ", \"layers\": " << layers_json << "}";
  result.detail_json = detail.str();
  return result;
}

// ------------------------------------------------------ open-loop serving

constexpr int kServeLengths[] = {16, 32, 64};
// Two engine workers: the dispatcher, the workers and the generator then
// fit the 4 vCPUs, with the reapers mostly blocked. With 3 workers the
// saturated throughput spread 15% over 10 runs, with 2 it spread 9%.
constexpr int kServeWorkers = 2;
// The top step must exceed capacity, about 1.5k-2.1k req/s with 2 workers
// depending on how busy the shared host is, so it measures saturated
// throughput.
constexpr double kServeRates[] = {800, 1200, 1600, 2400, 4800};
// Share of the measured time per step. The end-to-end metrics come from
// the nominal step (latency) and the top step (throughput), so those two
// get the long windows; the middle steps only place max_rate_rps.
constexpr double kServeShare[] = {0.35, 0.08, 0.08, 0.08, 0.41};
// Latency is taken at 800 req/s, well below capacity, where queueing does
// not amplify host-speed noise.
constexpr int kNominalStep = 0;
constexpr double kSloMs = 20.0;      // latency limit behind max_rate_rps
constexpr double kSloShare = 0.99;   // share of sent requests within it
constexpr double kMaxLagMs = 1.0;    // generator lag p99 that voids a step
constexpr int kPoolPerLength = 64;

NetworkConfig serve_config() {
  NetworkConfig c;
  c.cell = CellType::kLstm;
  c.input_size = 16;
  c.hidden_size = 64;
  c.num_layers = 2;
  c.seq_length = 32;
  c.batch_size = 8;
  c.num_classes = 10;
  c.seed = kWeightSeed;
  return c;
}

bpar::serve::EngineOptions engine_options(bool traced) {
  bpar::serve::EngineOptions o;  // shipped defaults, except:
  o.executor.num_workers = kServeWorkers;
  o.executor.num_replicas = kServeWorkers;
  o.passes = std::string(bpar::graph::passes::kDefaultPassSpec);
  o.record_trace = traced;
  return o;
}

struct ServeReference {
  std::vector<Request> pool;  // lengths cycle 16, 32, 64
  std::vector<int> prediction;
  std::vector<double> loss;
  std::vector<double> ms;
};

ServeReference make_serve_pool(const NetworkConfig& cfg, std::uint64_t seed) {
  ServeReference ref;
  Network weights(cfg);
  std::stringstream blob;
  weights.save(blob);
  for (int i = 0; i < kPoolPerLength * 3; ++i) {
    const int steps = kServeLengths[i % 3];
    ref.pool.push_back(bpar::serve::make_request(
        cfg, steps, seed * 1000003ULL + static_cast<std::uint64_t>(i),
        /*with_labels=*/true));
  }
  ref.prediction.resize(ref.pool.size());
  ref.loss.resize(ref.pool.size());
  ref.ms.resize(ref.pool.size());
  for (const int steps : kServeLengths) {
    NetworkConfig rcfg = cfg;
    rcfg.seq_length = steps;
    rcfg.batch_size = 1;
    Network net(rcfg);
    blob.clear();
    blob.seekg(0);
    net.load(blob);
    SequentialExecutor seq(net);
    for (std::size_t i = 0; i < ref.pool.size(); ++i) {
      const Request& req = ref.pool[i];
      if (req.steps != steps) continue;
      BatchData b;
      b.x.resize(static_cast<std::size_t>(steps));
      for (int t = 0; t < steps; ++t) {
        auto& m = b.x[static_cast<std::size_t>(t)];
        m.resize(1, cfg.input_size);
        for (int f = 0; f < cfg.input_size; ++f) {
          m.at(0, f) = req.features[static_cast<std::size_t>(
              t * cfg.input_size + f)];
        }
      }
      b.labels = req.labels;
      const Clock::time_point t0 = Clock::now();
      const bpar::exec::InferResult r = seq.infer(b);
      ref.ms[i] = ms_between(t0, Clock::now());
      ref.prediction[i] = r.predictions.at(0);
      ref.loss[i] = r.loss;
    }
  }
  return ref;
}

struct EngineInstance {
  std::unique_ptr<InferenceEngine> engine;
  double build_ms = 0.0;
  double setup_s = 0.0;
};

EngineInstance setup_engine(const NetworkConfig& cfg,
                            const ServeReference& ref, bool traced) {
  BPAR_SPAN("bench.setup");
  EngineInstance inst;
  const Clock::time_point t0 = Clock::now();
  inst.engine = std::make_unique<InferenceEngine>(cfg, engine_options(traced));
  const Clock::time_point tb = Clock::now();
  {
    BPAR_SPAN("bench.warmup");
    inst.engine->warmup(kServeLengths);
  }
  inst.build_ms = ms_between(tb, Clock::now());
  for (std::size_t i = 0; i < 3; ++i) {  // first execution of each length
    BPAR_SPAN("bench.submit");
    (void)inst.engine->submit(ref.pool[i]).get();
  }
  inst.setup_s = seconds_since(t0);
  return inst;
}

/// One scheduled request of the open loop.
struct Sent {
  Clock::time_point due;        // scheduled send time (latency origin)
  Clock::time_point submitted;  // when submit() was actually called
  std::future<Response> future;
  std::size_t pool_index = 0;
  int step = 0;
};

/// What the reaper saw for one request.
struct Outcome {
  Status status = Status::kOk;
  double latency_ms = 0.0;  // response seen − due
  bool matches = true;
  int batch_rows = 0;
  int real_rows = 0;
  double queue_ms = 0.0;
  double form_ms = 0.0;
  double exec_ms = 0.0;
};

struct StepStats {
  double rate = 0.0;
  double seconds = 0.0;
  std::uint64_t sent = 0, ok = 0, ok_in_slo = 0, shed = 0, rejected = 0,
                expired = 0, errors = 0;
  std::vector<double> ok_ms, lag_ms, queue_ms, form_ms, exec_ms;
  // Micro-batches of kOk answers, counted per request: a batch of n real
  // rows adds 1/n of itself through each of its n requests.
  double batches = 0.0, rows = 0.0, real_rows = 0.0;
  [[nodiscard]] double attainment() const {
    return sent == 0 ? 0.0 : static_cast<double>(ok_in_slo) /
                                 static_cast<double>(sent);
  }
  [[nodiscard]] bool valid() const {
    return quantile(lag_ms, 0.99) <= kMaxLagMs;
  }
};

/// Wrong answers and errors over every open-loop phase of a child.
struct Failures {
  std::uint64_t mismatches = 0;  // kOk answers that disagree with the reference
  std::uint64_t errors = 0;      // kFailed / kInternalError / kShutdown
};

/// Poisson arrivals at each (rate, seconds) step from one generator thread
/// (the caller). Latency runs from the *scheduled* send time, so a stalled
/// generator or engine cannot hide queueing (coordinated omission).
///
/// Responses are stamped by one reaper thread per request length, each
/// blocking on its length's futures in send order. The engine answers
/// requests of one length in the order they were sent (one dispatcher,
/// FIFO within a priority class, only same-length requests share a
/// micro-batch), so each stamp is taken when that response completes.
/// Lengths do not keep that order among themselves: a single in-order
/// reaper would stamp a short request that finished early with the
/// completion time of a slower one sent before it.
std::vector<StepStats> open_loop(
    InferenceEngine& engine, const ServeReference& ref,
    const std::vector<std::pair<double, double>>& steps, std::uint64_t seed,
    Failures& failures) {
  constexpr std::size_t kLanes = std::size(kServeLengths);
  // The default 50 us timer slack would add that much lag to every send.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  bpar::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 37);
  std::vector<std::pair<double, int>> schedule;  // (offset s, step)
  double step_start = 0.0;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const auto [rate, seconds] = steps[s];
    double t = step_start;
    for (;;) {
      t += -std::log(1.0 - rng.uniform()) / rate;
      if (t >= step_start + seconds) break;
      schedule.emplace_back(t, static_cast<int>(s));
    }
    step_start += seconds;
  }

  std::vector<Sent> sent(schedule.size());
  std::vector<Outcome> outcomes(schedule.size());
  struct Lane {
    std::vector<std::size_t> sends;  // indices into `sent`, in send order
    std::condition_variable cv;
  };
  std::array<Lane, kLanes> lanes;
  for (Lane& lane : lanes) lane.sends.reserve(schedule.size());
  std::mutex mu;        // guards every Lane::sends and `closed`
  bool closed = false;
  const auto reap = [&](Lane& lane) {
    bpar::obs::set_thread_name("bench reaper");
    for (std::size_t j = 0;; ++j) {
      std::size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        lane.cv.wait(lock, [&] { return lane.sends.size() > j || closed; });
        if (lane.sends.size() <= j) return;
        i = lane.sends[j];
      }
      const Response r = sent[i].future.get();
      Outcome& o = outcomes[i];
      o.latency_ms = ms_between(sent[i].due, Clock::now());
      o.status = r.status;
      if (r.status == Status::kOk) {
        const std::size_t k = sent[i].pool_index;
        o.matches = r.predictions.size() == 1 &&
                    r.predictions[0] == ref.prediction[k] &&
                    std::abs(r.loss - ref.loss[k]) <= kServeLossTol;
        o.batch_rows = r.batch_rows;
        o.real_rows = r.real_rows;
        o.queue_ms = r.queue_us / 1e3;
        o.form_ms = r.batch_form_us / 1e3;
        o.exec_ms = r.exec_us / 1e3;
      }
    }
  };
  struct CloseOnExit {
    std::mutex& mu;
    bool& closed;
    std::array<Lane, kLanes>& lanes;
    std::vector<std::thread>& reapers;
    ~CloseOnExit() {
      {
        std::lock_guard<std::mutex> lock(mu);
        closed = true;
      }
      for (Lane& lane : lanes) lane.cv.notify_all();
      for (std::thread& t : reapers) t.join();
    }
  };
  {
    std::vector<std::thread> reapers;
    const CloseOnExit close{mu, closed, lanes, reapers};
    for (Lane& lane : lanes) reapers.emplace_back(reap, std::ref(lane));
    const Clock::time_point origin =
        Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      Sent& s = sent[i];
      s.due = origin + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(schedule[i].first));
      s.step = schedule[i].second;
      s.pool_index = i % ref.pool.size();
      std::this_thread::sleep_until(s.due);
      Request request = ref.pool[s.pool_index];
      s.submitted = Clock::now();
      {
        BPAR_SPAN("bench.submit");
        s.future = engine.submit(std::move(request));
      }
      // The pool cycles through kServeLengths, so its index names the lane.
      Lane& lane = lanes[s.pool_index % kLanes];
      {
        std::lock_guard<std::mutex> lock(mu);
        lane.sends.push_back(i);
      }
      lane.cv.notify_one();
    }
  }

  std::vector<StepStats> stats(steps.size());
  for (std::size_t s = 0; s < steps.size(); ++s) {
    stats[s].rate = steps[s].first;
    stats[s].seconds = steps[s].second;
  }
  for (std::size_t i = 0; i < sent.size(); ++i) {
    StepStats& st = stats[static_cast<std::size_t>(sent[i].step)];
    const Outcome& o = outcomes[i];
    st.sent += 1;
    st.lag_ms.push_back(ms_between(sent[i].due, sent[i].submitted));
    switch (o.status) {
      case Status::kOk:
        if (!o.matches) {
          st.errors += 1;
          failures.mismatches += 1;
          break;
        }
        st.ok += 1;
        st.ok_ms.push_back(o.latency_ms);
        if (o.latency_ms <= kSloMs) st.ok_in_slo += 1;
        st.queue_ms.push_back(o.queue_ms);
        st.form_ms.push_back(o.form_ms);
        st.exec_ms.push_back(o.exec_ms);
        st.batches += 1.0 / o.real_rows;
        st.rows += static_cast<double>(o.batch_rows) / o.real_rows;
        st.real_rows += 1.0;
        break;
      case Status::kShed:
        st.shed += 1;
        break;
      case Status::kRejected:
        st.rejected += 1;
        break;
      case Status::kDeadlineExceeded:
        st.expired += 1;
        break;
      default:
        st.errors += 1;
        failures.errors += 1;
    }
  }
  return stats;
}

/// Highest rate at which ≥99% of sent requests were answered kOk within
/// 20 ms, interpolated between the last passing and first failing step.
double max_rate(const std::vector<StepStats>& steps) {
  double pass_rate = 0.0;
  double pass_att = 1.0;
  for (const StepStats& s : steps) {
    if (!s.valid()) continue;
    const double att = s.attainment();
    if (att >= kSloShare) {
      pass_rate = s.rate;
      pass_att = att;
      continue;
    }
    return pass_rate +
           (s.rate - pass_rate) * (pass_att - kSloShare) / (pass_att - att);
  }
  return pass_rate;
}

std::string step_json(const StepStats& s) {
  std::ostringstream os;
  os << "{\"rate\": " << jnum(s.rate) << ", \"sent\": " << s.sent
     << ", \"ok\": " << s.ok << ", \"ok_in_slo\": " << s.ok_in_slo
     << ", \"shed\": " << s.shed << ", \"rejected\": " << s.rejected
     << ", \"expired\": " << s.expired << ", \"errors\": " << s.errors
     << ", \"attainment\": " << jnum(s.attainment())
     << ", \"valid\": " << (s.valid() ? "true" : "false")
     << ", \"loadgen.lag_ms.p99\": " << jnum(quantile(s.lag_ms, 0.99))
     << ", \"latency_ms.p50\": " << jnum(quantile(s.ok_ms, 0.5))
     << ", \"latency_ms.p99\": " << jnum(quantile(s.ok_ms, 0.99))
     << ", \"serve.queue_ms.p50\": " << jnum(quantile(s.queue_ms, 0.5))
     << ", \"serve.queue_ms.p99\": " << jnum(quantile(s.queue_ms, 0.99))
     << ", \"serve.form_ms.p50\": " << jnum(quantile(s.form_ms, 0.5))
     << ", \"serve.exec_ms.p50\": " << jnum(quantile(s.exec_ms, 0.5))
     << ", \"serve.exec_ms.p99\": " << jnum(quantile(s.exec_ms, 0.99))
     << ", \"serve.batch_rows.mean\": "
     << jnum(s.batches > 0 ? s.rows / s.batches : 0.0)
     << ", \"serve.useful_row_frac\": "
     << jnum(s.rows > 0 ? s.real_rows / s.rows : 0.0) << "}";
  return os.str();
}

ChildResult run_serve(const ChildOptions& options) {
  const NetworkConfig cfg = serve_config();
  const ServeReference ref = make_serve_pool(cfg, options.seed);
  ChildResult result;
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  EngineInstance inst;
  for (int s = 0; s < timed_setups(options); ++s) {
    inst = EngineInstance{};
    inst = setup_engine(cfg, ref, false);
    setup_s.push_back(inst.setup_s);
    build_ms.push_back(inst.build_ms);
  }
  const std::string signature =
      inst.engine->executor().infer_program(32, 8).pass_signature();
  const double nominal = kServeRates[kNominalStep];
  Failures failures;
  (void)open_loop(*inst.engine, ref,
                  {{nominal, warmup_seconds(options.seconds)}},
                  options.seed + 1, failures);

  std::vector<StepStats> steps;
  std::ostringstream detail;
  detail << "{\"pass_signature\": " << bpar::obs::json_quote(signature);
  if (options.traced) {
    // Untraced then traced engine at the nominal rate; the per-layer view
    // comes from the traced engine's last micro-batch and the runtime's
    // counters over the whole traced phase.
    std::map<std::string, double>& m = result.metrics;
    const double half = options.seconds / 2;
    steps = open_loop(*inst.engine, ref, {{nominal, half}}, options.seed,
                      failures);
    inst = EngineInstance{};
    bpar::obs::set_tracing_enabled(true);
    EngineInstance tinst = setup_engine(cfg, ref, true);
    const RuntimeCounters before = RuntimeCounters::read();
    const std::vector<StepStats> traced_steps = open_loop(
        *tinst.engine, ref, {{nominal, half}}, options.seed, failures);
    (RuntimeCounters::read() - before).emit(m);
    // One last request on the idle engine: its micro-batch is the one the
    // engine keeps the trace of, with a known shape (at 800 req/s almost
    // every micro-batch is a single request like this one).
    Response probe;
    {
      BPAR_SPAN("bench.submit");
      probe = tinst.engine->submit(ref.pool[1]).get();
    }
    if (probe.status != Status::kOk ||
        probe.predictions != std::vector<int>{ref.prediction[1]}) {
      failures.mismatches += 1;
    }
    const bpar::serve::EngineStats es = tinst.engine->stats();
    tinst.engine->shutdown();
    bpar::obs::set_tracing_enabled(false);
    const std::string path = output_path(options, "serve-mixed");
    tinst.engine->write_unified_trace(path);
    const bpar::obs::analysis::TraceModel model = load_trace_model(path);
    LayerStats layers;
    auto& exec = tinst.engine->executor();
    const bpar::graph::TrainingProgram* last =
        &exec.infer_program(ref.pool[1].steps, probe.batch_rows);
    if (last->graph().size() != model.tasks.size()) {
      BPAR_RAISE(bpar::util::Error, "the trace is not of the probe batch");
    }
    layers.add(last->graph(), model);
    add_host_metrics(m);
    layers.emit(m.at("host.gemm_gflops"), m);
    add_graph_metrics(exec.infer_program(32, 8), m);
    m["graph.build_ms"] = tinst.build_ms;
    m["exec.call_ms.p50"] = quantile(traced_steps[0].exec_ms, 0.5);
    m["exec.programs"] = static_cast<double>(exec.cached_programs(false));
    m["ref.sequential_ms.p50"] = median(ref.ms);
    m["obs.trace_overhead_frac"] = quantile(traced_steps[0].ok_ms, 0.5) /
                                       quantile(steps[0].ok_ms, 0.5) -
                                   1.0;
    detail << ", \"engine\": {\"batches\": " << es.batches
           << ", \"retries\": " << es.retries << ", \"shed\": " << es.shed
           << "}, \"traced_step\": " << step_json(traced_steps[0])
           << ", \"layers\": " << layers.table_json();
  } else {
    std::vector<std::pair<double, double>> staircase;
    for (std::size_t i = 0; i < std::size(kServeRates); ++i) {
      staircase.emplace_back(kServeRates[i], options.seconds * kServeShare[i]);
    }
    steps = open_loop(*inst.engine, ref, staircase, options.seed, failures);
    const StepStats& nom = steps[kNominalStep];
    const StepStats& top = steps.back();
    EndToEnd& e = result.e2e;
    e.latency_ms = nom.ok_ms;
    e.setup_s = setup_s;
    e.units = static_cast<double>(top.ok);
    e.seconds = top.seconds;
    e.rss_peak_mb = rss_peak_mb();
    const bpar::serve::EngineStats es = inst.engine->stats();
    detail << ", \"max_rate_rps\": " << jnum(max_rate(steps))
           << ", \"saturated_rps\": "
           << jnum(static_cast<double>(top.ok) / top.seconds)
           << ", \"latency_ms.p99\": " << jnum(quantile(nom.ok_ms, 0.99))
           << ", \"graph.build_ms\": " << jnum(median(build_ms))
           << ", \"serve.retries\": " << es.retries;
  }
  std::uint64_t sent = 0;
  std::uint64_t errors = 0;
  std::uint64_t refused = 0;
  detail << ", \"steps\": [";
  for (std::size_t s = 0; s < steps.size(); ++s) {
    sent += steps[s].sent;
    errors += steps[s].errors;
    refused += steps[s].shed + steps[s].rejected + steps[s].expired;
    detail << (s == 0 ? "" : ", ") << step_json(steps[s]);
  }
  detail << "], \"fail_frac\": "
         << jnum(sent == 0 ? 0.0
                           : static_cast<double>(errors + refused) /
                                 static_cast<double>(sent))
         << "}";
  result.attempted = sent;
  // Shed / rejected requests are the engine refusing overload by design
  // (they miss the latency limit above); failures are errors and wrong
  // answers.
  result.mismatches = failures.mismatches;
  result.failed = failures.mismatches + failures.errors;
  result.detail_json = detail.str();
  return result;
}

}  // namespace

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> list = {
      {"train-blstm", 3}, {"train-bgru-m2m", 8}, {"infer-b1", 12},
      {"serve-mixed", 6}};
  return list;
}

ChildResult run_workload(const std::string& workload,
                         const ChildOptions& options) {
  bpar::obs::set_thread_name("bench");
  if (workload == "train-blstm" || workload == "train-bgru-m2m") {
    return run_train(workload, options);
  }
  if (workload == "infer-b1") return run_infer(options);
  if (workload == "serve-mixed") return run_serve(options);
  BPAR_RAISE(bpar::util::Error, "unknown workload '", workload, "'");
}

}  // namespace bench_e2e
