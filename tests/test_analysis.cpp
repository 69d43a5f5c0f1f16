// bpar_prof analysis engine tests (DESIGN.md §5e).
//
// The synthetic-DAG fixtures are exact: a four-task trace on two workers
// whose critical path, idle classification, and scorecard are computed by
// hand, so any drift in the sweep/attribution algorithms fails loudly.
// The real-runtime test is the ISSUE acceptance check: the scorecard's
// utilization must agree with the runtime's own busy/idle accounting to
// within 5%.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "exec/bpar_executor.hpp"
#include "obs/analysis.hpp"
#include "obs/diff.hpp"
#include "obs/json.hpp"
#include "obs/trace_export.hpp"
#include "perf/perf_events.hpp"
#include "taskrt/export.hpp"
#include "tensor/tensor.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bpar {
namespace {

namespace analysis = obs::analysis;

// Four tasks on two workers, hand-schedulable on paper:
//
//   worker 0: [f0.0: 0-100][f0.1: 100-250]         (idle 250-300)
//   worker 1: [r0.0: 0-80]  (idle 80-260)  [merge: 260-300]
//
// Dependencies: f0.0 -> f0.1 -> merge, r0.0 -> merge. Worker 1 carries a
// park span [100,150) and an injected-fault span [200,220).
analysis::TraceModel synthetic_model() {
  analysis::TraceModel model;
  model.num_workers = 2;
  const auto task = [](std::uint32_t id, const char* name, const char* klass,
                       int layer, int worker, std::uint64_t s,
                       std::uint64_t e, std::vector<std::uint32_t> preds) {
    analysis::TaskRecord t;
    t.id = id;
    t.name = name;
    t.klass = klass;
    t.layer = layer;
    t.step = 0;
    t.worker = worker;
    t.start_ns = s;
    t.end_ns = e;
    t.preds = std::move(preds);
    return t;
  };
  model.tasks.push_back(task(0, "f0.0", "cell_fwd", 0, 0, 0, 100, {}));
  model.tasks.push_back(task(1, "f0.1", "cell_fwd", 0, 0, 100, 250, {0}));
  model.tasks.push_back(task(2, "r0.0", "cell_fwd", 0, 1, 0, 80, {}));
  model.tasks.push_back(
      task(3, "merge_out", "merge", 1, 1, 260, 300, {1, 2}));
  model.worker_spans.push_back({/*worker=*/1, /*fault=*/false, 100, 150});
  model.worker_spans.push_back({/*worker=*/1, /*fault=*/true, 200, 220});
  model.counters["steals"] = 3.0;
  model.counters["steal_failures"] = 1.0;
  model.counters["busy_ns"] = 370.0;
  model.counters["idle_ns"] = 230.0;
  return model;
}

TEST(Analysis, SyntheticCriticalPathExact) {
  const analysis::CriticalPath cp =
      analysis::critical_path(synthetic_model());
  EXPECT_EQ(cp.measured_ns, 290U);  // f0.0 (100) + f0.1 (150) + merge (40)
  EXPECT_EQ(cp.makespan_ns, 300U);
  EXPECT_EQ(cp.length, 3U);
  ASSERT_EQ(cp.chain.size(), 3U);
  EXPECT_EQ(cp.chain[0], 0U);
  EXPECT_EQ(cp.chain[1], 1U);
  EXPECT_EQ(cp.chain[2], 3U);
  EXPECT_NEAR(cp.stretch(), 300.0 / 290.0, 1e-12);

  // Chain time per (class, layer, direction), largest first.
  ASSERT_EQ(cp.by_class.size(), 2U);
  EXPECT_EQ(cp.by_class[0].klass, "cell_fwd");
  EXPECT_EQ(cp.by_class[0].layer, 0);
  EXPECT_EQ(cp.by_class[0].direction, 'f');
  EXPECT_EQ(cp.by_class[0].total_ns, 250U);
  EXPECT_EQ(cp.by_class[0].tasks, 2U);
  EXPECT_EQ(cp.by_class[1].klass, "merge");
  EXPECT_EQ(cp.by_class[1].total_ns, 40U);
}

TEST(Analysis, SyntheticIdleAttributionExact) {
  const analysis::IdleAttribution idle =
      analysis::attribute_idle(synthetic_model());
  ASSERT_EQ(idle.per_worker.size(), 2U);

  // Worker 0 gap [250,300): merge is ready-but-not-running during
  // [250,260) (steal-failure), running elsewhere during [260,300)
  // (dependency stall).
  const analysis::IdleBreakdown& w0 = idle.per_worker[0];
  EXPECT_EQ(w0.busy_ns, 250U);
  EXPECT_EQ(w0.steal_fail_ns, 10U);
  EXPECT_EQ(w0.dep_stall_ns, 40U);
  EXPECT_EQ(w0.parked_ns, 0U);
  EXPECT_EQ(w0.fault_ns, 0U);

  // Worker 1 gap [80,260): park [100,150) and fault [200,220) take
  // precedence; of the rest, only [250,260) had ready work.
  const analysis::IdleBreakdown& w1 = idle.per_worker[1];
  EXPECT_EQ(w1.busy_ns, 120U);
  EXPECT_EQ(w1.parked_ns, 50U);
  EXPECT_EQ(w1.fault_ns, 20U);
  EXPECT_EQ(w1.steal_fail_ns, 10U);
  EXPECT_EQ(w1.dep_stall_ns, 100U);

  // Busy + idle must tile the window exactly: 2 workers x 300 ns.
  EXPECT_EQ(idle.total.busy_ns + idle.total.idle_ns(), 600U);
  EXPECT_EQ(idle.total.busy_ns, 370U);
  EXPECT_EQ(idle.total.dep_stall_ns, 140U);
  EXPECT_EQ(idle.total.steal_fail_ns, 20U);
}

TEST(Analysis, SyntheticScorecardExact) {
  const analysis::Analysis a = analysis::analyze(synthetic_model(), 280);
  const analysis::Scorecard& card = a.card;
  EXPECT_EQ(card.workers, 2);
  EXPECT_EQ(card.tasks, 4U);
  EXPECT_EQ(card.total_work_ns, 370U);
  EXPECT_EQ(card.critical_path_ns, 290U);
  EXPECT_EQ(card.model_critical_path_ns, 280U);
  EXPECT_NEAR(card.achieved_parallelism, 370.0 / 300.0, 1e-12);
  EXPECT_NEAR(card.max_parallelism, 370.0 / 290.0, 1e-12);
  EXPECT_NEAR(card.utilization, 370.0 / 600.0, 1e-12);
  EXPECT_NEAR(card.load_imbalance, 250.0 / 185.0, 1e-12);
  EXPECT_NEAR(card.steal_hit_rate, 0.75, 1e-12);
  EXPECT_NEAR(card.dep_stall_frac, 140.0 / 600.0, 1e-12);
  EXPECT_NEAR(card.steal_fail_frac, 20.0 / 600.0, 1e-12);
  EXPECT_NEAR(card.parked_frac, 50.0 / 600.0, 1e-12);
  EXPECT_NEAR(card.fault_frac, 20.0 / 600.0, 1e-12);
  // counters said busy 370 / idle 230 -> same 600-ns capacity.
  EXPECT_NEAR(card.runtime_efficiency, 370.0 / 600.0, 1e-12);
}

TEST(Analysis, DirectionNameConvention) {
  const auto dir = [](const char* name) {
    analysis::TaskRecord t;
    t.name = name;
    return t.direction();
  };
  EXPECT_EQ(dir("f0.3"), 'f');
  EXPECT_EQ(dir("bf1.2"), 'f');
  EXPECT_EQ(dir("r0.5"), 'r');
  EXPECT_EQ(dir("br2.9"), 'r');
  EXPECT_EQ(dir("m2.17"), '-');
  EXPECT_EQ(dir("final_merge"), '-');  // 'f' not followed by a digit
  EXPECT_EQ(dir("reduce"), '-');
  EXPECT_EQ(dir(""), '-');
}

TEST(Analysis, CriticalPathRejectsDanglingPredAndCycle) {
  analysis::TraceModel dangling = synthetic_model();
  dangling.tasks[3].preds = {1, 99};
  EXPECT_THROW(analysis::critical_path(dangling), util::Error);

  analysis::TraceModel cyclic = synthetic_model();
  cyclic.tasks[0].preds = {3};  // 0 -> 1 -> 3 -> 0
  EXPECT_THROW(analysis::critical_path(cyclic), util::Error);
}

TEST(Analysis, TraceJsonRoundTrip) {
  const analysis::TraceModel model = synthetic_model();
  std::ostringstream os;
  {
    obs::ChromeTraceWriter writer(os);
    analysis::write_model_events(writer, model, /*pid=*/1);
  }
  const analysis::TraceModel parsed =
      analysis::model_from_trace_json(obs::json_parse(os.str()));

  EXPECT_EQ(parsed.num_workers, model.num_workers);
  ASSERT_EQ(parsed.tasks.size(), model.tasks.size());
  ASSERT_EQ(parsed.worker_spans.size(), model.worker_spans.size());

  // The parsed model must reproduce the analysis exactly (the writer's
  // ns -> us conversion must be lossless at ns granularity).
  const analysis::Analysis a = analysis::analyze(model);
  const analysis::Analysis b = analysis::analyze(parsed);
  EXPECT_EQ(b.cp.measured_ns, a.cp.measured_ns);
  EXPECT_EQ(b.cp.chain, a.cp.chain);
  EXPECT_EQ(b.idle.total.dep_stall_ns, a.idle.total.dep_stall_ns);
  EXPECT_EQ(b.idle.total.steal_fail_ns, a.idle.total.steal_fail_ns);
  EXPECT_EQ(b.idle.total.parked_ns, a.idle.total.parked_ns);
  EXPECT_EQ(b.idle.total.fault_ns, a.idle.total.fault_ns);
  EXPECT_EQ(b.card.total_work_ns, a.card.total_work_ns);
}

TEST(Analysis, AnalysisJsonFlattens) {
  const analysis::Analysis a = analysis::analyze(synthetic_model(), 280);
  const obs::diff::MetricMap metrics =
      obs::diff::flatten(obs::json_parse(analysis::to_json(a)));
  ASSERT_TRUE(metrics.count("analysis/achieved_parallelism"));
  EXPECT_NEAR(metrics.at("analysis/achieved_parallelism"), 370.0 / 300.0,
              1e-9);
  ASSERT_TRUE(metrics.count("analysis/utilization"));
  ASSERT_TRUE(metrics.count("analysis/critical_path_ns"));
}

rnn::BatchData tiny_batch(const rnn::NetworkConfig& cfg,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  rnn::BatchData batch;
  batch.x.resize(static_cast<std::size_t>(cfg.seq_length));
  for (auto& m : batch.x) {
    m.resize(cfg.batch_size, cfg.input_size);
    tensor::fill_uniform(m.view(), rng, -1.0F, 1.0F);
  }
  batch.labels.resize(static_cast<std::size_t>(cfg.batch_size));
  for (auto& l : batch.labels) {
    l = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(cfg.num_classes)));
  }
  return batch;
}

rnn::NetworkConfig small_config() {
  rnn::NetworkConfig cfg;
  cfg.cell = rnn::CellType::kLstm;
  cfg.input_size = 16;
  cfg.hidden_size = 48;
  cfg.num_layers = 2;
  cfg.seq_length = 24;
  cfg.batch_size = 16;
  cfg.num_classes = 5;
  cfg.seed = 7;
  return cfg;
}

// ISSUE acceptance check: on a real execution, the scorecard's
// trace-derived utilization must agree with the runtime's own busy/idle
// accounting (runtime_efficiency) to within 5%.
TEST(Analysis, RealRuntimeScorecardMatchesRuntimeAccounting) {
  const rnn::NetworkConfig cfg = small_config();
  rnn::Network net(cfg);
  exec::BParOptions options;
  options.common.num_workers = 4;
  options.record_trace = true;
  exec::BParExecutor executor(net, options);
  const rnn::BatchData batch = tiny_batch(cfg, 42);
  exec::StepResult step;
  for (int i = 0; i < 2; ++i) step = executor.train_batch(batch);

  const analysis::TraceModel model =
      taskrt::make_trace_model(executor.train_program().graph(), step.stats);
  EXPECT_EQ(model.tasks.size(), step.stats.tasks_executed);
  const analysis::Analysis a = analysis::analyze(model);

  EXPECT_GT(a.card.utilization, 0.0);
  EXPECT_LE(a.card.utilization, 1.0 + 1e-9);
  ASSERT_GT(a.card.runtime_efficiency, 0.0);
  // Both views come from one accounting source. Each traced task duration
  // and each worker's busy_ns are finish - start of the same two clock
  // samples, so the trace's total work equals the runtime's busy time
  // exactly. Utilization divides it by the traced window [first start,
  // last end], runtime efficiency by the session's wall_ns, which contains
  // that window; so utilization >= runtime efficiency (a descheduled caller
  // stretches only wall_ns). Cross-multiplied to compare in integers.
  const std::uint64_t busy = step.stats.total_busy_ns();
  EXPECT_EQ(a.card.total_work_ns, busy);
  using u128 = unsigned __int128;
  EXPECT_TRUE(u128{a.card.total_work_ns} * step.stats.wall_ns >=
              u128{busy} * a.card.makespan_ns)
      << "traced window " << a.card.makespan_ns << " ns, wall "
      << step.stats.wall_ns << " ns";

  // The measured critical path bounds the window from below, the total
  // work from above.
  EXPECT_GE(a.cp.measured_ns, 1U);
  EXPECT_LE(a.cp.measured_ns, a.cp.makespan_ns);
  EXPECT_LE(a.cp.measured_ns, a.card.total_work_ns);

  // Busy + classified idle tiles workers x makespan exactly.
  EXPECT_EQ(a.idle.total.busy_ns + a.idle.total.idle_ns(),
            a.cp.makespan_ns * 4);
}

// The same real run must survive the full disk round trip: unified trace
// JSON -> model_from_trace_json -> identical work/task accounting.
TEST(Analysis, RealRuntimeUnifiedTraceRoundTrip) {
  const rnn::NetworkConfig cfg = small_config();
  rnn::Network net(cfg);
  exec::BParOptions options;
  options.common.num_workers = 2;
  options.record_trace = true;
  exec::BParExecutor executor(net, options);
  const exec::StepResult step = executor.train_batch(tiny_batch(cfg, 9));

  const taskrt::TaskGraph& graph = executor.train_program().graph();
  std::ostringstream os;
  taskrt::write_unified_trace(graph, step.stats, os);
  const analysis::TraceModel parsed =
      analysis::model_from_trace_json(obs::json_parse(os.str()));
  const analysis::TraceModel direct =
      taskrt::make_trace_model(graph, step.stats);

  ASSERT_EQ(parsed.tasks.size(), direct.tasks.size());
  EXPECT_EQ(parsed.num_workers, direct.num_workers);
  const analysis::Analysis a = analysis::analyze(parsed);
  const analysis::Analysis b = analysis::analyze(direct);
  EXPECT_EQ(a.card.tasks, b.card.tasks);
  // us-granularity rounding on the disk path: within 1 us per task.
  const auto tol = static_cast<double>(parsed.tasks.size()) * 1000.0;
  EXPECT_NEAR(static_cast<double>(a.card.total_work_ns),
              static_cast<double>(b.card.total_work_ns), tol);
  EXPECT_EQ(a.cp.length, b.cp.length);
}

// ---- diff / baseline ----

obs::JsonValue gbench_doc(double real_ns, double cpu_ns) {
  std::ostringstream os;
  os << "{\"benchmarks\": [{\"name\": \"micro/steal\", \"real_time\": "
     << real_ns << ", \"cpu_time\": " << cpu_ns
     << ", \"time_unit\": \"ns\"}]}";
  return obs::json_parse(os.str());
}

TEST(Diff, FlagsInjectedSlowdown) {
  // 2x slowdown on real_time: must exit 1 with exactly that regression.
  const obs::diff::DiffResult result = obs::diff::diff_docs(
      gbench_doc(100.0, 90.0), gbench_doc(200.0, 91.0));
  EXPECT_EQ(result.exit_code(), 1);
  EXPECT_EQ(result.regressions(), 1U);
  ASSERT_FALSE(result.deltas.empty());
  const auto& d = result.deltas.front();  // gbench/.../cpu_time first
  EXPECT_FALSE(d.regression);             // +1.1% cpu_time is noise
}

TEST(Diff, UnchangedRerunWithNoiseIsClean) {
  // +-3% jitter: below the 15% relative threshold -> exit 0.
  const obs::diff::DiffResult result = obs::diff::diff_docs(
      gbench_doc(100.0, 90.0), gbench_doc(103.0, 87.5));
  EXPECT_EQ(result.exit_code(), 0);
  EXPECT_EQ(result.regressions(), 0U);
}

TEST(Diff, AbsoluteFloorSuppressesTinyMetrics) {
  // 50% relative jump, but the absolute change (0.1) is under the 0.5
  // floor: noise on a micro-scale metric, not a regression.
  const obs::diff::DiffResult result =
      obs::diff::diff_docs(gbench_doc(0.2, 0.2), gbench_doc(0.3, 0.2));
  EXPECT_EQ(result.exit_code(), 0);
}

TEST(Diff, HigherIsBetterDirection) {
  obs::diff::MetricMap old_map{{"analysis/utilization", 0.8}};
  obs::diff::MetricMap new_map{{"analysis/utilization", 0.4}};
  const obs::diff::DiffResult drop =
      obs::diff::diff_maps(old_map, new_map);
  EXPECT_EQ(drop.regressions(), 1U);  // utilization fell -> regression
  const obs::diff::DiffResult rise =
      obs::diff::diff_maps(new_map, old_map);
  EXPECT_EQ(rise.regressions(), 0U);
  EXPECT_EQ(rise.improvements(), 1U);
}

TEST(Diff, StructuralMismatchExitsTwo) {
  const obs::diff::DiffResult bad_doc = obs::diff::diff_docs(
      obs::json_parse("{\"foo\": 1}"), gbench_doc(1.0, 1.0));
  EXPECT_TRUE(bad_doc.structural);
  EXPECT_EQ(bad_doc.exit_code(), 2);

  // Zero overlapping metrics is also structural, not "no regressions".
  const obs::diff::DiffResult disjoint = obs::diff::diff_maps(
      {{"gbench/a/real_time", 1.0}}, {{"gbench/b/real_time", 1.0}});
  EXPECT_EQ(disjoint.exit_code(), 2);
}

TEST(Diff, BaselineMinOfNMerge) {
  obs::diff::Baseline baseline;
  obs::diff::merge_baseline(baseline, {{"gbench/x/real_time", 100.0},
                                       {"analysis/utilization", 0.5}});
  obs::diff::merge_baseline(baseline, {{"gbench/x/real_time", 90.0},
                                       {"analysis/utilization", 0.6}});
  obs::diff::merge_baseline(baseline, {{"gbench/x/real_time", 95.0},
                                       {"analysis/utilization", 0.55}});
  // min for lower-is-better, max for higher-is-better, 3 runs each.
  EXPECT_DOUBLE_EQ(baseline.at("gbench/x/real_time").value, 90.0);
  EXPECT_DOUBLE_EQ(baseline.at("analysis/utilization").value, 0.6);
  EXPECT_EQ(baseline.at("gbench/x/real_time").runs, 3);

  // Serialized baseline round trip and flatten() as a diffable document.
  const obs::JsonValue doc =
      obs::json_parse(obs::diff::baseline_json(baseline));
  const obs::diff::Baseline reloaded = obs::diff::load_baseline(doc);
  EXPECT_EQ(reloaded.size(), baseline.size());
  EXPECT_DOUBLE_EQ(reloaded.at("gbench/x/real_time").value, 90.0);
  EXPECT_EQ(reloaded.at("analysis/utilization").runs, 3);
  const obs::diff::MetricMap metrics = obs::diff::flatten(doc);
  EXPECT_DOUBLE_EQ(metrics.at("gbench/x/real_time"), 90.0);
}

// ---- hardware-counter plumbing ----

TEST(Counters, DeltaAppliesMultiplexScaling) {
  perf::CounterReading begin;
  perf::CounterReading end;
  begin.valid = end.valid = true;
  // cycles: on the PMC half the time -> values double, scale 2.
  begin.events[perf::kCycles] = {1000, 1000, 1000, true};
  end.events[perf::kCycles] = {1100, 3000, 2000, true};
  // instructions: fully counted -> exact, scale 1.
  begin.events[perf::kInstructions] = {500, 1000, 1000, true};
  end.events[perf::kInstructions] = {550, 3000, 3000, true};

  const perf::CounterSample d = perf::counter_delta(begin, end);
  EXPECT_EQ(d.cycles, 200U);
  EXPECT_EQ(d.instructions, 50U);
  EXPECT_DOUBLE_EQ(d.scale, 2.0);
  EXPECT_TRUE(d.multiplexed());
  EXPECT_NEAR(d.ipc(), 50.0 / 200.0, 1e-12);
}

TEST(Counters, NeverScheduledEventFlagsInfinity) {
  perf::CounterReading begin;
  perf::CounterReading end;
  begin.valid = end.valid = true;
  begin.events[perf::kLlcMisses] = {10, 100, 0, true};
  end.events[perf::kLlcMisses] = {10, 500, 0, true};  // enabled, never ran
  const perf::CounterSample d = perf::counter_delta(begin, end);
  EXPECT_EQ(d.llc_misses, 0U);
  EXPECT_TRUE(std::isinf(d.scale));
}

TEST(Counters, InvalidReadingYieldsEmptySample) {
  const perf::CounterSample d =
      perf::counter_delta(perf::CounterReading{}, perf::CounterReading{});
  EXPECT_EQ(d.cycles, 0U);
  EXPECT_DOUBLE_EQ(d.scale, 1.0);
}

TEST(Counters, HwClassRowsFromRunStats) {
  taskrt::RunStats stats;
  stats.kind_counters.resize(
      static_cast<std::size_t>(taskrt::kNumTaskKinds));
  auto& kc = stats.kind_counters[static_cast<std::size_t>(
      taskrt::TaskKind::kCellForward)];
  kc.tasks = 12;
  kc.busy_ns = 3'000'000;
  kc.counters.cycles = 6'000'000;
  kc.counters.instructions = 9'000'000;
  kc.counters.llc_misses = 9'000;
  kc.counters.cache_references = 90'000;
  kc.counters.branch_misses = 4'500;
  kc.counters.scale = 1.25;

  const auto rows = taskrt::hw_class_rows(stats);
  ASSERT_EQ(rows.size(), 1U);
  EXPECT_EQ(rows[0].tasks, 12U);
  EXPECT_EQ(rows[0].busy_ns, 3'000'000U);
  EXPECT_NEAR(rows[0].ipc, 1.5, 1e-12);
  EXPECT_NEAR(rows[0].mpki, 1.0, 1e-12);
  EXPECT_NEAR(rows[0].branch_mpki, 0.5, 1e-12);
  EXPECT_NEAR(rows[0].llc_miss_rate, 0.1, 1e-12);
  EXPECT_NEAR(rows[0].scale, 1.25, 1e-12);
}

// When perf_event_open works in this environment, a sampled run must
// attribute counters to the task classes that actually executed; when it
// does not, kind_counters must stay empty (the clean fallback).
TEST(Counters, SampledRunPopulatesKindCountersWhenAvailable) {
  const rnn::NetworkConfig cfg = small_config();
  rnn::Network net(cfg);
  exec::BParOptions options;
  options.common.num_workers = 2;
  options.sample_counters = true;
  exec::BParExecutor executor(net, options);
  const exec::StepResult step = executor.train_batch(tiny_batch(cfg, 3));

  const perf::PerfCounters probe(perf::CounterScope::kThread);
  if (!probe.available()) {
    EXPECT_TRUE(step.stats.kind_counters.empty());
    return;
  }
  const auto rows = taskrt::hw_class_rows(step.stats);
  ASSERT_FALSE(rows.empty());
  std::size_t sampled_tasks = 0;
  for (const auto& row : rows) sampled_tasks += row.tasks;
  EXPECT_EQ(sampled_tasks, step.stats.tasks_executed);
}

}  // namespace
}  // namespace bpar
