#include "exec/bpar_executor.hpp"

#include <algorithm>

#include "exec/baseline_profiles.hpp"
#include "exec/reference_pass.hpp"
#include "obs/memory.hpp"
#include "obs/trace.hpp"
#include "perf/timer.hpp"
#include "util/check.hpp"

namespace bpar::exec {

namespace {

// Graph-structure estimate for the program-cache memory tracker. The
// tensors a program owns (weights views, activations, workspaces) are
// already accounted under mem.tensor by Matrix itself; this covers the
// task/edge skeleton that the cache keeps alive per shape bucket.
std::uint64_t program_graph_bytes(const graph::TrainingProgram& program) {
  return static_cast<std::uint64_t>(program.graph().size()) *
         sizeof(taskrt::Task);
}

taskrt::RuntimeOptions runtime_options(const BParOptions& options) {
  taskrt::RuntimeOptions ro;
  ro.num_workers = options.common.num_workers;
  ro.policy = options.common.policy;
  ro.record_trace = options.record_trace;
  ro.pin_threads = options.common.pin_threads;
  ro.watchdog_ms = options.common.watchdog_ms;
  ro.faults = options.common.faults;
  ro.sample_counters = options.sample_counters;
  return ro;
}
}  // namespace

BParExecutor::BParExecutor(rnn::Network& net, BParOptions options)
    : net_(net),
      options_(options),
      runtime_(runtime_options(options)) {}

BParExecutor::~BParExecutor() {
  for (const auto* cache : {&train_programs_, &infer_programs_}) {
    for (const auto& [key, program] : *cache) {
      obs::program_cache_memory().on_free(program_graph_bytes(*program));
    }
  }
}

graph::TrainingProgram& BParExecutor::program(bool training, int seq_length,
                                              int batch_rows) {
  const int steps =
      seq_length > 0 ? seq_length : net_.config().seq_length;
  const int rows =
      batch_rows > 0 ? batch_rows : net_.config().batch_size;
  auto& cache = training ? train_programs_ : infer_programs_;
  auto it = cache.find(ShapeKey{steps, rows});
  if (it == cache.end()) {
    graph::BuildOptions bo;
    // Replicas cannot outnumber batch rows; small serving micro-batches
    // degrade gracefully to fewer (or one) replica.
    bo.num_replicas = std::min(options_.common.num_replicas, rows);
    bo.training = training;
    bo.schedule_profile = options_.schedule_profile;
    if (bo.schedule_profile == "framework") {
      bo.intra_op_chunks =
          intra_op_chunks(runtime_.num_workers(), rows / bo.num_replicas);
    }
    bo.compute_input_grads = options_.compute_input_grads;
    bo.seq_length_override = steps;
    it = cache
             .emplace(ShapeKey{steps, rows},
                      std::make_unique<graph::TrainingProgram>(net_, rows, bo))
             .first;
    obs::program_cache_memory().on_alloc(program_graph_bytes(*it->second));
  }
  return *it->second;
}

const char* BParExecutor::name() const {
  if (options_.schedule_profile == "bseq") return "b-seq";
  if (options_.schedule_profile == "framework") return "layer-barrier";
  return "b-par";
}

graph::TrainingProgram& BParExecutor::train_program(int seq_length,
                                                    int batch_rows) {
  return program(/*training=*/true, seq_length, batch_rows);
}

graph::TrainingProgram& BParExecutor::infer_program(int seq_length,
                                                    int batch_rows) {
  return program(/*training=*/false, seq_length, batch_rows);
}

StepResult BParExecutor::train_batch(const rnn::BatchData& batch) {
  BPAR_SPAN("exec.train_batch");
  auto& program = train_program(batch.steps(), batch.batch());
  last_train_ = &program;
  perf::WallTimer timer;
  program.load_batch(batch);
  program.prepare();
  StepResult result;
  result.stats = runtime_.run(program.graph());
  result.loss = program.loss();
  result.wall_ms = timer.elapsed_ms();
  return result;
}

InferResult BParExecutor::infer(const rnn::BatchData& batch,
                                const InferOptions& options) {
  BPAR_SPAN("exec.infer");
  auto& program = infer_program(batch.steps(), batch.batch());
  perf::WallTimer timer;
  program.load_batch(batch);
  program.prepare();
  InferResult result;
  result.stats = runtime_.run(program.graph());
  result.loss = program.loss();
  // Stitch replica outputs back into batch order.
  init_infer_outputs(program.replica(0), program.total_batch(),
                     options.want_logits, result);
  for (int rep = 0; rep < program.num_replicas(); ++rep) {
    extract_infer_outputs(program.replica(rep),
                          program.replica_row_begin(rep), result);
  }
  result.wall_ms = timer.elapsed_ms();
  return result;
}

}  // namespace bpar::exec
