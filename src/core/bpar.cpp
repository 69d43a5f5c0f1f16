#include "core/bpar.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

#include "core/checkpoint.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace bpar {

const char* version() { return "1.0.0"; }

const char* executor_kind_name(ExecutorKind kind) {
  switch (kind) {
    case ExecutorKind::kSequential:
      return "sequential";
    case ExecutorKind::kBPar:
      return "b-par";
    case ExecutorKind::kBSeq:
      return "b-seq";
    case ExecutorKind::kLayerBarrier:
      return "layer-barrier";
  }
  return "unknown";
}

std::unique_ptr<exec::Executor> make_executor(ExecutorKind kind,
                                              rnn::Network& net,
                                              const ExecutorOptions& options) {
  if (kind == ExecutorKind::kSequential) {
    return std::make_unique<exec::SequentialExecutor>(net);
  }
  exec::BParOptions profiled{.common = options};
  if (kind == ExecutorKind::kBSeq) profiled.schedule_profile = "bseq";
  if (kind == ExecutorKind::kLayerBarrier) {
    // Frameworks parallelize inside each op, not across mini-batches.
    profiled.schedule_profile = "framework";
    profiled.common.num_replicas = 1;
  }
  return std::make_unique<exec::BParExecutor>(net, std::move(profiled));
}

Model::Model(const rnn::NetworkConfig& config) : net_(config) {
  executor_ = make_executor(ExecutorKind::kSequential, net_);
  optimizer_ = std::make_unique<train::Sgd>(train::Sgd::Config{});
}

void Model::select_executor(ExecutorKind kind,
                            const ExecutorOptions& options) {
  executor_ = make_executor(kind, net_, options);
}

exec::Executor& Model::executor() { return *executor_; }

void Model::set_optimizer(std::unique_ptr<train::Optimizer> optimizer) {
  BPAR_CHECK(optimizer != nullptr, "null optimizer");
  optimizer_ = std::move(optimizer);
}

train::Optimizer& Model::optimizer() { return *optimizer_; }

exec::StepResult Model::train_batch(const rnn::BatchData& batch) {
  auto result = executor_->train_batch(batch);
  optimizer_->step(net_, executor_->grads());
  return result;
}

exec::InferResult Model::infer(const rnn::BatchData& batch,
                               const exec::InferOptions& options) {
  return executor_->infer(batch, options);
}

void Model::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  BPAR_CHECK(out.good(), "cannot open ", path, " for writing");
  net_.save(out);
}

void Model::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  BPAR_CHECK(in.good(), "cannot open ", path);
  net_.load(in);
}

namespace {

// The "meta" checkpoint section: every config field that determines weight
// shapes, plus the optimizer name — validated *before* any tensor is
// deserialized, so a mismatched file fails with a clear error instead of a
// shape-check abort halfway through loading.
struct CheckpointMeta {
  std::int32_t cell = 0;
  std::int32_t merge = 0;
  std::int32_t input_size = 0;
  std::int32_t hidden_size = 0;
  std::int32_t num_layers = 0;
  std::int32_t num_classes = 0;
  std::int32_t seq_length = 0;
  std::int32_t batch_size = 0;
  std::int32_t many_to_many = 0;
};

CheckpointMeta meta_of(const rnn::NetworkConfig& cfg) {
  CheckpointMeta meta;
  meta.cell = static_cast<std::int32_t>(cfg.cell);
  meta.merge = static_cast<std::int32_t>(cfg.merge);
  meta.input_size = cfg.input_size;
  meta.hidden_size = cfg.hidden_size;
  meta.num_layers = cfg.num_layers;
  meta.num_classes = cfg.num_classes;
  meta.seq_length = cfg.seq_length;
  meta.batch_size = cfg.batch_size;
  meta.many_to_many = cfg.many_to_many ? 1 : 0;
  return meta;
}

}  // namespace

void Model::save_checkpoint(const std::string& path) const {
  std::vector<ckpt::Section> sections;

  const CheckpointMeta meta = meta_of(net_.config());
  const std::string opt_name = optimizer_->name();
  std::string meta_payload(reinterpret_cast<const char*>(&meta),
                           sizeof meta);
  const auto name_len = static_cast<std::uint32_t>(opt_name.size());
  meta_payload.append(reinterpret_cast<const char*>(&name_len),
                      sizeof name_len);
  meta_payload.append(opt_name);
  sections.push_back({"meta", std::move(meta_payload)});

  std::ostringstream model_blob(std::ios::binary);
  net_.save(model_blob);
  sections.push_back({"model", std::move(model_blob).str()});

  std::ostringstream opt_blob(std::ios::binary);
  optimizer_->save_state(opt_blob);
  sections.push_back({"optimizer", std::move(opt_blob).str()});

  ckpt::write_checkpoint_file(path, sections);
}

void Model::load_checkpoint(const std::string& path) {
  const std::vector<ckpt::Section> sections =
      ckpt::read_checkpoint_file(path);

  // Validate compatibility from "meta" before touching any weights.
  const ckpt::Section& meta_section =
      ckpt::find_section(sections, "meta", path);
  CheckpointMeta meta;
  std::uint32_t name_len = 0;
  if (meta_section.payload.size() < sizeof meta + sizeof name_len) {
    BPAR_RAISE(util::CheckpointError, "checkpoint '", path,
               "' has a malformed meta section");
  }
  std::memcpy(&meta, meta_section.payload.data(), sizeof meta);
  std::memcpy(&name_len, meta_section.payload.data() + sizeof meta,
              sizeof name_len);
  if (meta_section.payload.size() != sizeof meta + sizeof name_len + name_len) {
    BPAR_RAISE(util::CheckpointError, "checkpoint '", path,
               "' has a malformed meta section");
  }
  const std::string opt_name =
      meta_section.payload.substr(sizeof meta + sizeof name_len);

  const CheckpointMeta want = meta_of(net_.config());
  const auto check_dim = [&](const char* field, std::int32_t got,
                             std::int32_t expect) {
    if (got != expect) {
      BPAR_RAISE(util::CheckpointError, "checkpoint '", path,
                 "' dimension mismatch: ", field, " is ", got,
                 " in the file but ", expect,
                 " in this model — it was saved from a different "
                 "architecture");
    }
  };
  check_dim("cell", meta.cell, want.cell);
  check_dim("merge", meta.merge, want.merge);
  check_dim("input_size", meta.input_size, want.input_size);
  check_dim("hidden_size", meta.hidden_size, want.hidden_size);
  check_dim("num_layers", meta.num_layers, want.num_layers);
  check_dim("num_classes", meta.num_classes, want.num_classes);
  if (opt_name != optimizer_->name()) {
    BPAR_RAISE(util::CheckpointError, "checkpoint '", path,
               "' was written by optimizer '", opt_name,
               "' but the model uses '", optimizer_->name(), "'");
  }

  std::istringstream model_blob(
      ckpt::find_section(sections, "model", path).payload,
      std::ios::binary);
  net_.load(model_blob);
  std::istringstream opt_blob(
      ckpt::find_section(sections, "optimizer", path).payload,
      std::ios::binary);
  optimizer_->load_state(opt_blob, net_);
}

}  // namespace bpar
