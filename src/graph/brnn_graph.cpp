#include "graph/brnn_graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "kernels/elementwise.hpp"
#include "kernels/gemm.hpp"
#include "obs/trace.hpp"
#include "rnn/flops.hpp"
#include "rnn/merge.hpp"
#include "util/check.hpp"

namespace bpar::graph {

using rnn::CellType;
using rnn::NetworkConfig;
using taskrt::Access;
using taskrt::in;
using taskrt::inout;
using taskrt::out;
using taskrt::TaskId;
using taskrt::TaskKind;
using taskrt::TaskSpec;
using tensor::ConstMatrixView;
using tensor::MatrixView;

// Per-replica build context. In executable mode all addresses come from the
// replica's real buffers; in shape-only mode (simulator input for
// configurations too large to allocate) they come from a synthetic byte
// arena with one byte per logical buffer, which yields the identical
// dependency structure at negligible memory cost.
struct TrainingProgram::ReplicaCtx {
  TrainingProgram& prog;
  int rep;
  int r0;  // first batch row of this replica
  int rb;  // rows in this replica
  rnn::Workspace* ws = nullptr;       // executable mode only
  rnn::NetworkGrads* grads = nullptr; // executable mode only

  // Shape-mode arena layout (offsets into this replica's arena buffer).
  const char* arena_data = nullptr;
  std::size_t h_base = 0, dh_base = 0, dc_base = 0, merged_base = 0,
              dmerged_base = 0, probs_base = 0, dlogits_base = 0,
              x_base = 0, sink_base = 0, grads_base = 0, final_base = 0,
              dx_base = 0;

  [[nodiscard]] const NetworkConfig& cfg() const { return prog.cfg_; }
  [[nodiscard]] int layers() const { return cfg().num_layers; }
  [[nodiscard]] int steps() const { return cfg().seq_length; }
  [[nodiscard]] int merged_layers() const {
    return cfg().many_to_many ? layers() : layers() - 1;
  }
  [[nodiscard]] int outputs() const {
    return cfg().many_to_many ? steps() : 1;
  }

  [[nodiscard]] const void* arena_at(std::size_t base, std::size_t idx) const {
    return arena_data + base + idx;
  }
  [[nodiscard]] std::size_t cell_idx(int dir, int l, int s) const {
    return (static_cast<std::size_t>(dir) * layers() + l) * steps() + s;
  }

  [[nodiscard]] const void* addr_h(int dir, int l, int s) const {
    if (ws != nullptr) return ws->tape(dir, l, s).h.data();
    return arena_at(h_base, cell_idx(dir, l, s));
  }
  [[nodiscard]] const void* addr_dh(int dir, int l, int s) const {
    if (ws != nullptr) return ws->dh(dir, l, s).data();
    return arena_at(dh_base, cell_idx(dir, l, s));
  }
  [[nodiscard]] const void* addr_dc(int dir, int l, int s) const {
    if (ws != nullptr) return ws->dc(dir, l, s).data();
    return arena_at(dc_base, cell_idx(dir, l, s));
  }
  [[nodiscard]] const void* addr_merged(int l, int t) const {
    if (ws != nullptr) return ws->merged(l, t).data();
    return arena_at(merged_base, static_cast<std::size_t>(l) * steps() + t);
  }
  [[nodiscard]] const void* addr_dmerged(int src_dir, int l, int t) const {
    if (ws != nullptr) return ws->dmerged(src_dir, l, t).data();
    return arena_at(dmerged_base,
                    (static_cast<std::size_t>(src_dir) * merged_layers() + l) *
                            steps() +
                        t);
  }
  [[nodiscard]] const void* addr_final() const {
    if (ws != nullptr) return ws->final_merged.data();
    return arena_at(final_base, 0);
  }
  [[nodiscard]] const void* addr_dfinal() const {
    if (ws != nullptr) return ws->dfinal.data();
    return arena_at(final_base, 1);
  }
  [[nodiscard]] const void* addr_probs(int t) const {
    if (ws != nullptr) return ws->probs(t).data();
    return arena_at(probs_base, static_cast<std::size_t>(t));
  }
  [[nodiscard]] const void* addr_dlogits(int t) const {
    if (ws != nullptr) return ws->dlogits(t).data();
    return arena_at(dlogits_base, static_cast<std::size_t>(t));
  }
  [[nodiscard]] const void* addr_x(int t) const {
    if (ws != nullptr) {
      // Row slice of the shared input buffer: address of this replica's
      // first element — distinct per replica.
    return prog.x_[static_cast<std::size_t>(t)].data() +
           static_cast<std::size_t>(r0) * cfg().input_size;
    }
    return arena_at(x_base, static_cast<std::size_t>(t));
  }
  [[nodiscard]] const void* addr_sink(int dir, int l) const {
    if (ws != nullptr) return ws->sink(dir, l).data();
    return arena_at(sink_base, static_cast<std::size_t>(dir) * layers() + l);
  }
  [[nodiscard]] const void* addr_dx(int src_dir, int t) const {
    if (ws != nullptr) return ws->dx(src_dir, t).data();
    return arena_at(dx_base, static_cast<std::size_t>(src_dir) * steps() + t);
  }
  /// Shared per-(dir, layer) weight-gradient buffer; dir == 2 → dense.
  [[nodiscard]] const void* addr_grads(int dir, int l) const {
    if (grads != nullptr) {
      if (dir == 2) return grads->dw_out.data();
      return grads->layers[dir][static_cast<std::size_t>(l)].dw.data();
    }
    return arena_at(grads_base, static_cast<std::size_t>(dir) * layers() + l);
  }
  [[nodiscard]] const void* addr_loss(int t) const {
    return &prog.losses_[static_cast<std::size_t>(rep) * outputs() + t];
  }
};

TrainingProgram::~TrainingProgram() = default;

void TrainingProgram::resolve_schedule() {
  const std::string& p = opts_.schedule_profile;
  if (p.empty() || p == "bpar") {
    // free-running B-Par schedule
  } else if (p == "fused_merge") {
    sched_.fuse_merge = true;
  } else if (p == "layer_barriers") {
    sched_.per_layer_barriers = true;
  } else if (p == "sequential") {
    sched_.sequential_directions = true;
  } else if (p == "framework") {
    sched_.per_layer_barriers = true;
    sched_.sequential_directions = true;
  } else if (p == "bseq") {
    sched_.replica_chains = true;
  } else {
    std::fprintf(stderr,
                 "[bpar] warning: unknown schedule_profile \"%s\"; "
                 "using \"bpar\"\n",
                 p.c_str());
  }
}

TrainingProgram::TrainingProgram(rnn::Network& net, int total_batch,
                                 BuildOptions opts)
    : net_(net), cfg_(net.config()), opts_(std::move(opts)),
      total_batch_(total_batch) {
  BPAR_SPAN("graph.build");
  if (opts_.seq_length_override > 0) {
    cfg_.seq_length = opts_.seq_length_override;
  }
  resolve_schedule();
  const NetworkConfig& cfg = cfg_;
  BPAR_CHECK(total_batch_ > 0, "total batch must be positive");
  BPAR_CHECK(opts_.num_replicas >= 1, "need >= 1 replica");
  BPAR_CHECK(opts_.num_replicas <= total_batch_,
             "more replicas than batch rows");
  BPAR_CHECK(opts_.intra_op_chunks >= 1, "bad intra_op_chunks");
  BPAR_CHECK(!opts_.executable ||
                 opts_.intra_op_chunks <= total_batch_ / opts_.num_replicas,
             "more intra-op chunks than replica rows");

  const int outputs = cfg.many_to_many ? cfg.seq_length : 1;
  losses_.assign(
      static_cast<std::size_t>(opts_.num_replicas) * outputs, 0.0);

  // Replica row ranges: remainder rows go to the first replicas.
  const int base = total_batch_ / opts_.num_replicas;
  const int extra = total_batch_ % opts_.num_replicas;
  int row = 0;
  for (int r = 0; r < opts_.num_replicas; ++r) {
    row_begin_.push_back(row);
    row += base + (r < extra ? 1 : 0);
  }
  row_begin_.push_back(total_batch_);  // sentinel

  if (opts_.executable) {
    x_.resize(static_cast<std::size_t>(cfg.seq_length));
    for (auto& m : x_) m.resize(total_batch_, cfg.input_size);
    const int label_count =
        cfg.many_to_many ? cfg.seq_length * total_batch_ : total_batch_;
    labels_.assign(static_cast<std::size_t>(label_count), 0);
    for (int r = 0; r < opts_.num_replicas; ++r) {
      replicas_.push_back(std::make_unique<rnn::Workspace>(
          cfg, replica_rows(r), opts_.compute_input_grads));
    }
    if (opts_.training) {
      replica_grads_.resize(static_cast<std::size_t>(opts_.num_replicas));
      for (auto& g : replica_grads_) g.init_like(net_);
      master_grads_.init_like(net_);
      if (opts_.intra_op_chunks > 1) {
        chunk_grads_.resize(static_cast<std::size_t>(opts_.num_replicas) *
                            opts_.intra_op_chunks);
        for (auto& g : chunk_grads_) g.init_like(net_);
      }
    }
  }

  build();
  graph_.seal();
}

void TrainingProgram::load_batch(const rnn::BatchData& batch) {
  BPAR_CHECK(opts_.executable, "shape-only program cannot load data");
  const NetworkConfig& cfg = cfg_;
  batch.validate(cfg.input_size, cfg.seq_length);
  BPAR_CHECK(batch.batch() == total_batch_, "batch rows ", batch.batch(),
             " != program batch ", total_batch_);
  for (int t = 0; t < cfg.seq_length; ++t) {
    tensor::copy(batch.x[static_cast<std::size_t>(t)].cview(),
                 x_[static_cast<std::size_t>(t)].view());
  }
  BPAR_CHECK(batch.labels.size() == labels_.size(),
             "label layout mismatch (many-to-one vs many-to-many?)");
  labels_ = batch.labels;
}

void TrainingProgram::prepare() {
  total_loss_ = 0.0;
  std::fill(losses_.begin(), losses_.end(), 0.0);
  if (!opts_.executable) return;
  for (auto& ws : replicas_) ws->zero_backward();
  for (auto& g : replica_grads_) g.zero();
  for (auto& g : chunk_grads_) g.zero();
  if (opts_.training) master_grads_.zero();
}

namespace {

/// Batch rows [row0, row0 + rows) of a replica buffer (empty stays empty).
template <typename View>
View row_slice(View v, int row0, int rows) {
  return v.data == nullptr ? v : v.block(row0, 0, rows, v.cols);
}

}  // namespace

void TrainingProgram::add_task(std::vector<Access> accesses, TaskSpec spec,
                               int gemms, std::function<void()> fn,
                               RowsFn rows, bool cell) {
  if (chain_token_ != nullptr) accesses.push_back(inout(chain_token_));
  gemm_launches_ += static_cast<std::size_t>(gemms);
  const int n = cell ? opts_.intra_op_chunks : 1;
  if (n <= 1) {
    if (rows) {
      fn = [rows = std::move(rows), count = replica_rows(spec.replica)] {
        rows(-1, 0, count);
      };
    }
    if (!fn) fn = [] {};  // barrier tokens and shape-only graphs
    graph_.add(std::move(fn), accesses, std::move(spec));
    return;
  }
  const int count = replica_rows(spec.replica);
  // Intra-op split, the fork-join region of a framework that spreads each
  // cell's GEMMs across cores: N chunk tasks over batch-row slices, each
  // ordered after every earlier access to what the cell touches, then a
  // join carrying the cell's writes for its consumers.
  std::vector<Access> chunk_acc;
  for (const Access& a : accesses) chunk_acc.push_back(in(a.addr));
  std::vector<Access> join_acc = std::move(accesses);
  for (int c = 0; c < n; ++c) {
    const int row0 = c * count / n;
    const int chunk_rows = (c + 1) * count / n - row0;
    TaskSpec chunk_spec = spec;
    chunk_spec.kind = TaskKind::kGemmChunk;
    chunk_spec.flops = spec.flops / n;
    chunk_spec.working_set_bytes = spec.working_set_bytes / n;
    std::function<void()> chunk_fn = [] {};
    if (rows) {
      chunk_fn = [rows, c, row0, chunk_rows] { rows(c, row0, chunk_rows); };
    }
    const void* token = fresh_token();
    chunk_acc.push_back(out(token));
    graph_.add(std::move(chunk_fn), chunk_acc, std::move(chunk_spec));
    chunk_acc.pop_back();
    join_acc.push_back(in(token));
  }
  spec.flops = 0.0;
  spec.working_set_bytes = 0;
  spec.cost_hint_ns = 500;
  graph_.add([] {}, join_acc, std::move(spec));
}

// ---- graph construction ----


void TrainingProgram::build() {
  for (int rep = 0; rep < opts_.num_replicas; ++rep) build_replica(rep);
  build_reduction();
}

void TrainingProgram::build_replica(int rep) {
  const NetworkConfig& cfg = cfg_;
  ReplicaCtx ctx{*this, rep, row_begin_[static_cast<std::size_t>(rep)],
                 replica_rows(rep)};
  if (opts_.executable) {
    ctx.ws = replicas_[static_cast<std::size_t>(rep)].get();
    if (opts_.training) {
      ctx.grads = &replica_grads_[static_cast<std::size_t>(rep)];
    }
  } else {
    // Lay out the synthetic arena: one byte per logical buffer.
    const auto layers = static_cast<std::size_t>(cfg.num_layers);
    const auto steps = static_cast<std::size_t>(cfg.seq_length);
    const std::size_t cells = 2 * layers * steps;
    const std::size_t merged =
        static_cast<std::size_t>(ctx.merged_layers()) * steps;
    const auto outputs = static_cast<std::size_t>(ctx.outputs());
    std::size_t off = 0;
    ctx.h_base = off;
    off += cells;
    ctx.dh_base = off;
    off += cells;
    ctx.dc_base = off;
    off += cells;
    ctx.merged_base = off;
    off += merged;
    ctx.dmerged_base = off;
    off += 2 * merged;
    ctx.probs_base = off;
    off += outputs;
    ctx.dlogits_base = off;
    off += outputs;
    ctx.x_base = off;
    off += steps;
    ctx.sink_base = off;
    off += 2 * layers;
    ctx.grads_base = off;
    off += 3 * layers;  // dir 0, dir 1, dense (dir==2 uses slot l==0)
    ctx.final_base = off;
    off += 2;
    ctx.dx_base = off;
    off += 2 * steps;
    arenas_.emplace_back(off, 0);
    ctx.arena_data = arenas_.back().data();
    grads_bases_.push_back(ctx.grads_base);
  }

  // Fresh forward-barrier tokens for this replica (framework emulation).
  fwd_tokens_.clear();
  for (int l = 0; l < cfg.num_layers; ++l) fwd_tokens_.push_back(fresh_token());
  // B-Seq: every op of this replica joins one serial chain.
  chain_token_ = sched_.replica_chains ? fresh_token() : nullptr;

  for (int l = 0; l < cfg.num_layers; ++l) build_forward_layer(ctx, l);
  build_loss_and_dense(ctx);
  if (opts_.training) {
    build_dense_backward(ctx);
    for (int l = cfg.num_layers - 1; l >= 0; --l) {
      build_backward_layer(ctx, l);
    }
  }
  chain_token_ = nullptr;
}

void TrainingProgram::build_forward_layer(ReplicaCtx& ctx, int l) {
  const NetworkConfig& cfg = cfg_;
  const int steps = cfg.seq_length;
  const bool lstm = cfg.cell == CellType::kLstm;
  const int in_width = cfg.layer_input_size(l);
  const double cell_flops =
      rnn::cell_forward_flops(cfg.cell, ctx.rb, in_width, cfg.hidden_size);
  const std::size_t cell_ws = rnn::cell_working_set_bytes(
      cfg.cell, ctx.rb, in_width, cfg.hidden_size);

  auto cell_spec = [&](int dir, int t) {
    TaskSpec spec;
    spec.kind = TaskKind::kCellForward;
    spec.flops = cell_flops;
    spec.working_set_bytes = cell_ws;
    spec.layer = l;
    spec.step = t;
    spec.replica = ctx.rep;
    spec.name = std::string(dir == 0 ? "f" : "r") + std::to_string(l) + "." +
                std::to_string(t);
    return spec;
  };

  auto fwd_barrier_in = [&](std::vector<Access>& acc) {
    if (sched_.per_layer_barriers && l > 0) {
      acc.push_back(in(fwd_tokens_[static_cast<std::size_t>(l - 1)]));
    }
  };

  // One input-side and one recurrent GEMM per cell; GRU adds the
  // candidate block's recurrent GEMM, which needs r ⊙ h_prev first.
  const int gemms = lstm ? 2 : 3;

  // One lambda per direction to emit the cell chain.
  auto emit_cells = [&](int dir) {
    const rnn::LayerParams* params =
        opts_.executable ? &net_.layer(dir, l) : nullptr;
    for (int s = 0; s < steps; ++s) {
      // Input index this processing step consumes.
      const int ti = dir == 0 ? s : steps - 1 - s;
      std::vector<Access> acc;
      if (s > 0) acc.push_back(in(ctx.addr_h(dir, l, s - 1)));
      acc.push_back(in(l == 0 ? ctx.addr_x(ti) : ctx.addr_merged(l - 1, ti)));
      fwd_barrier_in(acc);
      if (sched_.sequential_directions && dir == 1 && s == 0) {
        // Framework emulation: the reverse sweep starts only after the
        // forward sweep of the same layer finished.
        acc.push_back(in(ctx.addr_h(0, l, steps - 1)));
      }
      const bool fused_merge = sched_.fuse_merge && dir == 0 &&
                               l < ctx.merged_layers();
      if (fused_merge) {
        // Ablation: the forward cell also computes merge(l, t) and thus
        // depends on the reverse cell — the coupling B-Par avoids.
        acc.push_back(in(ctx.addr_h(1, l, steps - 1 - s)));
        acc.push_back(out(ctx.addr_merged(l, s)));
      }
      acc.push_back(out(ctx.addr_h(dir, l, s)));

      RowsFn body;
      if (opts_.executable) {
        body = [this, ws = ctx.ws, params, dir, l, s, ti, lstm, fused_merge,
                steps, r0 = ctx.r0](int /*chunk*/, int row0, int nrows) {
          const NetworkConfig& c = cfg_;
          const auto slice = [&](auto v) { return row_slice(v, row0, nrows); };
          const ConstMatrixView x =
              l == 0 ? x_[static_cast<std::size_t>(ti)].cview().block(
                           r0 + row0, 0, nrows, c.input_size)
                     : slice(ws->merged(l - 1, ti).cview());
          const ConstMatrixView h_prev =
              slice(s == 0 ? ws->zero_state.cview()
                           : ws->tape(dir, l, s - 1).h.cview());
          ConstMatrixView c_prev;
          if (lstm) {
            c_prev = slice(s == 0 ? ws->zero_state.cview()
                                  : ws->tape(dir, l, s - 1).c.cview());
          }
          rnn::cell_forward(*params, x, h_prev, c_prev,
                            ws->tape(dir, l, s).views_rows(row0, nrows));
          if (fused_merge) {
            rnn::merge_forward(
                c.merge, slice(ws->tape(0, l, s).h.cview()),
                slice(ws->tape(1, l, steps - 1 - s).h.cview()),
                slice(ws->merged(l, s).view()));
          }
        };
      }

      TaskSpec spec = cell_spec(dir, s);
      if (fused_merge) {
        spec.flops += rnn::merge_flops(cfg.merge, ctx.rb, cfg.hidden_size);
      }
      add_task(std::move(acc), std::move(spec), gemms, {}, std::move(body),
               /*cell=*/true);
    }
  };

  if (sched_.fuse_merge) {
    emit_cells(1);  // reverse first: fused forward cells read reverse h
    emit_cells(0);
  } else {
    emit_cells(0);
    emit_cells(1);
  }

  // Merge tasks of this layer (kept separate — the core B-Par idea).
  if (l < ctx.merged_layers() && !sched_.fuse_merge) {
    rnn::Workspace* ws = ctx.ws;
    for (int t = 0; t < steps; ++t) {
      std::vector<Access> acc{in(ctx.addr_h(0, l, t)),
                              in(ctx.addr_h(1, l, steps - 1 - t)),
                              out(ctx.addr_merged(l, t))};
      std::function<void()> fn;
      if (opts_.executable) {
        fn = [this, ws, l, t, steps] {
          rnn::merge_forward(cfg_.merge, ws->tape(0, l, t).h.cview(),
                             ws->tape(1, l, steps - 1 - t).h.cview(),
                             ws->merged(l, t).view());
        };
      }
      TaskSpec spec;
      spec.kind = TaskKind::kMerge;
      spec.flops = rnn::merge_flops(cfg.merge, ctx.rb, cfg.hidden_size);
      spec.working_set_bytes =
          rnn::merge_working_set_bytes(cfg.merge, ctx.rb, cfg.hidden_size);
      spec.layer = l;
      spec.step = t;
      spec.replica = ctx.rep;
      spec.name = "m" + std::to_string(l) + "." + std::to_string(t);
      add_task(std::move(acc), std::move(spec), 0, std::move(fn));
    }
  }

  // Per-layer barrier (framework emulation): gate the next layer on every
  // merged output of this one.
  if (sched_.per_layer_barriers && l < ctx.merged_layers()) {
    std::vector<Access> acc;
    for (int t = 0; t < steps; ++t) acc.push_back(in(ctx.addr_merged(l, t)));
    acc.push_back(out(fwd_tokens_[static_cast<std::size_t>(l)]));
    TaskSpec spec;
    spec.kind = TaskKind::kBarrier;
    spec.cost_hint_ns = 1000;
    spec.layer = l;
    spec.replica = ctx.rep;
    add_task(std::move(acc), std::move(spec), 0, {});
  }
}

void TrainingProgram::build_loss_and_dense(ReplicaCtx& ctx) {
  const NetworkConfig& cfg = cfg_;
  const int steps = cfg.seq_length;
  const int last = cfg.num_layers - 1;
  rnn::Workspace* ws = ctx.ws;

  // Many-to-one: single final merge of the two last cells (9f with 9r).
  if (!cfg.many_to_many) {
    std::vector<Access> acc{in(ctx.addr_h(0, last, steps - 1)),
                            in(ctx.addr_h(1, last, steps - 1)),
                            out(ctx.addr_final())};
    std::function<void()> fn;
    if (opts_.executable) {
      fn = [this, ws, last, steps] {
        rnn::merge_forward(cfg_.merge,
                           ws->tape(0, last, steps - 1).h.cview(),
                           ws->tape(1, last, steps - 1).h.cview(),
                           ws->final_merged.view());
      };
    }
    TaskSpec spec;
    spec.kind = TaskKind::kMerge;
    spec.flops = rnn::merge_flops(cfg.merge, ctx.rb, cfg.hidden_size);
    spec.working_set_bytes =
        rnn::merge_working_set_bytes(cfg.merge, ctx.rb, cfg.hidden_size);
    spec.layer = last;
    spec.replica = ctx.rep;
    spec.name = "final_merge";
    add_task(std::move(acc), std::move(spec), 0, std::move(fn));
  }

  const double weight =
      static_cast<double>(ctx.rb) /
      (static_cast<double>(total_batch_) * ctx.outputs());
  for (int t = 0; t < ctx.outputs(); ++t) {
    const void* y_addr =
        cfg.many_to_many ? ctx.addr_merged(last, t) : ctx.addr_final();
    std::vector<Access> acc{in(y_addr), out(ctx.addr_probs(t)),
                            out(ctx.addr_loss(t))};
    std::function<void()> fn;
    if (opts_.executable) {
      fn = [this, ws, t, weight, &losses = losses_, rep = ctx.rep,
            outputs = ctx.outputs(), m2m = cfg.many_to_many, last,
            r0 = ctx.r0, rb = ctx.rb] {
        ConstMatrixView y =
            m2m ? ws->merged(last, t).cview() : ws->final_merged.cview();
        MatrixView logits = ws->logits(t).view();
        kernels::gemm_nt(y, net_.w_out.cview(), logits);
        kernels::add_bias_rows(logits, net_.b_out.cview().row(0));
        kernels::softmax_rows(logits, ws->probs(t).view());
        const std::size_t offset =
            m2m ? static_cast<std::size_t>(t) * total_batch_ + r0
                : static_cast<std::size_t>(r0);
        const auto lbl = std::span<const int>(labels_).subspan(
            offset, static_cast<std::size_t>(rb));
        losses[static_cast<std::size_t>(rep) * outputs + t] =
            kernels::cross_entropy(ws->probs(t).cview(), lbl) * weight;
      };
    }
    TaskSpec spec;
    spec.kind = TaskKind::kLoss;
    spec.flops = rnn::dense_forward_flops(ctx.rb, cfg.merged_size(),
                                          cfg.num_classes);
    spec.working_set_bytes =
        static_cast<std::size_t>(cfg.num_classes) *
        (cfg.merged_size() + 2U * ctx.rb) * sizeof(float);
    spec.step = t;
    spec.replica = ctx.rep;
    spec.name = "dense_fwd." + std::to_string(t);
    add_task(std::move(acc), std::move(spec), 1, std::move(fn));
  }
}

void TrainingProgram::build_dense_backward(ReplicaCtx& ctx) {
  const NetworkConfig& cfg = cfg_;
  const int last = cfg.num_layers - 1;
  const int steps = cfg.seq_length;
  rnn::Workspace* ws = ctx.ws;
  rnn::NetworkGrads* grads = ctx.grads;
  const float scale = static_cast<float>(
      static_cast<double>(ctx.rb) /
      (static_cast<double>(total_batch_) * ctx.outputs()));

  for (int t = 0; t < ctx.outputs(); ++t) {
    // Loss gradient: softmax_ce_grad yields (p - onehot)/rb; scaling by
    // rb/(B*outputs) turns it into the whole-batch mean gradient.
    {
      std::vector<Access> acc{in(ctx.addr_probs(t)),
                              out(ctx.addr_dlogits(t))};
      std::function<void()> fn;
      if (opts_.executable) {
        fn = [this, ws, t, scale, m2m = cfg.many_to_many, r0 = ctx.r0,
              rb = ctx.rb] {
          const std::size_t offset =
              m2m ? static_cast<std::size_t>(t) * total_batch_ + r0
                  : static_cast<std::size_t>(r0);
          const auto lbl = std::span<const int>(labels_).subspan(
              offset, static_cast<std::size_t>(rb));
          MatrixView dl = ws->dlogits(t).view();
          kernels::softmax_ce_grad(ws->probs(t).cview(), lbl, dl);
          for (int r = 0; r < dl.rows; ++r) {
            kernels::scale_inplace(dl.row(r), scale);
          }
        };
      }
      TaskSpec spec;
      spec.kind = TaskKind::kLoss;
      spec.flops = 3.0 * ctx.rb * cfg.num_classes;
      spec.step = t;
      spec.replica = ctx.rep;
      spec.name = "loss_grad." + std::to_string(t);
      add_task(std::move(acc), std::move(spec), 0, std::move(fn));
    }
    // Dense backward: dw_out += dlogits^T y; dy += dlogits * W.
    {
      const void* y_addr =
          cfg.many_to_many ? ctx.addr_merged(last, t) : ctx.addr_final();
      const void* dy_addr = cfg.many_to_many ? ctx.addr_dmerged(0, last, t)
                                             : ctx.addr_dfinal();
      std::vector<Access> acc{in(ctx.addr_dlogits(t)), in(y_addr),
                              inout(ctx.addr_grads(2, 0)), out(dy_addr)};
      std::function<void()> fn;
      if (opts_.executable) {
        fn = [this, ws, grads, t, m2m = cfg.many_to_many, last] {
          ConstMatrixView y =
              m2m ? ws->merged(last, t).cview() : ws->final_merged.cview();
          MatrixView dy = m2m ? ws->dmerged(0, last, t).view()
                              : ws->dfinal.view();
          const ConstMatrixView dl = ws->dlogits(t).cview();
          kernels::gemm_tn(dl, y, grads->dw_out.view(), 1.0F, 1.0F);
          kernels::sum_rows_acc(dl, grads->db_out.view().row(0));
          kernels::gemm_nn(dl, net_.w_out.cview(), dy, 1.0F, 1.0F);
        };
      }
      TaskSpec spec;
      spec.kind = TaskKind::kCellBackward;
      spec.flops = rnn::dense_backward_flops(ctx.rb, cfg.merged_size(),
                                             cfg.num_classes);
      spec.working_set_bytes =
          static_cast<std::size_t>(cfg.num_classes) *
          (cfg.merged_size() + 2U * ctx.rb) * sizeof(float);
      spec.step = t;
      spec.replica = ctx.rep;
      spec.name = "dense_bwd." + std::to_string(t);
      add_task(std::move(acc), std::move(spec), 2, std::move(fn));
    }
  }

  // Many-to-one: backward of the final merge seeds the last layer's dh.
  if (!cfg.many_to_many) {
    std::vector<Access> acc{in(ctx.addr_dfinal()),
                            in(ctx.addr_h(0, last, steps - 1)),
                            in(ctx.addr_h(1, last, steps - 1)),
                            inout(ctx.addr_dh(0, last, steps - 1)),
                            inout(ctx.addr_dh(1, last, steps - 1))};
    std::function<void()> fn;
    if (opts_.executable) {
      fn = [this, ws, last, steps] {
        rnn::merge_backward(cfg_.merge,
                            ws->tape(0, last, steps - 1).h.cview(),
                            ws->tape(1, last, steps - 1).h.cview(),
                            ws->dfinal.cview(),
                            ws->dh(0, last, steps - 1).view(),
                            ws->dh(1, last, steps - 1).view());
      };
    }
    TaskSpec spec;
    spec.kind = TaskKind::kMergeBackward;
    spec.flops = rnn::merge_flops(cfg.merge, ctx.rb, cfg.hidden_size);
    spec.layer = last;
    spec.replica = ctx.rep;
    spec.name = "final_merge_bwd";
    add_task(std::move(acc), std::move(spec), 0, std::move(fn));
  }
}

void TrainingProgram::build_backward_layer(ReplicaCtx& ctx, int l) {
  const NetworkConfig& cfg = cfg_;
  const int steps = cfg.seq_length;
  const bool lstm = cfg.cell == CellType::kLstm;
  rnn::Workspace* ws = ctx.ws;
  rnn::NetworkGrads* grads = ctx.grads;
  const int in_width = cfg.layer_input_size(l);
  const double bwd_flops =
      rnn::cell_backward_flops(cfg.cell, ctx.rb, in_width, cfg.hidden_size);
  const std::size_t cell_ws = rnn::cell_working_set_bytes(
      cfg.cell, ctx.rb, in_width, cfg.hidden_size);

  // Backward per-layer barrier (framework emulation): the merge-backward
  // tasks of layer l wait until layer l+1's backward fully drained.
  const void* bwd_token = nullptr;
  if (sched_.per_layer_barriers && l < ctx.merged_layers()) {
    std::vector<Access> acc;
    for (int t = 0; t < steps; ++t) {
      acc.push_back(in(ctx.addr_dmerged(0, l, t)));
      acc.push_back(in(ctx.addr_dmerged(1, l, t)));
    }
    bwd_token = fresh_token();
    acc.push_back(out(bwd_token));
    TaskSpec spec;
    spec.kind = TaskKind::kBarrier;
    spec.cost_hint_ns = 1000;
    spec.layer = l;
    spec.replica = ctx.rep;
    add_task(std::move(acc), std::move(spec), 0, {});
  }

  // Merge backward tasks: both directions' dmerged halves → dh of both
  // directions.
  if (l < ctx.merged_layers() && !sched_.fuse_merge) {
    for (int t = steps - 1; t >= 0; --t) {
      std::vector<Access> acc{in(ctx.addr_dmerged(0, l, t)),
                              in(ctx.addr_dmerged(1, l, t)),
                              in(ctx.addr_h(0, l, t)),
                              in(ctx.addr_h(1, l, steps - 1 - t)),
                              inout(ctx.addr_dh(0, l, t)),
                              inout(ctx.addr_dh(1, l, steps - 1 - t))};
      if (bwd_token != nullptr) acc.push_back(in(bwd_token));
      std::function<void()> fn;
      if (opts_.executable) {
        fn = [this, ws, l, t, steps] {
          for (int src = 0; src < 2; ++src) {
            rnn::merge_backward(cfg_.merge,
                                ws->tape(0, l, t).h.cview(),
                                ws->tape(1, l, steps - 1 - t).h.cview(),
                                ws->dmerged(src, l, t).cview(),
                                ws->dh(0, l, t).view(),
                                ws->dh(1, l, steps - 1 - t).view());
          }
        };
      }
      TaskSpec spec;
      spec.kind = TaskKind::kMergeBackward;
      spec.flops = rnn::merge_flops(cfg.merge, ctx.rb, cfg.hidden_size);
      spec.working_set_bytes =
          rnn::merge_working_set_bytes(cfg.merge, ctx.rb, cfg.hidden_size);
      spec.layer = l;
      spec.step = t;
      spec.replica = ctx.rep;
      spec.name = "mb" + std::to_string(l) + "." + std::to_string(t);
      add_task(std::move(acc), std::move(spec), 0, std::move(fn));
    }
  }

  // Cell backward chains, most recent timestep first. Forward direction
  // before reverse so fused merge-backward (ablation) has its writers
  // created first.
  auto emit_bwd = [&](int dir) {
    const rnn::LayerParams* params =
        opts_.executable ? &net_.layer(dir, l) : nullptr;
    const bool input_grads = l > 0 || opts_.compute_input_grads;
    const int gemms = (lstm ? 3 : 6) + (input_grads ? (lstm ? 1 : 2) : 0);
    for (int s = steps - 1; s >= 0; --s) {
      const int ti = dir == 0 ? s : steps - 1 - s;
      const bool fused_merge = sched_.fuse_merge && dir == 0 &&
                               l < ctx.merged_layers();
      std::vector<Access> acc;
      // The fused-merge ablation also *writes* this dh (merge backward
      // accumulates into it before the cell consumes it).
      acc.push_back(fused_merge ? inout(ctx.addr_dh(dir, l, s))
                                : in(ctx.addr_dh(dir, l, s)));
      if (fused_merge) {
        acc.push_back(in(ctx.addr_dmerged(0, l, s)));
        acc.push_back(in(ctx.addr_dmerged(1, l, s)));
        acc.push_back(inout(ctx.addr_dh(1, l, steps - 1 - s)));
      }
      if (lstm && s < steps - 1) acc.push_back(in(ctx.addr_dc(dir, l, s)));
      acc.push_back(in(ctx.addr_h(dir, l, s)));  // forward tape dependency
      acc.push_back(
          in(l == 0 ? ctx.addr_x(ti) : ctx.addr_merged(l - 1, ti)));
      acc.push_back(inout(ctx.addr_grads(dir, l)));
      if (l > 0) {
        acc.push_back(inout(ctx.addr_dmerged(dir, l - 1, ti)));
      } else if (opts_.compute_input_grads) {
        acc.push_back(inout(ctx.addr_dx(dir, ti)));
      }
      if (s > 0) {
        acc.push_back(inout(ctx.addr_dh(dir, l, s - 1)));
        if (lstm) acc.push_back(out(ctx.addr_dc(dir, l, s - 1)));
      } else {
        acc.push_back(out(ctx.addr_sink(dir, l)));
      }

      RowsFn body;
      if (opts_.executable) {
        body = [this, ws, grads, params, dir, l, s, ti, lstm, fused_merge,
                steps, r0 = ctx.r0,
                rep = ctx.rep](int chunk, int row0, int rows) {
          const NetworkConfig& c = cfg_;
          const auto slice = [&](auto v) { return row_slice(v, row0, rows); };
          if (fused_merge) {
            for (int src = 0; src < 2; ++src) {
              rnn::merge_backward(
                  c.merge, slice(ws->tape(0, l, s).h.cview()),
                  slice(ws->tape(1, l, steps - 1 - s).h.cview()),
                  slice(ws->dmerged(src, l, s).cview()),
                  slice(ws->dh(0, l, s).view()),
                  slice(ws->dh(1, l, steps - 1 - s).view()));
            }
          }
          ConstMatrixView x =
              l == 0 ? x_[static_cast<std::size_t>(ti)].cview().block(
                           r0 + row0, 0, rows, c.input_size)
                     : slice(ws->merged(l - 1, ti).cview());
          ConstMatrixView h_prev =
              slice(s == 0 ? ws->zero_state.cview()
                           : ws->tape(dir, l, s - 1).h.cview());
          ConstMatrixView c_prev;
          if (lstm) {
            c_prev = slice(s == 0 ? ws->zero_state.cview()
                                  : ws->tape(dir, l, s - 1).c.cview());
          }
          ConstMatrixView dc_in;
          if (lstm && s < steps - 1) dc_in = slice(ws->dc(dir, l, s).cview());
          MatrixView dx_acc;
          if (l > 0) {
            dx_acc = slice(ws->dmerged(dir, l - 1, ti).view());
          } else if (ws->has_input_grads()) {
            dx_acc = slice(ws->dx(dir, ti).view());
          }
          MatrixView dh_prev = slice(s > 0 ? ws->dh(dir, l, s - 1).view()
                                           : ws->sink(dir, l).view());
          MatrixView dc_prev;
          if (lstm) {
            dc_prev = slice(s > 0 ? ws->dc(dir, l, s - 1).view()
                                  : ws->sink(dir, l).view());
          }
          const rnn::CellTapeViews tape =
              ws->tape(dir, l, s).views_rows(row0, rows);
          rnn::NetworkGrads& target =
              chunk < 0 ? *grads
                        : chunk_grads_[static_cast<std::size_t>(
                              rep * opts_.intra_op_chunks + chunk)];
          rnn::cell_backward(
              *params, x, h_prev, c_prev,
              {tape.gates, tape.h, tape.c, tape.tanh_c, tape.rh},
              slice(ws->dh(dir, l, s).cview()), dc_in, dx_acc, dh_prev,
              dc_prev, target.layers[dir][static_cast<std::size_t>(l)]);
        };
      }
      TaskSpec spec;
      spec.kind = TaskKind::kCellBackward;
      spec.flops = bwd_flops;
      if (fused_merge) {
        spec.flops += rnn::merge_flops(cfg.merge, ctx.rb, cfg.hidden_size);
      }
      spec.working_set_bytes = cell_ws;
      spec.layer = l;
      spec.step = s;
      spec.replica = ctx.rep;
      spec.name = std::string(dir == 0 ? "bf" : "br") + std::to_string(l) +
                  "." + std::to_string(s);
      add_task(std::move(acc), std::move(spec), gemms, {}, std::move(body),
               /*cell=*/true);
    }
  };
  emit_bwd(0);
  emit_bwd(1);

  // Intra-op split: fold each chunk's scratch weight gradients into the
  // layer's, in chunk order, once the layer's last backward cell joined.
  const int chunks = opts_.intra_op_chunks;
  if (chunks <= 1) return;
  for (int dir = 0; dir < 2; ++dir) {
    std::function<void()> fn;
    if (opts_.executable) {
      fn = [this, grads, dir, l, chunks, rep = ctx.rep] {
        auto& layer = grads->layers[dir][static_cast<std::size_t>(l)];
        for (int c = 0; c < chunks; ++c) {
          layer.accumulate(
              chunk_grads_[static_cast<std::size_t>(rep * chunks + c)]
                  .layers[dir][static_cast<std::size_t>(l)]);
        }
      };
    }
    TaskSpec spec;
    spec.kind = TaskKind::kGradReduce;
    const auto params = static_cast<double>(net_.layer(dir, l).param_count());
    spec.flops = chunks * params;
    spec.working_set_bytes =
        static_cast<std::size_t>((chunks + 1) * params) * sizeof(float);
    spec.layer = l;
    spec.replica = ctx.rep;
    spec.name = "fold." + std::to_string(dir) + "." + std::to_string(l);
    add_task({inout(ctx.addr_grads(dir, l))}, std::move(spec), 0,
             std::move(fn));
  }
}

void TrainingProgram::build_reduction() {
  const NetworkConfig& cfg = cfg_;

  // Loss reduction — built for training AND inference graphs.
  {
    std::vector<Access> acc;
    for (const double& slot : losses_) acc.push_back(in(&slot));
    acc.push_back(out(&total_loss_));
    std::function<void()> fn;
    if (opts_.executable) {
      fn = [this] {
        total_loss_ = 0.0;
        for (const double v : losses_) total_loss_ += v;
      };
    }
    TaskSpec spec;
    spec.kind = TaskKind::kLoss;
    spec.name = "reduce.loss";
    add_task(std::move(acc), std::move(spec), 0, std::move(fn));
  }
  if (!opts_.training) return;

  // Shape-mode master-gradient addresses.
  const void* master_dense = opts_.executable
                                 ? static_cast<const void*>(master_grads_.dw_out.data())
                                 : fresh_token();
  std::vector<const void*> master_layer(
      static_cast<std::size_t>(2 * cfg.num_layers));
  for (int dir = 0; dir < 2; ++dir) {
    for (int l = 0; l < cfg.num_layers; ++l) {
      master_layer[static_cast<std::size_t>(dir * cfg.num_layers + l)] =
          opts_.executable
              ? static_cast<const void*>(
                    master_grads_.layers[dir][static_cast<std::size_t>(l)]
                        .dw.data())
              : fresh_token();
    }
  }

  // One reduction task per (direction, layer): deterministic replica order.
  for (int dir = 0; dir < 2; ++dir) {
    for (int l = 0; l < cfg.num_layers; ++l) {
      std::vector<Access> acc;
      for (int rep = 0; rep < opts_.num_replicas; ++rep) {
        const void* a =
            opts_.executable
                ? static_cast<const void*>(
                      replica_grads_[static_cast<std::size_t>(rep)]
                          .layers[dir][static_cast<std::size_t>(l)]
                          .dw.data())
                : arenas_[static_cast<std::size_t>(rep)].data() +
                      grads_bases_[static_cast<std::size_t>(rep)] +
                      static_cast<std::size_t>(dir) * cfg.num_layers + l;
        acc.push_back(in(a));
      }
      acc.push_back(
          inout(master_layer[static_cast<std::size_t>(dir * cfg.num_layers + l)]));
      std::function<void()> fn;
      if (opts_.executable) {
        fn = [this, dir, l] {
          auto& master =
              master_grads_.layers[dir][static_cast<std::size_t>(l)];
          for (auto& rg : replica_grads_) {
            master.accumulate(rg.layers[dir][static_cast<std::size_t>(l)]);
          }
        };
      }
      TaskSpec spec;
      spec.kind = TaskKind::kGradReduce;
      const auto& shape_ref = net_.layer(dir, l);
      spec.flops = 2.0 * opts_.num_replicas *
                   static_cast<double>(shape_ref.param_count());
      spec.working_set_bytes =
          (opts_.num_replicas + 1) * shape_ref.param_count() * sizeof(float);
      spec.layer = l;
      spec.name = "reduce." + std::to_string(dir) + "." + std::to_string(l);
      add_task(std::move(acc), std::move(spec), 0, std::move(fn));
    }
  }

  // Dense-layer gradient reduction.
  {
    std::vector<Access> acc;
    for (int rep = 0; rep < opts_.num_replicas; ++rep) {
      const void* a =
          opts_.executable
              ? static_cast<const void*>(
                    replica_grads_[static_cast<std::size_t>(rep)].dw_out.data())
              : arenas_[static_cast<std::size_t>(rep)].data() +
                    grads_bases_[static_cast<std::size_t>(rep)] +
                    2U * static_cast<std::size_t>(cfg.num_layers);
      acc.push_back(in(a));
    }
    acc.push_back(inout(master_dense));
    std::function<void()> fn;
    if (opts_.executable) {
      fn = [this] {
        for (auto& rg : replica_grads_) {
          kernels::accumulate(master_grads_.dw_out.view(), rg.dw_out.cview());
          kernels::accumulate(master_grads_.db_out.view(),
                              rg.db_out.cview());
        }
      };
    }
    TaskSpec spec;
    spec.kind = TaskKind::kGradReduce;
    spec.flops = 2.0 * opts_.num_replicas *
                 static_cast<double>(cfg.num_classes) * cfg.merged_size();
    spec.name = "reduce.dense";
    add_task(std::move(acc), std::move(spec), 0, std::move(fn));
  }
}

}  // namespace bpar::graph
