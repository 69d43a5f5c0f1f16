#include "graph/brnn_graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "graph/passes/registry.hpp"
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

  // ---- executable-mode views ----
  [[nodiscard]] ConstMatrixView x_view(int t) const {
    return prog.x_[static_cast<std::size_t>(t)].cview().block(
        r0, 0, rb, cfg().input_size);
  }
  [[nodiscard]] ConstMatrixView layer_input(int l, int t) const {
    return l == 0 ? x_view(t) : ws->merged(l - 1, t).cview();
  }
  [[nodiscard]] std::span<const int> label_view(int t) const {
    const std::size_t offset =
        cfg().many_to_many
            ? static_cast<std::size_t>(t) * prog.total_batch_ + r0
            : static_cast<std::size_t>(r0);
    return std::span<const int>(prog.labels_)
        .subspan(offset, static_cast<std::size_t>(rb));
  }
};

// Sequence-wide input projection of layer 0 for one (replica, direction):
// a packed copy of this replica's input rows and its x·W_x^T image, built
// in time chunks by the input_precompute pass's ops.
struct TrainingProgram::PrecompBuf {
  tensor::Matrix xpack;  // (T*rb) x in_width
  tensor::Matrix proj;   // (T*rb) x gates*hidden
  std::vector<const void*> chunk_addrs;  // dependency address per chunk
  std::vector<int> chunk_begin;          // timestep begin per chunk + T
  int rb = 0;
  int cols = 0;  // gates * hidden
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
  run_passes();
  lower();
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

void TrainingProgram::push_op(passes::Op op) {
  if (chain_token_ != nullptr) op.accesses.push_back(inout(chain_token_));
  ops_.push_back(std::move(op));
}

void TrainingProgram::add_op(std::function<void()> fn,
                             std::vector<Access> accesses, TaskSpec spec,
                             int gemms) {
  passes::Op op;
  op.fn = std::move(fn);
  op.accesses = std::move(accesses);
  op.spec = std::move(spec);
  op.gemms = gemms;
  push_op(std::move(op));
}

void TrainingProgram::add_cell_op(std::vector<Access> accesses, TaskSpec spec,
                                  passes::CellInfo cell) {
  passes::Op op;
  op.accesses = std::move(accesses);
  op.spec = std::move(spec);
  op.chunkable = true;
  op.gemms = passes::cell_forward_gemms(cell.lstm, false, false);
  op.cell = std::move(cell);
  push_op(std::move(op));
}

namespace {

/// Batch rows [row0, row0 + rows) of a replica buffer (empty stays empty).
template <typename View>
View row_slice(View v, int row0, int rows) {
  return v.data == nullptr ? v : v.block(row0, 0, rows, v.cols);
}

/// Installs a chunkable op's row-sliceable body: kept whole for the
/// intra-op split, else bound to all `rows` rows of its replica.
template <typename Body>
void set_rows_body(passes::Op& op, Body body, int chunks, int rows) {
  if (chunks > 1) {
    op.rows_fn = std::move(body);
  } else {
    op.fn = [body = std::move(body), rows] { body(-1, 0, rows); };
  }
}

}  // namespace

auto TrainingProgram::make_cell_fn(passes::CellInfo ci) {
  return [this, ci](int /*chunk*/, int row0, int rows) {
    const NetworkConfig& c = cfg_;
    rnn::Workspace* ws = ci.ws;
    const auto slice = [&](auto v) { return row_slice(v, row0, rows); };
    ConstMatrixView x{};
    if (!ci.precomputed) {
      x = ci.layer == 0
              ? x_[static_cast<std::size_t>(ci.ti)].cview().block(
                    ci.r0 + row0, 0, rows, c.input_size)
              : slice(ws->merged(ci.layer - 1, ci.ti).cview());
    }
    ConstMatrixView h_prev = slice(
        ci.step == 0 ? ws->zero_state.cview()
                     : ws->tape(ci.dir, ci.layer, ci.step - 1).h.cview());
    ConstMatrixView c_prev;
    if (ci.lstm) {
      c_prev = slice(ci.step == 0
                         ? ws->zero_state.cview()
                         : ws->tape(ci.dir, ci.layer, ci.step - 1).c.cview());
    }
    rnn::CellForwardOpts fo;
    fo.fuse_gates = ci.fuse_gates;
    if (ci.precomputed) {
      fo.precomp = ConstMatrixView{
          ci.precomp_row0 + static_cast<std::size_t>(row0) * ci.precomp_cols,
          rows, ci.precomp_cols, ci.precomp_cols};
    }
    rnn::cell_forward_ex(
        *ci.params, x, h_prev, c_prev,
        ws->tape(ci.dir, ci.layer, ci.step).views_rows(row0, rows), fo);
    if (ci.fused_merge) {
      rnn::merge_forward(
          c.merge, slice(ws->tape(0, ci.layer, ci.step).h.cview()),
          slice(ws->tape(1, ci.layer, ci.steps - 1 - ci.step).h.cview()),
          slice(ws->merged(ci.layer, ci.step).view()));
    }
  };
}

void TrainingProgram::run_passes() {
  pass_report_ = {};
  const passes::PassPipeline pipe = passes::make_pipeline(opts_.passes);
  pass_report_.signature = pipe.signature();
  if (pipe.empty()) return;
  BPAR_SPAN("graph.passes");
  passes::PassContext ctx{
      *this,
      opts_.executable,
      opts_.training,
      opts_.dispatch_ns == 0 ? 300 : opts_.dispatch_ns,
      &pass_report_,
      {}};
  pipe.run(ops_, ctx);
}

void TrainingProgram::lower() {
  BPAR_SPAN("graph.lower");
  for (passes::Op& op : ops_) {
    if (op.dead) continue;
    gemm_launches_ += static_cast<std::size_t>(op.gemms);
    if (op.cell.has_value() && opts_.executable) {
      set_rows_body(op, make_cell_fn(*op.cell), opts_.intra_op_chunks,
                    replica_rows(op.spec.replica));
    }
    lower_one(op);
    op = {};  // free it now, so the graph's own allocations can reuse it
  }
  ops_.clear();
  ops_.shrink_to_fit();
}

void TrainingProgram::lower_one(passes::Op& op) {
  const int n = op.chunkable ? opts_.intra_op_chunks : 1;
  if (n <= 1) {
    if (!op.fn) op.fn = [] {};  // barrier tokens and shape-only graphs
    graph_.add(std::move(op.fn), op.accesses, std::move(op.spec));
    return;
  }
  const int rows = replica_rows(op.spec.replica);
  // Intra-op split, the fork-join region of a framework that spreads each
  // cell's GEMMs across cores: N chunk tasks over batch-row slices, each
  // ordered after every earlier access to what the op touches, then a join
  // carrying the op's writes for its consumers.
  std::vector<Access> chunk_acc;
  for (const Access& a : op.accesses) chunk_acc.push_back(in(a.addr));
  std::vector<Access> join_acc = op.accesses;
  for (int c = 0; c < n; ++c) {
    const int row0 = c * rows / n;
    const int count = (c + 1) * rows / n - row0;
    TaskSpec chunk_spec = op.spec;
    chunk_spec.kind = TaskKind::kGemmChunk;
    chunk_spec.flops = op.spec.flops / n;
    chunk_spec.working_set_bytes = op.spec.working_set_bytes / n;
    std::function<void()> fn = [] {};
    if (op.rows_fn) {
      fn = [body = op.rows_fn, c, row0, count] { body(c, row0, count); };
    }
    const void* token = fresh_token();
    chunk_acc.push_back(out(token));
    graph_.add(std::move(fn), chunk_acc, std::move(chunk_spec));
    chunk_acc.pop_back();
    join_acc.push_back(in(token));
  }
  TaskSpec join_spec = std::move(op.spec);
  join_spec.flops = 0.0;
  join_spec.working_set_bytes = 0;
  join_spec.cost_hint_ns = 500;
  graph_.add([] {}, join_acc, std::move(join_spec));
}

// ---- pass hooks ----

passes::OpList TrainingProgram::make_precompute_ops(int rep, int dir,
                                                    int chunks) {
  const NetworkConfig& cfg = cfg_;
  const int steps = cfg.seq_length;
  const int rb = replica_rows(rep);
  const int r0 = row_begin_[static_cast<std::size_t>(rep)];
  const int in_width = cfg.input_size;
  const int gcols = rnn::gate_count(cfg.cell) * cfg.hidden_size;
  const std::size_t key = static_cast<std::size_t>(rep) * 2 + dir;
  if (precomp_.size() < static_cast<std::size_t>(opts_.num_replicas) * 2) {
    precomp_.resize(static_cast<std::size_t>(opts_.num_replicas) * 2);
  }
  if (precomp_[key] != nullptr) return {};
  chunks = std::clamp(chunks, 1, steps);

  auto buf = std::make_unique<PrecompBuf>();
  buf->rb = rb;
  buf->cols = gcols;
  if (opts_.executable) {
    buf->xpack.resize(steps * rb, in_width);
    buf->proj.resize(steps * rb, gcols);
  }
  const int tbase = steps / chunks;
  const int textra = steps % chunks;
  int tcur = 0;
  for (int c = 0; c < chunks; ++c) {
    buf->chunk_begin.push_back(tcur);
    tcur += tbase + (c < textra ? 1 : 0);
  }
  buf->chunk_begin.push_back(steps);

  const rnn::LayerParams* params =
      opts_.executable ? &net_.layer(dir, 0) : nullptr;

  passes::OpList ops;
  for (int c = 0; c < chunks; ++c) {
    const int t0 = buf->chunk_begin[static_cast<std::size_t>(c)];
    const int t1 = buf->chunk_begin[static_cast<std::size_t>(c + 1)];
    const void* addr =
        opts_.executable
            ? static_cast<const void*>(
                  buf->proj.data() +
                  static_cast<std::size_t>(t0) * rb * gcols)
            : fresh_token();
    buf->chunk_addrs.push_back(addr);

    passes::Op op;
    op.spec.kind = TaskKind::kInputPrecompute;
    op.spec.name = std::string("x") + (dir == 0 ? "f" : "r") + "0.c" +
                   std::to_string(c);
    op.spec.layer = 0;
    op.spec.step = t0;
    op.spec.replica = rep;
    op.spec.flops = 2.0 * (t1 - t0) * rb * in_width *
                    static_cast<double>(gcols);
    op.spec.working_set_bytes =
        (static_cast<std::size_t>(t1 - t0) * rb * (in_width + gcols) +
         static_cast<std::size_t>(in_width) * gcols) *
        sizeof(float);
    op.gemms = 1;
    for (int t = t0; t < t1; ++t) {
      op.accesses.push_back(in(
          opts_.executable
              ? static_cast<const void*>(
                    x_[static_cast<std::size_t>(t)].data() +
                    static_cast<std::size_t>(r0) * in_width)
              : static_cast<const void*>(
                    arenas_[static_cast<std::size_t>(rep)].data() +
                    x_bases_[static_cast<std::size_t>(rep)] + t)));
    }
    op.accesses.push_back(out(addr));
    if (opts_.executable) {
      PrecompBuf* b = buf.get();
      op.fn = [this, b, params, t0, t1, rb, r0, in_width] {
        BPAR_SPAN("graph.input_precompute");
        for (int t = t0; t < t1; ++t) {
          tensor::copy(
              x_[static_cast<std::size_t>(t)].cview().block(r0, 0, rb,
                                                            in_width),
              b->xpack.view().block(t * rb, 0, rb, in_width));
        }
        const ConstMatrixView xv =
            b->xpack.cview().block(t0 * rb, 0, (t1 - t0) * rb, in_width);
        MatrixView pv =
            b->proj.view().block(t0 * rb, 0, (t1 - t0) * rb, b->cols);
        kernels::gemm_nn(xv, params->w_input(), pv);
      };
    }
    ops.push_back(std::move(op));
  }
  precomp_[key] = std::move(buf);
  return ops;
}

const void* TrainingProgram::precompute_chunk_addr(int rep, int dir,
                                                   int ti) const {
  const auto& buf = precomp_[static_cast<std::size_t>(rep) * 2 + dir];
  BPAR_CHECK(buf != nullptr, "precompute buffers not built");
  for (std::size_t c = 0; c + 1 < buf->chunk_begin.size(); ++c) {
    if (ti < buf->chunk_begin[c + 1]) return buf->chunk_addrs[c];
  }
  BPAR_CHECK(false, "timestep ", ti, " outside precompute chunks");
  return nullptr;
}

const float* TrainingProgram::precompute_row(int rep, int dir, int ti) const {
  const auto& buf = precomp_[static_cast<std::size_t>(rep) * 2 + dir];
  if (buf == nullptr || !opts_.executable) return nullptr;
  return buf->proj.data() +
         static_cast<std::size_t>(ti) * buf->rb * buf->cols;
}

int TrainingProgram::precompute_cols(int rep, int dir) const {
  const auto& buf = precomp_[static_cast<std::size_t>(rep) * 2 + dir];
  return buf == nullptr ? 0 : buf->cols;
}

// ---- graph construction (intermediate op form) ----

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
    x_bases_.push_back(ctx.x_base);
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

      passes::CellInfo ci;
      ci.ws = ctx.ws;
      ci.params = params;
      ci.rep = ctx.rep;
      ci.dir = dir;
      ci.layer = l;
      ci.step = s;
      ci.ti = ti;
      ci.r0 = ctx.r0;
      ci.rb = ctx.rb;
      ci.steps = steps;
      ci.in_width = in_width;
      ci.hidden = cfg.hidden_size;
      ci.gates = rnn::gate_count(cfg.cell);
      ci.lstm = lstm;
      ci.fused_merge = fused_merge;

      TaskSpec spec = cell_spec(dir, s);
      if (fused_merge) {
        spec.flops += rnn::merge_flops(cfg.merge, ctx.rb, cfg.hidden_size);
      }
      add_cell_op(std::move(acc), std::move(spec), std::move(ci));
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
      add_op(std::move(fn), std::move(acc), std::move(spec));
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
    add_op({}, std::move(acc), std::move(spec));
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
    add_op(std::move(fn), std::move(acc), std::move(spec));
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
    add_op(std::move(fn), std::move(acc), std::move(spec), 1);
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
      add_op(std::move(fn), std::move(acc), std::move(spec));
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
      add_op(std::move(fn), std::move(acc), std::move(spec), 2);
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
    add_op(std::move(fn), std::move(acc), std::move(spec));
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
    add_op({}, std::move(acc), std::move(spec));
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
      add_op(std::move(fn), std::move(acc), std::move(spec));
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

      passes::Op op;
      if (opts_.executable) {
        auto body = [this, ws, grads, params, dir, l, s, ti, lstm,
                     fused_merge, steps, r0 = ctx.r0,
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
        set_rows_body(op, std::move(body), opts_.intra_op_chunks, ctx.rb);
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
      op.accesses = std::move(acc);
      op.spec = std::move(spec);
      op.chunkable = true;
      op.gemms = gemms;
      push_op(std::move(op));
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
    add_op(std::move(fn), {inout(ctx.addr_grads(dir, l))}, std::move(spec));
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
    add_op(std::move(fn), std::move(acc), std::move(spec));
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
      add_op(std::move(fn), std::move(acc), std::move(spec));
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
    add_op(std::move(fn), std::move(acc), std::move(spec));
  }
}

}  // namespace bpar::graph
