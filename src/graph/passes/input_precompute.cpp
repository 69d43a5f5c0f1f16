// InputProjectionPrecompute: sequence-wide input GEMM for layer 0.
//
// Layer 0 is the only layer whose inputs (the batch x_t) are all available
// at graph start, so its T input-side GEMMs per (replica, direction) can be
// hoisted into a few (T·B/chunks)×(G·H) GEMM tasks that run concurrently
// with nothing — taking that work OFF the serial recurrent chain
// (Appleyard et al., PAPERS.md). Each per-timestep cell then depends on its
// chunk and copies its row slice into the gate buffer before the recurrent
// beta=1 GEMM, which accumulates in the same order as before: bit-exact.
//
// The buffers and closures live on TrainingProgram (make_precompute_ops);
// this pass only decides where chunks go and rewrites the cell descriptors.
#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/brnn_graph.hpp"
#include "graph/passes/builtin.hpp"
#include "graph/passes/pass.hpp"

namespace bpar::graph::passes {

namespace {

class InputPrecompute final : public GraphPass {
 public:
  explicit InputPrecompute(int chunks) : chunks_(chunks) {}

  [[nodiscard]] std::string_view name() const override {
    return "input_precompute";
  }

  std::size_t run(OpList& ops, PassContext& ctx) override {
    struct Group {
      std::size_t first = 0;
      std::vector<std::size_t> cells;
    };
    // (rep, dir) → layer-0 forward cells, keyed so iteration is stable.
    std::map<int, Group> groups;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      if (op.dead || !op.cell.has_value()) continue;
      const CellInfo& ci = *op.cell;
      if (ci.layer != 0 || ci.precomputed) continue;
      auto [it, inserted] = groups.try_emplace(ci.rep * 2 + ci.dir);
      if (inserted) it->second.first = i;
      it->second.cells.push_back(i);
    }

    std::size_t rewritten = 0;
    std::size_t chunk_ops = 0;
    // Insert positions collected first, applied back-to-front so earlier
    // indices stay valid.
    std::vector<std::pair<std::size_t, OpList>> inserts;
    for (auto& [key, group] : groups) {
      const int rep = key / 2;
      const int dir = key % 2;
      OpList pre = ctx.program.make_precompute_ops(rep, dir, chunks_);
      if (pre.empty()) continue;
      chunk_ops += pre.size();
      for (const std::size_t idx : group.cells) {
        Op& op = ops[idx];
        CellInfo& ci = *op.cell;
        ci.precomputed = true;
        ci.precomp_row0 = ctx.program.precompute_row(rep, dir, ci.ti);
        ci.precomp_cols = ctx.program.precompute_cols(rep, dir);
        op.accesses.push_back(
            taskrt::in(ctx.program.precompute_chunk_addr(rep, dir, ci.ti)));
        op.gemms = cell_forward_gemms(ci.lstm, ci.fuse_gates, true);
        const double input_flops = 2.0 * ci.rb * ci.in_width *
                                   static_cast<double>(ci.gates) * ci.hidden;
        op.spec.flops = std::max(0.0, op.spec.flops - input_flops);
        ++rewritten;
      }
      inserts.emplace_back(group.first, std::move(pre));
    }
    for (auto it = inserts.rbegin(); it != inserts.rend(); ++it) {
      ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(it->first),
                 std::make_move_iterator(it->second.begin()),
                 std::make_move_iterator(it->second.end()));
    }
    ctx.last_detail = std::to_string(rewritten) + " layer-0 cells fed by " +
                      std::to_string(chunk_ops) + " sequence-wide GEMMs";
    return rewritten;
  }

 private:
  int chunks_;
};

}  // namespace

std::unique_ptr<GraphPass> make_input_precompute(int chunks) {
  return std::make_unique<InputPrecompute>(chunks);
}

}  // namespace bpar::graph::passes
