// GateFusion: one wide input-side gate GEMM per forward cell.
//
// The fused weight layout (LayerParams stores [x | h_prev] rows x [gate
// blocks] columns) means the LSTM forward is already a single 4H-wide GEMM
// per operand; this pass marks those cells as wide (so analyze can
// attribute them) and rewrites GRU cells, whose input side currently runs
// as two GEMMs (z,r and h̄), into one 3H-wide GEMM: 4 launches → 3. The
// candidate block's *input* contribution is computed before the z,r
// pointwise stage instead of after, which is value-identical — the writes
// are disjoint and each output element's dot product is unchanged.
#include <string>

#include "graph/passes/builtin.hpp"
#include "graph/passes/pass.hpp"

namespace bpar::graph::passes {

namespace {

class GateFusion final : public GraphPass {
 public:
  [[nodiscard]] std::string_view name() const override { return "gate_fusion"; }

  std::size_t run(OpList& ops, PassContext& ctx) override {
    std::size_t cells = 0;
    std::size_t gru_saved = 0;
    for (Op& op : ops) {
      if (op.dead || !op.cell.has_value()) continue;
      CellInfo& ci = *op.cell;
      if (ci.fuse_gates) continue;
      ci.fuse_gates = true;
      op.spec.kind = taskrt::TaskKind::kCellForwardFused;
      const int before = op.gemms;
      op.gemms = cell_forward_gemms(ci.lstm, true, ci.precomputed);
      gru_saved += static_cast<std::size_t>(before - op.gemms);
      ++cells;
    }
    ctx.last_detail = std::to_string(cells) + " cells wide-gate, " +
                      std::to_string(gru_saved) + " GEMM launches removed";
    return cells;
  }
};

}  // namespace

std::unique_ptr<GraphPass> make_gate_fusion() {
  return std::make_unique<GateFusion>();
}

}  // namespace bpar::graph::passes
