// Task-graph structure tests: task counts, the Fig. 2 dependency shape,
// barrier-free vs per-layer-barrier critical paths, and the fuse-merge
// ablation's extra coupling.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/brnn_graph.hpp"
#include "rnn/network.hpp"

namespace bpar::graph {
namespace {

using rnn::CellType;
using rnn::MergeOp;
using rnn::NetworkConfig;
using taskrt::TaskKind;

NetworkConfig small_config(bool m2m, int layers = 3, int seq = 3) {
  NetworkConfig cfg;
  cfg.cell = CellType::kLstm;
  cfg.merge = MergeOp::kConcat;
  cfg.input_size = 4;
  cfg.hidden_size = 5;
  cfg.num_layers = layers;
  cfg.seq_length = seq;
  cfg.batch_size = 4;
  cfg.num_classes = 3;
  cfg.many_to_many = m2m;
  return cfg;
}

std::size_t count_kind(const taskrt::TaskGraph& g, TaskKind kind) {
  std::size_t n = 0;
  for (taskrt::TaskId id = 0; id < g.size(); ++id) {
    if (g.task(id).spec.kind == kind) ++n;
  }
  return n;
}

TEST(GraphStructure, ManyToOneTaskCounts) {
  const NetworkConfig cfg = small_config(false);  // L=3, T=3
  rnn::Network net(cfg);
  BuildOptions bo;
  TrainingProgram prog(net, cfg.batch_size, bo);
  const auto& g = prog.graph();

  // Forward cells: 2 dirs x 3 layers x 3 steps = 18.
  EXPECT_EQ(count_kind(g, TaskKind::kCellForward), 18U);
  // Merges: (L-1)*T interior + 1 final = 7.
  EXPECT_EQ(count_kind(g, TaskKind::kMerge), 7U);
  // Backward cells: 18 cell-bwd + 1 dense-bwd task.
  EXPECT_EQ(count_kind(g, TaskKind::kCellBackward), 19U);
  // Merge backward: interior 6 + final 1.
  EXPECT_EQ(count_kind(g, TaskKind::kMergeBackward), 7U);
  // Loss forward + loss grad + loss reduction.
  EXPECT_EQ(count_kind(g, TaskKind::kLoss), 3U);
  // Gradient reductions: 2*L layer + dense = 7.
  EXPECT_EQ(count_kind(g, TaskKind::kGradReduce), 7U);
  EXPECT_EQ(count_kind(g, TaskKind::kBarrier), 0U);  // B-Par: barrier-free
}

TEST(GraphStructure, ManyToManyHasMorePerStepWork) {
  const NetworkConfig cfg = small_config(true);
  rnn::Network net(cfg);
  TrainingProgram prog(net, cfg.batch_size, {});
  const auto& g = prog.graph();
  // Last layer also merges every step: L*T = 9 merges, no final merge.
  EXPECT_EQ(count_kind(g, TaskKind::kMerge), 9U);
  // 3 dense_fwd + 3 loss_grad + 1 loss reduction.
  EXPECT_EQ(count_kind(g, TaskKind::kLoss), 7U);
}

TEST(GraphStructure, InferenceGraphHasNoBackwardTasks) {
  const NetworkConfig cfg = small_config(false);
  rnn::Network net(cfg);
  BuildOptions bo;
  bo.training = false;
  TrainingProgram prog(net, cfg.batch_size, bo);
  const auto& g = prog.graph();
  EXPECT_EQ(count_kind(g, TaskKind::kCellBackward), 0U);
  EXPECT_EQ(count_kind(g, TaskKind::kMergeBackward), 0U);
  EXPECT_EQ(count_kind(g, TaskKind::kGradReduce), 0U);
}

TEST(GraphStructure, Fig2StyleDependencies) {
  // The paper's Fig. 2 (L=3, T=3 many-to-one): reverse cell 2r feeds the
  // merge 2f2r and reverse cell 3r; forward cell 1f feeds 2f and merge
  // 1f3r. We verify reachability of the equivalents.
  const NetworkConfig cfg = small_config(false);
  rnn::Network net(cfg);
  TrainingProgram prog(net, cfg.batch_size, {});
  const auto& g = prog.graph();

  auto find_task = [&](const std::string& name) {
    for (taskrt::TaskId id = 0; id < g.size(); ++id) {
      if (g.task(id).spec.name == name) return id;
    }
    ADD_FAILURE() << "task not found: " << name;
    return taskrt::kInvalidTask;
  };

  // Layer-0 cells; our naming: f0.t / r0.k; merge m0.t (t = input index).
  const auto f0_0 = find_task("f0.0");
  const auto f0_1 = find_task("f0.1");
  const auto r0_1 = find_task("r0.1");  // processes input index T-1-1 = 1
  const auto r0_2 = find_task("r0.2");
  const auto m0_1 = find_task("m0.1");  // merges f0.1 with r0.1
  const auto f1_1 = find_task("f1.1");
  const auto r1_1 = find_task("r1.1");

  EXPECT_TRUE(g.reaches(f0_0, f0_1));  // forward chain
  EXPECT_TRUE(g.reaches(r0_1, r0_2));  // reverse chain
  EXPECT_TRUE(g.reaches(f0_1, m0_1));  // cell → merge
  EXPECT_TRUE(g.reaches(r0_1, m0_1));
  EXPECT_TRUE(g.reaches(m0_1, f1_1));  // merge feeds next layer fwd cell
  EXPECT_TRUE(g.reaches(m0_1, r1_1));  // ... and the reverse cell
  // Crucially, no dependency between same-layer forward and reverse cells.
  EXPECT_FALSE(g.reaches(f0_0, r0_1));
  EXPECT_FALSE(g.reaches(r0_1, f0_1));
}

TEST(GraphStructure, BackwardMirrorsForward) {
  const NetworkConfig cfg = small_config(false);
  rnn::Network net(cfg);
  TrainingProgram prog(net, cfg.batch_size, {});
  const auto& g = prog.graph();
  auto find_task = [&](const std::string& name) {
    for (taskrt::TaskId id = 0; id < g.size(); ++id) {
      if (g.task(id).spec.name == name) return id;
    }
    return taskrt::kInvalidTask;
  };
  const auto final_merge_bwd = find_task("final_merge_bwd");
  const auto bf2_2 = find_task("bf2.2");  // last layer, last step backward
  const auto bf0_0 = find_task("bf0.0");  // first layer, first step backward
  ASSERT_NE(final_merge_bwd, taskrt::kInvalidTask);
  ASSERT_NE(bf2_2, taskrt::kInvalidTask);
  EXPECT_TRUE(g.reaches(final_merge_bwd, bf2_2));
  EXPECT_TRUE(g.reaches(bf2_2, bf0_0));
  // Forward of a cell precedes its own backward.
  EXPECT_TRUE(g.reaches(find_task("f2.2"), bf2_2));
}

TEST(GraphStructure, BarriersLengthenCriticalPath) {
  const NetworkConfig cfg = small_config(false, 4, 4);
  rnn::Network net(cfg);
  TrainingProgram free_prog(net, cfg.batch_size, {});
  BuildOptions barrier_opts;
  barrier_opts.schedule_profile = "framework";
  TrainingProgram barrier_prog(net, cfg.batch_size, barrier_opts);
  EXPECT_GT(barrier_prog.graph().critical_path_length(),
            free_prog.graph().critical_path_length());
}

TEST(GraphStructure, FuseMergeCouplesDirections) {
  const NetworkConfig cfg = small_config(false, 3, 4);
  rnn::Network net(cfg);
  TrainingProgram separate(net, cfg.batch_size, {});
  BuildOptions fused_opts;
  fused_opts.schedule_profile = "fused_merge";
  TrainingProgram fused(net, cfg.batch_size, fused_opts);
  // Fused merges serialize fwd cells behind the full reverse chain → a
  // strictly longer critical path (that's why B-Par keeps merges separate).
  EXPECT_GT(fused.graph().critical_path_length(),
            separate.graph().critical_path_length());
  // And fewer tasks (merge work absorbed into cells).
  EXPECT_LT(fused.graph().size(), separate.graph().size());
}

TEST(GraphStructure, ReplicasMultiplyTasksAndAddReductions) {
  const NetworkConfig cfg = small_config(false);
  rnn::Network net(cfg);
  TrainingProgram single(net, cfg.batch_size, {});
  BuildOptions four;
  four.num_replicas = 4;
  TrainingProgram quad(net, cfg.batch_size, four);
  EXPECT_EQ(count_kind(quad.graph(), TaskKind::kCellForward),
            4U * count_kind(single.graph(), TaskKind::kCellForward));
  // Same number of reduction tasks (they just read more inputs).
  EXPECT_EQ(count_kind(quad.graph(), TaskKind::kGradReduce),
            count_kind(single.graph(), TaskKind::kGradReduce));
}

TEST(GraphStructure, ShapeOnlyGraphMatchesExecutableStructure) {
  const NetworkConfig cfg = small_config(false);
  rnn::Network net(cfg);
  TrainingProgram executable(net, cfg.batch_size, {});
  BuildOptions shape;
  shape.executable = false;
  TrainingProgram shaped(net, cfg.batch_size, shape);
  EXPECT_EQ(executable.graph().size(), shaped.graph().size());
  EXPECT_EQ(executable.graph().edge_count(), shaped.graph().edge_count());
  EXPECT_EQ(executable.graph().critical_path_length(),
            shaped.graph().critical_path_length());
}

std::vector<std::size_t> kind_histogram(const taskrt::TaskGraph& g) {
  std::vector<std::size_t> counts(taskrt::kNumTaskKinds, 0);
  for (taskrt::TaskId id = 0; id < g.size(); ++id) {
    ++counts[static_cast<std::size_t>(g.task(id).spec.kind)];
  }
  return counts;
}

// The baselines the simulator times are the graphs the executors run: for
// the B-Seq and framework profiles, executable and shape-only builds with
// equal options agree in tasks, task kinds and edges.
TEST(GraphStructure, BaselineProfilesShapeOnlyMatchesExecutable) {
  const NetworkConfig cfg = small_config(true, 3, 4);
  rnn::Network net(cfg);
  for (const bool training : {true, false}) {
    BuildOptions bseq;
    bseq.num_replicas = 2;
    bseq.schedule_profile = "bseq";
    BuildOptions framework;
    framework.schedule_profile = "framework";
    framework.intra_op_chunks = 2;
    for (BuildOptions bo : {bseq, framework}) {
      bo.training = training;
      const TrainingProgram executable(net, cfg.batch_size, bo);
      bo.executable = false;
      const TrainingProgram shaped(net, cfg.batch_size, bo);
      const std::string tag =
          bo.schedule_profile + (training ? " train" : " infer");
      EXPECT_EQ(executable.graph().size(), shaped.graph().size()) << tag;
      EXPECT_EQ(executable.graph().edge_count(), shaped.graph().edge_count())
          << tag;
      EXPECT_EQ(kind_histogram(executable.graph()),
                kind_histogram(shaped.graph()))
          << tag;
    }
  }
}

TEST(GraphStructure, BSeqChainsEachReplica) {
  const NetworkConfig cfg = small_config(false);
  rnn::Network net(cfg);
  BuildOptions bo;
  bo.num_replicas = 2;
  TrainingProgram bpar(net, cfg.batch_size, bo);
  bo.schedule_profile = "bseq";
  TrainingProgram bseq(net, cfg.batch_size, bo);
  // Same tasks, but each replica's are now one serial chain: the critical
  // path spans all of one replica's tasks.
  EXPECT_EQ(bseq.graph().size(), bpar.graph().size());
  EXPECT_GT(bseq.graph().critical_path_length(),
            bpar.graph().critical_path_length());
  EXPECT_GE(bseq.graph().critical_path_length(),
            (bpar.graph().size() - 8) / 2);  // 8 cross-replica reductions
}

TEST(GraphStructure, IntraOpChunksExpandShapeGraphs) {
  const NetworkConfig cfg = small_config(false);
  rnn::Network net(cfg);
  BuildOptions shape;
  shape.executable = false;
  TrainingProgram plain(net, cfg.batch_size, shape);
  shape.intra_op_chunks = 4;
  TrainingProgram chunked(net, cfg.batch_size, shape);
  EXPECT_GT(chunked.graph().size(), plain.graph().size());
  EXPECT_GT(count_kind(chunked.graph(), TaskKind::kGemmChunk), 0U);
}

TEST(GraphStructure, SpecsCarryFlopsAndWorkingSets) {
  const NetworkConfig cfg = small_config(false);
  rnn::Network net(cfg);
  TrainingProgram prog(net, cfg.batch_size, {});
  const auto& g = prog.graph();
  for (taskrt::TaskId id = 0; id < g.size(); ++id) {
    const auto& spec = g.task(id).spec;
    if (spec.kind == TaskKind::kCellForward ||
        spec.kind == TaskKind::kCellBackward) {
      EXPECT_GT(spec.flops, 0.0) << spec.name;
      EXPECT_GT(spec.working_set_bytes, 0U) << spec.name;
    }
  }
}

TEST(GraphStructure, CriticalPathIndependentOfSeqLengthWithoutBarriers) {
  // B-Par's signature property: with enough cores, longer per-layer chains
  // overlap across layers/directions. The critical path grows linearly in
  // T + L (one diagonal sweep), NOT as L*T like the barrier version.
  rnn::Network net8(small_config(false, 2, 8));
  rnn::Network net4(small_config(false, 2, 4));
  TrainingProgram p8(net8, 4, {});
  TrainingProgram p4(net4, 4, {});
  const auto cp8 = p8.graph().critical_path_length();
  const auto cp4 = p4.graph().critical_path_length();
  // Doubling T should add roughly T extra tasks on the path, not 2x L*T.
  EXPECT_LT(cp8, cp4 * 2U);
  EXPECT_GT(cp8, cp4);
}

}  // namespace
}  // namespace bpar::graph
