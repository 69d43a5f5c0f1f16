// DOT / Chrome-trace export tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "taskrt/export.hpp"
#include "taskrt/runtime.hpp"

namespace bpar::taskrt {
namespace {

TaskGraph diamond(int& a, int& b, int& c) {
  TaskGraph g;
  TaskSpec root;
  root.name = "root";
  root.kind = TaskKind::kCellForward;
  g.add([] {}, {out(&a)}, root);
  TaskSpec left;
  left.name = "left \"quoted\"";
  left.kind = TaskKind::kMerge;
  g.add([] {}, {in(&a), out(&b)}, left);
  TaskSpec right;
  right.kind = TaskKind::kCellBackward;  // unnamed → kind label
  g.add([] {}, {in(&a), out(&c)}, right);
  TaskSpec join;
  join.name = "join";
  g.add([] {}, {in(&b), in(&c)}, join);
  return g;
}

TEST(DotExport, ContainsNodesEdgesAndEscapes) {
  int a = 0;
  int b = 0;
  int c = 0;
  const TaskGraph g = diamond(a, b, c);
  std::ostringstream os;
  write_dot(g, os);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph bpar"), std::string::npos);
  EXPECT_NE(dot.find("t0 -> t1"), std::string::npos);
  EXPECT_NE(dot.find("t0 -> t2"), std::string::npos);
  EXPECT_NE(dot.find("t1 -> t3"), std::string::npos);
  EXPECT_NE(dot.find("t2 -> t3"), std::string::npos);
  EXPECT_NE(dot.find("root"), std::string::npos);
  EXPECT_NE(dot.find("left \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(dot.find("cell_bwd 2"), std::string::npos);  // unnamed fallback
  EXPECT_EQ(dot.find("truncated"), std::string::npos);
}

TEST(DotExport, EscapesBackslashesAndNewlines) {
  TaskGraph g;
  int a = 0;
  TaskSpec spec;
  spec.name = "path\\to\nthing";
  g.add([] {}, {out(&a)}, spec);
  std::ostringstream os;
  write_dot(g, os);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("path\\\\to\\nthing"), std::string::npos);
  // No raw newline may survive inside a label: every line with a label
  // attribute must also close it.
  std::istringstream lines(dot);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("label=\"") != std::string::npos) {
      EXPECT_NE(line.rfind('"'), line.find("label=\"") + 6) << line;
    }
  }
}

TEST(ChromeTrace, EscapedNamesProduceValidJson) {
  TaskGraph g;
  int a = 0;
  TaskSpec spec;
  spec.name = "bad \"name\"\nwith\\stuff";
  g.add([] {}, {out(&a)}, spec);
  Runtime rt({.num_workers = 1, .record_trace = true});
  const RunStats stats = rt.run(g);
  std::ostringstream os;
  write_unified_trace(g, stats, os);
  const bpar::obs::JsonValue doc = bpar::obs::json_parse(os.str());
  ASSERT_TRUE(doc.is_array());
  bool found = false;
  for (const auto& ev : doc.array) {
    const auto* name = ev.find("name");
    if (name != nullptr && name->str == "bad \"name\"\nwith\\stuff") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(UnifiedTrace, MergesTaskRowsAndSpanRows) {
  bpar::obs::clear();
  bpar::obs::set_tracing_enabled(true);
  int a = 0;
  int b = 0;
  int c = 0;
  TaskGraph g = diamond(a, b, c);
  Runtime rt({.num_workers = 2, .record_trace = true});
  const RunStats stats = rt.run(g);
  bpar::obs::set_tracing_enabled(false);

  std::ostringstream os;
  write_unified_trace(g, stats, os);
  const bpar::obs::JsonValue doc = bpar::obs::json_parse(os.str());
  ASSERT_TRUE(doc.is_array());
  bool saw_task_row = false;
  bool saw_span_row = false;
  bool saw_named_task = false;
  bool saw_counter = false;
  std::size_t ring_task_slices = 0;
  for (const auto& ev : doc.array) {
    const std::string& ph = ev.at("ph").str;
    if (ph == "M") {
      const std::string& name = ev.at("args").at("name").str;
      if (name.rfind("tasks w", 0) == 0) saw_task_row = true;
      if (name.find("(spans)") != std::string::npos) saw_span_row = true;
    }
    if (ph == "C" && ev.at("name").str == "ready_fifo_depth") {
      saw_counter = true;
    }
    if (ph == "X") {
      if (ev.at("name").str == "root") saw_named_task = true;
      // Ring rows (tid >= 100) must not duplicate the fully-named task
      // slices already emitted on the worker rows.
      if (ev.at("tid").number >= 100.0 && ev.at("cat").str == "task") {
        ++ring_task_slices;
      }
      EXPECT_GE(ev.at("ts").number, 0.0);
    }
  }
  EXPECT_TRUE(saw_task_row);
  EXPECT_TRUE(saw_span_row);
  EXPECT_TRUE(saw_named_task);
  EXPECT_TRUE(saw_counter);
  EXPECT_EQ(ring_task_slices, 0U);
  bpar::obs::clear();
}

TEST(DotExport, TruncatesLargeGraphs) {
  TaskGraph g;
  std::vector<int> slots(50);
  for (auto& s : slots) g.add([] {}, {out(&s)});
  std::ostringstream os;
  write_dot(g, os, {.max_tasks = 10});
  const std::string dot = os.str();
  EXPECT_NE(dot.find("t9 "), std::string::npos);
  EXPECT_EQ(dot.find("t10 "), std::string::npos);
  EXPECT_NE(dot.find("40 more tasks"), std::string::npos);
}

TEST(ChromeTrace, EmitsOneEventPerTask) {
  int a = 0;
  int b = 0;
  int c = 0;
  TaskGraph g = diamond(a, b, c);
  Runtime rt({.num_workers = 2, .record_trace = true});
  const RunStats stats = rt.run(g);
  std::ostringstream os;
  write_unified_trace(g, stats, os);
  const bpar::obs::JsonValue doc = bpar::obs::json_parse(os.str());
  ASSERT_TRUE(doc.is_array());
  // Task slices sit on the worker rows (tid < 100), one per task.
  std::vector<std::string> names;
  std::vector<std::string> cats;
  for (const auto& ev : doc.array) {
    if (ev.at("ph").str == "X" && ev.at("tid").number < 100.0) {
      names.push_back(ev.at("name").str);
      cats.push_back(ev.at("cat").str);
    }
  }
  EXPECT_EQ(names.size(), 4U);
  EXPECT_NE(std::find(names.begin(), names.end(), "root"), names.end());
  EXPECT_NE(std::find(cats.begin(), cats.end(), "merge"), cats.end());
}

TEST(ChromeTrace, RequiresRecordedTrace) {
  int a = 0;
  int b = 0;
  int c = 0;
  TaskGraph g = diamond(a, b, c);
  Runtime rt({.num_workers = 1});  // no trace
  const RunStats stats = rt.run(g);
  std::ostringstream os;
  EXPECT_DEATH(write_unified_trace(g, stats, os), "record_trace");
}

TEST(FileExports, WriteToDisk) {
  int a = 0;
  int b = 0;
  int c = 0;
  TaskGraph g = diamond(a, b, c);
  const std::string dot_path = ::testing::TempDir() + "/bpar_test.dot";
  write_dot_file(g, dot_path);
  std::ifstream in(dot_path);
  EXPECT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first, "digraph bpar {");
}

}  // namespace
}  // namespace bpar::taskrt
