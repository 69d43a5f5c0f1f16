// Stub kept so bench/e2e, which names it, builds unchanged. The builder
// emits the paper's Algorithms 1-3 straight into the task graph with no
// rewrite stage (DESIGN.md §5k); this header goes with the next change to
// that benchmark.
#pragma once

#include <string_view>

namespace bpar::graph::passes {

inline constexpr std::string_view kDefaultPassSpec = "none";

}  // namespace bpar::graph::passes
