#include "obs/analysis.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"
#include "util/error.hpp"

namespace bpar::obs::analysis {

namespace {

using Seg = std::pair<std::uint64_t, std::uint64_t>;  // [start, end)

std::uint64_t seg_total(const std::vector<Seg>& segs) {
  std::uint64_t total = 0;
  for (const auto& [a, b] : segs) total += b - a;
  return total;
}

/// Sorts + merges overlapping/touching intervals.
std::vector<Seg> normalize(std::vector<Seg> segs) {
  std::sort(segs.begin(), segs.end());
  std::vector<Seg> out;
  for (const auto& [a, b] : segs) {
    if (a >= b) continue;
    if (!out.empty() && a <= out.back().second) {
      out.back().second = std::max(out.back().second, b);
    } else {
      out.emplace_back(a, b);
    }
  }
  return out;
}

/// `segs` minus `cuts` (both normalized); the removed overlap total is
/// added to *removed_ns.
std::vector<Seg> subtract(const std::vector<Seg>& segs,
                          const std::vector<Seg>& cuts,
                          std::uint64_t* removed_ns) {
  std::vector<Seg> out;
  std::size_t ci = 0;
  for (auto [a, b] : segs) {
    while (ci < cuts.size() && cuts[ci].second <= a) ++ci;
    std::size_t c = ci;
    while (a < b && c < cuts.size() && cuts[c].first < b) {
      const auto [ca, cb] = cuts[c];
      if (ca > a) out.emplace_back(a, ca);
      const std::uint64_t cut_lo = std::max(a, ca);
      const std::uint64_t cut_hi = std::min(b, cb);
      if (cut_hi > cut_lo) *removed_ns += cut_hi - cut_lo;
      a = cut_hi;
      ++c;
    }
    if (a < b) out.emplace_back(a, b);
  }
  return out;
}

/// Piecewise-constant "how many tasks are ready but not yet running"
/// function over time, built from (ready_time, start_time) per task.
class ReadyFn {
 public:
  explicit ReadyFn(std::vector<std::pair<std::uint64_t, int>> deltas) {
    std::sort(deltas.begin(), deltas.end());
    int count = 0;
    for (const auto& [t, d] : deltas) {
      count += d;
      if (!times_.empty() && times_.back() == t) {
        counts_.back() = count;
      } else {
        times_.push_back(t);
        counts_.push_back(count);
      }
    }
  }

  /// Splits [a, b) into time where the count is zero (dep-stall) vs.
  /// positive (work existed elsewhere → steal-failure).
  void split(std::uint64_t a, std::uint64_t b, std::uint64_t* zero_ns,
             std::uint64_t* positive_ns) const {
    if (a >= b) return;
    // Index of the region containing `a`: last breakpoint <= a (or "before
    // the first breakpoint", where the count is 0).
    auto it = std::upper_bound(times_.begin(), times_.end(), a);
    std::size_t i = static_cast<std::size_t>(it - times_.begin());
    std::uint64_t t = a;
    while (t < b) {
      const int count = i == 0 ? 0 : counts_[i - 1];
      const std::uint64_t next =
          i < times_.size() ? std::min<std::uint64_t>(times_[i], b) : b;
      (count == 0 ? *zero_ns : *positive_ns) += next - t;
      t = next;
      ++i;
    }
  }

 private:
  std::vector<std::uint64_t> times_;
  std::vector<int> counts_;
};

}  // namespace

char TaskRecord::direction() const {
  std::size_t i = 0;
  if (i + 1 < name.size() && name[i] == 'b') ++i;  // backward pass: bf / br
  if (i + 1 < name.size() && (name[i] == 'f' || name[i] == 'r') &&
      name[i + 1] >= '0' && name[i + 1] <= '9') {
    return name[i];
  }
  return '-';
}

std::pair<std::uint64_t, std::uint64_t> TraceModel::window() const {
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t hi = 0;
  for (const TaskRecord& t : tasks) {
    lo = std::min(lo, t.start_ns);
    hi = std::max(hi, t.end_ns);
  }
  if (tasks.empty()) lo = 0;
  return {lo, hi};
}

IdleBreakdown& IdleBreakdown::operator+=(const IdleBreakdown& other) {
  busy_ns += other.busy_ns;
  dep_stall_ns += other.dep_stall_ns;
  steal_fail_ns += other.steal_fail_ns;
  parked_ns += other.parked_ns;
  fault_ns += other.fault_ns;
  return *this;
}

CriticalPath critical_path(const TraceModel& model) {
  CriticalPath cp;
  const auto [w0, w1] = model.window();
  cp.makespan_ns = w1 > w0 ? w1 - w0 : 0;
  const std::size_t n = model.tasks.size();
  if (n == 0) return cp;

  std::map<std::uint32_t, std::size_t> index;
  for (std::size_t i = 0; i < n; ++i) index[model.tasks[i].id] = i;

  // Kahn topological sweep over pred edges (trace task ids are arbitrary).
  std::vector<std::vector<std::size_t>> succs(n);
  std::vector<std::size_t> pending(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::uint32_t pred : model.tasks[i].preds) {
      const auto it = index.find(pred);
      if (it == index.end()) {
        BPAR_RAISE(util::Error, "trace task ", model.tasks[i].id,
                   " depends on unknown task ", pred);
      }
      succs[it->second].push_back(i);
      ++pending[i];
    }
  }
  std::vector<std::size_t> queue;
  for (std::size_t i = 0; i < n; ++i) {
    if (pending[i] == 0) queue.push_back(i);
  }
  std::vector<std::uint64_t> dist(n, 0);
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> best_pred(n, kNone);
  std::size_t processed = 0;
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const std::size_t i = queue[qi];
    ++processed;
    dist[i] += model.tasks[i].duration_ns();
    for (const std::size_t s : succs[i]) {
      if (dist[i] > dist[s]) {
        dist[s] = dist[i];
        best_pred[s] = i;
      }
      if (--pending[s] == 0) queue.push_back(s);
    }
  }
  if (processed != n) {
    BPAR_RAISE(util::Error, "trace dependency graph has a cycle (",
               n - processed, " tasks unreachable)");
  }

  std::size_t sink = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (dist[i] > dist[sink]) sink = i;
  }
  cp.measured_ns = dist[sink];
  for (std::size_t i = sink; i != kNone; i = best_pred[i]) {
    cp.chain.push_back(model.tasks[i].id);
  }
  std::reverse(cp.chain.begin(), cp.chain.end());
  cp.length = cp.chain.size();

  // Per-(class, layer, direction) share of chain time.
  std::map<std::tuple<std::string, int, char>, ClassBreakdownRow> rows;
  for (std::size_t i = sink; i != kNone; i = best_pred[i]) {
    const TaskRecord& t = model.tasks[i];
    ClassBreakdownRow& row =
        rows[std::make_tuple(t.klass, t.layer, t.direction())];
    row.klass = t.klass;
    row.layer = t.layer;
    row.direction = t.direction();
    row.total_ns += t.duration_ns();
    ++row.tasks;
  }
  for (auto& [key, row] : rows) cp.by_class.push_back(std::move(row));
  std::sort(cp.by_class.begin(), cp.by_class.end(),
            [](const ClassBreakdownRow& a, const ClassBreakdownRow& b) {
              return a.total_ns > b.total_ns;
            });
  return cp;
}

IdleAttribution attribute_idle(const TraceModel& model) {
  IdleAttribution attr;
  const int workers = std::max(model.num_workers, 1);
  attr.per_worker.resize(static_cast<std::size_t>(workers));
  if (model.tasks.empty()) return attr;
  const auto [w0, w1] = model.window();

  std::map<std::uint32_t, const TaskRecord*> by_id;
  for (const TaskRecord& t : model.tasks) by_id[t.id] = &t;

  // Ready-count step function: a task is "ready" from the finish of its
  // last predecessor (window start for roots — submit times are not
  // recorded) until the moment it starts executing.
  std::vector<std::pair<std::uint64_t, int>> deltas;
  deltas.reserve(model.tasks.size() * 2);
  for (const TaskRecord& t : model.tasks) {
    std::uint64_t ready = w0;
    for (const std::uint32_t pred : t.preds) {
      const auto it = by_id.find(pred);
      if (it != by_id.end()) ready = std::max(ready, it->second->end_ns);
    }
    // Clamp: scheduling jitter can stamp a successor's start one sample
    // before its predecessor's recorded end.
    ready = std::min(ready, t.start_ns);
    deltas.emplace_back(ready, +1);
    deltas.emplace_back(t.start_ns, -1);
  }
  const ReadyFn ready_fn(std::move(deltas));

  // Per-worker busy segments and park/fault cut lists.
  std::vector<std::vector<Seg>> busy(static_cast<std::size_t>(workers));
  for (const TaskRecord& t : model.tasks) {
    if (t.worker >= 0 && t.worker < workers && t.end_ns > t.start_ns) {
      busy[static_cast<std::size_t>(t.worker)].emplace_back(t.start_ns,
                                                            t.end_ns);
    }
  }
  std::vector<std::vector<Seg>> parks(static_cast<std::size_t>(workers));
  std::vector<std::vector<Seg>> faults(static_cast<std::size_t>(workers));
  for (const WorkerSpan& s : model.worker_spans) {
    if (s.worker < 0 || s.worker >= workers || s.end_ns <= s.start_ns) {
      continue;
    }
    (s.fault ? faults : parks)[static_cast<std::size_t>(s.worker)]
        .emplace_back(std::max(s.start_ns, w0), std::min(s.end_ns, w1));
  }

  for (int w = 0; w < workers; ++w) {
    const auto wi = static_cast<std::size_t>(w);
    IdleBreakdown& b = attr.per_worker[wi];
    const std::vector<Seg> busy_segs = normalize(std::move(busy[wi]));
    b.busy_ns = seg_total(busy_segs);
    // Gaps = window minus busy.
    std::uint64_t ignored = 0;
    std::vector<Seg> gaps = subtract({{w0, w1}}, busy_segs, &ignored);
    // Precedence: parked, then fault, then ready-based classification.
    gaps = subtract(gaps, normalize(std::move(parks[wi])), &b.parked_ns);
    gaps = subtract(gaps, normalize(std::move(faults[wi])), &b.fault_ns);
    for (const auto& [a, bb] : gaps) {
      ready_fn.split(a, bb, &b.dep_stall_ns, &b.steal_fail_ns);
    }
    attr.total += b;
  }
  return attr;
}

Scorecard make_scorecard(const TraceModel& model, const CriticalPath& cp,
                         const IdleAttribution& idle) {
  Scorecard card;
  card.workers = model.num_workers;
  card.tasks = model.tasks.size();
  card.makespan_ns = cp.makespan_ns;
  for (const TaskRecord& t : model.tasks) card.total_work_ns += t.duration_ns();
  card.critical_path_ns = cp.measured_ns;
  const auto work = static_cast<double>(card.total_work_ns);
  if (card.makespan_ns > 0) {
    card.achieved_parallelism = work / static_cast<double>(card.makespan_ns);
  }
  if (cp.measured_ns > 0) {
    card.max_parallelism = work / static_cast<double>(cp.measured_ns);
  }
  const double capacity =
      static_cast<double>(card.makespan_ns) * std::max(card.workers, 1);
  if (capacity > 0) {
    card.utilization = work / capacity;
    card.dep_stall_frac =
        static_cast<double>(idle.total.dep_stall_ns) / capacity;
    card.steal_fail_frac =
        static_cast<double>(idle.total.steal_fail_ns) / capacity;
    card.parked_frac = static_cast<double>(idle.total.parked_ns) / capacity;
    card.fault_frac = static_cast<double>(idle.total.fault_ns) / capacity;
  }
  std::uint64_t max_busy = 0;
  std::uint64_t sum_busy = 0;
  for (const IdleBreakdown& b : idle.per_worker) {
    max_busy = std::max(max_busy, b.busy_ns);
    sum_busy += b.busy_ns;
  }
  if (sum_busy > 0 && !idle.per_worker.empty()) {
    const double mean = static_cast<double>(sum_busy) /
                        static_cast<double>(idle.per_worker.size());
    card.load_imbalance = static_cast<double>(max_busy) / mean;
  }
  const auto counter = [&](const char* name) -> double {
    const auto it = model.counters.find(name);
    return it == model.counters.end() ? -1.0 : it->second;
  };
  const double steals = counter("steals");
  const double steal_failures = counter("steal_failures");
  if (steals >= 0 && steal_failures >= 0 && steals + steal_failures > 0) {
    card.steal_hit_rate = steals / (steals + steal_failures);
  }
  const double busy_ns = counter("busy_ns");
  const double idle_ns = counter("idle_ns");
  if (busy_ns > 0 && idle_ns >= 0) {
    card.runtime_efficiency = busy_ns / (busy_ns + idle_ns);
  }
  return card;
}

Analysis analyze(const TraceModel& model,
                 std::uint64_t model_critical_path_ns) {
  Analysis analysis;
  analysis.cp = critical_path(model);
  analysis.idle = attribute_idle(model);
  analysis.card = make_scorecard(model, analysis.cp, analysis.idle);
  analysis.card.model_critical_path_ns = model_critical_path_ns;
  return analysis;
}

}  // namespace bpar::obs::analysis
