#include "sim/simulator.hpp"

#include <algorithm>
#include <deque>
#include <queue>
#include <set>

#include "obs/trace.hpp"
#include "util/check.hpp"

namespace bpar::sim {

using taskrt::kInvalidTask;
using taskrt::TaskGraph;
using taskrt::TaskId;

namespace {

struct Completion {
  std::uint64_t time_ns;
  int core;
  TaskId task;
  bool operator>(const Completion& other) const {
    return time_ns > other.time_ns;
  }
};

constexpr std::size_t kNumKinds = taskrt::kNumTaskKinds;

}  // namespace

const char* scheduler_policy_name(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kFifo:
      return "fifo";
    case SchedulerPolicy::kLocalityAware:
      return "locality";
  }
  return "unknown";
}

Simulator::Simulator(SimOptions options) : options_(options) {
  if (options_.cores <= 0) options_.cores = options_.machine.cores;
  BPAR_CHECK(options_.cores >= 1, "need at least one core");
}

SimResult Simulator::run(const TaskGraph& graph,
                         std::span<const std::uint64_t> cost_ns) const {
  BPAR_SPAN("sim.run");
  BPAR_CHECK(cost_ns.size() == graph.size(), "cost vector size mismatch");
  const MachineModel& mach = options_.machine;
  const int cores = options_.cores;
  const int sockets = mach.sockets_used(cores);
  const bool locality = options_.policy == SchedulerPolicy::kLocalityAware;

  SimResult result;
  result.cores = cores;
  result.tasks = graph.size();
  result.by_kind.assign(kNumKinds, {});
  if (options_.record_trace) result.trace.assign(graph.size(), {});
  if (graph.empty()) return result;

  // Per-task execution metadata.
  std::vector<std::uint32_t> pending(graph.size());
  std::vector<std::int32_t> preferred_core(graph.size(), -1);
  std::vector<std::int32_t> exec_core(graph.size(), -1);
  // Per-socket monotonically increasing bytes-touched counter; a producer's
  // output is still L3-resident iff fewer than L3-size bytes were touched on
  // that socket since the producer finished.
  std::vector<double> socket_bytes(static_cast<std::size_t>(sockets), 0.0);
  std::vector<double> touch_pos(graph.size(), 0.0);

  std::deque<TaskId> global_queue;
  std::vector<std::deque<TaskId>> local_queues(
      static_cast<std::size_t>(cores));
  std::set<int> free_cores;
  // Longest-idle-first order for FIFO pairing: models "any idle worker
  // grabs the next ready task" without the artificial producer-core bias a
  // lowest-id policy would create.
  std::deque<int> idle_order;
  for (int c = 0; c < cores; ++c) {
    free_cores.insert(c);
    idle_order.push_back(c);
  }

  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      events;

  for (TaskId id = 0; id < graph.size(); ++id) {
    pending[id] = graph.task(id).num_deps;
    if (graph.task(id).affinity_pred != kInvalidTask) {
      ++result.tasks_with_affinity;
    }
    if (pending[id] == 0) global_queue.push_back(id);
  }

  std::uint64_t now_ns = 0;
  std::uint64_t last_event_ns = 0;
  int running = 0;
  double running_ws = 0.0;
  double concurrency_integral = 0.0;  // ∫ running dt
  double ws_integral = 0.0;           // ∫ running_ws dt
  double busy_ns_total = 0.0;
  double ipc_time_weighted = 0.0;
  double mpki_time_weighted = 0.0;

  auto enqueue_ready = [&](TaskId id) {
    if (locality && preferred_core[id] >= 0) {
      local_queues[static_cast<std::size_t>(preferred_core[id])].push_back(id);
    } else {
      global_queue.push_back(id);
    }
  };

  auto pick_for_core = [&](int core) -> TaskId {
    auto& local = local_queues[static_cast<std::size_t>(core)];
    if (!local.empty()) {
      const TaskId id = local.front();
      local.pop_front();
      return id;
    }
    if (!global_queue.empty()) {
      const TaskId id = global_queue.front();
      global_queue.pop_front();
      return id;
    }
    // Steal from the longest sibling queue, but never its last entry —
    // that one stays reserved for its (cache-hot) owner. taskrt::Runtime
    // dropped this reservation (its thieves take any entry); the model
    // keeps it so the modeled tables stay comparable (ROADMAP item 9).
    std::size_t victim = local_queues.size();
    std::size_t best_len = 1;
    for (std::size_t w = 0; w < local_queues.size(); ++w) {
      if (static_cast<int>(w) == core) continue;
      if (local_queues[w].size() > best_len) {
        best_len = local_queues[w].size();
        victim = w;
      }
    }
    if (victim == local_queues.size()) return kInvalidTask;
    const TaskId id = local_queues[victim].front();
    local_queues[victim].pop_front();
    return id;
  };

  std::vector<int> running_on_socket(static_cast<std::size_t>(sockets), 0);

  auto start_task = [&](TaskId id, int core) {
    const taskrt::Task& t = graph.task(id);
    const int socket = mach.socket_of(core);
    double cost = static_cast<double>(cost_ns[id]) + mach.dispatch_overhead_ns;

    // Optional bandwidth-contention model: concurrent tasks beyond the
    // socket's saturation point slow each other down.
    if (mach.bw_contention_factor > 0.0) {
      const int excess = running_on_socket[static_cast<std::size_t>(socket)] -
                         mach.bw_saturation_cores;
      if (excess > 0) {
        cost *= 1.0 + mach.bw_contention_factor * excess /
                          mach.bw_saturation_cores;
      }
    }

    // Cache / NUMA adjustment from the primary input's producer.
    double resident_fraction = 0.0;
    bool remote = false;
    const TaskId pred = t.affinity_pred;
    if (pred != kInvalidTask && exec_core[pred] >= 0) {
      const int pred_socket = mach.socket_of(exec_core[pred]);
      if (pred_socket != socket && pred_socket < sockets) {
        remote = true;
      } else {
        const double touched_since =
            socket_bytes[static_cast<std::size_t>(socket)] - touch_pos[pred];
        const double l3 = static_cast<double>(mach.l3_bytes_per_socket);
        resident_fraction = std::clamp(1.0 - touched_since / l3, 0.0, 1.0);
      }
      if (exec_core[pred] == core) ++result.locality_hits;
    }
    if (remote) {
      cost *= mach.numa_remote_penalty;
      ++result.numa_remote_tasks;
    } else if (resident_fraction > 0.0) {
      cost *= 1.0 - (1.0 - mach.cache_hot_discount) * resident_fraction;
      if (resident_fraction > 0.5) ++result.cache_hot_tasks;
    }

    // IPC / MPKI proxies for the Fig. 7 histograms (time-weighted).
    const double ipc =
        mach.ipc_cold + (mach.ipc_hot - mach.ipc_cold) * resident_fraction;
    const double instructions = cost * mach.clock_ghz * ipc;
    const double line_bytes = static_cast<double>(mach.cache_line_bytes);
    const double ws = static_cast<double>(t.spec.working_set_bytes);
    const double misses = (ws / line_bytes) * mach.streaming_passes *
                          (1.0 - 0.9 * resident_fraction) *
                          (remote ? 1.15 : 1.0);
    const double mpki =
        instructions <= 0.0 ? 0.0 : 1000.0 * misses / instructions;
    result.ipc_hist.add(ipc, cost);
    result.mpki_hist.add(mpki, cost);
    ipc_time_weighted += ipc * cost;
    mpki_time_weighted += mpki * cost;

    exec_core[id] = core;
    ++running_on_socket[static_cast<std::size_t>(socket)];
    ++running;
    running_ws += ws;
    result.max_concurrency = std::max(result.max_concurrency, running);
    result.peak_working_set_bytes =
        std::max(result.peak_working_set_bytes, running_ws);
    busy_ns_total += cost;
    auto& kind = result.by_kind[static_cast<std::size_t>(t.spec.kind)];
    ++kind.count;
    kind.total_ms += cost / 1e6;

    const std::uint64_t finish_ns = now_ns + static_cast<std::uint64_t>(cost);
    if (options_.record_trace) {
      result.trace[id] = {now_ns, finish_ns, core};
    }
    events.push({finish_ns, core, id});
  };

  std::size_t completed = 0;
  for (;;) {
    if (locality) {
      // Locality-aware: each free core serves its own queue first, then
      // the global queue, then (restrained) stealing.
      for (auto it = free_cores.begin(); it != free_cores.end();) {
        const int core = *it;
        const TaskId id = pick_for_core(core);
        if (id == kInvalidTask) {
          ++it;
          continue;
        }
        it = free_cores.erase(it);
        start_task(id, core);
      }
    } else {
      // FIFO: pair the oldest ready task with the longest-idle core.
      while (!global_queue.empty() && !idle_order.empty()) {
        const int core = idle_order.front();
        idle_order.pop_front();
        free_cores.erase(core);
        const TaskId id = global_queue.front();
        global_queue.pop_front();
        start_task(id, core);
      }
    }
    if (events.empty()) break;

    const Completion done = events.top();
    events.pop();
    // Integrate time-weighted metrics over [last_event, done.time].
    const double dt = static_cast<double>(done.time_ns - last_event_ns);
    concurrency_integral += dt * running;
    ws_integral += dt * running_ws;
    last_event_ns = done.time_ns;
    now_ns = done.time_ns;

    const taskrt::Task& t = graph.task(done.task);
    --running;
    running_ws -= static_cast<double>(t.spec.working_set_bytes);
    ++completed;
    const int socket = mach.socket_of(done.core);
    --running_on_socket[static_cast<std::size_t>(socket)];
    socket_bytes[static_cast<std::size_t>(socket)] +=
        static_cast<double>(t.spec.working_set_bytes);
    touch_pos[done.task] = socket_bytes[static_cast<std::size_t>(socket)];
    free_cores.insert(done.core);
    if (!locality) idle_order.push_back(done.core);

    for (const TaskId succ : t.successors) {
      if (locality && graph.task(succ).affinity_pred == done.task) {
        preferred_core[succ] = done.core;
      }
      BPAR_DCHECK(pending[succ] > 0);
      if (--pending[succ] == 0) enqueue_ready(succ);
    }
  }

  BPAR_CHECK(completed == graph.size(),
             "simulation deadlock: completed ", completed, " of ",
             graph.size());

  result.makespan_ms = static_cast<double>(now_ns) / 1e6;
  result.total_busy_ms = busy_ns_total / 1e6;
  result.parallel_efficiency =
      now_ns == 0 ? 0.0
                  : busy_ns_total / (static_cast<double>(now_ns) * cores);
  result.avg_concurrency =
      now_ns == 0 ? 0.0 : concurrency_integral / static_cast<double>(now_ns);
  result.avg_working_set_bytes =
      now_ns == 0 ? 0.0 : ws_integral / static_cast<double>(now_ns);
  result.avg_ipc = busy_ns_total == 0.0 ? 0.0 : ipc_time_weighted / busy_ns_total;
  result.avg_mpki =
      busy_ns_total == 0.0 ? 0.0 : mpki_time_weighted / busy_ns_total;
  return result;
}

}  // namespace bpar::sim
