#include "taskrt/runtime.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace bpar::taskrt {

using sync::mo_acq_rel;
using sync::mo_acquire;
using sync::mo_relaxed;
using sync::mo_release;
using sync::mo_seq_cst;

double RunStats::parallel_efficiency() const {
  if (wall_ns == 0 || worker_busy_ns.empty()) return 0.0;
  return static_cast<double>(total_busy_ns()) /
         (static_cast<double>(wall_ns) *
          static_cast<double>(worker_busy_ns.size()));
}

std::uint64_t RunStats::total_busy_ns() const {
  std::uint64_t total = 0;
  for (const auto busy : worker_busy_ns) total += busy;
  return total;
}

Runtime::Runtime(RuntimeOptions options) : options_(std::move(options)) {
  if (!options_.faults.enabled()) {
    if (const char* env = std::getenv("BPAR_FAULTS");
        env != nullptr && env[0] != '\0') {
      options_.faults = FaultSpec::parse(env);
      BPAR_LOG_WARN << "fault injection enabled from BPAR_FAULTS: " << env;
    }
  }
  if (options_.faults.enabled()) {
    fault_injector_ = std::make_unique<FaultInjector>(options_.faults);
  }
  num_workers_ = options_.num_workers > 0
                     ? options_.num_workers
                     : static_cast<int>(std::thread::hardware_concurrency());
  if (num_workers_ <= 0) num_workers_ = 1;
  workers_ = std::make_unique<Worker[]>(static_cast<std::size_t>(num_workers_));

  // Intern every trace label up front; the hot path only loads these ids.
  for (std::size_t k = 0; k < kNumTaskKinds; ++k) {
    obs_kind_ids_[k] = obs::intern_name(task_kind_name(static_cast<TaskKind>(k)));
  }
  obs_fifo_depth_id_ = obs::intern_name("ready_fifo_depth");
  obs_steal_id_ = obs::intern_name("steal");
  obs_park_id_ = obs::intern_name("park");
  obs_fault_id_ = obs::intern_name("fault");
  obs_taskwait_id_ = obs::intern_name("taskwait");
  obs_deque_depth_ids_.reserve(static_cast<std::size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    obs_deque_depth_ids_.push_back(
        obs::intern_name("deque_depth_w" + std::to_string(w)));
  }

  threads_.reserve(static_cast<std::size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

Runtime::~Runtime() {
  // Workers blocked in an injected stall must be woken or join() hangs.
  if (fault_injector_) fault_injector_->release_stalls();
  shutdown_.store(true, mo_seq_cst);
  {
    const std::lock_guard<std::mutex> guard(park_mu_);
    park_epoch_.fetch_add(1, mo_release);
  }
  park_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::uint64_t Runtime::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - session_start_)
          .count());
}

void Runtime::start_session(TaskGraph& graph) {
  if (fault_injector_) {
    fault_injector_->begin_session();
    fault_injector_->rearm_stalls();
  }
  graph_ = &graph;
  // Quiescent point: the previous session drained every queue, so the
  // FIFO's consumed segments can be freed without a reclamation protocol,
  // and no worker reads a task state until a root is enqueued below.
  ready_fifo_.reclaim_consumed();
  const std::size_t n = graph.size();
  if (n > state_capacity_) {
    states_ = std::make_unique<TaskState[]>(n);
    state_capacity_ = n;
  }
  executed_.store(0, mo_relaxed);
  total_.store(n, mo_relaxed);
  locality_hits_.store(0, mo_relaxed);
  steals_.store(0, mo_relaxed);
  steal_failures_.store(0, mo_relaxed);
  parks_.store(0, mo_relaxed);
  fifo_pushes_.store(0, mo_relaxed);
  deque_pushes_.store(0, mo_relaxed);
  tasks_with_affinity_ = 0;
  for (int w = 0; w < num_workers_; ++w) {
    workers_[w].busy_ns = 0;
    if (options_.sample_counters) {
      workers_[w].kind_counters.assign(kNumTaskKinds, {});
    }
  }
  first_error_ = nullptr;
  session_start_ = std::chrono::steady_clock::now();
  session_start_steady_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          session_start_.time_since_epoch())
          .count());
  session_active_ = true;

  // Two phases: every task needs its state in place before any root can
  // run and decrement a successor's dependency counter.
  for (TaskId id = 0; id < n; ++id) {
    TaskState& st = states_[id];
    const Task& task = graph.task(id);
    st.pending.store(task.num_deps, mo_relaxed);
    st.preferred.store(-1, mo_relaxed);
    st.done.store(false, mo_relaxed);
    st.task = &task;
    st.affinity = task.affinity_pred;
    st.duration_ns = 0;
    st.trace = {};
    if (st.affinity != kInvalidTask) ++tasks_with_affinity_;
  }
  // Readiness must come from the graph's static num_deps: once the first
  // root is enqueued, workers run and decrement live counters concurrently
  // with this scan, and a task whose last predecessor finishes mid-scan
  // would otherwise be enqueued twice (once by the worker, once here).
  // Roots are all pushed before one wake-up: the fence and the park-lot
  // lock are paid once per run, not once per root.
  std::size_t roots = 0;
  for (TaskId id = 0; id < n; ++id) {
    if (graph.task(id).num_deps == 0) {
      ready_fifo_.enqueue(id);
      ++roots;
    }
  }
  fifo_pushes_.fetch_add(roots, mo_relaxed);
  if (roots > 0) notify_workers(/*all=*/roots > 1);
}

void Runtime::wait_drained(std::unique_lock<std::mutex>& lock) {
  const auto drained = [this] {
    return executed_.load(std::memory_order_acquire) ==
           total_.load(mo_relaxed);
  };
  if (options_.watchdog_ms == 0) {
    done_cv_.wait(lock, drained);
    return;
  }
  const auto deadline = std::chrono::milliseconds(options_.watchdog_ms);
  // Poll at a fraction of the deadline: fine enough to notice progress,
  // coarse enough to stay off the workers' hot path entirely.
  const auto poll = std::max<std::chrono::milliseconds>(
      std::chrono::milliseconds(1), deadline / 8);
  auto last_progress = std::chrono::steady_clock::now();
  std::size_t last_executed = executed_.load(std::memory_order_acquire);
  while (!drained()) {
    done_cv_.wait_for(lock, poll);
    const std::size_t now_executed =
        executed_.load(std::memory_order_acquire);
    if (now_executed != last_executed) {
      last_executed = now_executed;
      last_progress = std::chrono::steady_clock::now();
      continue;
    }
    if (drained()) break;
    if (std::chrono::steady_clock::now() - last_progress < deadline) {
      continue;
    }
    // Watchdog fires: capture the scheduler state *before* perturbing it.
    std::ostringstream head;
    head << "watchdog: no task completed for " << options_.watchdog_ms
         << " ms with the graph undrained";
    std::string diag = dump_locked(head.str());
    if (fault_injector_) fault_injector_->release_stalls();
    // Grace period: if the stall was injected, releasing it drains the
    // graph and the runtime stays usable; a genuine hang poisons it.
    const bool recovered = done_cv_.wait_for(lock, deadline, drained);
    if (!recovered) poisoned_ = true;
    session_active_ = false;
    graph_ = nullptr;
    first_error_ = nullptr;
    diag += recovered
                ? "\nrecovery: graph drained after stalls were released; "
                  "session closed, runtime reusable"
                : "\nrecovery: graph still stuck after stall release; "
                  "runtime poisoned (workers may be wedged)";
    BPAR_LOG_ERROR << diag;
    throw WatchdogError(diag);
  }
}

std::string Runtime::dump_locked(const std::string& headline) {
  std::ostringstream os;
  os << headline << "\n";
  const std::size_t total = total_.load(mo_relaxed);
  const std::size_t executed = executed_.load(std::memory_order_acquire);
  os << "  tasks: total=" << total << " executed=" << executed
     << " outstanding=" << total - executed
     << " sleepers=" << sleepers_.load(mo_relaxed) << "\n";
  os << "  ready-fifo: head=" << ready_fifo_.head_approx()
     << " tail=" << ready_fifo_.tail_approx()
     << " depth=" << ready_fifo_.size_approx() << "\n";
  os << "  worker deque depths:";
  for (int w = 0; w < num_workers_; ++w) {
    os << " w" << w << "=" << workers_[w].deque.size_approx();
  }
  os << "\n";
  // Pending-counter histogram over unfinished tasks, plus the oldest one.
  std::size_t histogram[4] = {0, 0, 0, 0};  // pending 0 / 1 / 2 / >=3
  TaskId oldest = kInvalidTask;
  for (TaskId id = 0; id < total; ++id) {
    const TaskState& st = states_[id];
    if (st.done.load(mo_relaxed)) continue;
    const std::uint32_t pending = st.pending.load(mo_relaxed);
    ++histogram[pending < 3 ? pending : 3];
    if (oldest == kInvalidTask) oldest = id;
  }
  os << "  pending histogram (unfinished): 0=" << histogram[0]
     << " 1=" << histogram[1] << " 2=" << histogram[2]
     << " >=3=" << histogram[3] << "\n";
  if (oldest != kInvalidTask && graph_ != nullptr) {
    const Task& task = graph_->task(oldest);
    os << "  oldest unfinished: task " << oldest << " kind="
       << task_kind_name(task.spec.kind);
    if (!task.spec.name.empty()) os << " name='" << task.spec.name << "'";
    os << " pending=" << states_[oldest].pending.load(mo_relaxed);
    if (task.spec.layer >= 0) os << " layer=" << task.spec.layer;
    if (task.spec.step >= 0) os << " step=" << task.spec.step;
    os << "\n";
  }
  if (fault_injector_) {
    os << "  fault injector: throws=" << fault_injector_->throws_injected()
       << " delays=" << fault_injector_->delays_injected()
       << " stalls=" << fault_injector_->stalls_injected()
       << " active-stalls=" << fault_injector_->active_stalls() << "\n";
  }
  os << "  session counters: steals=" << steals_.load(mo_relaxed)
     << " steal-failures=" << steal_failures_.load(mo_relaxed)
     << " parks=" << parks_.load(mo_relaxed)
     << " fifo-pushes=" << fifo_pushes_.load(mo_relaxed)
     << " deque-pushes=" << deque_pushes_.load(mo_relaxed) << "\n";
  if (const std::string metrics =
          obs::Registry::instance().format_compact("taskrt.");
      !metrics.empty()) {
    os << "  lifetime metrics: " << metrics << "\n";
  }
  return os.str();
}

std::string Runtime::scheduler_state_dump() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!session_active_) return "scheduler idle (no active session)";
  return dump_locked("scheduler state");
}

RunStats Runtime::run(TaskGraph& graph) {
  std::unique_lock<std::mutex> lock(mu_);
  BPAR_CHECK(!session_active_, "Runtime session already active");
  BPAR_CHECK(!poisoned_,
             "Runtime poisoned by an unrecovered watchdog failure");
  start_session(graph);
  const std::uint64_t wait_start =
      obs::tracing_enabled() ? obs::now_ns() : 0;
  wait_drained(lock);
  if (wait_start != 0) {
    obs::record_span(obs_taskwait_id_, wait_start, obs::now_ns());
  }
  RunStats stats;
  stats.wall_ns = now_ns();
  const std::size_t total = total_.load(mo_relaxed);
  stats.tasks_executed = total;
  stats.tasks_with_affinity = tasks_with_affinity_;
  stats.locality_hits = locality_hits_.load(mo_relaxed);
  stats.steals = steals_.load(mo_relaxed);
  stats.steal_failures = steal_failures_.load(mo_relaxed);
  stats.parks = parks_.load(mo_relaxed);
  stats.fifo_pushes = fifo_pushes_.load(mo_relaxed);
  stats.deque_pushes = deque_pushes_.load(mo_relaxed);
  stats.session_start_ns = session_start_steady_ns_;
  stats.task_duration_ns.resize(total);
  if (options_.record_trace) stats.trace.resize(total);
  for (TaskId id = 0; id < total; ++id) {
    const TaskState& st = states_[id];
    stats.task_duration_ns[id] = st.duration_ns;
    if (options_.record_trace) stats.trace[id] = st.trace;
  }
  stats.worker_busy_ns.resize(static_cast<std::size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    stats.worker_busy_ns[static_cast<std::size_t>(w)] = workers_[w].busy_ns;
  }
  if (options_.sample_counters && pmu_workers_.load(mo_acquire) > 0) {
    stats.kind_counters.assign(kNumTaskKinds, {});
    for (int w = 0; w < num_workers_; ++w) {
      const Worker& worker = workers_[w];
      for (std::size_t k = 0; k < worker.kind_counters.size(); ++k) {
        RunStats::KindCounters& agg = stats.kind_counters[k];
        agg.tasks += worker.kind_counters[k].tasks;
        agg.busy_ns += worker.kind_counters[k].busy_ns;
        agg.counters += worker.kind_counters[k].counters;
      }
    }
  }
  session_active_ = false;
  graph_ = nullptr;
  const std::exception_ptr error = first_error_;
  lock.unlock();

  // Publish scheduler counters into the process-wide metrics registry (the
  // watchdog dump, run reports, and test diagnostics all read from there).
  // Cold path: one map lookup per counter, once per session.
  auto& reg = obs::Registry::instance();
  reg.counter("taskrt.sessions").add(1);
  reg.counter("taskrt.tasks_executed").add(total);
  reg.counter("taskrt.steals").add(stats.steals);
  reg.counter("taskrt.steal_failures").add(stats.steal_failures);
  reg.counter("taskrt.parks").add(stats.parks);
  reg.counter("taskrt.fifo_pushes").add(stats.fifo_pushes);
  reg.counter("taskrt.deque_pushes").add(stats.deque_pushes);
  reg.counter("taskrt.locality_hits").add(stats.locality_hits);
  const std::uint64_t busy = stats.total_busy_ns();
  const std::uint64_t capacity =
      stats.wall_ns * static_cast<std::uint64_t>(num_workers_);
  reg.counter("taskrt.busy_ns").add(busy);
  reg.counter("taskrt.idle_ns").add(capacity > busy ? capacity - busy : 0);
  reg.gauge("taskrt.parallel_efficiency").set(stats.parallel_efficiency());
  for (std::size_t k = 0; k < stats.kind_counters.size(); ++k) {
    const RunStats::KindCounters& kc = stats.kind_counters[k];
    if (kc.tasks == 0) continue;
    const std::string prefix =
        std::string("taskrt.hw.") + task_kind_name(static_cast<TaskKind>(k));
    reg.gauge(prefix + ".ipc").set(kc.counters.ipc());
    reg.gauge(prefix + ".mpki").set(kc.counters.mpki());
    reg.gauge(prefix + ".mux_scale").set(kc.counters.scale);
  }

  if (error) std::rethrow_exception(error);
  return stats;
}

void Runtime::worker_loop(int worker_id) {
  obs::set_thread_name("worker " + std::to_string(worker_id));
  if (options_.sample_counters) {
    // Thread-scope events must be opened by the thread they count.
    auto pmu = std::make_unique<perf::PerfCounters>(perf::CounterScope::kThread);
    if (pmu->available()) {
      pmu->start();  // enable once; per-task slicing uses read() deltas
      workers_[worker_id].pmu = std::move(pmu);
      pmu_workers_.fetch_add(1, mo_release);
    }
  }
  for (;;) {
    const TaskId id = next_task(worker_id);
    if (id == kInvalidTask) return;  // shutdown
    execute_task(id, worker_id);
  }
}

void Runtime::execute_task(TaskId id, int worker_id) {
  TaskState& st = states_[id];
  Worker& self = workers_[worker_id];
  if (st.preferred.load(mo_relaxed) == worker_id) {
    locality_hits_.fetch_add(1, mo_relaxed);
  }
  // Fault injection runs BEFORE the start sample (disabled injection costs
  // exactly this null test): injected delays/stalls become gaps on the
  // worker's timeline — attributed to the recorded "fault" span by the
  // analysis engine — instead of inflating the task's own duration.
  bool fault_thrown = false;
  if (fault_injector_) [[unlikely]] {
    const std::uint64_t fault_start = now_ns();
    try {
      fault_injector_->before_execute(id);
    } catch (...) {
      const std::lock_guard<std::mutex> guard(mu_);
      if (!first_error_) first_error_ = std::current_exception();
      fault_thrown = true;  // skip the body; bookkeeping still completes
    }
    if (const std::uint64_t fault_end = now_ns();
        obs::tracing_enabled() && fault_end - fault_start > 1000) {
      obs::record_span(obs_fault_id_, session_start_steady_ns_ + fault_start,
                       session_start_steady_ns_ + fault_end);
    }
  }
  perf::CounterReading pmu_begin;
  if (self.pmu) pmu_begin = self.pmu->read();
  // While a span-stack profiler samples, the task body runs under the
  // task-kind name so worker samples fold as "task.<kind>;kernels.<op>"
  // instead of orphaned kernel leaves.
  const bool prof = obs::profiling_active();
  if (prof) {
    obs::span_stack_push(
        obs_kind_ids_[static_cast<std::size_t>(st.task->spec.kind)]);
  }
  const std::uint64_t start = now_ns();
  try {
    if (!fault_thrown) st.task->fn();
  } catch (...) {
    const std::lock_guard<std::mutex> guard(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  if (prof) obs::span_stack_pop();
  // Sample the finish time before any scheduler bookkeeping: durations and
  // busy time cover the task body only, so parallel_efficiency() does not
  // absorb scheduler overhead or (formerly) mutex wait.
  const std::uint64_t finish = now_ns();
  st.duration_ns = finish - start;
  self.busy_ns += finish - start;
  if (options_.record_trace) st.trace = {start, finish, worker_id};
  if (pmu_begin.valid) {
    RunStats::KindCounters& kc =
        self.kind_counters[static_cast<std::size_t>(st.task->spec.kind)];
    ++kc.tasks;
    kc.busy_ns += finish - start;
    kc.counters += perf::counter_delta(pmu_begin, self.pmu->read());
  }
  if (obs::tracing_enabled()) {
    // Reuse the start/finish samples already taken: the task row costs no
    // extra clock reads. Queue depths are sampled every 32nd task per
    // worker (first task included, so short runs still get the tracks):
    // size_approx() reads shared producer/consumer cursors, and doing
    // that per task measurably perturbs the dispatch path it observes.
    const auto kind = static_cast<std::uint8_t>(st.task->spec.kind);
    const std::uint64_t abs_start = session_start_steady_ns_ + start;
    const std::uint64_t abs_finish = session_start_steady_ns_ + finish;
    obs::record_task(obs_kind_ids_[kind], kind, abs_start, abs_finish);
    if ((self.trace_tick++ & 31U) == 0U) {
      obs::record_counter(obs_fifo_depth_id_, abs_finish,
                          ready_fifo_.size_approx());
      obs::record_counter(
          obs_deque_depth_ids_[static_cast<std::size_t>(worker_id)],
          abs_finish, self.deque.size_approx());
    }
  }

  // The graph is sealed for the whole run, so the successor list is final.
  st.done.store(true, mo_relaxed);
  for (const TaskId succ : st.task->successors) {
    TaskState& succ_state = states_[succ];
    if (succ_state.affinity == id) {
      succ_state.preferred.store(worker_id, mo_relaxed);
    }
    BPAR_DCHECK(succ_state.pending.load(mo_relaxed) > 0);
    if (succ_state.pending.fetch_sub(1, mo_acq_rel) == 1) {
      enqueue_ready(succ, worker_id);
    }
  }
  const std::size_t done =
      executed_.fetch_add(1, std::memory_order_release) + 1;
  if (done == total_.load(std::memory_order_acquire)) {
    // Lock/unlock pairs with the waiter's predicate check under mu_ so the
    // notify cannot slip between its check and its wait.
    { const std::lock_guard<std::mutex> guard(mu_); }
    done_cv_.notify_all();
  }
}

TaskId Runtime::next_task(int worker_id) {
  Worker& self = workers_[worker_id];
  int failures = 0;
  for (;;) {
    if (shutdown_.load(mo_acquire)) return kInvalidTask;
    if (!self.deque.empty_approx()) {
      if (const TaskId id = self.deque.pop(); id != kInvalidTask) return id;
    }
    if (const TaskId id = ready_fifo_.try_dequeue(); id != kInvalidTask) {
      return id;
    }
    for (int i = 1; i < num_workers_; ++i) {
      int victim = worker_id + i;
      if (victim >= num_workers_) victim -= num_workers_;
      const TaskId id = workers_[victim].deque.steal();
      if (id != kInvalidTask) {
        steals_.fetch_add(1, mo_relaxed);
        if (obs::tracing_enabled()) {
          obs::record_instant(obs_steal_id_, obs::now_ns());
        }
        return id;
      }
    }
    steal_failures_.fetch_add(1, mo_relaxed);
    ++failures;
    if (failures <= 2) continue;  // immediate re-sweep
    if (failures <= 5) {
      std::this_thread::yield();
      continue;
    }
    failures = 0;
    // Park. The seq_cst sleeper registration pairs with the fence in
    // notify_workers(): a producer either observes us sleeping (and
    // notifies) or we observe its enqueue in the re-check below.
    const std::uint64_t ticket = park_epoch_.load(mo_acquire);
    sleepers_.fetch_add(1, mo_seq_cst);
    if (has_visible_work() || shutdown_.load(mo_relaxed)) {
      sleepers_.fetch_sub(1, mo_relaxed);
      continue;
    }
    parks_.fetch_add(1, mo_relaxed);
    const std::uint64_t park_start =
        obs::tracing_enabled() ? obs::now_ns() : 0;
    {
      std::unique_lock<std::mutex> lock(park_mu_);
      park_cv_.wait(lock, [&] {
        return park_epoch_.load(mo_relaxed) != ticket ||
               shutdown_.load(mo_relaxed);
      });
    }
    if (park_start != 0) {
      obs::record_span(obs_park_id_, park_start, obs::now_ns());
    }
    sleepers_.fetch_sub(1, mo_relaxed);
  }
}

bool Runtime::has_visible_work() const {
  if (!ready_fifo_.empty_approx()) return true;
  for (int v = 0; v < num_workers_; ++v) {
    if (!workers_[v].deque.empty_approx()) return true;
  }
  return false;
}

void Runtime::enqueue_ready(TaskId id, int from_worker) {
  if (states_[id].preferred.load(mo_relaxed) == from_worker) {
    // Producer-consumer locality: the consumer joins the producing
    // worker's own deque (owner push), where LIFO pop runs it while its
    // input is still cache-hot.
    workers_[from_worker].deque.push(id);
    deque_pushes_.fetch_add(1, mo_relaxed);
  } else {
    ready_fifo_.enqueue(id);
    fifo_pushes_.fetch_add(1, mo_relaxed);
  }
  notify_workers();
}

void Runtime::notify_workers(bool all) {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(mo_relaxed) == 0) return;
  {
    const std::lock_guard<std::mutex> guard(park_mu_);
    park_epoch_.fetch_add(1, mo_release);
  }
  if (all) {
    park_cv_.notify_all();
  } else {
    park_cv_.notify_one();
  }
}

}  // namespace bpar::taskrt
