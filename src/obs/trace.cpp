#include "obs/trace.hpp"

#include <bit>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

namespace bpar::obs {
namespace {

// Packed second word of a ring slot:
//   bits [0,32)  payload
//   bits [32,48) name id
//   bits [48,56) kind
//   bits [56,64) extra
std::uint64_t pack_word(const TraceEvent& ev) {
  return static_cast<std::uint64_t>(ev.payload) |
         (static_cast<std::uint64_t>(ev.name) << 32) |
         (static_cast<std::uint64_t>(static_cast<std::uint8_t>(ev.kind))
          << 48) |
         (static_cast<std::uint64_t>(ev.extra) << 56);
}

TraceEvent unpack(std::uint64_t ts, std::uint64_t word) {
  TraceEvent ev;
  ev.ts_ns = ts;
  ev.payload = static_cast<std::uint32_t>(word);
  ev.name = static_cast<std::uint16_t>(word >> 32);
  ev.kind = static_cast<EventKind>(static_cast<std::uint8_t>(word >> 48));
  ev.extra = static_cast<std::uint8_t>(word >> 56);
  return ev;
}

std::uint32_t duration_payload(std::uint64_t start_ns, std::uint64_t end_ns) {
  // Durations are stored as float bits: ns precision for short spans, full
  // range (hours) for long ones, in 4 bytes.
  const float dur =
      end_ns > start_ns ? static_cast<float>(end_ns - start_ns) : 0.0F;
  return std::bit_cast<std::uint32_t>(dur);
}

class ThreadRing {
 public:
  explicit ThreadRing(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
  }

  // Single writer (the owning thread). Relaxed slot stores + release head
  // bump: a collector that acquires `head` sees every slot below it.
  void record(const TraceEvent& ev) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[h & mask_];
    s.ts.store(ev.ts_ns, std::memory_order_relaxed);
    s.word.store(pack_word(ev), std::memory_order_relaxed);
    head_.store(h + 1, std::memory_order_release);
  }

  void snapshot(ThreadTrace& out) const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::size_t cap = mask_ + 1;
    const std::uint64_t kept = h < cap ? h : cap;
    out.dropped = h - kept;
    out.events.reserve(static_cast<std::size_t>(kept));
    for (std::uint64_t i = h - kept; i < h; ++i) {
      const Slot& s = slots_[i & mask_];
      out.events.push_back(
          unpack(s.ts.load(std::memory_order_relaxed),
                 s.word.load(std::memory_order_relaxed)));
    }
  }

  [[nodiscard]] std::size_t held() const {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::size_t cap = mask_ + 1;
    return static_cast<std::size_t>(h < cap ? h : cap);
  }

  void reset() { head_.store(0, std::memory_order_relaxed); }

 private:
  struct Slot {
    std::atomic<std::uint64_t> ts{0};
    std::atomic<std::uint64_t> word{0};
  };
  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
};

struct RingEntry {
  std::unique_ptr<ThreadRing> ring;
  std::string name;
};

struct RingDirectory {
  std::mutex mu;
  std::vector<RingEntry> entries;
};

RingDirectory& directory() {
  static RingDirectory* dir = new RingDirectory();  // leaked: outlives threads
  return *dir;
}

std::size_t initial_ring_capacity() {
  if (const char* env = std::getenv("BPAR_TRACE_CAPACITY");
      env != nullptr && env[0] != '\0') {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 16) return static_cast<std::size_t>(v);
  }
  return std::size_t{1} << 16;
}

std::atomic<std::size_t>& capacity_storage() {
  static std::atomic<std::size_t> cap{initial_ring_capacity()};
  return cap;
}

struct LocalRing {
  ThreadRing* ring = nullptr;
  int id = -1;
  // Thread label set before the ring exists; applied at registration so
  // set_thread_name() never forces a ring allocation on untraced threads.
  std::string pending_name;
};

LocalRing& local_state() {
  thread_local LocalRing local;
  return local;
}

LocalRing& local_ring() {
  LocalRing& local = local_state();
  if (local.ring == nullptr) {
    RingDirectory& dir = directory();
    const std::lock_guard<std::mutex> lock(dir.mu);
    local.id = static_cast<int>(dir.entries.size());
    dir.entries.push_back({std::make_unique<ThreadRing>(ring_capacity()),
                           std::move(local.pending_name)});
    local.ring = dir.entries.back().ring.get();
  }
  return local;
}

struct NameTable {
  std::mutex mu;
  std::map<std::string, std::uint16_t, std::less<>> ids;
  std::vector<std::string> names{"<overflow>"};  // id 0 reserved
};

NameTable& name_table() {
  static NameTable* table = new NameTable();
  return *table;
}

}  // namespace

double TraceEvent::duration_ns() const {
  return static_cast<double>(std::bit_cast<float>(payload));
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace detail {
std::atomic<bool> g_tracing_enabled{false};
}  // namespace detail

void set_tracing_enabled(bool on) {
  detail::g_tracing_enabled.store(on, std::memory_order_relaxed);
}

std::uint16_t intern_name(std::string_view name) {
  NameTable& table = name_table();
  const std::lock_guard<std::mutex> lock(table.mu);
  if (const auto it = table.ids.find(name); it != table.ids.end()) {
    return it->second;
  }
  if (table.names.size() > 0xFFFF) return 0;
  const auto id = static_cast<std::uint16_t>(table.names.size());
  table.names.emplace_back(name);
  table.ids.emplace(std::string(name), id);
  return id;
}

std::string interned_name(std::uint16_t id) {
  NameTable& table = name_table();
  const std::lock_guard<std::mutex> lock(table.mu);
  if (id >= table.names.size()) return "<unknown>";
  return table.names[id];
}

void record_span(std::uint16_t name, std::uint64_t start_ns,
                 std::uint64_t end_ns) {
  if (!tracing_enabled()) return;
  local_ring().ring->record({start_ns, duration_payload(start_ns, end_ns),
                             name, EventKind::kSpan, 0});
}

void record_task(std::uint16_t name, std::uint8_t task_kind,
                 std::uint64_t start_ns, std::uint64_t end_ns) {
  if (!tracing_enabled()) return;
  local_ring().ring->record({start_ns, duration_payload(start_ns, end_ns),
                             name, EventKind::kTask, task_kind});
}

void record_counter(std::uint16_t name, std::uint64_t ts_ns,
                    std::uint64_t value) {
  if (!tracing_enabled()) return;
  const std::uint32_t clamped =
      value > 0xFFFFFFFFULL ? 0xFFFFFFFFU : static_cast<std::uint32_t>(value);
  local_ring().ring->record({ts_ns, clamped, name, EventKind::kCounter, 0});
}

void record_instant(std::uint16_t name, std::uint64_t ts_ns) {
  if (!tracing_enabled()) return;
  local_ring().ring->record({ts_ns, 0, name, EventKind::kInstant, 0});
}

void record_instant(std::uint16_t name, std::uint64_t ts_ns, std::uint32_t id,
                    std::uint8_t arg) {
  if (!tracing_enabled()) return;
  local_ring().ring->record({ts_ns, id, name, EventKind::kKeyedInstant, arg});
}

void set_thread_name(std::string name) {
  LocalRing& local = local_state();
  if (local.ring == nullptr) {
    local.pending_name = std::move(name);
    return;
  }
  RingDirectory& dir = directory();
  const std::lock_guard<std::mutex> lock(dir.mu);
  dir.entries[static_cast<std::size_t>(local.id)].name = std::move(name);
}

std::vector<ThreadTrace> collect() {
  RingDirectory& dir = directory();
  const std::lock_guard<std::mutex> lock(dir.mu);
  std::vector<ThreadTrace> out;
  out.reserve(dir.entries.size());
  for (std::size_t i = 0; i < dir.entries.size(); ++i) {
    ThreadTrace t;
    t.ring_id = static_cast<int>(i);
    t.name = dir.entries[i].name;
    dir.entries[i].ring->snapshot(t);
    out.push_back(std::move(t));
  }
  return out;
}

std::size_t events_held() {
  RingDirectory& dir = directory();
  const std::lock_guard<std::mutex> lock(dir.mu);
  std::size_t total = 0;
  for (const auto& entry : dir.entries) total += entry.ring->held();
  return total;
}

void clear() {
  RingDirectory& dir = directory();
  const std::lock_guard<std::mutex> lock(dir.mu);
  for (auto& entry : dir.entries) entry.ring->reset();
}

std::size_t ring_capacity() {
  return capacity_storage().load(std::memory_order_relaxed);
}

void set_ring_capacity(std::size_t events) {
  capacity_storage().store(events < 16 ? 16 : events,
                           std::memory_order_relaxed);
}

}  // namespace bpar::obs
