#include "obs/profiler.hpp"

#include <algorithm>
#include <array>
#include <chrono>

#include "obs/trace.hpp"

namespace bpar::obs {

namespace {

// One thread's live span stack. All fields are plain atomics so the
// sampling thread can read them while the owner mutates (TSan-clean); the
// `version` word is a seqlock: odd while a push/pop is in flight, bumped
// to the next even value when it lands, so the sampler can detect and
// discard torn reads. `depth` counts *all* pushes (including ones beyond
// kMaxDepth) so pops stay balanced; readers clamp to kMaxDepth frames.
struct StackSlot {
  std::atomic<std::uint32_t> version{0};
  std::atomic<std::uint32_t> depth{0};
  std::array<std::atomic<std::uint16_t>, SpanProfiler::kMaxDepth> frames{};
  std::atomic<bool> active{false};
  std::atomic<std::uint64_t> truncated{0};
};

struct StackDirectory {
  std::mutex mu;
  std::vector<StackSlot*> slots;  // leaked slots: outlive their threads
};

StackDirectory& stack_directory() {
  static StackDirectory* dir = new StackDirectory();
  return *dir;
}

struct LocalStack {
  StackSlot* slot = nullptr;
  ~LocalStack() {
    if (slot != nullptr) {
      // Release the slot for reuse by a future thread; depth reset keeps a
      // reused slot from inheriting a stale stack.
      slot->depth.store(0, std::memory_order_relaxed);
      slot->active.store(false, std::memory_order_release);
    }
  }
};

StackSlot& my_slot() {
  thread_local LocalStack local;
  if (local.slot == nullptr) {
    StackDirectory& dir = stack_directory();
    const std::lock_guard<std::mutex> lock(dir.mu);
    for (StackSlot* s : dir.slots) {
      if (!s->active.load(std::memory_order_relaxed)) {
        local.slot = s;
        break;
      }
    }
    if (local.slot == nullptr) {
      local.slot = new StackSlot();
      dir.slots.push_back(local.slot);
    }
    local.slot->depth.store(0, std::memory_order_relaxed);
    local.slot->active.store(true, std::memory_order_release);
  }
  return *local.slot;
}

}  // namespace

namespace detail {
std::atomic<int> g_profiling_active{0};
}  // namespace detail

void span_stack_push(std::uint16_t name) {
  StackSlot& s = my_slot();
  // acq_rel RMWs fence the frame/depth stores inside the odd..even window.
  s.version.fetch_add(1, std::memory_order_acq_rel);
  const std::uint32_t d = s.depth.load(std::memory_order_relaxed);
  if (d < SpanProfiler::kMaxDepth) {
    s.frames[d].store(name, std::memory_order_relaxed);
  } else {
    s.truncated.fetch_add(1, std::memory_order_relaxed);
  }
  s.depth.store(d + 1, std::memory_order_relaxed);
  s.version.fetch_add(1, std::memory_order_acq_rel);
}

void span_stack_pop() {
  StackSlot& s = my_slot();
  s.version.fetch_add(1, std::memory_order_acq_rel);
  const std::uint32_t d = s.depth.load(std::memory_order_relaxed);
  if (d > 0) s.depth.store(d - 1, std::memory_order_relaxed);
  s.version.fetch_add(1, std::memory_order_acq_rel);
}

SpanProfiler::SpanProfiler(ProfilerOptions options) : options_(options) {}

SpanProfiler::~SpanProfiler() { stop(); }

void SpanProfiler::start() {
  if (running_) return;
  running_ = true;
  detail::g_profiling_active.fetch_add(1, std::memory_order_relaxed);
  if (options_.period_us > 0) {
    {
      const std::lock_guard<std::mutex> lock(thread_mu_);
      stopping_ = false;
    }
    thread_ = std::thread([this] { loop(); });
  }
}

void SpanProfiler::stop() {
  if (!running_) return;
  if (thread_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(thread_mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  detail::g_profiling_active.fetch_sub(1, std::memory_order_relaxed);
  running_ = false;
}

void SpanProfiler::loop() {
  std::unique_lock<std::mutex> lock(thread_mu_);
  while (!stopping_) {
    lock.unlock();
    sample_now();
    lock.lock();
    cv_.wait_for(lock, std::chrono::microseconds(options_.period_us),
                 [&] { return stopping_; });
  }
}

void SpanProfiler::sample_now() {
  std::vector<StackSlot*> slots;
  {
    StackDirectory& dir = stack_directory();
    const std::lock_guard<std::mutex> lock(dir.mu);
    slots = dir.slots;
  }
  std::string key;
  for (StackSlot* s : slots) {
    if (!s->active.load(std::memory_order_acquire)) continue;
    bool torn = true;
    for (int attempt = 0; attempt < 4 && torn; ++attempt) {
      const std::uint32_t v1 = s->version.load(std::memory_order_acquire);
      if ((v1 & 1U) != 0U) continue;  // push/pop in flight
      const std::uint32_t depth = s->depth.load(std::memory_order_relaxed);
      if (depth == 0) {
        torn = false;  // consistently idle: nothing to record
        break;
      }
      const std::uint32_t n = std::min<std::uint32_t>(
          depth, static_cast<std::uint32_t>(kMaxDepth));
      key.clear();
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint16_t id = s->frames[i].load(std::memory_order_relaxed);
        key.push_back(static_cast<char>(id & 0xFF));
        key.push_back(static_cast<char>(id >> 8));
      }
      // The acquire fence orders the frame loads before the re-check: an
      // unchanged even version means no writer touched the slot meanwhile.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s->version.load(std::memory_order_relaxed) != v1) continue;
      torn = false;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        ++counts_[key];
      }
      samples_.fetch_add(1, std::memory_order_relaxed);
    }
    if (torn) torn_.fetch_add(1, std::memory_order_relaxed);
  }
  sweeps_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SpanProfiler::Fold> SpanProfiler::folded() const {
  std::map<std::string, std::uint64_t> counts;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    counts = counts_;
  }
  std::vector<Fold> out;
  out.reserve(counts.size());
  for (const auto& [key, count] : counts) {
    Fold fold;
    fold.count = count;
    for (std::size_t i = 0; i + 1 < key.size(); i += 2) {
      const auto id = static_cast<std::uint16_t>(
          static_cast<std::uint8_t>(key[i]) |
          (static_cast<std::uint8_t>(key[i + 1]) << 8));
      if (!fold.stack.empty()) fold.stack += ';';
      fold.stack += interned_name(id);
    }
    out.push_back(std::move(fold));
  }
  std::sort(out.begin(), out.end(), [](const Fold& a, const Fold& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.stack < b.stack;
  });
  return out;
}

std::string SpanProfiler::folded_text() const { return folded_to_text(folded()); }

std::uint64_t SpanProfiler::samples() const {
  return samples_.load(std::memory_order_relaxed);
}

std::uint64_t SpanProfiler::sweeps() const {
  return sweeps_.load(std::memory_order_relaxed);
}

std::uint64_t SpanProfiler::torn() const {
  return torn_.load(std::memory_order_relaxed);
}

void SpanProfiler::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  counts_.clear();
}

std::vector<SpanProfiler::Fold> fold_delta(
    const std::vector<SpanProfiler::Fold>& before,
    const std::vector<SpanProfiler::Fold>& after) {
  std::map<std::string, std::uint64_t> base;
  for (const auto& f : before) base[f.stack] = f.count;
  std::vector<SpanProfiler::Fold> out;
  for (const auto& f : after) {
    const auto it = base.find(f.stack);
    const std::uint64_t prev = it == base.end() ? 0 : it->second;
    if (f.count > prev) out.push_back({f.stack, f.count - prev});
  }
  std::sort(out.begin(), out.end(),
            [](const SpanProfiler::Fold& a, const SpanProfiler::Fold& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.stack < b.stack;
            });
  return out;
}

std::string folded_to_text(const std::vector<SpanProfiler::Fold>& folds) {
  std::string out;
  for (const auto& f : folds) {
    out += f.stack;
    out += ' ';
    out += std::to_string(f.count);
    out += '\n';
  }
  return out;
}

std::uint64_t span_stack_truncations() {
  StackDirectory& dir = stack_directory();
  const std::lock_guard<std::mutex> lock(dir.mu);
  std::uint64_t total = 0;
  for (const StackSlot* s : dir.slots) {
    total += s->truncated.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t span_stack_slots() {
  StackDirectory& dir = stack_directory();
  const std::lock_guard<std::mutex> lock(dir.mu);
  return dir.slots.size();
}

}  // namespace bpar::obs
