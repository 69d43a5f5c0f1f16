// Lock-free multi-producer/multi-consumer FIFO of TaskIds — the runtime's
// global ready queue: the graph's roots, which the calling thread
// enqueues, and every ready task that does not go on the deque of the
// worker that made it ready.
//
// Design: two monotonically increasing cursors (head_, tail_) index into a
// virtual infinite array realized as fixed-size segments held in a ring
// directory. An enqueue claims slot i = tail_++ and release-stores the id
// into its segment; a dequeue claims a slot by CAS on head_ (only when
// head < tail) and acquire-loads it, briefly spinning if the producer has
// claimed the slot but not yet stored into it. Slots are written and
// consumed exactly once, so no ABA handling is needed.
//
// Segments are reclaimed only at session boundaries (reclaim_consumed(),
// called at the quiescent start of Runtime::run(), when the queue is
// provably empty and no worker can be dereferencing a segment), which
// keeps the hot path free of any memory-reclamation protocol. The ring
// directory bounds the number of *live* segments: ~16M tasks may be
// enqueued within one session, checked.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "taskrt/sync.hpp"
#include "taskrt/task_graph.hpp"
#include "util/check.hpp"

namespace bpar::taskrt {

class ReadyFifo {
 public:
  ReadyFifo() : dir_(new std::atomic<Segment*>[kDirSize]) {
    for (std::size_t i = 0; i < kDirSize; ++i) {
      dir_[i].store(nullptr, std::memory_order_relaxed);
    }
  }

  ~ReadyFifo() {
    for (std::size_t i = 0; i < kDirSize; ++i) {
      delete dir_[i].load(std::memory_order_relaxed);
    }
  }

  ReadyFifo(const ReadyFifo&) = delete;
  ReadyFifo& operator=(const ReadyFifo&) = delete;

  /// Any thread. `id` must not be kInvalidTask (the empty-slot sentinel).
  void enqueue(TaskId id) {
    const std::uint64_t i = tail_.fetch_add(1, sync::mo_relaxed);
    // Signed difference: an eager consumer may already have claimed slot i
    // and advanced head_ past it while this store is still pending, making
    // the unsigned distance underflow.
    BPAR_DCHECK(static_cast<std::int64_t>(i - head_.load(sync::mo_relaxed)) <
                    static_cast<std::int64_t>(kDirSize * kSegSize),
                "ready queue outgrew its segment directory");
    Segment* seg = segment_for(i >> kSegBits);
    seg->slots[i & kSegMask].store(id, sync::mo_release);
  }

  /// Any thread. Returns kInvalidTask when the queue is empty.
  TaskId try_dequeue() {
    std::uint64_t h = head_.load(sync::mo_acquire);
    for (;;) {
      if (h >= tail_.load(sync::mo_acquire)) return kInvalidTask;
      if (head_.compare_exchange_weak(h, h + 1, sync::mo_acq_rel,
                                      sync::mo_acquire)) {
        break;
      }
    }
    // Slot h is ours. The producer that claimed it stores right after its
    // fetch_add, so these waits are a handful of cycles at most.
    int spins = 0;
    Segment* seg;
    while ((seg = dir_[(h >> kSegBits) & (kDirSize - 1)].load(
                sync::mo_acquire)) == nullptr) {
      sync::spin_pause(spins++);
    }
    TaskId id;
    while ((id = seg->slots[h & kSegMask].load(sync::mo_acquire)) ==
           kInvalidTask) {
      sync::spin_pause(spins++);
    }
    return id;
  }

  [[nodiscard]] bool empty_approx() const {
    return head_.load(sync::mo_relaxed) >= tail_.load(sync::mo_relaxed);
  }

  // Racy cursor snapshots — diagnostics (watchdog scheduler dump) only.
  [[nodiscard]] std::uint64_t head_approx() const {
    return head_.load(sync::mo_relaxed);
  }
  [[nodiscard]] std::uint64_t tail_approx() const {
    return tail_.load(sync::mo_relaxed);
  }
  [[nodiscard]] std::uint64_t size_approx() const {
    const std::uint64_t h = head_approx();
    const std::uint64_t t = tail_approx();
    return t > h ? t - h : 0;
  }

  /// Quiescent only (no concurrent enqueue/dequeue can win a slot: the
  /// queue is empty and stays empty for the duration of the call). Frees
  /// every fully consumed segment.
  void reclaim_consumed() {
    const std::uint64_t first_live =
        head_.load(std::memory_order_relaxed) >> kSegBits;
    while (reclaim_floor_ < first_live) {
      delete dir_[reclaim_floor_ & (kDirSize - 1)].exchange(
          nullptr, std::memory_order_relaxed);
      ++reclaim_floor_;
    }
  }

 private:
  static constexpr std::size_t kSegBits = 11;  // 2048 tasks per segment
  static constexpr std::size_t kSegSize = std::size_t{1} << kSegBits;
  static constexpr std::size_t kSegMask = kSegSize - 1;
  static constexpr std::size_t kDirSize = std::size_t{1} << 13;

  struct Segment {
    Segment() {
      for (auto& slot : slots) {
        slot.store(kInvalidTask, std::memory_order_relaxed);
      }
    }
    std::atomic<TaskId> slots[kSegSize];
  };

  Segment* segment_for(std::uint64_t n) {
    std::atomic<Segment*>& cell = dir_[n & (kDirSize - 1)];
    Segment* seg = cell.load(sync::mo_acquire);
    if (seg != nullptr) return seg;
    auto fresh = std::make_unique<Segment>();
    if (cell.compare_exchange_strong(seg, fresh.get(), sync::mo_acq_rel,
                                     sync::mo_acquire)) {
      return fresh.release();
    }
    return seg;  // another producer installed it first
  }

  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::unique_ptr<std::atomic<Segment*>[]> dir_;
  std::uint64_t reclaim_floor_ = 0;  // only touched in reclaim_consumed()
};

}  // namespace bpar::taskrt
