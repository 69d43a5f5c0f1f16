// Chase-Lev work-stealing deque of TaskIds (Chase & Lev, SPAA'05), with the
// C11 memory orderings of Lê et al., "Correct and Efficient Work-Stealing
// for Weak Memory Models" (PPoPP'13).
//
// Single owner, many thieves:
//   * the owner pushes and pops at the *bottom* — LIFO order, so the task
//     it just made ready (whose inputs are hot in its cache) runs next;
//   * thieves steal from the *top* — the oldest, coldest task, leaving the
//     owner's cache-hot work alone.
//
// The circular buffer grows on demand; retired buffers are kept until the
// deque is destroyed because a concurrent thief may still read a stale
// buffer pointer (the element it reads is protected by the CAS on top_, so
// the memory only has to stay mapped, not current).
//
// Indices are signed 64-bit and monotonically increasing: at one task per
// nanosecond they last ~290 years, so sessions never need to reset them.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "taskrt/sync.hpp"
#include "taskrt/task_graph.hpp"

namespace bpar::taskrt {

class WorkStealingDeque {
 public:
  explicit WorkStealingDeque(std::int64_t initial_capacity = 256)
      : array_(new Array(initial_capacity)) {}

  ~WorkStealingDeque() {
    delete array_.load(std::memory_order_relaxed);
    for (Array* retired : retired_) delete retired;
  }

  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  /// Owner only: makes `id` the next task the owner will pop.
  void push(TaskId id) {
    const std::int64_t b = bottom_.load(sync::mo_relaxed);
    const std::int64_t t = top_.load(sync::mo_acquire);
    Array* a = array_.load(sync::mo_relaxed);
    if (b - t > a->capacity - 1) a = grow(a, t, b);
    a->put(b, id);
    std::atomic_thread_fence(std::memory_order_release);
    bottom_.store(b + 1, sync::mo_relaxed);
  }

  /// Owner only: takes the most recently pushed task, or kInvalidTask.
  TaskId pop() {
    const std::int64_t b = bottom_.load(sync::mo_relaxed) - 1;
    Array* a = array_.load(sync::mo_relaxed);
    bottom_.store(b, sync::mo_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(sync::mo_relaxed);
    TaskId id = kInvalidTask;
    if (t <= b) {
      id = a->get(b);
      if (t == b) {
        // Last element: race the thieves for it via top_.
        if (!top_.compare_exchange_strong(t, t + 1, sync::mo_seq_cst,
                                          sync::mo_relaxed)) {
          id = kInvalidTask;
        }
        bottom_.store(b + 1, sync::mo_relaxed);
      }
    } else {
      bottom_.store(b + 1, sync::mo_relaxed);
    }
    return id;
  }

  /// Thief: takes the *oldest* task, or kInvalidTask when the deque is
  /// empty or the CAS raced. The last entry is stealable too; a thief and
  /// the owner's pop() race for it on top_.
  TaskId steal() {
    std::int64_t t = top_.load(sync::mo_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(sync::mo_acquire);
    if (t >= b) return kInvalidTask;
    Array* a = array_.load(sync::mo_acquire);
    const TaskId id = a->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, sync::mo_seq_cst,
                                      sync::mo_relaxed)) {
      return kInvalidTask;
    }
    return id;
  }

  [[nodiscard]] bool empty_approx() const {
    return bottom_.load(sync::mo_relaxed) <= top_.load(sync::mo_relaxed);
  }

  /// Approximate depth (racy snapshot) — diagnostics only.
  [[nodiscard]] std::int64_t size_approx() const {
    const std::int64_t d =
        bottom_.load(sync::mo_relaxed) - top_.load(sync::mo_relaxed);
    return d > 0 ? d : 0;
  }

 private:
  struct Array {
    explicit Array(std::int64_t cap)
        : capacity(cap), mask(cap - 1), slots(new std::atomic<TaskId>[cap]) {}
    ~Array() { delete[] slots; }
    void put(std::int64_t i, TaskId id) {
      slots[i & mask].store(id, sync::mo_relaxed);
    }
    [[nodiscard]] TaskId get(std::int64_t i) const {
      return slots[i & mask].load(sync::mo_relaxed);
    }
    const std::int64_t capacity;
    const std::int64_t mask;  // capacity is a power of two
    std::atomic<TaskId>* const slots;
  };

  Array* grow(Array* old, std::int64_t t, std::int64_t b) {
    Array* bigger = new Array(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    array_.store(bigger, sync::mo_release);
    retired_.push_back(old);  // owner-only; freed in the destructor
    return bigger;
  }

  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  std::atomic<Array*> array_;
  std::vector<Array*> retired_;
};

}  // namespace bpar::taskrt
