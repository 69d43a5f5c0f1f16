// Low-level synchronization helpers shared by the lock-free scheduler
// structures (work_steal_deque.hpp, ready_fifo.hpp, runtime.cpp).
//
// ThreadSanitizer does not model std::atomic_thread_fence, so algorithms
// that publish data through a release *fence* followed by a relaxed store
// (the classic Chase-Lev formulation) produce false positives under TSAN.
// When TSAN is active every ordering alias below collapses to seq_cst,
// which TSAN reasons about precisely; the fences stay in place and become
// redundant. Outside TSAN the aliases are the plain orderings.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BPAR_TSAN_ACTIVE 1
#endif
#endif
#if !defined(BPAR_TSAN_ACTIVE) && defined(__SANITIZE_THREAD__)
#define BPAR_TSAN_ACTIVE 1
#endif

namespace bpar::taskrt::sync {

#if defined(BPAR_TSAN_ACTIVE)
inline constexpr std::memory_order mo_relaxed = std::memory_order_seq_cst;
inline constexpr std::memory_order mo_acquire = std::memory_order_seq_cst;
inline constexpr std::memory_order mo_release = std::memory_order_seq_cst;
inline constexpr std::memory_order mo_acq_rel = std::memory_order_seq_cst;
#else
inline constexpr std::memory_order mo_relaxed = std::memory_order_relaxed;
inline constexpr std::memory_order mo_acquire = std::memory_order_acquire;
inline constexpr std::memory_order mo_release = std::memory_order_release;
inline constexpr std::memory_order mo_acq_rel = std::memory_order_acq_rel;
#endif
inline constexpr std::memory_order mo_seq_cst = std::memory_order_seq_cst;

/// One iteration of a bounded busy-wait. Uses the CPU pause hint for the
/// first spins (cheap, keeps the core) and falls back to yielding the
/// timeslice, which matters when workers outnumber cores.
inline void spin_pause(int iteration) {
  if (iteration < 64) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield" ::: "memory");
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  } else {
    std::this_thread::yield();
  }
}

}  // namespace bpar::taskrt::sync
