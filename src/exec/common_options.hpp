// The executor knobs every execution strategy understands.
//
// Each executor's options struct embeds one CommonOptions as its first
// member, so the shared knobs are declared (and defaulted) exactly once:
// worker count, mini-batch replicas, the runtime watchdog, and
// deterministic fault injection. bpar::ExecutorOptions
// — the facade-level options type of make_executor / Model — is an alias of
// this struct, so facade callers and direct executor construction can never
// disagree on a default (tests/test_serve.cpp pins that down).
//
// Executors ignore knobs that do not apply to them (the sequential
// reference has no workers; the layer-barrier kind runs one replica) but
// never reinterpret them.
#pragma once

#include <cstdint>

#include "taskrt/fault.hpp"

namespace bpar::exec {

struct CommonOptions {
  int num_workers = 0;   // 0 → hardware concurrency
  int num_replicas = 1;  // mini-batches (the paper's mbs:N)
  /// Runtime watchdog: fail with a scheduler-state dump instead of hanging
  /// when no task completes for this many ms (0 → off).
  std::uint32_t watchdog_ms = 0;
  /// Deterministic fault-injection plan (see taskrt/fault.hpp); the
  /// BPAR_FAULTS environment variable applies when this is empty.
  taskrt::FaultSpec faults{};

  friend bool operator==(const CommonOptions& a,
                         const CommonOptions& b) = default;
};

}  // namespace bpar::exec
