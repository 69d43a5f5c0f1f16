// Backend registry and startup selection (see backend.hpp).
#include "kernels/backend.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace bpar::kernels {
namespace {

/// The dispatch pointer. Null until the first active_backend() call
/// resolves BPAR_KERNEL_BACKEND. Published with release and read with
/// acquire, so a thread that sees the pointer also sees the table's
/// initialised fields.
std::atomic<const Backend*> g_active{nullptr};

const Backend* resolve_from_env() {
  const char* env = std::getenv("BPAR_KERNEL_BACKEND");
  if (env == nullptr || env[0] == '\0') return &native_backend();
  const Backend* named = backend_by_name(env);
  if (named == nullptr) {
    std::fprintf(stderr,
                 "bpar: BPAR_KERNEL_BACKEND=%s is unknown or unsupported on "
                 "this CPU; using '%s'\n",
                 env, native_backend().name);
    return &native_backend();
  }
  return named;
}

}  // namespace

const Backend& native_backend() {
  if (const Backend* b = avx512_backend()) return *b;
  if (const Backend* b = avx2_backend()) return *b;
  if (const Backend* b = neon_backend()) return *b;
  return scalar_backend();
}

std::vector<const Backend*> available_backends() {
  std::vector<const Backend*> out{&scalar_backend()};
  if (const Backend* b = avx2_backend()) out.push_back(b);
  if (const Backend* b = avx512_backend()) out.push_back(b);
  if (const Backend* b = neon_backend()) out.push_back(b);
  return out;
}

const Backend* backend_by_name(std::string_view name) {
  if (name == "scalar") return &scalar_backend();
  if (name == "avx2") return avx2_backend();
  if (name == "avx512") return avx512_backend();
  if (name == "neon") return neon_backend();
  if (name == "native") return &native_backend();
  return nullptr;
}

const Backend& active_backend() {
  const Backend* current = g_active.load(std::memory_order_acquire);
  if (current != nullptr) return *current;
  // First use (or a benign race: both threads resolve the same table).
  const Backend* resolved = resolve_from_env();
  g_active.store(resolved, std::memory_order_release);
  return *resolved;
}

const char* active_backend_name() { return active_backend().name; }

bool set_backend(std::string_view name) {
  const Backend* backend = backend_by_name(name);
  if (backend == nullptr) return false;
  g_active.store(backend, std::memory_order_release);
  return true;
}

}  // namespace bpar::kernels
