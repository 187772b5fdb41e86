// Runtime backend resolution. The active table is one atomic pointer;
// first use resolves MMTAG_KERN against the host CPU, set_backend()
// swaps it (benches force per-backend runs, ctest forces scalar vs auto
// through the environment). Resolution is idempotent, so the benign race
// of two threads resolving simultaneously converges to the same table.
#include "src/kern/backends.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace mmtag::kern {

namespace {

std::atomic<const Kernels*> g_active{nullptr};

bool cpu_supports(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
    case Backend::kAuto:
      return true;
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return detail::avx2_table() != nullptr && __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

const Kernels* concrete_table(Backend backend) {
  switch (backend) {
    case Backend::kAvx2:
      return detail::avx2_table();
    case Backend::kScalar:
    case Backend::kAuto:
      break;
  }
  return detail::scalar_table();
}

const Kernels* resolve_auto() {
  const char* env = std::getenv("MMTAG_KERN");
  Backend choice = Backend::kAuto;
  if (env != nullptr && *env != '\0') {
    if (const auto parsed = parse_backend(env); parsed.has_value()) {
      choice = *parsed;
    } else {
      std::fprintf(stderr,
                   "mmtag: ignoring unknown MMTAG_KERN=\"%s\" "
                   "(want scalar|avx2|auto)\n",
                   env);
    }
  }
  if (choice == Backend::kAuto || !cpu_supports(choice)) {
    if (choice != Backend::kAuto) {
      std::fprintf(stderr,
                   "mmtag: MMTAG_KERN=%s not available on this host; "
                   "using %s\n",
                   std::string(backend_name(choice)).c_str(),
                   std::string(backend_name(best_available())).c_str());
    }
    choice = best_available();
  }
  return concrete_table(choice);
}

}  // namespace

const Kernels& dispatch() {
  const Kernels* active = g_active.load(std::memory_order_acquire);
  if (active == nullptr) {
    active = resolve_auto();
    g_active.store(active, std::memory_order_release);
  }
  return *active;
}

const Kernels& table(Backend backend) {
  if (backend == Backend::kAuto) backend = best_available();
  if (!cpu_supports(backend)) return *detail::scalar_table();
  return *concrete_table(backend);
}

bool available(Backend backend) { return cpu_supports(backend); }

Backend best_available() {
  if (cpu_supports(Backend::kAvx2)) return Backend::kAvx2;
  return Backend::kScalar;
}

bool set_backend(Backend backend) {
  if (backend == Backend::kAuto) {
    g_active.store(resolve_auto(), std::memory_order_release);
    return true;
  }
  if (!cpu_supports(backend)) return false;
  g_active.store(concrete_table(backend), std::memory_order_release);
  return true;
}

Backend active_backend() {
  const Kernels& active = dispatch();
  if (&active == detail::avx2_table()) return Backend::kAvx2;
  return Backend::kScalar;
}

std::optional<Backend> parse_backend(std::string_view name) {
  if (name == "scalar") return Backend::kScalar;
  if (name == "avx2") return Backend::kAvx2;
  if (name == "auto") return Backend::kAuto;
  return std::nullopt;
}

std::string_view backend_name(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAuto:
      return "auto";
  }
  return "scalar";
}

}  // namespace mmtag::kern
