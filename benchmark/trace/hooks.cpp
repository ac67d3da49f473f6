// Function-entry/exit hooks for the benchmark's traced build
// (-finstrument-functions over src/**/*.cpp; see benchmark/CMakeLists.txt).
// This file itself is compiled with -fno-instrument-functions.
//
// Each thread keeps a shadow stack and, per function, the number of calls,
// the calls it made to other hooked functions, its self ticks and its
// inclusive ticks. Time is charged to whichever hooked function is on top
// of the stack, so a layer's self time covers the inline and library code
// it runs; time with no hooked frame open goes to a root entry. Each hook
// reads the clock once, on arrival, so the rest of the hook's own cost
// leaks into the profile: an enter's into the callee, an exit's into the
// caller. That leak is measured once at start-up and written out with the
// data, and layers.py subtracts it per call.
//
// At process exit, if CS_TRACE_OUT names a file, the totals of every thread
// are summed per function and written there as TSV:
//
//   meta  <key>  <value>   ticks_per_ns, hook_self_ticks, hook_parent_ticks,
//                          threads, overflows
//   root  -       calls  child_calls  self_ticks  incl_ticks
//   fn    <addr>  calls  child_calls  self_ticks  incl_ticks
//
// <addr> is the function's address with the executable's load bias removed,
// as addr2line expects it.
#include <link.h>

#include <chrono>  // detlint: allow(banned-api) host-time profile of the simulator; never feeds model time
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace {

using Clock = std::chrono::steady_clock;  // detlint: allow(banned-api) converts profile ticks to nanoseconds only

inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      Clock::now().time_since_epoch().count());
#endif
}

constexpr std::size_t kSlotBits = 15;
constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
constexpr std::size_t kMaxDepth = 4096;

struct FnStats {
  const void* fn = nullptr;
  std::uint64_t calls = 0;
  std::uint64_t child_calls = 0;
  std::uint64_t self = 0;
  std::uint64_t incl = 0;
};

struct Frame {
  const void* fn = nullptr;
  FnStats* stats = nullptr;
  std::uint64_t entered = 0;
};

struct ThreadTrace {
  std::vector<FnStats> table = std::vector<FnStats>(kSlots);
  std::vector<Frame> stack = std::vector<Frame>(kMaxDepth);
  std::size_t depth = 0;
  /// Frames entered beyond kMaxDepth; counted down by their exits, untimed.
  std::size_t skipped = 0;
  std::size_t used = 0;
  std::uint64_t mark = 0;
  std::uint64_t overflows = 0;
  FnStats root;
  /// Shared entry for functions first seen once the table is 3/4 full.
  FnStats full;
};

FnStats* lookup(ThreadTrace& t, const void* fn) {
  const auto key = reinterpret_cast<std::uintptr_t>(fn);
  std::size_t slot = static_cast<std::size_t>(
      ((key >> 4) * 0x9e3779b97f4a7c15ull) >> (64 - kSlotBits));
  for (;;) {
    FnStats& entry = t.table[slot];
    if (entry.fn == fn) return &entry;
    if (entry.fn == nullptr) {
      if (t.used >= kSlots / 4 * 3) {
        ++t.overflows;
        return &t.full;
      }
      ++t.used;
      entry.fn = fn;
      return &entry;
    }
    slot = (slot + 1) & (kSlots - 1);
  }
}

/// Every ThreadTrace handed out. A finished thread's trace goes on the free
/// list and the next new thread continues it, so the count stays at the
/// peak number of live threads.
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadTrace>> all;
  std::vector<ThreadTrace*> free;
};

Registry& registry() {
  // Never destroyed: hooked code keeps running during static destruction.
  static Registry* const instance = new Registry;  // detlint: allow(raw-new) intentionally leaked, see above
  return *instance;
}

thread_local ThreadTrace* tls_trace = nullptr;  // detlint: allow(banned-api) the shadow stack is per thread by definition
thread_local bool tls_finished = false;  // detlint: allow(banned-api) set once the thread has released its trace

/// Returns the thread's trace to the free list when the thread exits.
struct Releaser {
  Releaser() = default;
  Releaser(const Releaser&) = delete;
  Releaser& operator=(const Releaser&) = delete;
  ~Releaser() {
    ThreadTrace* t = tls_trace;
    if (t == nullptr) return;
    t->root.self += ticks() - t->mark;
    t->depth = 0;
    t->skipped = 0;
    tls_trace = nullptr;
    tls_finished = true;
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.free.push_back(t);
  }
};

thread_local Releaser tls_releaser;  // detlint: allow(banned-api) releases the thread's trace at thread exit

ThreadTrace* acquire() {
  if (tls_finished) return nullptr;
  Registry& r = registry();
  ThreadTrace* t = nullptr;
  {
    const std::lock_guard<std::mutex> lock(r.mutex);
    if (r.free.empty()) {
      r.all.push_back(std::make_unique<ThreadTrace>());
      t = r.all.back().get();
    } else {
      t = r.free.back();
      r.free.pop_back();
    }
  }
  static_cast<void>(&tls_releaser);  // first use registers its destructor
  t->mark = ticks();
  tls_trace = t;
  return t;
}

}  // namespace

extern "C" {

__attribute__((noinline)) void __cyg_profile_func_enter(void* fn,
                                                        void* /*site*/) {
  ThreadTrace* t = tls_trace;
  if (t == nullptr && (t = acquire()) == nullptr) return;
  const std::uint64_t now = ticks();
  FnStats* parent = t->depth > 0 ? t->stack[t->depth - 1].stats : &t->root;
  parent->self += now - t->mark;
  if (t->depth == kMaxDepth || t->skipped > 0) {
    ++t->skipped;
  } else {
    ++parent->child_calls;
    FnStats* stats = lookup(*t, fn);
    ++stats->calls;
    t->stack[t->depth++] = Frame{fn, stats, now};
  }
  t->mark = now;
}

__attribute__((noinline)) void __cyg_profile_func_exit(void* fn,
                                                       void* /*site*/) {
  ThreadTrace* t = tls_trace;
  if (t == nullptr) return;
  const std::uint64_t now = ticks();
  if (t->skipped > 0) {
    --t->skipped;
    return;
  }
  FnStats* top = t->depth > 0 ? t->stack[t->depth - 1].stats : &t->root;
  top->self += now - t->mark;
  // Close the matching frame and any left open above it (a frame abandoned
  // by longjmp); an exit with no matching frame closes nothing.
  std::size_t match = t->depth;
  while (match > 0 && t->stack[match - 1].fn != fn) --match;
  while (match > 0 && t->depth >= match) {
    const Frame& frame = t->stack[--t->depth];
    frame.stats->incl += now - frame.entered;
  }
  t->mark = now;
}

}  // extern "C"

namespace {

struct Calibration {
  double self_ticks = 0.0;
  double parent_ticks = 0.0;
};

/// Runs hook pairs on a private trace: what lands on the enclosing frame is
/// the per-call leak into the caller, what lands on the callee is the leak
/// into the callee.
Calibration calibrate() {
  constexpr int kPairs = 200000;
  static const char caller = 0;
  static const char callee = 0;
  void* const caller_fn = const_cast<char*>(&caller);
  void* const callee_fn = const_cast<char*>(&callee);
  ThreadTrace* const saved = tls_trace;
  ThreadTrace probe;
  tls_trace = &probe;
  probe.mark = ticks();
  __cyg_profile_func_enter(caller_fn, nullptr);
  const FnStats* outer = probe.stack[0].stats;
  const std::uint64_t before = outer->self;
  for (int i = 0; i < kPairs; ++i) {
    __cyg_profile_func_enter(callee_fn, nullptr);
    __cyg_profile_func_exit(callee_fn, nullptr);
  }
  Calibration c;
  c.parent_ticks = static_cast<double>(outer->self - before) / kPairs;
  c.self_ticks = static_cast<double>(lookup(probe, callee_fn)->self) / kPairs;
  tls_trace = saved;
  return c;
}

std::uintptr_t load_bias() {
  std::uintptr_t bias = 0;
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* data) -> int {
        *static_cast<std::uintptr_t*>(data) = info->dlpi_addr;
        return 1;  // the first object is the executable
      },
      &bias);
  return bias;
}

void add(FnStats& into, const FnStats& from) {
  into.calls += from.calls;
  into.child_calls += from.child_calls;
  into.self += from.self;
  into.incl += from.incl;
}

void write_row(std::FILE* out, const char* kind, const char* addr,
               const FnStats& s) {
  std::fprintf(out, "%s\t%s\t%llu\t%llu\t%llu\t%llu\n", kind, addr,
               static_cast<unsigned long long>(s.calls),
               static_cast<unsigned long long>(s.child_calls),
               static_cast<unsigned long long>(s.self),
               static_cast<unsigned long long>(s.incl));
}

/// Calibrates at start-up and writes the profile at exit.
class Session {
 public:
  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  ~Session() {
    const char* path = std::getenv("CS_TRACE_OUT");
    if (path == nullptr || *path == '\0') return;
    const double elapsed_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start_time_)  // detlint: allow(banned-api) converts profile ticks to nanoseconds only
            .count();
    write(path, static_cast<double>(ticks() - start_ticks_) / elapsed_ns);
  }

 private:
  void write(const char* path, double ticks_per_ns) const {
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "trace hooks: cannot write %s\n", path);
      return;
    }
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    ThreadTrace total;
    std::uint64_t overflows = 0;
    for (const std::unique_ptr<ThreadTrace>& t : r.all) {
      overflows += t->overflows;
      add(total.root, t->root);
      for (const FnStats& entry : t->table) {
        if (entry.fn != nullptr) add(*lookup(total, entry.fn), entry);
      }
    }
    std::fprintf(out, "meta\tticks_per_ns\t%.9g\n", ticks_per_ns);
    std::fprintf(out, "meta\thook_self_ticks\t%.9g\n",
                 calibration_.self_ticks);
    std::fprintf(out, "meta\thook_parent_ticks\t%.9g\n",
                 calibration_.parent_ticks);
    std::fprintf(out, "meta\tthreads\t%zu\n", r.all.size());
    std::fprintf(out, "meta\toverflows\t%llu\n",
                 static_cast<unsigned long long>(overflows));
    write_row(out, "root", "-", total.root);
    const std::uintptr_t bias = load_bias();
    for (const FnStats& entry : total.table) {
      if (entry.fn == nullptr) continue;
      char addr[32];
      std::snprintf(addr, sizeof(addr), "%llx",
                    static_cast<unsigned long long>(
                        reinterpret_cast<std::uintptr_t>(entry.fn) - bias));
      write_row(out, "fn", addr, entry);
    }
    std::fclose(out);
  }

  std::uint64_t start_ticks_ = ticks();
  Clock::time_point start_time_ = Clock::now();
  Calibration calibration_ = calibrate();
};

const Session session;

}  // namespace
