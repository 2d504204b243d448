// Shared declarations of the lmbench harness (README.md in this directory
// explains the workloads and metrics).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bytecode/value.h"
#include "gen.h"
#include "runtime/liquid_compiler.h"
#include "runtime/liquid_runtime.h"
#include "workloads/workloads.h"

namespace lmbench {

namespace rt = lm::runtime;
namespace bc = lm::bc;

// -- allocation counting (alloc_count.cpp) --------------------------------

/// Heap allocations made by any thread while counting is on. Counting is
/// off outside the allocation probes, so untraced runs pay one relaxed
/// load per allocation and nothing else.
void set_alloc_counting(bool on);
uint64_t alloc_count();

// -- clocks -----------------------------------------------------------------

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
/// CLOCK_PROCESS_CPUTIME_ID: CPU time of every thread of the process.
int64_t process_cpu_ns();

/// a / b, or 0 when b is not positive (a layer the workload never used).
inline double per(double a, double b) { return b > 0 ? a / b : 0; }

/// The q-quantile of `v`, interpolated linearly; 0 for an empty `v`.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

// -- workloads --------------------------------------------------------------

/// One program of a workload, with its runtime and seeded inputs.
struct Program {
  std::string name;
  std::string source;
  std::string entry;
  rt::Placement placement = rt::Placement::kAuto;
  std::unique_ptr<rt::CompiledProgram> cp;
  /// Null for the compile workload, whose calls compile instead of run,
  /// and for a program that failed to compile.
  std::unique_ptr<rt::LiquidRuntime> runtime;
  /// Seeded argument sets; timed calls cycle through them.
  std::vector<std::vector<bc::Value>> args;
  std::vector<bc::Value> expected;  // one per argument set
  size_t elems = 1;                 // elements one call completes
  const GenProgram* gen = nullptr;  // compile workload only
  const lm::workloads::Workload* suite = nullptr;  // the other workloads
};

struct Setup {
  std::string workload;
  uint64_t seed = 0;
  std::vector<GenProgram> gens;  // compile workload only
  std::vector<Program> programs;
};

/// Compiles, generates inputs and references, builds runtimes and makes
/// one warm-up call per program. A program that fails to compile keeps a
/// null `cp` (and `runtime`); its calls count as failures. `tiny` shrinks
/// every input to 16 elements (the self-test).
std::unique_ptr<Setup> make_setup(const std::string& workload, uint64_t seed,
                                  bool tiny = false);

/// Runs the generated program `p` at a small n under every placement whose
/// backend its compile built (CPU, GPU and, for int programs, FPGA, plus
/// kAuto) and compares each output with the generator's oracle. False on
/// any mismatch or error.
bool check_generated(const Program& p, uint64_t seed);

/// A small argument set (n elements) for `p`, made by the generator its
/// timed inputs come from.
std::vector<bc::Value> small_args(const Program& p, size_t n, uint64_t seed);

// -- spans (traced run) -------------------------------------------------------

/// In-memory span log of the traced run. Spans are recorded only in the
/// benchmark's own code, around calls into the program's public entry
/// points; the program itself is not instrumented.
class Spans {
 public:
  struct Span {
    std::string name;
    uint64_t id = 0;    // replay id: spans of one replayed call share it
    int parent = -1;    // index of the enclosing span, -1 at top level
    int64_t t0 = 0, t1 = 0;
    double work = 0;    // elements, items or calls the span covers
  };

  int begin(std::string name, uint64_t id, int parent = -1);
  void end(int span, double work = 1);
  /// Ends every span still open (after an exception unwound past them).
  void end_open();
  uint64_t next_id() { return ++last_id_; }

  const std::vector<Span>& all() const { return spans_; }
  /// Sum of durations (ns) and of work over spans named `name`.
  double total_ns(const std::string& name) const;
  double total_work(const std::string& name) const;
  size_t count(const std::string& name) const;

  /// Chrome-trace JSON with one complete event per span, plus a summary
  /// of total and self time (a span minus its children) per span name.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  uint64_t last_id_ = 0;
};

/// Per-layer probes of the traced run. `window` holds counters gathered
/// over the timed loop; the probes add metrics timed on the setup's own
/// programs and inputs. Returns metric name → unit and value.
struct WindowCounters {
  double wall_ns = 0, cpu_ns = 0, elems = 0, calls = 0;
  double steps = 0, parks = 0, wakeups = 0, steals = 0, queue_wait_us = 0;
  double gpu_launches = 0, bytes_moved = 0;
  double maps_accelerated = 0, maps_interpreted = 0;
  double trace_overhead_pct = 0;
};
struct LayerMetric {
  std::string unit;
  double value = 0;
};
std::map<std::string, LayerMetric> run_probes(Setup& s,
                                              const WindowCounters& w,
                                              Spans& spans);

/// Sums the runtime counters the traced run reads over its window.
WindowCounters read_counters(const Setup& s);

}  // namespace lmbench
