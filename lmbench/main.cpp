// lmbench: the repository benchmark harness.
//
//   lmbench --workload stream|offload|burst|compile --seed N --seconds S
//           --trace 0|1 [--trace-file PATH] [--commit SHA]
//   lmbench --selftest
//
// Runs one workload closed-loop from this thread at the runtime's default
// configuration and prints, as its last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the per-layer
// ones. The line before it is the run-quality record, which describes the
// host during the run and is never compared between runs.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory_resource>
#include <sstream>
#include <thread>

#include "bench.h"

#ifndef LMBENCH_BUILD_TYPE
#define LMBENCH_BUILD_TYPE "unknown"
#endif

namespace lmbench {

int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {

int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
  std::string commit = "unknown";
  bool selftest = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lmbench: " << why
            << "\nusage: lmbench --workload stream|offload|burst|compile "
               "--seed N --seconds S --trace 0|1 [--trace-file PATH] "
               "[--commit SHA]\n       lmbench --selftest\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--trace-file") o.trace_file = value();
    else if (a == "--commit") o.commit = value();
    else if (a == "--selftest") o.selftest = true;
    else usage("unknown argument " + a);
  }
  if (!o.selftest && o.workload.empty()) usage("--workload is required");
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

// -- host state for the run-quality record ---------------------------------

struct CpuJiffies {
  uint64_t total = 0, steal = 0;
};

CpuJiffies read_proc_stat() {
  CpuJiffies j;
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  for (int i = 0; i < 8 && f; ++i) {
    uint64_t v = 0;
    f >> v;
    j.total += v;
    if (i == 7) j.steal = v;
  }
  return j;
}

int read_thread_count() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

struct Usage {
  long nivcsw = 0;
  long maxrss_kb = 0;
};

Usage read_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {ru.ru_nivcsw, ru.ru_maxrss};
}

// -- host speed probe --------------------------------------------------------

/// Wall time (ns) of a fixed piece of work that shares nothing with the
/// program: 150 inserts into a std::map whose nodes come from a static
/// arena. On the 4-vCPU VM this benchmark was built on, the host's speed
/// for this thread moved by up to 40% from one half-second to the next with
/// no steal at all (contention on the physical cores), and the mean probe
/// time of a half-second slice tracked the compile workload's throughput in
/// it with correlations of -0.86 to -0.98. Host steal lengthens it too.
int64_t host_probe_ns() {
  alignas(64) static unsigned char arena[1 << 16];
  static uint64_t sink = 0;
  const int64_t t0 = now_ns();
  {
    std::pmr::monotonic_buffer_resource res(arena, sizeof arena,
                                            std::pmr::null_memory_resource());
    std::pmr::map<uint64_t, uint64_t> m(&res);
    uint64_t x = 88172645463325252ULL;
    for (uint64_t i = 0; i < 150; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      m[x & 1023] += i;
    }
    for (const auto& [k, v] : m) sink += k * v;
  }
  return now_ns() - t0;
}

// -- the timed loop ---------------------------------------------------------

// The window is cut into slices of about half a second, each closed at the
// end of a whole cycle (every program called once with every argument
// set), so no slice's throughput depends on which calls fill it. The host
// runs slower in some slices than in others, in two ways. Its steal (time
// the hypervisor gives this VM's vCPUs to others) comes and goes, and it
// stretches the wall time of workloads that keep several vCPUs busy.
// Contention on the physical cores comes and goes too, with no steal at
// all, and slows CPU time as well as wall time; it is what moves the
// single-threaded compile workload. So the caller thread times
// host_probe_ns() between two calls at most every kProbeEveryNs, and a
// slice's probe time is the mean of those in it. A slice is a candidate
// when the host stole at most kQuietSteal of the machine's CPU time over
// it (when fewer than half the slices are, the half with the least steal
// are), and the quiet slices are the kQuietShare of all slices (at least
// kMinQuiet) among the candidates with the fastest probes. The end-to-end
// metrics are taken over every call of the quiet slices. Quietness is read
// from the host alone, never from the program's own speed, so a program
// that stalls now and then stalls in the quiet slices too. Set-up is
// sampled the same way: every kSetupEvery slices the untraced run tears
// its set-up down and times a fresh one, outside the window, between
// probes, and the window then runs on the new set-up. Only one set-up is
// ever alive, so peak_rss_mb stays that of one.
constexpr int64_t kSliceNs = 500'000'000;
constexpr int64_t kProbeEveryNs = 3'000'000;
constexpr int kSetupProbes = 20;  // before and after each set-up
constexpr double kQuietSteal = 0.02;
constexpr double kQuietShare = 0.25;
constexpr size_t kMinQuiet = 3;
constexpr size_t kSetupEvery = 2;

struct Slice {
  double steal = 0;     // host steal share over the slice
  double probe_us = 0;  // mean host_probe_ns() over the slice
  int64_t cpu_ns = 0;   // process CPU over the slice, probes excluded
  double rate = 0;      // elements / summed call wall time, per second
  bool quiet = false;
};

struct SetupSample {
  double s = 0;         // wall time of one set-up
  double steal = 0;     // host steal share over it
  double probe_us = 0;  // mean host_probe_ns() just before and after it
};

struct LoopResult {
  std::vector<double> call_ns;  // one per timed call
  std::vector<int> call_program;
  std::vector<int> call_slice;
  std::vector<bool> call_traced;
  std::vector<Slice> slices;
  uint64_t attempted = 0, failed = 0;
  double elems = 0;
  int64_t wall_ns = 0;  // summed call wall time
  int64_t cpu_ns = 0;
  double steal_share = 0;
  long nivcsw = 0;
  int peak_threads = 0;
};

// One call of program p with argument set k. Returns false when the call
// threw or its output differs from the reference.
bool call_once(Program& p, size_t k, double* ns) {
  if (p.gen) {
    int64_t t0 = now_ns();
    std::unique_ptr<rt::CompiledProgram> cp;
    try {
      cp = rt::compile(p.source);
    } catch (const std::exception&) {
      *ns = static_cast<double>(now_ns() - t0);
      return false;
    }
    *ns = static_cast<double>(now_ns() - t0);
    return cp->ok();
  }
  int64_t t0 = now_ns();
  bc::Value out;
  try {
    out = p.runtime->call(p.entry, p.args[k]);
  } catch (const std::exception&) {
    *ns = static_cast<double>(now_ns() - t0);
    return false;
  }
  *ns = static_cast<double>(now_ns() - t0);
  return lm::workloads::results_match(out, p.expected[k], 0.0);
}

double steal_between(const CpuJiffies& a, const CpuJiffies& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}

/// The first `want` of `idx`, ordered by `key`.
std::vector<size_t> least(std::vector<size_t> idx,
                          const std::vector<double>& key, size_t want) {
  std::stable_sort(idx.begin(), idx.end(),
                   [&](size_t a, size_t b) { return key[a] < key[b]; });
  idx.resize(std::min(want, idx.size()));
  return idx;
}

/// Marks the quiet samples among those `eligible`: the candidates are the
/// ones with steal at most kQuietSteal, or the half with the least steal
/// when fewer are; the quiet ones are the kQuietShare of the eligible (at
/// least kMinQuiet) among the candidates with the fastest host probe.
std::vector<bool> quiet_samples(const std::vector<double>& steal,
                                const std::vector<double>& probe_us,
                                const std::vector<bool>& eligible) {
  std::vector<size_t> all, low_steal;
  for (size_t i = 0; i < steal.size(); ++i) {
    if (!eligible[i]) continue;
    all.push_back(i);
    if (steal[i] <= kQuietSteal) low_steal.push_back(i);
  }
  const size_t half = (all.size() + 1) / 2;
  const std::vector<size_t> candidates =
      low_steal.size() >= half ? low_steal : least(all, steal, half);
  const size_t want = std::max(
      kMinQuiet, static_cast<size_t>(std::ceil(kQuietShare * all.size())));
  std::vector<bool> quiet(steal.size(), false);
  for (size_t i : least(candidates, probe_us, want)) quiet[i] = true;
  return quiet;
}

double mean_probe_us(int n) {
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(host_probe_ns());
  return sum / n / 1e3;
}

/// Makes the workload's set-up into `*s`, timed from `t0`.
SetupSample time_setup(const std::string& workload, uint64_t seed,
                       int64_t t0, std::unique_ptr<Setup>* s) {
  const CpuJiffies j0 = read_proc_stat();
  *s = make_setup(workload, seed);
  SetupSample out;
  out.s = static_cast<double>(now_ns() - t0) / 1e9;
  out.steal = steal_between(j0, read_proc_stat());
  return out;
}

/// time_setup between two rounds of host probes.
SetupSample probed_setup(const std::string& workload, uint64_t seed,
                         std::unique_ptr<Setup>* s) {
  const double before = mean_probe_us(kSetupProbes);
  SetupSample out = time_setup(workload, seed, now_ns(), s);
  out.probe_us = (before + mean_probe_us(kSetupProbes)) / 2;
  return out;
}

/// Runs the timed window on `*setup`. With `setups`, a fresh set-up
/// replaces it every kSetupEvery slices; its time and CPU stay out of the
/// window.
LoopResult timed_loop(std::unique_ptr<Setup>& setup, double seconds,
                      Spans* spans, std::vector<SetupSample>* setups) {
  LoopResult r;
  const std::string workload = setup->workload;
  const uint64_t seed = setup->seed;
  const size_t np = setup->programs.size();
  std::vector<uint64_t> calls_of(np, 0), failed_of(np, 0);
  const Usage u0 = read_usage();
  r.peak_threads = read_thread_count();
  int64_t next_sample = 0, next_probe = 0;

  // Programs that failed to compile cannot be called; they fail once per
  // round of the others instead.
  std::vector<size_t> runnable;
  size_t arg_sets = 1;
  for (size_t pi = 0; pi < np; ++pi) {
    const Program& p = setup->programs[pi];
    if (p.gen || p.runtime) runnable.push_back(pi);
    arg_sets = std::max(arg_sets, p.args.size());
  }
  const size_t nr = runnable.size();
  const size_t cycle = nr * arg_sets;  // calls in one whole cycle

  int64_t window_ns = static_cast<int64_t>(seconds * 1e9);
  int64_t slice_start = now_ns();
  CpuJiffies slice_j = read_proc_stat(), window_j;
  int64_t slice_cpu = process_cpu_ns();
  int64_t probe_ns = 0, probe_cpu_ns = 0, probes = 0;
  auto close_slice = [&](int64_t t) {
    const CpuJiffies j = read_proc_stat();
    const int64_t cpu = process_cpu_ns() - probe_cpu_ns;
    r.slices.push_back({steal_between(slice_j, j),
                        per(static_cast<double>(probe_ns) / 1e3,
                            static_cast<double>(probes)),
                        cpu - slice_cpu, 0, false});
    r.cpu_ns += cpu - slice_cpu;
    window_j.total += j.total - slice_j.total;
    window_j.steal += j.steal - slice_j.steal;
    window_ns -= t - slice_start;
  };
  auto open_slice = [&] {
    slice_j = read_proc_stat();
    slice_cpu = process_cpu_ns();
    probe_ns = probe_cpu_ns = probes = 0;
    slice_start = now_ns();
  };
  uint64_t c = 0;
  for (; nr > 0; ++c) {
    int64_t t = now_ns();
    if (c % cycle == 0) {
      if (t - slice_start >= window_ns) break;
      if (t - slice_start >= kSliceNs) {
        close_slice(t);
        if (setups && r.slices.size() % kSetupEvery == 0) {
          setup.reset();  // the old set-up's runtimes and workers go first
          setups->push_back(probed_setup(workload, seed, &setup));
        }
        open_slice();
        t = slice_start;
      }
    }
    if (t >= next_sample) {
      r.peak_threads = std::max(r.peak_threads, read_thread_count());
      next_sample = t + 50'000'000;
    }
    if (t >= next_probe) {
      const int64_t cpu0 = thread_cpu_ns();
      probe_ns += host_probe_ns();
      probe_cpu_ns += thread_cpu_ns() - cpu0;
      ++probes;
      next_probe = now_ns() + kProbeEveryNs;
    }
    const size_t pi = runnable[c % nr];
    const uint64_t round = c / nr;
    Program& p = setup->programs[pi];
    const size_t k = p.args.empty() ? 0 : round % p.args.size();
    // The traced run records a span around every call of alternate whole
    // cycles of argument sets and leaves the others bare; the two halves
    // see the same inputs and give obs.trace_overhead_pct.
    const bool traced =
        spans && (round / std::max<size_t>(1, p.args.size())) % 2 == 0;
    int span = traced ? spans->begin("call:" + p.name, spans->next_id()) : -1;
    double ns = 0;
    bool ok = call_once(p, k, &ns);
    if (traced) spans->end(span, static_cast<double>(p.elems));
    r.call_ns.push_back(ns);
    r.call_program.push_back(static_cast<int>(pi));
    r.call_slice.push_back(static_cast<int>(r.slices.size()));
    r.call_traced.push_back(traced);
    r.elems += static_cast<double>(p.elems);
    r.wall_ns += static_cast<int64_t>(ns);
    ++calls_of[pi];
    if (!ok) ++failed_of[pi];
  }
  close_slice(now_ns());
  r.steal_share = steal_between(CpuJiffies{}, window_j);
  r.nivcsw = read_usage().nivcsw - u0.nivcsw;

  // The quiet slices, among those that hold calls (a slice is empty when
  // one call outlasts it).
  std::vector<double> steal, probe_us, wall(r.slices.size(), 0);
  std::vector<bool> has_calls(r.slices.size(), false);
  for (const Slice& sl : r.slices) {
    steal.push_back(sl.steal);
    probe_us.push_back(sl.probe_us);
  }
  for (size_t i = 0; i < r.call_ns.size(); ++i) {
    const auto sl = static_cast<size_t>(r.call_slice[i]);
    has_calls[sl] = true;
    r.slices[sl].rate += static_cast<double>(
        setup->programs[static_cast<size_t>(r.call_program[i])].elems);
    wall[sl] += r.call_ns[i];
  }
  const std::vector<bool> quiet = quiet_samples(steal, probe_us, has_calls);
  for (size_t i = 0; i < r.slices.size(); ++i) {
    r.slices[i].rate = per(r.slices[i].rate, wall[i] / 1e9);
    r.slices[i].quiet = quiet[i];
  }

  // Generated programs: one run each against the generator's oracle,
  // outside the timed window. A wrong program fails every call of it.
  const uint64_t rounds = nr ? std::max<uint64_t>(1, (c + nr - 1) / nr) : 1;
  for (size_t pi = 0; pi < np; ++pi) {
    const Program& p = setup->programs[pi];
    if (!p.gen && !p.runtime) {
      calls_of[pi] = failed_of[pi] = rounds;
    } else if (p.gen && !check_generated(p, seed + pi)) {
      failed_of[pi] = calls_of[pi];
    }
    r.attempted += calls_of[pi];
    r.failed += failed_of[pi];
  }
  return r;
}

/// The calls, elements, wall and CPU time of the quiet slices.
struct QuietView {
  std::vector<double> call_ms;
  double elems = 0, wall_ns = 0, cpu_ns = 0, steal = 0;
  size_t slices = 0;
};

QuietView quiet_view(const Setup& s, const LoopResult& r) {
  QuietView v;
  for (size_t c = 0; c < r.call_ns.size(); ++c) {
    if (!r.slices[static_cast<size_t>(r.call_slice[c])].quiet) continue;
    v.call_ms.push_back(r.call_ns[c] / 1e6);
    v.elems += static_cast<double>(
        s.programs[static_cast<size_t>(r.call_program[c])].elems);
    v.wall_ns += r.call_ns[c];
  }
  for (const Slice& sl : r.slices) {
    if (!sl.quiet) continue;
    v.cpu_ns += static_cast<double>(sl.cpu_ns);
    v.steal += sl.steal;
    ++v.slices;
  }
  if (v.slices) v.steal /= static_cast<double>(v.slices);
  return v;
}

// -- output -----------------------------------------------------------------

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

struct Metric {
  std::string name, unit;
  double value;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << json_str(ms[i].name) << ": {\"value\": "
       << num(ms[i].value) << ", \"unit\": " << json_str(ms[i].unit) << "}";
  }
  os << "}";
  return os.str();
}

int run(const Options& o) {
  // The set-up the window runs on is timed from harness start; the
  // untraced run times more set-ups during the window (timed_loop).
  std::unique_ptr<Setup> setup;
  std::vector<SetupSample> setups = {
      time_setup(o.workload, o.seed, now_ns(), &setup)};
  setups[0].probe_us = mean_probe_us(kSetupProbes);  // after it only

  Spans spans;
  WindowCounters before;
  if (o.trace) before = read_counters(*setup);
  LoopResult r = timed_loop(setup, o.seconds, o.trace ? &spans : nullptr,
                            o.trace ? nullptr : &setups);

  std::vector<double> setup_steal, setup_probe;
  for (const auto& su : setups) {
    setup_steal.push_back(su.steal);
    setup_probe.push_back(su.probe_us);
  }
  const std::vector<bool> setup_quiet = quiet_samples(
      setup_steal, setup_probe, std::vector<bool>(setups.size(), true));
  std::vector<double> quiet_setup_s;
  for (size_t i = 0; i < setups.size(); ++i) {
    if (setup_quiet[i]) quiet_setup_s.push_back(setups[i].s);
  }

  const QuietView qv = quiet_view(*setup, r);
  std::vector<Metric> out;
  if (!o.trace) {
    out = {
        {"setup_s", "s", quantile(quiet_setup_s, 0.5)},
        {"elems_per_s", "1/s", per(qv.elems, qv.wall_ns / 1e9)},
        {"call_ms_p50", "ms", quantile(qv.call_ms, 0.5)},
        {"call_ms_p90", "ms", quantile(qv.call_ms, 0.9)},
        {"cpu_us_per_elem", "us", per(qv.cpu_ns / 1e3, qv.elems)},
        {"peak_rss_mb", "MB",
         static_cast<double>(read_usage().maxrss_kb) / 1024.0},
        {"success_rate", "ratio",
         1.0 - static_cast<double>(r.failed) /
                   static_cast<double>(r.attempted)},
    };
  } else {
    WindowCounters after = read_counters(*setup);
    WindowCounters w;
    w.wall_ns = static_cast<double>(r.wall_ns);
    w.cpu_ns = static_cast<double>(r.cpu_ns);
    w.elems = r.elems;
    w.calls = static_cast<double>(r.call_ns.size());
    w.steps = after.steps - before.steps;
    w.parks = after.parks - before.parks;
    w.wakeups = after.wakeups - before.wakeups;
    w.steals = after.steals - before.steals;
    w.queue_wait_us = after.queue_wait_us - before.queue_wait_us;
    w.gpu_launches = after.gpu_launches - before.gpu_launches;
    w.bytes_moved = after.bytes_moved - before.bytes_moved;
    w.maps_accelerated = after.maps_accelerated - before.maps_accelerated;
    w.maps_interpreted = after.maps_interpreted - before.maps_interpreted;
    // Traced vs untraced halves of the loop, per program, averaged.
    double pct = 0;
    int n = 0;
    for (size_t pi = 0; pi < setup->programs.size(); ++pi) {
      std::vector<double> on, off;
      for (size_t c = 0; c < r.call_ns.size(); ++c) {
        if (r.call_program[c] != static_cast<int>(pi)) continue;
        (r.call_traced[c] ? on : off).push_back(r.call_ns[c]);
      }
      if (on.empty() || off.empty()) continue;
      pct += 100.0 * (quantile(on, 0.5) / quantile(off, 0.5) - 1.0);
      ++n;
    }
    w.trace_overhead_pct = n ? pct / n : 0;
    for (const auto& [name, lm] : run_probes(*setup, w, spans)) {
      out.push_back({name, lm.unit, lm.value});
    }
    if (!o.trace_file.empty()) spans.write(o.trace_file);
  }

  std::ostringstream q;
  q << "{\"quality\": {\"workload\": " << json_str(o.workload)
    << ", \"seed\": " << o.seed << ", \"commit\": " << json_str(o.commit)
    << ", \"build_type\": " << json_str(LMBENCH_BUILD_TYPE)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"steal_share\": " << num(r.steal_share)
    << ", \"quiet_steal_share\": " << num(qv.steal)
    << ", \"slices\": " << r.slices.size()
    << ", \"quiet_slices\": " << qv.slices
    << ", \"involuntary_ctx_switches\": " << r.nivcsw
    << ", \"peak_threads\": " << r.peak_threads
    << ", \"calls\": " << r.call_ns.size()
    << ", \"quiet_calls\": " << qv.call_ms.size()
    << ", \"calls_wall_s\": " << num(static_cast<double>(r.wall_ns) / 1e9)
    << ", \"program_call_ms_p50\": {";
  for (size_t pi = 0; pi < setup->programs.size(); ++pi) {
    std::vector<double> ms;
    for (size_t c = 0; c < r.call_ns.size(); ++c) {
      if (r.call_program[c] == static_cast<int>(pi)) {
        ms.push_back(r.call_ns[c] / 1e6);
      }
    }
    q << (pi ? ", " : "") << json_str(setup->programs[pi].name) << ": "
      << num(quantile(ms, 0.5));
  }
  q << "}, \"quiet_setups\": " << quiet_setup_s.size()
    << ", \"setup_s_samples\": [";
  for (size_t i = 0; i < setups.size(); ++i) {
    q << (i ? ", " : "") << num(setups[i].s);
  }
  q << "], \"setup_steal\": [";
  for (size_t i = 0; i < setups.size(); ++i) {
    q << (i ? ", " : "") << num(setups[i].steal);
  }
  q << "], \"setup_probe_us\": [";
  for (size_t i = 0; i < setups.size(); ++i) {
    q << (i ? ", " : "") << num(setups[i].probe_us);
  }
  q << "], \"slice_steal\": [";
  for (size_t i = 0; i < r.slices.size(); ++i) {
    q << (i ? ", " : "") << num(r.slices[i].steal);
  }
  q << "], \"slice_probe_us\": [";
  for (size_t i = 0; i < r.slices.size(); ++i) {
    q << (i ? ", " : "") << num(r.slices[i].probe_us);
  }
  q << "], \"slice_elems_per_s\": [";
  for (size_t i = 0; i < r.slices.size(); ++i) {
    q << (i ? ", " : "") << num(r.slices[i].rate);
  }
  q << "]}}";
  std::cout << q.str() << "\n";
  std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed
            << ", \"metrics\": " << metrics_json(out) << "}" << std::endl;
  return 0;
}

}  // namespace

int selftest();

}  // namespace lmbench

int main(int argc, char** argv) {
  using namespace lmbench;
  Options o = parse(argc, argv);
  try {
    if (o.selftest) return selftest();
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "lmbench: " << e.what() << "\n";
    return 1;
  }
}
