// Per-layer probes of the traced run.
//
// Each probe times a public entry point of one layer on the workload's
// own programs and inputs, inside a span, or reads a public counter over
// the timed window. README.md lists every metric with the layer it
// measures and the end-to-end metric it should move.
#include <algorithm>
#include <iostream>
#include <thread>

#include "analysis/analysis.h"
#include "bench.h"
#include "bytecode/compiler.h"
#include "bytecode/interp.h"
#include "fpga/synth.h"
#include "gpu/kernel_compiler.h"
#include "ir/task_graph.h"
#include "lime/frontend.h"
#include "runtime/executor.h"
#include "runtime/fifo.h"
#include "serde/batch.h"
#include "serde/native.h"

namespace lmbench {

namespace {

using lm::DiagnosticEngine;
using rt::DeviceKind;

// Bounds on probe work, so a traced run stays well inside its time limit.
// Generated programs fire 4-16 stages of 4-16 trips and get smaller inputs.
size_t probe_elems(const Program& p, size_t suite_max) {
  return p.gen ? 64 : suite_max;
}

/// The stream elements a program's pipelines consume: the elements of its
/// first argument set's array (or a generated input), at most `max`.
std::vector<bc::Value> stream_input(const Setup& s, const Program& p,
                                    size_t max) {
  bc::Value arr = p.gen ? p.gen->make_input(max, s.seed) : p.args.front()[0];
  std::vector<bc::Value> out;
  const auto& a = *arr.as_array();
  for (size_t i = 0; i < a.size() && i < max; ++i) {
    out.push_back(bc::array_get(a, i));
  }
  return out;
}

/// A relocated segment's filters, in graph order.
using Segment = std::vector<const lm::ir::TaskNodeInfo*>;

/// Every relocated segment of a program's task graphs, in graph order.
std::vector<Segment> segments(const Program& p) {
  std::vector<Segment> out;
  for (const auto& g : p.cp->graphs.graphs) {
    for (const auto& [first, last] : g.relocated_segments()) {
      Segment seg;
      for (int i = first; i <= last; ++i) {
        seg.push_back(&g.nodes[static_cast<size_t>(i)]);
      }
      out.push_back(std::move(seg));
    }
  }
  return out;
}

/// The artifacts that run a segment on `d`, as the runtime prefers them:
/// the fused artifact when the store has one, else each filter's, up to
/// the first filter `d` has no artifact for.
std::vector<rt::Artifact*> device_units(const Program& p, const Segment& seg,
                                        DeviceKind d) {
  if (seg.size() > 1) {
    std::vector<std::string> ids;
    for (const auto* n : seg) ids.push_back(n->task_id);
    if (rt::Artifact* a =
            p.cp->store.find(rt::ArtifactStore::segment_id(ids), d)) {
      return {a};
    }
  }
  std::vector<rt::Artifact*> out;
  for (const auto* n : seg) {
    rt::Artifact* a = p.cp->store.find(n->task_id, d);
    if (!a) break;
    out.push_back(a);
  }
  return out;
}

/// Feeds `in` through `a` in device-batch slices; returns the outputs.
std::vector<bc::Value> process_batches(rt::Artifact& a,
                                       const std::vector<bc::Value>& in) {
  const size_t kBatch = rt::RuntimeConfig{}.device_batch;
  std::vector<bc::Value> out;
  for (size_t i = 0; i < in.size(); i += kBatch) {
    size_t n = std::min(kBatch, in.size() - i);
    auto part = a.process(std::span<const bc::Value>(in.data() + i, n));
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

const lm::lime::MethodDecl* find_method(const lm::lime::Program& prog,
                                        const std::string& qualified) {
  for (const auto& cls : prog.classes) {
    for (const auto& m : cls->methods) {
      if (m->qualified_name() == qualified) return m.get();
    }
  }
  return nullptr;
}

double median_ns(const Spans& spans, const std::string& name) {
  std::vector<double> v;
  for (const auto& s : spans.all()) {
    if (s.name == name) v.push_back(static_cast<double>(s.t1 - s.t0));
  }
  return quantile(std::move(v), 0.5);
}

// -- compiler phases --------------------------------------------------------

void probe_compile(const Setup& s, Spans& sp) {
  const size_t reps = std::max<size_t>(2, 12 / s.programs.size());
  for (size_t rep = 0; rep < reps; ++rep) {
    for (const auto& p : s.programs) {
      if (!p.cp) continue;
      const uint64_t id = sp.next_id();
      // Whichever of the two compiles runs second finds warm caches, so
      // alternate their order between replays.
      auto driver = [&] {
        int span = sp.begin("compile.driver", id);
        auto cp = rt::compile(p.source);
        sp.end(span);
      };
      if (rep % 2 == 1) driver();
      const int parent = sp.begin("compile.phases", id);

      int span = sp.begin("lime.frontend", id, parent);
      lm::lime::FrontendResult fr = lm::lime::compile_source(p.source);
      sp.end(span);
      if (!fr.ok()) {
        sp.end(parent);
        continue;
      }
      const lm::lime::Program& prog = *fr.program;
      DiagnosticEngine diags;

      span = sp.begin("ir.taskgraph", id, parent);
      lm::ir::ProgramTaskGraphs graphs =
          lm::ir::extract_task_graphs(prog, diags);
      sp.end(span);

      span = sp.begin("bytecode.compile", id, parent);
      auto module = bc::compile_program(prog, diags);
      double instrs = 0;
      for (const auto& m : module->methods) {
        instrs += static_cast<double>(m.code.size());
      }
      sp.end(span, instrs);

      span = sp.begin("analysis", id, parent);
      lm::analysis::analyze_program(prog, graphs);
      sp.end(span);

      // The GPU backend's units: every relocated filter, every fused
      // segment, and every map/reduce method runtime::compile built a kernel
      // for.
      std::vector<const lm::lime::MethodDecl*> filters =
          graphs.relocated_filter_methods();
      std::vector<std::vector<const lm::lime::MethodDecl*>> chains;
      for (const auto& g : graphs.graphs) {
        for (const auto& [first, last] : g.relocated_segments()) {
          if (last - first + 1 < 2) continue;
          std::vector<const lm::lime::MethodDecl*> chain;
          for (int i = first; i <= last; ++i) {
            chain.push_back(g.nodes[static_cast<size_t>(i)].method);
          }
          chains.push_back(std::move(chain));
        }
      }
      std::vector<const lm::lime::MethodDecl*> maps;
      for (const auto* mf : p.cp->store.manifests()) {
        if (mf->device != DeviceKind::kGpu) continue;
        if (mf->task_id.rfind("seg:", 0) == 0) continue;
        const auto* m = find_method(prog, mf->task_id);
        if (m &&
            std::find(filters.begin(), filters.end(), m) == filters.end()) {
          maps.push_back(m);
        }
      }

      span = sp.begin("gpu.kernel_compile", id, parent);
      double kernels = 0;
      for (const auto* m : filters) kernels += lm::gpu::compile_kernel(*m).ok();
      for (const auto* m : maps) kernels += lm::gpu::compile_kernel(*m).ok();
      for (const auto& c : chains) {
        kernels += lm::gpu::compile_segment_kernel(c).ok();
      }
      sp.end(span, kernels);

      span = sp.begin("fpga.synth", id, parent);
      double cells = 0;
      auto count_cells = [&](const lm::fpga::FpgaCompileResult& r) {
        if (r.ok()) {
          cells += static_cast<double>(r.module->comb.size() +
                                       r.module->seq.size());
        }
      };
      for (const auto* m : filters) {
        count_cells(lm::fpga::synthesize_filter(*m));
      }
      for (const auto& c : chains) {
        count_cells(lm::fpga::synthesize_segment(c));
      }
      sp.end(span, cells);
      sp.end(parent);
      if (rep % 2 == 0) driver();
    }
  }
}

/// What runtime::compile spends beyond the phases: per replayed program,
/// the driver span minus the phase spans that share its id (the phases
/// are the children of "compile.phases"); the median over replays.
double driver_us(const Spans& sp) {
  std::map<uint64_t, double> phases, driver;
  const auto& all = sp.all();
  for (const auto& s : all) {
    const double d = static_cast<double>(s.t1 - s.t0);
    if (s.name == "compile.driver") driver[s.id] = d;
    if (s.parent >= 0 && all[static_cast<size_t>(s.parent)].name ==
                             "compile.phases") {
      phases[s.id] += d;
    }
  }
  std::vector<double> diff;
  for (const auto& [id, d] : driver) diff.push_back(d - phases[id]);
  return quantile(std::move(diff), 0.5) / 1e3;
}

// -- bytecode interpreter and CPU artifacts ---------------------------------

void probe_interpreter(const Setup& s, Spans& sp, double* allocs,
                       double* firings) {
  for (const auto& p : s.programs) {
    if (!p.cp) continue;
    auto segs = segments(p);
    if (segs.empty()) continue;
    std::vector<bc::Value> in = stream_input(s, p, probe_elems(p, 1024));
    bc::Interpreter interp(*p.cp->bytecode);
    const uint64_t id = sp.next_id();
    for (const auto& seg : segs) {
      for (const auto* node : seg) {
        const int idx = p.cp->bytecode->index_of(node->task_id);
        std::vector<bc::Value> out;
        out.reserve(in.size());
        std::vector<bc::Value> args(1);
        const uint64_t a0 = alloc_count();
        set_alloc_counting(true);
        int span = sp.begin("bytecode.firing", id);
        for (const auto& v : in) {
          args[0] = v;
          out.push_back(interp.call(idx, args));
        }
        sp.end(span, static_cast<double>(in.size()));
        set_alloc_counting(false);
        *allocs += static_cast<double>(alloc_count() - a0);
        *firings += static_cast<double>(in.size());
        in = std::move(out);
      }
    }
  }
  // Entry cost of a call with nothing behind it.
  auto cp = rt::compile("class Probe { static int id(int x) { return x; } }");
  bc::Interpreter interp(*cp->bytecode);
  std::vector<bc::Value> args{bc::Value::i32(7)};
  constexpr int kCalls = 20000;
  int span = sp.begin("bytecode.call_entry", sp.next_id());
  for (int i = 0; i < kCalls; ++i) interp.call("Probe.id", args);
  sp.end(span, kCalls);
}

void probe_cpu_artifacts(const Setup& s, Spans& sp) {
  for (const auto& p : s.programs) {
    if (!p.cp) continue;
    std::vector<bc::Value> in = stream_input(s, p, probe_elems(p, 8192));
    const uint64_t id = sp.next_id();
    for (const auto& seg : segments(p)) {
      for (rt::Artifact* a : device_units(p, seg, DeviceKind::kCpu)) {
        int span = sp.begin("runtime.cpu_artifact", id);
        in = process_batches(*a, in);
        sp.end(span, static_cast<double>(in.size()));
      }
    }
  }
}

// -- FIFO and executor ------------------------------------------------------

void probe_fifo(Spans& sp) {
  constexpr int kHops = 200000;
  rt::ValueFifo f(rt::RuntimeConfig{}.fifo_capacity);
  bc::Value out;
  int span = sp.begin("runtime.fifo_hop", sp.next_id());
  for (int i = 0; i < kHops; ++i) {
    bc::Value v = bc::Value::i32(i);
    f.try_push(v);
    f.try_pop(&out);
  }
  sp.end(span, kHops);

  rt::ValueFifo x(rt::RuntimeConfig{}.fifo_capacity);
  span = sp.begin("runtime.fifo_hop_xthread", sp.next_id());
  std::thread producer([&x] {
    for (int i = 0; i < kHops; ++i) {
      bc::Value v = bc::Value::i32(i);
      while (x.try_push(v) == lm::runtime::FifoSignal::kWouldBlock) {
        std::this_thread::yield();
      }
    }
    x.finish();
  });
  int got = 0;
  for (;;) {
    lm::runtime::FifoSignal sig = x.try_pop(&out);
    if (sig == lm::runtime::FifoSignal::kOk) {
      ++got;
    } else if (sig == lm::runtime::FifoSignal::kWouldBlock) {
      std::this_thread::yield();
    } else {
      break;
    }
  }
  producer.join();
  sp.end(span, got);
}

class TrivialTask final : public rt::ExecTask {
 public:
  StepResult step() override {
    stepped.store(true, std::memory_order_release);
    return StepResult::kDone;
  }
  std::atomic<bool> stepped{false};
};

void probe_dispatch(Spans& sp) {
  constexpr int kTasks = 2000;
  // Declared before the executor: tasks must outlive its last touch.
  std::vector<std::unique_ptr<TrivialTask>> tasks;
  rt::Executor ex(rt::Executor::Options{});
  const uint64_t id = sp.next_id();
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(std::make_unique<TrivialTask>());
    TrivialTask* t = tasks.back().get();
    int span = sp.begin("runtime.dispatch", id);
    ex.submit(t);
    while (!t->stepped.load(std::memory_order_acquire)) {
    }
    sp.end(span);
  }
}

// -- GPU --------------------------------------------------------------------

/// Records the map operations a call offers the accelerator, forwarding
/// each to the runtime unchanged.
class MapCapture final : public bc::AccelHooks {
 public:
  explicit MapCapture(rt::LiquidRuntime& r) : rt_(r) {}
  struct Map {
    std::string task_id;
    std::vector<bc::Value> args;
    uint32_t mask;
  };
  bool try_map(const std::string& task_id, std::span<const bc::Value> args,
               uint32_t array_mask, bc::Value* out) override {
    maps.push_back({task_id, {args.begin(), args.end()}, array_mask});
    return rt_.try_map(task_id, args, array_mask, out);
  }
  bool try_reduce(const std::string& task_id, const bc::Value& array,
                  bc::Value* out) override {
    return rt_.try_reduce(task_id, array, out);
  }
  std::vector<Map> maps;

 private:
  rt::LiquidRuntime& rt_;
};

size_t map_items(const MapCapture::Map& m) {
  for (size_t i = 0; i < m.args.size(); ++i) {
    if (m.mask & (1u << i)) return m.args[i].as_array()->size();
  }
  return 0;
}

void probe_gpu(const Setup& s, Spans& sp, double* launch_us) {
  for (const auto& p : s.programs) {
    if (!p.cp) continue;
    std::vector<bc::Value> in = stream_input(s, p, probe_elems(p, 16384));
    const uint64_t id = sp.next_id();
    for (const auto& seg : segments(p)) {
      for (rt::Artifact* a : device_units(p, seg, DeviceKind::kGpu)) {
        int span = sp.begin("gpu.process", id);
        in = process_batches(*a, in);
        sp.end(span, static_cast<double>(in.size()));
      }
    }
    // Map programs: replay the maps one call offers, on the GPU artifact.
    if (p.runtime && segments(p).empty()) {
      MapCapture cap(*p.runtime);
      {
        // The runtime gets its own hooks back even if the call throws.
        struct Restore {
          rt::LiquidRuntime& r;
          ~Restore() { r.interpreter().set_accel_hooks(&r); }
        } restore{*p.runtime};
        p.runtime->interpreter().set_accel_hooks(&cap);
        p.runtime->call(p.entry, p.args.front());
      }
      for (const auto& m : cap.maps) {
        auto* ga = dynamic_cast<rt::GpuKernelArtifact*>(
            p.cp->store.find(m.task_id, DeviceKind::kGpu));
        if (!ga) continue;
        int span = sp.begin("gpu.map", id);
        ga->run_map(m.args, m.mask);
        sp.end(span, static_cast<double>(map_items(m)));
      }
    }
  }

  // Fixed cost of a parallel launch: a launch at the parallel threshold
  // minus its items' share, taken from a serial launch one item smaller.
  // The kernel is trivial, so the items' share is small and the
  // difference is thread start and join.
  auto cp = rt::compile(
      "class Probe {\n"
      "  local static int inc(int x) { return x + 1; }\n"
      "  static int[[]] run(int[[]] a) { return Probe @ inc(a); }\n"
      "}\n");
  auto* inc = dynamic_cast<rt::GpuKernelArtifact*>(
      cp->store.find("Probe.inc", DeviceKind::kGpu));
  if (!inc) throw std::runtime_error("no GPU kernel for the launch probe");
  lm::gpu::GpuDevice& dev = inc->device();
  const size_t n = lm::gpu::GpuDeviceConfig{}.min_items_for_parallel;
  lm::serde::CValue cv = lm::serde::CValue::make(bc::ElemCode::kI32, true, n);
  for (size_t i = 0; i < n; ++i) cv.i32s()[i] = static_cast<int32_t>(i);
  std::vector<lm::gpu::KArg> kargs{lm::gpu::KArg::elementwise(cv)};
  const uint64_t id = sp.next_id();
  for (int rep = 0; rep < 30; ++rep) {
    int span = sp.begin("gpu.launch_parallel", id);
    dev.launch(inc->program(), kargs, n);
    sp.end(span, static_cast<double>(n));
    span = sp.begin("gpu.launch_serial", id);
    dev.launch(inc->program(), kargs, n - 1);
    sp.end(span, static_cast<double>(n - 1));
  }
  *launch_us = (median_ns(sp, "gpu.launch_parallel") -
                median_ns(sp, "gpu.launch_serial") / dev.compute_units()) /
               1e3;
}

// -- serde ------------------------------------------------------------------

void probe_serde(const Setup& s, Spans& sp) {
  for (const auto& p : s.programs) {
    if (!p.cp) continue;
    std::vector<bc::Value> arrays =
        p.gen ? std::vector<bc::Value>{p.gen->make_input(1024, s.seed)}
              : p.args.front();
    const uint64_t id = sp.next_id();
    for (const auto& arr : arrays) {
      if (arr.kind() != bc::ValueKind::kArray) continue;
      const auto& a = *arr.as_array();
      lm::lime::TypeRef t;
      if (a.elem == bc::ElemCode::kI32) t = lm::lime::Type::int_();
      else if (a.elem == bc::ElemCode::kF32) t = lm::lime::Type::float_();
      else continue;
      std::vector<bc::Value> elems;
      for (size_t i = 0; i < a.size() && i < 4096; ++i) {
        elems.push_back(bc::array_get(a, i));
      }
      const double n = static_cast<double>(elems.size());
      for (int rep = 0; rep < 5; ++rep) {
        int span = sp.begin("serde.pack", id);
        auto wire = lm::serde::pack_batch(elems, t);
        sp.end(span, n);
        span = sp.begin("serde.unpack", id);
        auto back = lm::serde::unpack_batch(wire, t);
        sp.end(span, n);
        span = sp.begin("serde.marshal", id);
        auto cv = lm::serde::unmarshal_native(
            wire, lm::lime::Type::value_array(t));
        auto wire2 = lm::serde::marshal_native(cv);
        sp.end(span, n);
      }
    }
  }
}

// -- FPGA -------------------------------------------------------------------

void probe_fpga(const Setup& s, Spans& sp, double* cycles) {
  for (const auto& p : s.programs) {
    if (!p.cp) continue;
    std::vector<bc::Value> in = stream_input(s, p, probe_elems(p, 256));
    const uint64_t id = sp.next_id();
    for (const auto& seg : segments(p)) {
      for (rt::Artifact* a : device_units(p, seg, DeviceKind::kFpga)) {
        auto* fa = dynamic_cast<rt::FpgaModuleArtifact*>(a);
        if (!fa) break;
        const uint64_t c0 = fa->total_cycles();
        int span = sp.begin("fpga.process", id);
        in = fa->process(in);
        sp.end(span, static_cast<double>(in.size()));
        *cycles += static_cast<double>(fa->total_cycles() - c0);
      }
    }
  }
}

// -- runtime entry ----------------------------------------------------------

void probe_runtime(const Setup& s, Spans& sp, double* allocs) {
  const size_t reps = std::max<size_t>(1, 20 / s.programs.size());
  for (const auto& p : s.programs) {
    if (!p.cp) continue;
    rt::RuntimeConfig cfg;
    cfg.placement = p.placement;
    for (size_t rep = 0; rep < reps; ++rep) {
      int span = sp.begin("runtime.ctor", sp.next_id());
      auto r = std::make_unique<rt::LiquidRuntime>(*p.cp, cfg);
      sp.end(span);
    }
    std::unique_ptr<rt::LiquidRuntime> fresh;
    rt::LiquidRuntime* r = p.runtime.get();
    if (!r) {
      fresh = std::make_unique<rt::LiquidRuntime>(*p.cp, cfg);
      r = fresh.get();
    }
    std::vector<bc::Value> one = small_args(p, 1, s.seed);
    r->call(p.entry, one);  // warm: the first call starts the workers
    for (size_t rep = 0; rep < 2 * reps; ++rep) {
      const uint64_t a0 = alloc_count();
      set_alloc_counting(true);
      int span = sp.begin("runtime.graph", sp.next_id());
      r->call(p.entry, one);
      sp.end(span);
      set_alloc_counting(false);
      *allocs += static_cast<double>(alloc_count() - a0);
    }
  }
}

}  // namespace

WindowCounters read_counters(const Setup& s) {
  WindowCounters w;
  for (const auto& p : s.programs) {
    if (!p.runtime) continue;
    auto c = p.runtime->metrics().snapshot_counters();
    w.steps += static_cast<double>(c["executor.steps"]);
    w.parks += static_cast<double>(c["executor.parks"]);
    w.wakeups += static_cast<double>(c["executor.wakeups"]);
    w.steals += static_cast<double>(c["executor.steals"]);
    std::vector<lm::obs::GaugeSample> gauges;
    p.runtime->collect_telemetry(gauges);
    for (const auto& g : gauges) {
      if (g.name == "executor.queue_wait_us") w.queue_wait_us += g.value;
    }
    const rt::RuntimeStats st = p.runtime->stats();
    w.bytes_moved +=
        static_cast<double>(st.bytes_to_device + st.bytes_from_device);
    w.maps_accelerated += static_cast<double>(st.maps_accelerated);
    w.maps_interpreted += static_cast<double>(st.maps_interpreted);
    w.gpu_launches +=
        static_cast<double>(p.cp->gpu_device->stats().launches.load());
  }
  return w;
}

std::map<std::string, LayerMetric> run_probes(Setup& s,
                                              const WindowCounters& w,
                                              Spans& sp) {
  std::map<std::string, LayerMetric> m;
  auto mean_us = [&](const char* name) {
    return per(sp.total_ns(name), static_cast<double>(sp.count(name))) / 1e3;
  };
  // Span time per unit of span work (elements, items, hops, calls).
  auto ns_per_work = [&](const char* name) {
    return per(sp.total_ns(name), sp.total_work(name));
  };
  // A probe that throws (a broken program, say) ends its open spans and
  // leaves its metrics at what it measured; the run still reports.
  auto guard = [&](const char* probe, const auto& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      set_alloc_counting(false);
      sp.end_open();
      std::cerr << "lmbench: probe " << probe << " failed: " << e.what()
                << "\n";
    }
  };

  guard("compile", [&] { probe_compile(s, sp); });
  const double programs = static_cast<double>(sp.count("compile.driver"));
  m["lime.frontend_us"] = {"us", mean_us("lime.frontend")};
  m["analysis.us"] = {"us", mean_us("analysis")};
  m["ir.taskgraph_us"] = {"us", mean_us("ir.taskgraph")};
  m["bytecode.compile_us"] = {"us", mean_us("bytecode.compile")};
  m["bytecode.instrs"] = {"instrs",
                          per(sp.total_work("bytecode.compile"), programs)};
  m["gpu.kernel_compile_us"] = {"us", mean_us("gpu.kernel_compile")};
  m["fpga.synth_us"] = {"us", mean_us("fpga.synth")};
  m["fpga.cells"] = {"cells", per(sp.total_work("fpga.synth"), programs)};
  m["compile.driver_us"] = {"us", driver_us(sp)};

  double allocs = 0, firings = 0;
  guard("interpreter",
        [&] { probe_interpreter(s, sp, &allocs, &firings); });
  m["bytecode.firing_ns"] = {"ns", ns_per_work("bytecode.firing")};
  m["bytecode.allocs_per_firing"] = {"allocs", per(allocs, firings)};
  m["bytecode.call_entry_ns"] = {"ns", ns_per_work("bytecode.call_entry")};

  guard("cpu_artifacts", [&] { probe_cpu_artifacts(s, sp); });
  m["runtime.cpu_artifact_ns_per_elem"] = {
      "ns/elem", ns_per_work("runtime.cpu_artifact")};

  guard("fifo", [&] { probe_fifo(sp); });
  m["runtime.fifo_hop_ns"] = {"ns", ns_per_work("runtime.fifo_hop")};
  m["runtime.fifo_hop_xthread_ns"] = {
      "ns", ns_per_work("runtime.fifo_hop_xthread")};

  guard("dispatch", [&] { probe_dispatch(sp); });
  m["runtime.dispatch_ns"] = {"ns", median_ns(sp, "runtime.dispatch")};

  m["executor.steps_per_elem"] = {"steps/elem", per(w.steps, w.elems)};
  m["executor.parks_per_elem"] = {"parks/elem", per(w.parks, w.elems)};
  m["executor.wakeups_per_elem"] = {"wakeups/elem", per(w.wakeups, w.elems)};
  m["executor.steals_per_elem"] = {"steals/elem", per(w.steals, w.elems)};
  m["executor.queue_wait_us_per_elem"] = {"us/elem",
                                          per(w.queue_wait_us, w.elems)};
  m["runtime.cpu_util_cores"] = {"cores", per(w.cpu_ns, w.wall_ns)};

  double launch_us = 0;
  guard("gpu", [&] { probe_gpu(s, sp, &launch_us); });
  m["gpu.ns_per_item"] = {
      "ns/item", per(sp.total_ns("gpu.process") + sp.total_ns("gpu.map"),
                     sp.total_work("gpu.process") + sp.total_work("gpu.map"))};
  m["gpu.launch_us"] = {"us", launch_us};
  m["gpu.launches_per_call"] = {"launches/call", per(w.gpu_launches, w.calls)};

  guard("serde", [&] { probe_serde(s, sp); });
  m["serde.pack_ns_per_elem"] = {"ns/elem", ns_per_work("serde.pack")};
  m["serde.unpack_ns_per_elem"] = {"ns/elem", ns_per_work("serde.unpack")};
  m["serde.marshal_ns_per_elem"] = {"ns/elem", ns_per_work("serde.marshal")};
  m["serde.bytes_per_elem"] = {"B/elem", per(w.bytes_moved, w.elems)};

  double cycles = 0;
  guard("fpga", [&] { probe_fpga(s, sp, &cycles); });
  m["fpga.artifact_ns_per_elem"] = {"ns/elem", ns_per_work("fpga.process")};
  m["rtl.cycles_per_elem"] = {"cycles/elem",
                              per(cycles, sp.total_work("fpga.process"))};
  m["rtl.ns_per_cycle"] = {"ns/cycle",
                           per(sp.total_ns("fpga.process"), cycles)};

  m["runtime.maps_accelerated_ratio"] = {
      "ratio",
      per(w.maps_accelerated, w.maps_accelerated + w.maps_interpreted)};

  double graph_allocs = 0;
  guard("runtime", [&] { probe_runtime(s, sp, &graph_allocs); });
  m["runtime.ctor_us"] = {"us", mean_us("runtime.ctor")};
  m["runtime.graph_us"] = {"us", mean_us("runtime.graph")};
  m["runtime.allocs_per_call"] = {
      "allocs",
      per(graph_allocs, static_cast<double>(sp.count("runtime.graph")))};

  m["obs.trace_overhead_pct"] = {"%", w.trace_overhead_pct};
  return m;
}

}  // namespace lmbench
