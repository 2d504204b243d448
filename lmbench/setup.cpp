// Workload definitions and set-up.
//
// Why these four workloads, and why these sizes, is in README.md. Sizes
// keep every call of a workload within about 2x of the others, so the
// percentiles never fall on the boundary between two call sizes.
#include <stdexcept>

#include "bench.h"
#include "util/rng.h"

namespace lmbench {

namespace {

using lm::workloads::Workload;
using rt::Placement;

struct ProgramSpec {
  const char* suite_name;
  Placement placement;
  size_t n;
};

const std::vector<ProgramSpec>& specs_for(const std::string& workload) {
  static const std::vector<ProgramSpec> kStream = {
      {"intpipe", Placement::kCpuOnly, 12288},
      {"crc8pipe", Placement::kCpuOnly, 1536},
  };
  static const std::vector<ProgramSpec> kOffload = {
      {"blackscholes", Placement::kAuto, 16384},
      {"conv1d", Placement::kAuto, 16384},
      {"matmul", Placement::kAuto, 4096},
      {"intpipe", Placement::kGpuOnly, 8192},
      {"crc8pipe", Placement::kFpgaOnly, 256},
  };
  static const std::vector<ProgramSpec> kBurst = {
      {"blackscholes", Placement::kAuto, 256},
      {"conv1d", Placement::kAuto, 256},
      {"matmul", Placement::kAuto, 144},
      {"intpipe", Placement::kAuto, 64},
      {"crc8pipe", Placement::kAuto, 64},
  };
  if (workload == "stream") return kStream;
  if (workload == "offload") return kOffload;
  if (workload == "burst") return kBurst;
  throw std::invalid_argument("unknown workload: " + workload);
}

const Workload& suite_workload(const std::string& name) {
  for (const auto* suite :
       {&lm::workloads::gpu_suite(), &lm::workloads::pipeline_suite()}) {
    for (const auto& w : *suite) {
      if (w.name == name) return w;
    }
  }
  throw std::invalid_argument("no suite workload named " + name);
}

constexpr size_t kArgSets = 4;

// A compile that fails or throws leaves a program without a runtime (or,
// for generated programs, without a checkable product): its calls then
// count as failures instead of ending the run.
std::unique_ptr<rt::CompiledProgram> try_compile(const std::string& src) {
  try {
    auto cp = rt::compile(src);
    if (cp->ok()) return cp;
  } catch (const std::exception&) {
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<Setup> make_setup(const std::string& workload, uint64_t seed,
                                  bool tiny) {
  auto s = std::make_unique<Setup>();
  s->workload = workload;
  s->seed = seed;
  lm::SplitMix64 rng(seed);

  if (workload == "compile") {
    s->gens = generate_programs(seed);
    for (const auto& g : s->gens) {
      Program p;
      p.name = g.name;
      p.source = g.source;
      p.entry = g.entry;
      p.gen = &g;
      // The warm-up call; its product is what check_generated runs.
      p.cp = try_compile(p.source);
      s->programs.push_back(std::move(p));
    }
    return s;
  }

  for (const auto& spec : specs_for(workload)) {
    Program p;
    p.suite = &suite_workload(spec.suite_name);
    p.name = spec.suite_name;
    p.source = p.suite->lime_source;
    p.entry = p.suite->entry;
    p.placement = spec.placement;
    for (size_t k = 0; k < kArgSets; ++k) {
      p.args.push_back(p.suite->make_args(tiny ? 16 : spec.n, rng.next()));
      p.expected.push_back(p.suite->reference(p.args.back()));
    }
    p.elems = p.expected.front().as_array()->size();
    p.cp = try_compile(p.source);
    if (p.cp) {
      rt::RuntimeConfig cfg;
      cfg.placement = spec.placement;
      p.runtime = std::make_unique<rt::LiquidRuntime>(*p.cp, cfg);
      // Unchecked: every timed call is checked, and a wrong or failing
      // program must be counted there, not end the run here.
      try {
        p.runtime->call(p.entry, p.args.front());
      } catch (const std::exception&) {
      }
    }
    s->programs.push_back(std::move(p));
  }
  return s;
}

bool check_generated(const Program& p, uint64_t seed) {
  if (!p.cp) return false;
  // kAuto prefers the fused GPU segment, so the other backends are forced
  // one by one, each paired with the device it must really have run on
  // (kCpu: none). Float stages never reach the FPGA backend.
  std::vector<std::pair<Placement, rt::DeviceKind>> checks = {
      {Placement::kAuto, rt::DeviceKind::kCpu},
      {Placement::kCpuOnly, rt::DeviceKind::kCpu},
      {Placement::kGpuOnly, rt::DeviceKind::kGpu},
  };
  if (!p.gen->is_float) {
    checks.push_back({Placement::kFpgaOnly, rt::DeviceKind::kFpga});
  }
  const bc::Value in = p.gen->make_input(16, seed);
  const bc::Value want = p.gen->oracle(in);
  for (const auto& [placement, device] : checks) {
    try {
      rt::RuntimeConfig cfg;
      cfg.placement = placement;
      rt::LiquidRuntime r(*p.cp, cfg);
      if (!lm::workloads::results_match(r.call(p.entry, {in}), want, 0.0)) {
        return false;
      }
      if (device == rt::DeviceKind::kCpu) continue;
      bool ran = false;
      for (const auto& sub : r.stats().substitutions) {
        ran |= sub.device == device;
      }
      if (!ran) return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;
}

std::vector<bc::Value> small_args(const Program& p, size_t n, uint64_t seed) {
  if (p.gen) return {p.gen->make_input(n, seed)};
  return p.suite->make_args(n, seed);
}

}  // namespace lmbench
