// lmbench --selftest: seed determinism and output checks at a tiny size.
#include <iostream>

#include "bench.h"

namespace lmbench {

namespace {

bool same_args(const Program& a, const Program& b) {
  if (a.args.size() != b.args.size()) return false;
  for (size_t k = 0; k < a.args.size(); ++k) {
    if (a.args[k].size() != b.args[k].size()) return false;
    for (size_t i = 0; i < a.args[k].size(); ++i) {
      if (!a.args[k][i].equals(b.args[k][i])) return false;
    }
  }
  return true;
}

}  // namespace

int selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cout << "FAIL " << what << "\n";
      ++failures;
    }
  };

  // The same seed yields byte-identical programs and inputs; another seed
  // yields other programs.
  const auto g1 = generate_programs(42), g2 = generate_programs(42);
  const auto g3 = generate_programs(43);
  expect(g1.size() == g2.size(), "generated program count is seeded");
  bool differs = false;
  for (size_t i = 0; i < g1.size() && i < g2.size(); ++i) {
    expect(g1[i].source == g2[i].source,
           "same seed, same source " + g1[i].name);
    expect(g1[i].make_input(64, 7).equals(g2[i].make_input(64, 7)),
           "same seed, same input " + g1[i].name);
    differs |= g1[i].source != g3[i].source;
  }
  expect(differs, "another seed generates other programs");

  for (const char* w : {"stream", "offload", "burst", "compile"}) {
    std::unique_ptr<Setup> a, b;
    try {
      a = make_setup(w, 42, /*tiny=*/true);
      b = make_setup(w, 42, /*tiny=*/true);
    } catch (const std::exception& e) {
      expect(false, std::string(w) + " set-up: " + e.what());
      continue;
    }
    expect(a->programs.size() == b->programs.size(),
           std::string(w) + " program count is seeded");
    for (size_t i = 0; i < a->programs.size(); ++i) {
      Program& p = a->programs[i];
      const std::string what = std::string(w) + "/" + p.name;
      expect(p.source == b->programs[i].source, what + " source is seeded");
      expect(same_args(p, b->programs[i]), what + " inputs are seeded");
      if (p.gen) {
        expect(check_generated(p, 42), what + " matches the oracle");
        continue;
      }
      expect(p.runtime != nullptr, what + " compiles");
      if (!p.runtime) continue;
      for (size_t k = 0; k < p.args.size(); ++k) {
        bool ok = false;
        try {
          ok = lm::workloads::results_match(
              p.runtime->call(p.entry, p.args[k]), p.expected[k], 0.0);
        } catch (const std::exception&) {
        }
        expect(ok, what + " matches the reference");
      }
    }
  }
  std::cout << (failures ? "selftest FAILED" : "selftest ok") << "\n";
  return failures ? 1 : 0;
}

}  // namespace lmbench
