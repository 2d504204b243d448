// Seeded generator of Lime pipeline programs for the `compile` workload.
//
// Each program is a class of relocated filter tasks piped source → s0 →
// … → sink over int or float elements. Every filter runs a constant-trip
// loop whose body mixes a ternary, shifts, xor and arithmetic, so the FPGA
// backend unrolls it and both device backends fuse the chain into one
// segment. The generator also returns
// the program's meaning as data (StageSpec), and oracle() evaluates that
// data in plain C++: outputs are checked against the generator, never
// against the compiler under test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bytecode/value.h"

namespace lmbench {

struct StageSpec {
  int op = 0;     // template index (see gen.cpp)
  int trips = 4;  // loop trip count
  int32_t i0 = 0, i1 = 0, i2 = 0;  // int template constants
  float f0 = 0, f1 = 0, f2 = 0;    // float template constants
};

struct GenProgram {
  std::string name;   // class name, e.g. "G17"
  std::string entry;  // "G17.run"
  bool is_float = false;
  std::vector<StageSpec> stages;
  std::string source;

  /// Seeded input array of n elements for this program's element type.
  lm::bc::Value make_input(size_t n, uint64_t seed) const;
  /// The expected output for `input`, computed from `stages` alone.
  lm::bc::Value oracle(const lm::bc::Value& input) const;
};

/// The fixed size grid of the compile workload: every (stages, trips) cell
/// of {4, 6, …, 16} × {4, 8, 12, 16}, once with int and once with float
/// elements. The seed picks only each stage's template and constants, so
/// the distribution of program sizes is the same for every seed.
std::vector<GenProgram> generate_programs(uint64_t seed);

}  // namespace lmbench
