#include "gen.h"

#include <cstdio>
#include <sstream>

#include "util/rng.h"

namespace lmbench {

namespace bc = lm::bc;

namespace {

constexpr int kIntOps = 3;
constexpr int kFloatOps = 2;

// A multiple of 1/8 in [lo/8, hi/8]: exact in float and in 3 decimals, so
// the Lime literal and the oracle's constant are the same number.
float eighths(lm::SplitMix64& rng, int lo, int hi) {
  return static_cast<float>(rng.next_range(lo, hi)) / 8.0f;
}

std::string lit(float v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3ff", static_cast<double>(v));
  return buf;
}

StageSpec draw_stage(lm::SplitMix64& rng, bool is_float, int trips) {
  StageSpec s;
  s.trips = trips;
  if (is_float) {
    s.op = static_cast<int>(rng.next_below(kFloatOps));
    s.f0 = eighths(rng, -32, 32);
    s.f1 = eighths(rng, -16, 16);
    s.f2 = eighths(rng, -16, 16);
  } else {
    s.op = static_cast<int>(rng.next_below(kIntOps));
    s.i0 = static_cast<int32_t>(rng.next_range(0, trips - 1));
    s.i1 = static_cast<int32_t>(rng.next_range(1, 4095));
    s.i2 = static_cast<int32_t>(rng.next_range(1, 4095));
  }
  return s;
}

// Loop bodies. An int body reads the carried `acc` once per iteration and
// tests only the loop index: the FPGA backend composes unrolled iterations
// and fused stages combinationally, and its synthesis time grows with the
// number of paths through the composed expression. A body that reads
// `acc` three times costs about 3^trips (crc8pipe's 8-trip body takes
// ~29 ms to compile), and a stage that reads its input k times multiplies
// the paths of a fused segment by k per stage. Float stages never reach
// the FPGA backend, so their ternaries test the data. Int values stay in
// [0, 65535], so nothing overflows and every backend must agree bit for
// bit; float bodies compute exactly on multiples of 1/8 where they can.
std::string body(const StageSpec& s, bool is_float) {
  std::ostringstream os;
  if (is_float) {
    if (s.op == 0) {
      os << "acc = (acc > " << lit(s.f0) << " ? " << lit(s.f1) << " : "
         << lit(s.f2) << ") - acc;";
    } else {
      os << "acc = acc * 0.5f + " << lit(s.f1) << ";";
    }
    return os.str();
  }
  switch (s.op) {
    case 0:
      os << "acc = (acc * 3 + ((i & 1) != 0 ? " << s.i1 << " : " << s.i2
         << ")) & 65535;";
      break;
    case 1:
      os << "acc = ((acc << 1) + (i > " << s.i0 << " ? " << s.i1
         << " : i)) & 65535;";
      break;
    default:
      os << "acc = ((acc + " << s.i1 << ") ^ (i * " << s.i2
         << ")) & 65535;";
      break;
  }
  return os.str();
}

int32_t eval_int(const StageSpec& s, int32_t x) {
  int32_t acc = x & 65535;
  for (int32_t i = 0; i < s.trips; ++i) {
    switch (s.op) {
      case 0:
        acc = (acc * 3 + ((i & 1) != 0 ? s.i1 : s.i2)) & 65535;
        break;
      case 1:
        acc = ((acc << 1) + (i > s.i0 ? s.i1 : i)) & 65535;
        break;
      default:
        acc = ((acc + s.i1) ^ (i * s.i2)) & 65535;
        break;
    }
  }
  return acc;
}

float eval_float(const StageSpec& s, float x) {
  float acc = x;
  for (int i = 0; i < s.trips; ++i) {
    if (s.op == 0) {
      acc = (acc > s.f0 ? s.f1 : s.f2) - acc;
    } else {
      acc = acc * 0.5f + s.f1;
    }
  }
  return acc;
}

std::string render(const GenProgram& p) {
  const char* t = p.is_float ? "float" : "int";
  std::ostringstream os;
  os << "class " << p.name << " {\n";
  for (size_t k = 0; k < p.stages.size(); ++k) {
    const StageSpec& s = p.stages[k];
    os << "  local static " << t << " s" << k << "(" << t << " x) {\n"
       << "    " << t << " acc = " << (p.is_float ? "x" : "x & 65535")
       << ";\n"
       << "    for (int i = 0; i < " << s.trips << "; i += 1) {\n"
       << "      " << body(s, p.is_float) << "\n"
       << "    }\n"
       << "    return acc;\n"
       << "  }\n";
  }
  os << "  static " << t << "[[]] run(" << t << "[[]] input) {\n"
     << "    " << t << "[] result = new " << t << "[input.length];\n"
     << "    var g = input.source(1)\n";
  for (size_t k = 0; k < p.stages.size(); ++k) {
    os << "      => ([ task s" << k << " ])\n";
  }
  os << "      => result.<" << t << ">sink();\n"
     << "    g.finish();\n"
     << "    return new " << t << "[[]](result);\n"
     << "  }\n"
     << "}\n";
  return os.str();
}

}  // namespace

bc::Value GenProgram::make_input(size_t n, uint64_t seed) const {
  lm::SplitMix64 rng(seed);
  if (is_float) {
    std::vector<float> v(n);
    for (auto& x : v) x = -8.0f + 16.0f * rng.next_float();
    return bc::Value::array(bc::make_f32_array(std::move(v), true));
  }
  std::vector<int32_t> v(n);
  for (auto& x : v) x = static_cast<int32_t>(rng.next_range(-100000, 100000));
  return bc::Value::array(bc::make_i32_array(std::move(v), true));
}

bc::Value GenProgram::oracle(const bc::Value& input) const {
  if (is_float) {
    auto v = std::get<std::vector<float>>(input.as_array()->data);
    for (auto& x : v) {
      for (const auto& s : stages) x = eval_float(s, x);
    }
    return bc::Value::array(bc::make_f32_array(std::move(v), true));
  }
  auto v = std::get<std::vector<int32_t>>(input.as_array()->data);
  for (auto& x : v) {
    for (const auto& s : stages) x = eval_int(s, x);
  }
  return bc::Value::array(bc::make_i32_array(std::move(v), true));
}

std::vector<GenProgram> generate_programs(uint64_t seed) {
  std::vector<GenProgram> out;
  lm::SplitMix64 rng(seed ^ 0x6c6d62656e636847ULL);
  for (int stages = 4; stages <= 16; stages += 2) {
    for (int trips = 4; trips <= 16; trips += 4) {
      for (bool is_float : {false, true}) {
        GenProgram p;
        p.name = "G" + std::to_string(out.size());
        p.entry = p.name + ".run";
        p.is_float = is_float;
        for (int k = 0; k < stages; ++k) {
          p.stages.push_back(draw_stage(rng, is_float, trips));
        }
        p.source = render(p);
        out.push_back(std::move(p));
      }
    }
  }
  return out;
}

}  // namespace lmbench
