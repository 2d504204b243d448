// Tests for the adaptive placement policy (§7 future work, implemented):
// runtime introspection picks per-segment placements by profiling on a
// prefix of the actual stream.
#include <gtest/gtest.h>

#include <chrono>

#include "runtime/liquid_runtime.h"
#include "tests/fake_artifact_test_util.h"
#include "tests/lime_test_util.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace lm::runtime {
namespace {

using bc::Value;

std::unique_ptr<CompiledProgram> compile_ok(const std::string& src) {
  auto cp = compile(src);
  EXPECT_TRUE(cp->ok()) << cp->diags.to_string();
  return cp;
}

const char* kPipe = R"(
  class P {
    local static int scale(int x) { return 3 * x; }
    local static int offset(int x) { return x + 7; }
    static int[[]] run(int[[]] input) {
      int[] result = new int[input.length];
      var g = input.source(1)
        => ([ task scale ]) => ([ task offset ])
        => result.<int>sink();
      g.finish();
      return new int[[]](result);
    }
  }
)";

TEST(Adaptive, ProducesCorrectOutput) {
  auto cp = compile_ok(kPipe);
  RuntimeConfig rc;
  rc.placement = Placement::kAdaptive;
  LiquidRuntime rt(*cp, rc);
  SplitMix64 rng(21);
  std::vector<int32_t> input(2000);
  for (auto& v : input) v = static_cast<int32_t>(rng.next_range(-500, 500));
  Value out = rt.call("P.run", {Value::array(bc::make_i32_array(input, true))});
  const auto& a = *out.as_array();
  ASSERT_EQ(a.size(), input.size());
  for (size_t i = 0; i < input.size(); i += 37) {
    EXPECT_EQ(bc::array_get(a, i).as_i32(), 3 * input[i] + 7);
  }
}

TEST(Adaptive, ProfilesCandidatesAndRecordsDecisions) {
  auto cp = compile_ok(kPipe);
  RuntimeConfig rc;
  rc.placement = Placement::kAdaptive;
  rc.calibration_elements = 32;
  LiquidRuntime rt(*cp, rc);
  std::vector<int32_t> input(512, 5);
  rt.call("P.run", {Value::array(bc::make_i32_array(input, true))});
  // Candidates: fused GPU segment + per-filter (gpu+fpga+cpu for each of 2
  // filters) → at least 4 profiled.
  EXPECT_GE(rt.stats().candidates_profiled, 4u);
  EXPECT_FALSE(rt.stats().substitutions.empty());
}

TEST(Adaptive, EmptyStreamStillExecutes) {
  auto cp = compile_ok(kPipe);
  RuntimeConfig rc;
  rc.placement = Placement::kAdaptive;
  LiquidRuntime rt(*cp, rc);
  Value out = rt.call("P.run", {Value::array(bc::make_i32_array({}, true))});
  EXPECT_EQ(out.as_array()->size(), 0u);
}

TEST(Adaptive, MatchesAutoPlacementOutput) {
  SplitMix64 rng(5);
  std::vector<int32_t> input(1024);
  for (auto& v : input) v = static_cast<int32_t>(rng.next_range(-999, 999));
  Value in = Value::array(bc::make_i32_array(input, true));

  auto run = [&](Placement p) {
    auto cp = compile_ok(kPipe);
    RuntimeConfig rc;
    rc.placement = p;
    LiquidRuntime rt(*cp, rc);
    return rt.call("P.run", {in});
  };
  EXPECT_TRUE(run(Placement::kAdaptive).equals(run(Placement::kAuto)));
}

TEST(Adaptive, WorksWhenOnlyBytecodeExists) {
  // Disable device backends: every candidate is the bytecode artifact.
  CompileOptions opts;
  opts.enable_gpu = false;
  opts.enable_fpga = false;
  auto cp = compile(kPipe, opts);
  ASSERT_TRUE(cp->ok());
  RuntimeConfig rc;
  rc.placement = Placement::kAdaptive;
  LiquidRuntime rt(*cp, rc);
  std::vector<int32_t> input(100, 2);
  Value out = rt.call("P.run", {Value::array(bc::make_i32_array(input, true))});
  EXPECT_EQ(bc::array_get(*out.as_array(), 0).as_i32(), 13);
  for (const auto& s : rt.stats().substitutions) {
    EXPECT_EQ(s.device, DeviceKind::kCpu);
  }
}

TEST(Adaptive, FigureOneBitflipAdaptive) {
  auto cp = compile_ok(lime::testing::figure1_source());
  RuntimeConfig rc;
  rc.placement = Placement::kAdaptive;
  LiquidRuntime rt(*cp, rc);
  std::vector<uint8_t> bits(64);
  for (size_t i = 0; i < bits.size(); ++i) bits[i] = i % 3 == 0;
  Value out =
      rt.call("Bitflip.taskFlip", {Value::array(bc::make_bit_array(bits, true))});
  for (size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(bc::array_get(*out.as_array(), i).as_bit(), bits[i] == 0);
  }
  EXPECT_GE(rt.stats().candidates_profiled, 3u);  // gpu, fpga, cpu
}

TEST(Adaptive, MixedRelocatedAndFixedFilters) {
  // Middle filter lacks brackets: adaptive must leave it on the CPU and
  // still thread the calibration stream through it correctly.
  auto cp = compile_ok(R"(
    class M {
      local static int a(int x) { return x + 1; }
      local static int b(int x) { return x * 2; }
      local static int c(int x) { return x - 3; }
      static int[[]] run(int[[]] input) {
        int[] result = new int[input.length];
        var g = input.source(1)
          => ([ task a ]) => task b => ([ task c ])
          => result.<int>sink();
        g.finish();
        return new int[[]](result);
      }
    }
  )");
  RuntimeConfig rc;
  rc.placement = Placement::kAdaptive;
  LiquidRuntime rt(*cp, rc);
  std::vector<int32_t> input(300);
  for (size_t i = 0; i < input.size(); ++i) input[i] = static_cast<int32_t>(i);
  Value out = rt.call("M.run", {Value::array(bc::make_i32_array(input, true))});
  for (size_t i = 0; i < input.size(); i += 17) {
    EXPECT_EQ(bc::array_get(*out.as_array(), i).as_i32(),
              (static_cast<int32_t>(i) + 1) * 2 - 3);
  }
  // Decisions recorded only for the two relocated filters.
  EXPECT_EQ(rt.stats().substitutions.size(), 2u);
}

/// Regression for the calibration scoring bug: a candidate whose arity
/// exceeds the calibration prefix can't be profiled even once (usable == 0)
/// and used to return a 0.0-second score — "infinitely fast" — beating
/// every real measurement. It must instead be ineligible: the measured CPU
/// artifact wins and the bogus candidate is never counted as profiled.
TEST(Adaptive, UnrunnableCandidateCannotWinCalibration) {
  CompileOptions opts;
  opts.enable_gpu = false;
  opts.enable_fpga = false;
  auto cp = compile(kPipe, opts);
  ASSERT_TRUE(cp->ok());
  // A "GPU" artifact demanding 64 elements per firing: with a 16-element
  // calibration prefix it can never be measured.
  cp->store.add(std::make_unique<lm::testing::ScriptedArtifact>(
      "P.scale", DeviceKind::kGpu, /*arity=*/64, /*fast_calls=*/-1,
      std::chrono::microseconds(0)));

  RuntimeConfig rc;
  rc.placement = Placement::kAdaptive;
  rc.calibration_elements = 16;
  LiquidRuntime rt(*cp, rc);
  std::vector<int32_t> input(200);
  for (size_t i = 0; i < input.size(); ++i) input[i] = static_cast<int32_t>(i);
  Value out = rt.call("P.run", {Value::array(bc::make_i32_array(input, true))});
  ASSERT_EQ(out.as_array()->size(), input.size());
  for (size_t i = 0; i < input.size(); i += 13) {
    EXPECT_EQ(bc::array_get(*out.as_array(), i).as_i32(), 3 * input[i] + 7);
  }

  // Both filters landed on the measured CPU artifact, with real scores.
  ASSERT_EQ(rt.stats().substitutions.size(), 2u);
  for (const auto& s : rt.stats().substitutions) {
    EXPECT_EQ(s.device, DeviceKind::kCpu);
    EXPECT_TRUE(s.calibrated);
    EXPECT_GT(s.score_us_per_elem, 0.0);
  }
  // The un-runnable candidate never counted as a profiled measurement:
  // only the two CPU artifacts did.
  EXPECT_EQ(rt.stats().candidates_profiled, 2u);
}

/// When the calibration prefix can't feed *any* candidate, the decision
/// falls back to the static §4.2 preference order (accelerators first) and
/// the record says so instead of carrying a fabricated score.
TEST(Adaptive, UncalibratableRunFallsBackToStaticPreference) {
  CompileOptions opts;
  opts.enable_gpu = false;
  opts.enable_fpga = false;
  auto cp = compile(kPipe, opts);
  ASSERT_TRUE(cp->ok());
  cp->store.add(std::make_unique<lm::testing::ScriptedArtifact>(
      "P.scale", DeviceKind::kGpu, /*arity=*/1, /*fast_calls=*/-1,
      std::chrono::microseconds(0)));

  RuntimeConfig rc;
  rc.placement = Placement::kAdaptive;
  rc.calibration_elements = 0;  // nothing to profile with
  LiquidRuntime rt(*cp, rc);
  std::vector<int32_t> input(50, 9);
  Value out = rt.call("P.run", {Value::array(bc::make_i32_array(input, true))});
  ASSERT_EQ(out.as_array()->size(), input.size());
  EXPECT_EQ(bc::array_get(*out.as_array(), 0).as_i32(), 3 * 9 + 7);

  EXPECT_EQ(rt.stats().candidates_profiled, 0u);
  ASSERT_EQ(rt.stats().substitutions.size(), 2u);
  bool saw_scale = false;
  for (const auto& s : rt.stats().substitutions) {
    EXPECT_FALSE(s.calibrated);
    EXPECT_LT(s.score_us_per_elem, 0.0);  // no fabricated measurement
    if (s.task_ids == "P.scale") {
      saw_scale = true;
      // Preference order: the injected accelerator artifact wins the tie.
      EXPECT_EQ(s.device, DeviceKind::kGpu);
    }
  }
  EXPECT_TRUE(saw_scale);
}

/// A chain calibration can only partly score. The 2-element prefix cannot
/// feed `first` (arity 4) even once, so it stays unmeasured, while `tri`
/// (arity 2) measures on the same prefix. The fused segment — a scripted
/// "GPU" artifact at the segment's true rate of 8 inputs per output — is
/// unmeasurable too. Neither plan is fully scored, so the larger
/// substitution wins (§4.2 "prefer larger"), exactly as a cold-start
/// static ranking with partial seeds decides.
TEST(Adaptive, PartlyCalibratedChainLosesToLargerSubstitution) {
  CompileOptions opts;
  opts.enable_gpu = false;
  opts.enable_fpga = false;
  auto cp = compile(R"(
    class Q {
      local static int first(int a, int b, int c, int d) { return a; }
      local static int tri(int p, int q) { return 3 * p; }
      static int[[]] run(int[[]] input) {
        int[] result = new int[input.length / 8];
        var g = input.source(1) => ([ task first ]) => ([ task tri ])
          => result.<int>sink();
        g.finish();
        return new int[[]](result);
      }
    }
  )", opts);
  ASSERT_TRUE(cp->ok()) << cp->diags.to_string();
  auto fused = std::make_unique<lm::testing::ScriptedArtifact>(
      ArtifactStore::segment_id({"Q.first", "Q.tri"}), DeviceKind::kGpu,
      /*arity=*/8, /*fast_calls=*/-1, std::chrono::microseconds(0));
  const lm::testing::ScriptedArtifact* fused_ptr = fused.get();
  cp->store.add(std::move(fused));

  RuntimeConfig rc;
  rc.placement = Placement::kAdaptive;
  rc.calibration_elements = 2;
  LiquidRuntime rt(*cp, rc);
  std::vector<int32_t> input(64);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<int32_t>(i) - 20;
  }
  Value out = rt.call("Q.run", {Value::array(bc::make_i32_array(input, true))});
  ASSERT_EQ(out.as_array()->size(), input.size() / 8);
  for (size_t i = 0; i < input.size() / 8; ++i) {
    EXPECT_EQ(bc::array_get(*out.as_array(), i).as_i32(), 3 * input[8 * i]);
  }

  // Only `tri`'s CPU artifact could be profiled; the decision is still
  // the unmeasured fused segment.
  EXPECT_EQ(rt.stats().candidates_profiled, 1u);
  ASSERT_EQ(rt.stats().substitutions.size(), 1u);
  const SubstitutionRecord& s = rt.stats().substitutions[0];
  EXPECT_EQ(s.task_ids, "Q.first+Q.tri");
  EXPECT_EQ(s.device, DeviceKind::kGpu);
  EXPECT_TRUE(s.fused);
  EXPECT_FALSE(s.calibrated);
  EXPECT_LT(s.score_us_per_elem, 0.0);
  EXPECT_EQ(s.source, "");
  EXPECT_GT(fused_ptr->calls(), 0u);
}

}  // namespace
}  // namespace lm::runtime
