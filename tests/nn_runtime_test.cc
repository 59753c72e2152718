// ApplyRuntimeFlags, the one flag path for every process knob
// (nn/runtime.h): each valid value lands in its knob, each invalid value is
// an error that leaves every knob as it was, a kernel this CPU cannot run is
// FailedPrecondition, a bad fail-point spec is a Status rather than an exit,
// and --pin is set before the pool is rebuilt for --threads.

#include "nn/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nn/kernels.h"
#include "nn/kernels_quant.h"
#include "util/cpu_features.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "util/topology.h"

namespace deepaqp::nn {
namespace {

using Failpoints = std::vector<std::pair<std::string, std::string>>;

Failpoints ConfiguredFailpoints() {
  Failpoints out;
  for (const util::FailpointSiteStats& s : util::FailpointReport()) {
    out.emplace_back(s.site, s.trigger);
  }
  return out;
}

/// Every global knob ApplyRuntimeFlags can change.
struct RuntimeState {
  GemmKernelKind kernel = GemmKernelKind::kBlocked;
  QuantMode quant = QuantMode::kOff;
  util::PinPolicy pin = util::PinPolicy::kOff;
  int threads = 1;
  Failpoints failpoints;

  bool operator==(const RuntimeState&) const = default;
};

RuntimeState Capture() {
  return {ActiveGemmKernel(), ActiveQuantMode(), util::ActivePinPolicy(),
          util::GlobalThreads(), ConfiguredFailpoints()};
}

void Install(const RuntimeState& state) {
  SetGemmKernel(state.kernel);
  EXPECT_TRUE(SetQuantMode(state.quant).ok());
  util::SetPinPolicy(state.pin);
  util::SetGlobalThreads(state.threads);
  std::string spec;
  for (const auto& [site, trigger] : state.failpoints) {
    spec += site + "=" + trigger + ",";
  }
  EXPECT_TRUE(util::ConfigureFailpoints(spec).ok());
}

std::string Describe(const RuntimeState& s) {
  std::string out = std::string("kernel=") + GemmKernelKindName(s.kernel) +
                    " quant=" + QuantModeName(s.quant) +
                    " pin=" + util::PinPolicyName(s.pin) +
                    " threads=" + std::to_string(s.threads) + " failpoints=";
  for (const auto& [site, trigger] : s.failpoints) {
    out += site + "=" + trigger + ";";
  }
  return out;
}

/// Restores every knob on scope exit, so one failing case cannot leak its
/// settings into later tests.
class ScopedRuntime {
 public:
  ScopedRuntime() : saved_(Capture()) {}
  ~ScopedRuntime() {
    util::SetCpuFeaturesForTest(nullptr);
    util::SetTopologyForTest(nullptr);
    Install(saved_);
  }

 private:
  RuntimeState saved_;
};

util::Status Apply(const std::vector<std::string>& args) {
  std::vector<char*> argv = {const_cast<char*>("prog")};
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  const util::Flags flags(static_cast<int>(argv.size()), argv.data());
  return ApplyRuntimeFlags(flags);
}

struct Case {
  std::vector<std::string> args;
  util::StatusCode code;
  /// What the call changes, applied to the state before it (OK cases only).
  std::function<void(RuntimeState*)> effect = [](RuntimeState*) {};
  /// Present the call with a CPU without any vector ISA.
  bool mask_cpu = false;
};

TEST(RuntimeFlagsTest, EachKnobAppliesValidValuesAndRejectsInvalidOnes) {
  ScopedRuntime restore;
  const int all_cpus =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const GemmKernelKind best = SimdKernelAvailable() ? GemmKernelKind::kSimd
                                                    : GemmKernelKind::kBlocked;
  // The self-check runs the scalar oracle on every machine, so int8 engages
  // everywhere; fp16 is expected to pass exactly when its check does.
  const util::StatusCode fp16_code = CheckQuantKernel(QuantMode::kFp16).code();
  const util::StatusCode ok = util::StatusCode::kOk;
  const util::StatusCode invalid = util::StatusCode::kInvalidArgument;

  const std::vector<Case> cases = {
      {{}, ok},
      {{"--kernel", "blocked"}, ok},
      {{"--kernel", "auto"}, ok, [best](RuntimeState* s) { s->kernel = best; }},
      {{"--quant", "off"}, ok},
      {{"--quant", "int8"}, ok,
       [](RuntimeState* s) { s->quant = QuantMode::kInt8; }},
      {{"--quant", "fp16"}, fp16_code,
       [](RuntimeState* s) { s->quant = QuantMode::kFp16; }},
      {{"--pin", "off"}, ok},
      {{"--pin", "compact"}, ok,
       [](RuntimeState* s) { s->pin = util::PinPolicy::kCompact; }},
      {{"--pin", "scatter"}, ok,
       [](RuntimeState* s) { s->pin = util::PinPolicy::kScatter; }},
      {{"--threads", "2"}, ok, [](RuntimeState* s) { s->threads = 2; }},
      {{"--threads", "0"}, ok,
       [all_cpus](RuntimeState* s) { s->threads = all_cpus; }},
      {{"--failpoints", "a/site=once,b/site=p:0.5"}, ok,
       [](RuntimeState* s) {
         s->failpoints = {{"a/site", "once"}, {"b/site", "p:0.5"}};
       }},
      {{"--kernel", "blocked", "--quant", "int8", "--pin", "compact",
        "--threads", "3", "--failpoints", "a/site=always"},
       ok,
       [](RuntimeState* s) {
         s->quant = QuantMode::kInt8;
         s->pin = util::PinPolicy::kCompact;
         s->threads = 3;
         s->failpoints = {{"a/site", "always"}};
       }},

      {{"--kernel", "warp-drive"}, invalid},
      {{"--kernel"}, invalid},  // a bare flag reads as "true"
      {{"--kernel", ""}, invalid},
      {{"--quant", "int4"}, invalid},
      {{"--pin", "sideways"}, invalid},
      {{"--threads", "two"}, invalid},
      {{"--threads", "-1"}, invalid},
      {{"--threads", "99999999999"}, invalid},
      {{"--failpoints", "a/site=sometimes"}, invalid},
      // Every other value is valid: the bad one must still change nothing.
      {{"--kernel", "auto", "--quant", "int8", "--pin", "scatter",
        "--threads", "2", "--failpoints", "a/site=bogus"},
       invalid},
      {{"--failpoints", "a/site=once", "--threads", "x"}, invalid},

      {{"--kernel", "simd"}, util::StatusCode::kFailedPrecondition,
       [](RuntimeState*) {}, /*mask_cpu=*/true},
  };

  const util::CpuFeatures no_simd{};
  for (const Case& c : cases) {
    std::string name;
    for (const std::string& a : c.args) name += a + " ";
    SCOPED_TRACE(name);
    const RuntimeState baseline;  // blocked, off, off, 1 thread, none
    Install(baseline);
    util::SetCpuFeaturesForTest(c.mask_cpu ? &no_simd : nullptr);
    const util::Status status = Apply(c.args);
    util::SetCpuFeaturesForTest(nullptr);
    EXPECT_EQ(status.code(), c.code) << status.ToString();
    RuntimeState want = baseline;
    if (status.ok()) c.effect(&want);
    const RuntimeState got = Capture();
    EXPECT_TRUE(got == want) << "got  " << Describe(got) << "\nwant "
                             << Describe(want);
  }
}

TEST(RuntimeFlagsTest, PinIsSetBeforeThePoolIsRebuilt) {
  ScopedRuntime restore;
  util::CpuTopology topo;
  topo.nodes.push_back({.id = 0, .cpus = {0}});
  topo.nodes.push_back({.id = 1, .cpus = {1}});
  util::SetTopologyForTest(&topo);
  util::SetPinPolicy(util::PinPolicy::kOff);
  util::SetGlobalThreads(1);

  ASSERT_TRUE(Apply({"--threads", "2", "--pin", "scatter"}).ok());
  const util::ThreadPool& pool = util::GlobalThreadPool();
  EXPECT_EQ(pool.num_threads(), 2);
  // A pool built before the policy changed would plan no placement at all.
  const std::vector<util::LanePlacement> want =
      util::PlanPlacement(topo, util::PinPolicy::kScatter, 2);
  ASSERT_EQ(pool.placement().size(), want.size());
  for (size_t lane = 0; lane < want.size(); ++lane) {
    EXPECT_EQ(pool.placement()[lane].cpu, want[lane].cpu) << lane;
    EXPECT_EQ(pool.placement()[lane].node, want[lane].node) << lane;
  }
  EXPECT_EQ(pool.shard_count(), 2);
}

TEST(RuntimeEnvTest, UnknownCpuDisableTokenWarns) {
  // CpuInfo() reads DEEPAQP_CPU_DISABLE once per process, so the read under
  // test runs in a freshly executed child; this process's value is cached
  // first so the variable set here cannot reach later tests.
  (void)util::CpuInfo();
  const char* before = std::getenv("DEEPAQP_CPU_DISABLE");
  const std::string saved = before == nullptr ? "" : before;
  const std::string style = ::testing::GTEST_FLAG(death_test_style);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  setenv("DEEPAQP_CPU_DISABLE", "avx", 1);
  EXPECT_EXIT(
      {
        (void)util::CpuInfo();
        std::exit(0);
      },
      ::testing::ExitedWithCode(0),
      "DEEPAQP_CPU_DISABLE='avx' ignored: unknown cpu feature 'avx'");
  if (before == nullptr) {
    unsetenv("DEEPAQP_CPU_DISABLE");
  } else {
    setenv("DEEPAQP_CPU_DISABLE", saved.c_str(), 1);
  }
  ::testing::GTEST_FLAG(death_test_style) = style;
}

}  // namespace
}  // namespace deepaqp::nn
