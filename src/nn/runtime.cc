#include "nn/runtime.h"

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "nn/kernels.h"
#include "nn/kernels_quant.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/topology.h"

namespace deepaqp::nn {

namespace {

util::Status ParseThreads(std::string_view text, int* threads) {
  int64_t n = 0;
  if (!util::ParseInt64(text, &n) || n < 0 ||
      n > std::numeric_limits<int>::max()) {
    return util::Status::InvalidArgument(
        "thread count '" + std::string(text) +
        "' is not a non-negative integer");
  }
  *threads = static_cast<int>(n);
  return util::Status::OK();
}

/// Names the flag in a parse step's error.
util::Status FlagError(const char* name, const util::Status& status) {
  return util::Status(status.code(),
                      "--" + std::string(name) + ": " + status.message());
}

/// Runs `parse` on flag `name` when it is given; `*value` keeps its current
/// setting otherwise.
template <typename T>
util::Status ParseFlag(const util::Flags& flags, const char* name,
                       util::Status (*parse)(std::string_view, T*),
                       T* value) {
  if (!flags.Has(name)) return util::Status::OK();
  const util::Status status = parse(flags.GetString(name, ""), value);
  return status.ok() ? status : FlagError(name, status);
}

}  // namespace

util::Status ApplyRuntimeFlags(const util::Flags& flags) {
  GemmKernelKind kernel = ActiveGemmKernel();
  QuantMode quant = ActiveQuantMode();
  util::PinPolicy pin = util::ActivePinPolicy();
  int threads = 0;
  DEEPAQP_RETURN_IF_ERROR(
      ParseFlag(flags, "kernel", &ParseRunnableGemmKernel, &kernel));
  DEEPAQP_RETURN_IF_ERROR(
      ParseFlag(flags, "quant", &ParseCheckedQuantMode, &quant));
  DEEPAQP_RETURN_IF_ERROR(ParseFlag(flags, "pin", &util::ParsePinPolicy, &pin));
  DEEPAQP_RETURN_IF_ERROR(ParseFlag(flags, "threads", &ParseThreads, &threads));
  // Installing a fail-point spec is how it is checked; it changes nothing
  // when it fails, and it is the last step that can fail.
  if (flags.Has("failpoints")) {
    const util::Status status =
        util::ConfigureFailpoints(flags.GetString("failpoints", ""));
    if (!status.ok()) return FlagError("failpoints", status);
  }
  // Both were checked above (the quant check is cached), so neither fails.
  SetGemmKernel(kernel);
  const util::Status set_quant = SetQuantMode(quant);
  DEEPAQP_CHECK(set_quant.ok());
  util::SetPinPolicy(pin);
  if (flags.Has("threads")) {
    util::SetGlobalThreads(threads);
  } else if (flags.Has("pin")) {
    util::SetGlobalThreads(util::GlobalThreads());
  }
  return util::Status::OK();
}

}  // namespace deepaqp::nn
