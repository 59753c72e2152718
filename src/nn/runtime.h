#ifndef DEEPAQP_NN_RUNTIME_H_
#define DEEPAQP_NN_RUNTIME_H_

#include "util/flags.h"
#include "util/status.h"

namespace deepaqp::nn {

/// Applies the process-wide runtime flags every binary takes, once, from
/// main():
///
///   --kernel blocked|simd|auto   GEMM backend (ParseRunnableGemmKernel)
///   --quant off|fp16|int8        mode new models are prepared for
///                                (ParseCheckedQuantMode)
///   --pin off|compact|scatter    worker placement (util::ParsePinPolicy)
///   --threads N                  pool size, N >= 0 (0 = all CPUs)
///   --failpoints SPEC            fault injection (util::ConfigureFailpoints)
///
/// Each value goes through the same parse step as its DEEPAQP_* environment
/// variable, but where the environment warns and keeps the default, a bad
/// flag is an error: InvalidArgument for an unknown value, FailedPrecondition
/// for a kernel or quant mode this CPU cannot run. Every value is checked
/// before any global state changes, so on error nothing changed. On success
/// the pin policy is set before the pool is rebuilt, which happens when
/// --pin or --threads is given (--pin alone keeps the pool size). Absent
/// flags leave their knob as it is. Not safe while parallel work is in
/// flight.
[[nodiscard]] util::Status ApplyRuntimeFlags(const util::Flags& flags);

}  // namespace deepaqp::nn

#endif  // DEEPAQP_NN_RUNTIME_H_
