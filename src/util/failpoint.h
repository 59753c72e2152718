#ifndef DEEPAQP_UTIL_FAILPOINT_H_
#define DEEPAQP_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace deepaqp::util {

/// Deterministic fault-injection registry ("fail points"). Hot paths name a
/// site and ask whether an injected fault should fire there:
///
///   if (util::FailpointTriggered("snapshot/open")) {
///     return util::FailpointError("snapshot/open");
///   }
///
/// Sites are dormant by default: the disabled check is a single relaxed
/// atomic load and branch, so instrumented hot paths (GEMM dispatch, arena
/// acquisition, sample generation) pay nothing measurable in production.
/// Activation happens once, up front, via the DEEPAQP_FAILPOINTS environment
/// variable (read at process start; a bad spec warns and stays disabled),
/// the --failpoints flag (nn::ApplyRuntimeFlags; a bad spec is an error),
/// or ConfigureFailpoints directly in tests.
///
/// Spec grammar (comma-separated entries, applied in order):
///
///   <site>=<trigger>[@<arg>] , ...
///   seed=<N>                       (optional; reseeds the Bernoulli draws)
///
/// Triggers:
///   off        never fires (site stays instrumented but dormant)
///   always     fires on every evaluation
///   once       fires on the first evaluation only, then disarms
///   times:<N>  fires on the first N evaluations, then disarms
///   p:<0..1>   fires per-evaluation with probability p, from a per-site
///              deterministic stream (seeded by the global failpoint seed
///              mixed with the site name, never by wall-clock entropy)
///
/// The optional `@<arg>` suffix restricts the trigger to evaluations whose
/// call-site argument equals <arg> (e.g. `ensemble/train_member=always@2`
/// fails only member 2). Sites evaluated without an explicit argument use 0.
///
/// Determinism contract: with fail points disabled — or configured but with
/// no trigger firing — every instrumented path is bit-identical to the
/// uninstrumented library. Probabilistic triggers draw from a per-site
/// counter-based stream, so the *set* of firing evaluations for a given
/// (seed, site) is fixed; under a multi-threaded run the assignment of those
/// evaluations to logical operations follows scheduling order, which is the
/// intended chaos-mode behavior.

namespace internal_failpoint {
extern std::atomic<bool> g_enabled;
bool ShouldFire(const char* site, uint64_t arg);
}  // namespace internal_failpoint

/// True when any fail-point spec is active. Cheap enough for hot paths.
inline bool FailpointsEnabled() {
  return internal_failpoint::g_enabled.load(std::memory_order_relaxed);
}

/// True when the named site should inject a fault now. `arg` identifies the
/// evaluation to `@<arg>`-filtered triggers (member index, epoch, ...).
inline bool FailpointTriggered(const char* site, uint64_t arg = 0) {
  return FailpointsEnabled() && internal_failpoint::ShouldFire(site, arg);
}

/// Canonical status an instrumented path returns when its site fires.
Status FailpointError(const char* site);

/// Parses and installs `spec` (see grammar above), replacing any previous
/// configuration and resetting all counters. An empty spec disables the
/// subsystem. Unknown trigger forms or malformed probabilities return
/// InvalidArgument and leave the previous configuration untouched.
Status ConfigureFailpoints(const std::string& spec);

/// Disables the subsystem and clears the configuration and counters.
void DisableFailpoints();

/// Per-site evaluation/fire counters since the last configure/reset — the
/// structured fault log chaos runs persist as an artifact.
struct FailpointSiteStats {
  std::string site;
  std::string trigger;  ///< the spec fragment this site was configured with
  uint64_t evaluations = 0;
  uint64_t fires = 0;
};

/// Snapshot of every configured site's counters, sorted by site name.
std::vector<FailpointSiteStats> FailpointReport();

/// FailpointReport as a small JSON document:
/// {"failpoints":[{"site":...,"trigger":...,"evaluations":N,"fires":M}]}.
std::string FailpointReportJson();

/// Zeroes every site's evaluation and fire counters, which also re-arms
/// `once`/`times` triggers (their disarm state lives in the fire count).
/// The configuration itself is kept. Tests use it between scenarios.
void ResetFailpointCounters();

}  // namespace deepaqp::util

#endif  // DEEPAQP_UTIL_FAILPOINT_H_
