#ifndef AQPBENCH_CHECKS_H_
#define AQPBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fixture.h"
#include "load.h"

namespace aqpbench {

/// A seeded subset of at most `max_sessions` of the run's replayable
/// sessions (opened, first query finished), as ascending indices into
/// log.sessions.
std::vector<size_t> ReplayableSessions(const RunLog& log, uint64_t seed,
                                       size_t max_sessions);

/// Server determinism gate: replays a seeded subset of the run's sessions
/// on a direct in-process AqpClient::Share with the same session options,
/// seed and query order, and requires every replayed query's estimate count
/// and final EncodeEstimate bytes to equal what the server streamed. A
/// mismatching query is marked failed. Returns the number of mismatches.
struct DeterminismReport {
  size_t sessions = 0;
  size_t queries = 0;
  size_t mismatches = 0;
  std::vector<std::string> problems;
};
DeterminismReport CheckDeterminism(Fixture& fixture, RunLog& log,
                                   uint64_t seed, size_t max_sessions,
                                   size_t max_queries_per_session);

/// Relative error (paper Eq. 1/3) of the final estimate of a seeded subset
/// of the window's finished queries against the exact answer on the full
/// relation. Identical estimates of a repeated query count once.
std::vector<double> RelativeErrors(const Fixture& fixture, const RunLog& log,
                                   uint64_t seed, size_t max_queries);

}  // namespace aqpbench

#endif  // AQPBENCH_CHECKS_H_
