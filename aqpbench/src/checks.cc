#include "checks.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "aqp/executor.h"
#include "aqp/metrics.h"
#include "aqp/sql_parser.h"
#include "server/wire.h"
#include "util/rng.h"

namespace aqpbench {

using namespace deepaqp;

namespace {

/// Seeded Fisher-Yates order of [0, n).
std::vector<size_t> SeededOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(seed);
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.NextIndex(i)]);
  return order;
}

}  // namespace

std::vector<size_t> ReplayableSessions(const RunLog& log, uint64_t seed,
                                       size_t max_sessions) {
  std::vector<size_t> candidates;
  for (size_t s = 0; s < log.sessions.size(); ++s) {
    const SessionRecord& rec = log.sessions[s];
    if (rec.opened && !rec.queries.empty() && log.queries[rec.queries[0]].done) {
      candidates.push_back(s);
    }
  }
  std::vector<size_t> picks;
  for (size_t i : SeededOrder(candidates.size(), seed)) {
    if (picks.size() == max_sessions) break;
    picks.push_back(candidates[i]);
  }
  std::sort(picks.begin(), picks.end());
  return picks;
}

DeterminismReport CheckDeterminism(Fixture& fixture, RunLog& log,
                                   uint64_t seed, size_t max_sessions,
                                   size_t max_queries_per_session) {
  DeterminismReport report;
  for (size_t s : ReplayableSessions(log, Mix(seed, 0xdee), max_sessions)) {
    const SessionRecord& rec = log.sessions[s];
    auto client = vae::AqpClient::Share(
        fixture.shared_model(),
        EffectiveOptions(fixture.server_options().client, rec));
    ++report.sessions;
    size_t replayed = 0;
    for (int qi : rec.queries) {
      QueryRecord& q = log.queries[qi];
      // A stream that did not finish leaves the server pool in a state the
      // replay cannot know; the prefix before it is what is checked.
      if (!q.done || replayed >= max_queries_per_session) break;
      ++replayed;
      ++report.queries;
      std::string problem;
      auto parsed = aqp::ParseSql(q.sql, client->pool());
      if (!parsed.ok()) {
        problem = "replay parse failed: " + parsed.status().ToString();
      } else {
        uint32_t estimates = 0;
        std::vector<uint8_t> bytes;
        for (bool final = false; !final;) {
          auto result = client->QueryRefineStep(*parsed, q.max_ci, &final);
          if (!result.ok()) {
            problem = "replay query failed: " + result.status().ToString();
            break;
          }
          ++estimates;
          server::Estimate est;
          est.pool_rows = client->pool_size();
          est.result = std::move(*result);
          bytes = server::EncodeEstimate(est);
        }
        if (problem.empty() && estimates != q.estimates) {
          problem = "estimate count " + std::to_string(q.estimates) +
                    " over TCP vs " + std::to_string(estimates) + " direct";
        } else if (problem.empty() && bytes != q.final_payload) {
          problem = "final estimate bytes differ from a direct AqpClient";
        }
      }
      if (!problem.empty()) {
        ++report.mismatches;
        report.problems.push_back("session seed=" + std::to_string(rec.seed) +
                                  " query '" + q.sql + "': " + problem);
        q.done = false;
        q.failed = true;
        q.error = problem;
        break;
      }
    }
  }
  return report;
}

std::vector<double> RelativeErrors(const Fixture& fixture, const RunLog& log,
                                   uint64_t seed, size_t max_queries) {
  std::vector<size_t> finished;
  for (size_t i = 0; i < log.queries.size(); ++i) {
    if (log.queries[i].in_window && log.queries[i].done) finished.push_back(i);
  }
  std::vector<size_t> order = SeededOrder(finished.size(), Mix(seed, 0xe44));
  order.resize(std::min(order.size(), max_queries));

  std::map<std::string, aqp::QueryResult> exact;
  std::set<std::pair<std::string, std::vector<uint8_t>>> seen;
  std::vector<double> errors;
  for (size_t pick : order) {
    const QueryRecord& q = log.queries[finished[pick]];
    // A repeated query answered from the same pool returns the same bytes;
    // counting it again would weight popular queries, not estimates.
    if (!seen.insert({q.sql, q.final_payload}).second) continue;
    auto it = exact.find(q.sql);
    if (it == exact.end()) {
      auto parsed = aqp::ParseSql(q.sql, fixture.census());
      if (!parsed.ok()) continue;
      auto truth = aqp::ExecuteExact(*parsed, fixture.census());
      if (!truth.ok()) continue;
      it = exact.emplace(q.sql, std::move(*truth)).first;
    }
    auto est = server::DecodeEstimate(q.final_payload);
    if (!est.ok()) continue;
    errors.push_back(aqp::ResultRelativeError(est->result, it->second));
  }
  return errors;
}

}  // namespace aqpbench
