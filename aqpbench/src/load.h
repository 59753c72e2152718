#ifndef AQPBENCH_LOAD_H_
#define AQPBENCH_LOAD_H_

// Load generation over real loopback TCP: kConnections client threads, each
// owning one SocketConnection, speaking the wire protocol directly
// (SocketConnection + ChannelConsumer), so every query's kQueryStarted,
// first DATA frame and final DATA frame are timestamped where they arrive.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "fixture.h"
#include "vae/client.h"

namespace aqpbench {

struct QueryRecord {
  int session = -1;  ///< index into RunLog::sessions
  std::string sql;
  double max_ci = 0.0;
  bool in_window = false;  ///< due inside the timed window (else warm-up)
  bool repeat = false;     ///< same SQL issued earlier in its session
  Clock::time_point due{};  ///< open loop: schedule; closed loop: ready
  Clock::time_point sent{};
  Clock::time_point started{};
  Clock::time_point first{};
  Clock::time_point final{};
  bool is_started = false;
  bool has_first = false;
  bool done = false;    ///< final frame delivered
  bool failed = false;  ///< error, refusal, bad frame, or never finished
  std::string error;
  uint32_t estimates = 0;
  uint64_t final_pool_rows = 0;
  std::vector<uint8_t> final_payload;  ///< EncodeEstimate bytes
};

struct SessionRecord {
  int client = 0;
  /// OpenSession knobs as sent (0 = server default).
  uint64_t seed = 0;
  uint64_t initial = 0;
  uint64_t max = 0;
  uint64_t server_id = 0;
  bool opened = false;
  bool failed = false;
  bool closed = false;
  Clock::time_point open_sent{};
  Clock::time_point opened_at{};
  std::vector<int> queries;  ///< indices into RunLog::queries, issue order
  uint64_t pool_rows = 0;    ///< latest pool size seen
  bool have_cache = false;
  deepaqp::vae::AqpClient::CacheStats cache;
};

/// Everything one run observed. Indices are global after the per-client
/// logs are merged.
struct RunLog {
  std::vector<SessionRecord> sessions;
  std::vector<QueryRecord> queries;
  Clock::time_point window_start{};
  Clock::time_point window_end{};
  std::vector<double> ping_rtt_us;
  std::vector<double> lag_ms;       ///< how late each send was vs its due
  std::vector<double> queue_depth;  ///< scheduler_pending() at each send
  uint64_t busy_rejects = 0;        ///< kUnavailable (SERVER_BUSY) errors
  /// Connections that broke. The clients are bare SocketConnections with no
  /// redial, so each is a connection a retrying client would reconnect.
  uint64_t connection_losses = 0;
  double pool_mb_live_peak = 0.0;
  double offered_qps = 0.0;  ///< open loop: the schedule's rate
};

/// The session options a workload's sessions run with, resolved against
/// the server defaults exactly as AqpServer::HandleOpenSession does.
deepaqp::vae::AqpClient::Options EffectiveOptions(
    const deepaqp::vae::AqpClient::Options& server_defaults,
    const SessionRecord& session);

/// One workload's load generator. Construction is cheap; Prewarm is part of
/// set-up (warm_scan grows its pools there), Prepare generates the seeded
/// inputs (not timed), Run drives the timed phase.
class Load {
 public:
  Load(Workload workload, uint64_t seed, Fixture* fixture);
  ~Load();
  Load(const Load&) = delete;
  Load& operator=(const Load&) = delete;

  /// Dials every connection; warm_scan also opens its long-lived sessions
  /// with initial_samples = max_samples, growing the pools now.
  deepaqp::util::Status Prewarm();

  /// Generates the seeded queries/arrivals for `warmup_s + seconds`.
  void Prepare(double warmup_s, double seconds);

  /// Runs the warm-up, then the timed window, then drains in-flight
  /// queries and closes every session.
  RunLog Run(double warmup_s, double seconds);

 private:
  struct Client;
  struct LiveRows;
  Workload workload_;
  uint64_t seed_;
  Fixture* fixture_;
  std::unique_ptr<LiveRows> live_;  ///< pool rows of live sessions
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::string> mix_set_;  ///< open_mix query set (SQL)
};

}  // namespace aqpbench

#endif  // AQPBENCH_LOAD_H_
