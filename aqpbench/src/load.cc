#include "load.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <set>
#include <thread>

#include "data/workload.h"
#include "server/channel.h"
#include "server/socket_client.h"
#include "server/wire.h"
#include "util/rng.h"

namespace aqpbench {

using namespace deepaqp;

namespace {

// cold_churn: each session pins its own seed and runs one query whose tight
// CI target doubles the pool from kColdInitial to kColdMax (five estimates),
// so every query pays generation. The cap keeps a query near 30 ms on 4
// cores, so a 15 s window finishes the 1000+ queries a p99 needs. One
// query per session keeps the latency distribution unimodal; a second query
// would be answered from the full pool and put the median on the warm path.
constexpr uint64_t kColdInitial = 128;
constexpr uint64_t kColdMax = 2048;
constexpr double kColdCi = 0.005;

// warm_scan: four long-lived sessions on the server-default seed, pools
// grown during set-up to the production default cap; a query at the cap is
// final on its first estimate whatever its CI target.
constexpr uint64_t kWarmPoolRows = 200000;
constexpr double kWarmCi = 0.05;
constexpr int kWarmPingEvery = 64;

// open_mix: Poisson arrivals; sessions on the server-default seed with a
// geometric number of queries; a Zipf mix over a seeded query set; a
// quarter of the queries ask for a CI target that grows the pool. The rate
// sits below saturation on 4 cores: a session's growth runs on one core
// (about 100 ms), and at this rate about a fifth of the cores are busy.
constexpr double kMixRateQps = 100.0;
constexpr uint64_t kMixInitial = 512;
constexpr uint64_t kMixMax = 8192;
constexpr size_t kMixQuerySet = 1024;
constexpr double kMixZipfS = 1.0;
constexpr double kMixMeanSessionQueries = 16.0;
constexpr double kMixTightShare = 0.25;
constexpr double kMixTightCi = 0.01;
constexpr double kMixLooseCi = 0.3;
constexpr double kMixPingPeriodS = 0.1;

/// A query whose final frame has not arrived this long after the window
/// closed never arrives.
constexpr double kDrainSeconds = 30.0;
constexpr int kIoTimeoutMs = 30000;

/// Seeded stream of distinct queries with a non-empty predicate, for the
/// workloads whose queries must never hit the predicate cache.
class FreshQueries {
 public:
  FreshQueries(const relation::Table* census, uint64_t seed)
      : census_(census), seed_(seed) {}

  const std::string& Next() {
    while (pos_ >= list_.size()) Extend();
    return list_[pos_++];
  }
  void Fill(size_t n) {
    while (list_.size() < n) Extend();
  }

 private:
  void Extend() {
    data::WorkloadConfig wc;
    wc.num_queries = 256;
    wc.seed = Mix(seed_, block_++);
    for (const aqp::AggregateQuery& q : data::GenerateWorkload(*census_, wc)) {
      if (q.filter.conditions.empty()) continue;
      std::string sql = q.ToString(census_->schema());
      std::string pred = sql.substr(sql.find(" WHERE "));
      pred = pred.substr(0, pred.find(" GROUP BY "));
      if (!seen_.insert(pred).second) continue;
      list_.push_back(std::move(sql));
    }
  }

  const relation::Table* census_;
  uint64_t seed_;
  uint64_t block_ = 0;
  size_t pos_ = 0;
  std::vector<std::string> list_;
  std::set<std::string> seen_;
};

struct Arrival {
  double offset_s = 0.0;  ///< from the start of the warm-up
  size_t query = 0;       ///< index into the open_mix query set
  double ci = 0.0;
  int session_ordinal = 0;
};

/// Rows x bytes of one pool row: int32 codes, double numerics.
double BytesPerRow(const relation::Schema& schema) {
  double bytes = 0.0;
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    bytes += schema.IsCategorical(c) ? sizeof(int32_t) : sizeof(double);
  }
  return bytes;
}

}  // namespace

vae::AqpClient::Options EffectiveOptions(
    const vae::AqpClient::Options& server_defaults,
    const SessionRecord& session) {
  vae::AqpClient::Options o = server_defaults;
  if (session.initial > 0) o.initial_samples = session.initial;
  if (session.max > 0) o.max_samples = session.max;
  if (session.seed > 0) o.seed = session.seed;
  return o;
}

/// Pool rows summed over live sessions (all clients), for pool.mb_live_peak.
struct Load::LiveRows {
  std::atomic<int64_t> rows{0};
  std::atomic<int64_t> peak{0};
  void Add(int64_t delta) {
    const int64_t now = rows.fetch_add(delta) + delta;
    int64_t prev = peak.load();
    while (now > prev && !peak.compare_exchange_weak(prev, now)) {
    }
  }
};

struct Load::Client {
  struct Inflight {
    int query = -1;
    server::ChannelConsumer consumer;
  };

  int index = 0;
  Fixture* fx = nullptr;
  LiveRows* live = nullptr;
  server::SocketConnection sock;
  bool broken = false;
  std::string broken_why;

  // Client-local log, merged into the RunLog after the threads join.
  std::vector<SessionRecord> sessions;
  std::vector<QueryRecord> queries;
  std::vector<int> open_queries;  ///< per session: sent, not yet finished
  std::vector<double> ping_rtt_us;
  std::vector<double> lag_ms;
  std::vector<double> queue_depth;
  uint64_t busy_rejects = 0;

  std::map<uint64_t, Inflight> inflight;  ///< channel -> query
  std::map<uint64_t, int> by_server_id;   ///< server session id -> session
  std::set<int> closing;                  ///< close sent, not confirmed
  uint64_t next_channel = 1;
  int pending_open = -1;
  bool ping_outstanding = false;
  uint64_t ping_nonce = 0;
  Clock::time_point ping_sent{};

  // Seeded inputs.
  std::unique_ptr<FreshQueries> fresh;
  util::Rng session_rng{1};
  std::vector<Arrival> arrivals;
  const std::vector<std::string>* query_set = nullptr;

  Clock::time_point window_start{};
  Clock::time_point window_end{};

  int NewSession(uint64_t seed, uint64_t initial, uint64_t max) {
    SessionRecord s;
    s.client = index;
    s.seed = seed;
    s.initial = initial;
    s.max = max;
    sessions.push_back(s);
    open_queries.push_back(0);
    return static_cast<int>(sessions.size()) - 1;
  }

  int NewQuery(int session, const std::string& sql, double ci,
               Clock::time_point due) {
    QueryRecord q;
    q.session = session;
    q.sql = sql;
    q.max_ci = ci;
    q.due = due;
    q.in_window = due >= window_start && due < window_end;
    for (int prev : sessions[session].queries) {
      if (queries[prev].sql == sql) {
        q.repeat = true;
        break;
      }
    }
    queries.push_back(std::move(q));
    const int id = static_cast<int>(queries.size()) - 1;
    sessions[session].queries.push_back(id);
    return id;
  }

  void Break(const std::string& why) {
    if (broken) return;
    broken = true;
    broken_why = why;
    for (auto& [channel, f] : inflight) Fail(f.query, "connection lost: " + why);
    inflight.clear();
    if (pending_open >= 0) {
      sessions[pending_open].failed = true;
      pending_open = -1;
    }
  }

  void Fail(int q, const std::string& why) {
    QueryRecord& r = queries[q];
    if (r.done || r.failed) return;
    r.failed = true;
    r.error = why;
    --open_queries[r.session];
  }

  void Send(const server::ClientMessage& m) {
    if (broken) return;
    const util::Status st = sock.Send(m);
    if (!st.ok()) Break(st.ToString());
  }

  void SendOpen(int s) {
    server::ClientMessage m;
    m.kind = server::ClientMessageKind::kOpenSession;
    m.model_name = Fixture::kModelName;
    m.initial_samples = sessions[s].initial;
    m.max_samples = sessions[s].max;
    m.seed = sessions[s].seed;
    pending_open = s;
    sessions[s].open_sent = Clock::now();
    Send(m);
  }

  void SendQuery(int q) {
    QueryRecord& r = queries[q];
    const SessionRecord& s = sessions[r.session];
    queue_depth.push_back(
        static_cast<double>(fx->server().scheduler_pending()));
    server::ClientMessage m;
    m.kind = server::ClientMessageKind::kQuery;
    m.session = s.server_id;
    m.sql = r.sql;
    m.max_relative_ci = r.max_ci;
    m.channel = next_channel++;
    inflight.emplace(m.channel, Inflight{q, server::ChannelConsumer(m.channel)});
    ++open_queries[r.session];
    Send(m);
    r.sent = Clock::now();
    lag_ms.push_back(MillisBetween(r.due, r.sent));
  }

  void SendClose(int s) {
    // Cache counters are read on the session's strand before it goes away.
    auto stats = fx->server().SessionCacheStats(sessions[s].server_id);
    if (stats.ok()) {
      sessions[s].cache = *stats;
      sessions[s].have_cache = true;
    }
    server::ClientMessage m;
    m.kind = server::ClientMessageKind::kCloseSession;
    m.session = sessions[s].server_id;
    Send(m);
  }

  void SendPing() {
    server::ClientMessage m;
    m.kind = server::ClientMessageKind::kPing;
    m.nonce = ++ping_nonce;
    ping_outstanding = true;
    ping_sent = Clock::now();
    Send(m);
  }

  void OnEstimate(QueryRecord& r, const std::vector<uint8_t>& payload,
                  Clock::time_point now) {
    auto est = server::DecodeEstimate(payload);
    if (!est.ok()) {
      Fail(&r - queries.data(), "undecodable estimate: " + est.status().ToString());
      return;
    }
    SessionRecord& s = sessions[r.session];
    if (est->pool_rows < s.pool_rows) {
      Fail(&r - queries.data(),
           "pool_rows decreased: " + std::to_string(s.pool_rows) + " -> " +
               std::to_string(est->pool_rows));
      return;
    }
    live->Add(static_cast<int64_t>(est->pool_rows - s.pool_rows));
    s.pool_rows = est->pool_rows;
    ++r.estimates;
    if (!r.has_first) {
      r.has_first = true;
      r.first = now;
    }
    r.final_pool_rows = est->pool_rows;
    r.final_payload = payload;
  }

  /// Receives and dispatches at most one server message.
  void Pump(int timeout_ms) {
    if (broken) return;
    auto got = sock.Receive(timeout_ms);
    const Clock::time_point now = Clock::now();
    if (!got.ok()) {
      Break(got.status().ToString());
      return;
    }
    if (!got->has_value()) return;
    server::ServerMessage& m = **got;
    switch (m.kind) {
      case server::ServerMessageKind::kSessionOpened: {
        if (pending_open < 0) return;
        SessionRecord& s = sessions[pending_open];
        s.server_id = m.session;
        s.opened = true;
        s.opened_at = now;
        const auto eff = EffectiveOptions(fx->server_options().client, s);
        s.pool_rows = std::min(eff.initial_samples, eff.max_samples);
        live->Add(static_cast<int64_t>(s.pool_rows));
        by_server_id[m.session] = pending_open;
        pending_open = -1;
        return;
      }
      case server::ServerMessageKind::kQueryStarted: {
        auto it = inflight.find(m.channel);
        if (it == inflight.end()) return;
        QueryRecord& r = queries[it->second.query];
        r.is_started = true;
        r.started = now;
        return;
      }
      case server::ServerMessageKind::kData: {
        auto it = inflight.find(m.data.channel);
        if (it == inflight.end()) return;  // duplicate of a finished stream
        QueryRecord& r = queries[it->second.query];
        server::ChannelConsumer& consumer = it->second.consumer;
        consumer.OnData(m.data);
        for (const auto& payload : consumer.TakeDelivered()) {
          if (!r.failed) OnEstimate(r, payload, now);
        }
        server::ClientMessage ack;
        ack.kind = server::ClientMessageKind::kAck;
        ack.session = sessions[r.session].server_id;
        ack.ack = consumer.MakeAck();
        Send(ack);
        if (r.failed) {
          inflight.erase(it);
        } else if (consumer.finished()) {
          r.done = true;
          r.final = now;
          --open_queries[r.session];
          inflight.erase(it);
        }
        return;
      }
      case server::ServerMessageKind::kError: {
        if (m.code == static_cast<int32_t>(util::StatusCode::kUnavailable)) {
          ++busy_rejects;
        }
        const std::string why = "server error " + std::to_string(m.code) +
                                ": " + m.message;
        auto it = inflight.find(m.channel);
        if (m.channel != 0 && it != inflight.end()) {
          Fail(it->second.query, why);
          inflight.erase(it);
        } else if (pending_open >= 0 && m.session == 0) {
          sessions[pending_open].failed = true;
          pending_open = -1;
        } else {
          Break(why);  // unattributable: treat the connection as unusable
        }
        return;
      }
      case server::ServerMessageKind::kSessionClosed: {
        auto it = by_server_id.find(m.session);
        if (it == by_server_id.end()) return;
        SessionRecord& s = sessions[it->second];
        s.closed = true;
        live->Add(-static_cast<int64_t>(s.pool_rows));
        by_server_id.erase(it);
        return;
      }
      case server::ServerMessageKind::kPong:
        if (ping_outstanding && m.nonce == ping_nonce) {
          ping_outstanding = false;
          ping_rtt_us.push_back(SecondsBetween(ping_sent, now) * 1e6);
        }
        return;
      case server::ServerMessageKind::kSessionResumed:
        return;
    }
  }

  /// Pumps until `done()` or the I/O deadline.
  template <typename Pred>
  bool PumpUntil(Pred done) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(kIoTimeoutMs);
    while (!done() && !broken) {
      if (Clock::now() >= deadline) return false;
      Pump(100);
    }
    return done();
  }

  bool OpenBlocking(int s) {
    SendOpen(s);
    if (!PumpUntil([&] { return pending_open != s; })) {
      Break("open timed out");
    }
    return sessions[s].opened;
  }

  void QueryBlocking(int q) {
    SendQuery(q);
    if (!PumpUntil([&] { return queries[q].done || queries[q].failed; })) {
      Break("query timed out");
    }
  }

  void CloseBlocking(int s) {
    if (!sessions[s].opened || sessions[s].closed) return;
    SendClose(s);
    PumpUntil([&] { return sessions[s].closed; });
  }

  void PingBlocking() {
    SendPing();
    PumpUntil([&] { return !ping_outstanding; });
  }

  // ---- workload loops -----------------------------------------------------

  /// cold_churn (`own_seed`) and shared_churn (server-default seed).
  void RunChurn(bool own_seed) {
    for (int n = 0; !broken && Clock::now() < window_end; ++n) {
      if (n % 4 == 0) PingBlocking();
      const uint64_t seed = session_rng.NextUint64() | 1;
      const int s = NewSession(own_seed ? seed : 0, kColdInitial, kColdMax);
      if (!OpenBlocking(s)) {
        // A refused open is an attempted query that failed.
        const int q = NewQuery(s, fresh->Next(), kColdCi, Clock::now());
        ++open_queries[s];
        Fail(q, "session open failed");
        continue;
      }
      const int q = NewQuery(s, fresh->Next(), kColdCi, Clock::now());
      QueryBlocking(q);
      CloseBlocking(s);
    }
  }

  void RunWarmScan() {
    const int s = 0;  // opened by Prewarm
    if (!sessions[s].opened) {
      const int q = NewQuery(s, fresh->Next(), kWarmCi, Clock::now());
      ++open_queries[s];
      Fail(q, "session open failed");
      return;
    }
    for (int n = 1; !broken && Clock::now() < window_end; ++n) {
      const int q = NewQuery(s, fresh->Next(), kWarmCi, Clock::now());
      QueryBlocking(q);
      if (n % kWarmPingEvery == 0) PingBlocking();
    }
    CloseBlocking(s);
  }

  void RunOpenMix(Clock::time_point t0) {
    std::map<int, int> session_of;  // ordinal -> session index
    size_t next = 0;
    Clock::time_point next_ping = t0;
    const Clock::time_point hard_stop =
        window_end + std::chrono::milliseconds(static_cast<int>(kDrainSeconds * 1e3));
    auto due_of = [&](size_t i) {
      return t0 + std::chrono::nanoseconds(
                      static_cast<int64_t>(arrivals[i].offset_s * 1e9));
    };
    auto session_at = [&](size_t i) {
      auto it = session_of.find(arrivals[i].session_ordinal);
      return it == session_of.end() ? -1 : it->second;
    };
    auto query_of = [&](int session, size_t i) {
      return NewQuery(session, (*query_set)[arrivals[i].query], arrivals[i].ci,
                      due_of(i));
    };
    while (!broken) {
      Clock::time_point now = Clock::now();
      // The next arrival's session is opened as soon as its predecessor has
      // sent its last query, so churn overlaps the old session's drain.
      if (next < arrivals.size() && pending_open < 0 && session_at(next) < 0) {
        const int s = NewSession(0, kMixInitial, kMixMax);
        session_of[arrivals[next].session_ordinal] = s;
        SendOpen(s);
      }
      while (next < arrivals.size() && due_of(next) <= now) {
        const int s = session_at(next);
        if (s < 0) break;
        if (sessions[s].failed) {  // refused open: its queries fail, counted
          const int q = query_of(s, next++);
          ++open_queries[s];
          Fail(q, "session open failed");
          continue;
        }
        if (!sessions[s].opened) break;  // queued until the open lands
        SendQuery(query_of(s, next++));
      }
      // Close every session whose queries are all sent and finished.
      const int current = next < arrivals.size() ? session_at(next) : -1;
      bool all_closed = true;
      for (const auto& [ordinal, s] : session_of) {
        SessionRecord& rec = sessions[s];
        if (!rec.opened || rec.closed) continue;
        all_closed = false;
        if (s != current && open_queries[s] == 0 && !closing.count(s)) {
          closing.insert(s);
          SendClose(s);
        }
      }
      now = Clock::now();
      if (!ping_outstanding && now >= next_ping) {
        SendPing();
        next_ping = now + std::chrono::milliseconds(
                              static_cast<int>(kMixPingPeriodS * 1e3));
      }
      if (next >= arrivals.size() && inflight.empty() && pending_open < 0 &&
          all_closed) {
        break;
      }
      if (now >= hard_stop) {
        for (auto& [channel, f] : inflight) Fail(f.query, "never finished");
        inflight.clear();
        break;
      }
      double wait_ms = 20.0;
      if (next < arrivals.size() && session_at(next) >= 0 &&
          sessions[session_at(next)].opened) {
        wait_ms = std::min(wait_ms, MillisBetween(now, due_of(next)));
      }
      if (wait_ms <= 0.0) continue;
      if (wait_ms < 1.5) {
        // Receive() only polls with whole-millisecond deadlines. Sleep most
        // of the remainder and spin the last 200 us: sleep wake-ups
        // overshoot by tens of microseconds, which would otherwise add
        // generator lag to every latency.
        const Clock::time_point due = due_of(next);
        std::this_thread::sleep_until(due - std::chrono::microseconds(200));
        while (Clock::now() < due) {
        }
        continue;
      }
      Pump(static_cast<int>(wait_ms));
    }
    if (broken) {
      // Arrivals never sent because the connection died still count.
      for (; next < arrivals.size(); ++next) {
        const int s = session_at(next) >= 0 ? session_at(next)
                                            : NewSession(0, kMixInitial, kMixMax);
        const int q = query_of(s, next);
        ++open_queries[s];
        Fail(q, "connection lost before send");
      }
    }
  }
};

Load::Load(Workload workload, uint64_t seed, Fixture* fixture)
    : workload_(workload),
      seed_(seed),
      fixture_(fixture),
      live_(std::make_unique<LiveRows>()) {}

Load::~Load() = default;

util::Status Load::Prewarm() {
  for (int c = 0; c < kConnections; ++c) {
    auto client = std::make_unique<Client>();
    client->index = c;
    client->fx = fixture_;
    client->live = live_.get();
    DEEPAQP_RETURN_IF_ERROR(client->sock.Connect("127.0.0.1", fixture_->port(), 2000));
    clients_.push_back(std::move(client));
  }
  if (workload_ != Workload::kWarmScan) return util::Status::OK();
  // Four concurrent opens, as four users arriving at once would: the pools
  // grow in parallel on the server's shared thread pool.
  std::vector<std::thread> threads;
  for (auto& client : clients_) {
    threads.emplace_back([&client] {
      const int s = client->NewSession(0, kWarmPoolRows, kWarmPoolRows);
      client->OpenBlocking(s);
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& client : clients_) {
    if (!client->sessions[0].opened) {
      return util::Status::Internal("warm_scan prewarm: session open failed");
    }
  }
  return util::Status::OK();
}

void Load::Prepare(double warmup_s, double seconds) {
  const relation::Table& census = fixture_->census();
  std::vector<std::string>& mix_set = mix_set_;
  if (workload_ == Workload::kOpenMix) {
    data::WorkloadConfig wc;
    wc.num_queries = kMixQuerySet;
    wc.seed = Mix(seed_, 0x5e7);
    mix_set.clear();
    for (const auto& q : data::GenerateWorkload(census, wc)) {
      mix_set.push_back(q.ToString(census.schema()));
    }
  }
  // Zipf(s) CDF over the query set's ranks (rank = generation order).
  std::vector<double> zipf_cdf;
  double norm = 0.0;
  for (size_t i = 0; i < mix_set.size(); ++i) {
    norm += 1.0 / std::pow(static_cast<double>(i + 1), kMixZipfS);
    zipf_cdf.push_back(norm);
  }
  for (double& v : zipf_cdf) v /= norm;

  std::vector<std::thread> threads;
  for (auto& owned : clients_) {
    Client* client = owned.get();
    const uint64_t cseed = Mix(seed_, client->index + 1);
    client->session_rng = util::Rng(Mix(cseed, 0xc01d));
    switch (workload_) {
      case Workload::kColdChurn:
      case Workload::kSharedChurn:
      case Workload::kWarmScan: {
        client->fresh = std::make_unique<FreshQueries>(&census, cseed);
        // Enough for the measured rate with headroom; the stream extends
        // itself (inside the loop) if a faster machine outruns it.
        const double per_s = workload_ == Workload::kWarmScan ? 1500.0 : 60.0;
        const size_t n = static_cast<size_t>(per_s * (warmup_s + seconds));
        threads.emplace_back([client, n] { client->fresh->Fill(n); });
        break;
      }
      case Workload::kOpenMix: {
        client->query_set = &mix_set;
        util::Rng rng(Mix(cseed, 0xa441));
        const double rate = kMixRateQps / kConnections;
        double t = 0.0;
        int ordinal = 0;
        int left = 0;
        const double p = 1.0 / kMixMeanSessionQueries;
        for (;;) {
          t += rng.Exponential(rate);
          if (t >= warmup_s + seconds) break;
          if (left == 0) {  // geometric session length, mean 1/p
            left = 1 + static_cast<int>(std::floor(
                           std::log(std::max(rng.NextDouble(), 1e-300)) /
                           std::log(1.0 - p)));
            ++ordinal;
          }
          --left;
          Arrival a;
          a.offset_s = t;
          a.query = static_cast<size_t>(
              std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(),
                               rng.NextDouble()) -
              zipf_cdf.begin());
          a.query = std::min(a.query, mix_set.size() - 1);
          a.ci = rng.Bernoulli(kMixTightShare) ? kMixTightCi : kMixLooseCi;
          a.session_ordinal = ordinal;
          client->arrivals.push_back(a);
        }
        break;
      }
    }
  }
  for (std::thread& t : threads) t.join();
}

RunLog Load::Run(double warmup_s, double seconds) {
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point window_start =
      t0 + std::chrono::nanoseconds(static_cast<int64_t>(warmup_s * 1e9));
  const Clock::time_point window_end =
      window_start + std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9));
  std::vector<std::thread> threads;
  for (auto& owned : clients_) {
    Client* client = owned.get();
    client->window_start = window_start;
    client->window_end = window_end;
    threads.emplace_back([this, client, t0] {
      std::this_thread::sleep_until(t0);
      switch (workload_) {
        case Workload::kColdChurn:
        case Workload::kSharedChurn:
          client->RunChurn(workload_ == Workload::kColdChurn);
          break;
        case Workload::kWarmScan:
          client->RunWarmScan();
          break;
        case Workload::kOpenMix:
          client->RunOpenMix(t0);
          break;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  RunLog log;
  log.window_start = window_start;
  log.window_end = window_end;
  for (auto& client : clients_) {
    const int session_base = static_cast<int>(log.sessions.size());
    const int query_base = static_cast<int>(log.queries.size());
    for (SessionRecord s : client->sessions) {
      for (int& q : s.queries) q += query_base;
      log.sessions.push_back(std::move(s));
    }
    for (QueryRecord q : client->queries) {
      q.session += session_base;
      log.queries.push_back(std::move(q));
    }
    log.ping_rtt_us.insert(log.ping_rtt_us.end(), client->ping_rtt_us.begin(),
                           client->ping_rtt_us.end());
    log.lag_ms.insert(log.lag_ms.end(), client->lag_ms.begin(),
                      client->lag_ms.end());
    log.queue_depth.insert(log.queue_depth.end(), client->queue_depth.begin(),
                           client->queue_depth.end());
    log.busy_rejects += client->busy_rejects;
    if (client->broken) {
      ++log.connection_losses;
      std::fprintf(stderr, "aqpbench: client %d connection failed: %s\n",
                   client->index, client->broken_why.c_str());
    }
  }
  log.pool_mb_live_peak = static_cast<double>(live_->peak.load()) *
                          BytesPerRow(fixture_->census().schema()) / 1e6;
  log.offered_qps = workload_ == Workload::kOpenMix ? kMixRateQps : 0.0;
  return log;
}

}  // namespace aqpbench
