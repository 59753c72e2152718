#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>

#include "aqp/engine.h"
#include "aqp/executor.h"
#include "aqp/sql_parser.h"
#include "checks.h"
#include "nn/arena.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "server/channel.h"
#include "server/wire.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aqpbench {

using namespace deepaqp;

const char* SpanNameString(SpanName name) {
  static const char* const kNames[] = {
      "tcp.query",      "tcp.start_wait", "replay.query",   "replay.open",
      "vae.generate",   "aqp.parse",      "aqp.filter",     "aqp.aggregate",
      "aqp.finalize",   "wire.encode",    "wire.decode",    "wire.control",
      "server.channel", "vae.prior",      "nn.decoder",     "vae.vrs",
      "encoding.decode", "relation.append"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(SpanName::kCount));
  return kNames[static_cast<size_t>(name)];
}

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

int Tracer::Begin(SpanName name, int64_t query) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.query = query;
  s.start_ns = NowNs();
  spans_.push_back(s);
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::End(int span) {
  if (span < 0) return;
  spans_[span].end_ns = NowNs();
  stack_.pop_back();
}

void Tracer::Add(SpanName name, int64_t query, int32_t parent,
                 Clock::time_point a, Clock::time_point b) {
  if (!enabled_) return;
  spans_.push_back(Span{name, parent, query, ToNs(a), ToNs(b)});
}

std::vector<int64_t> Tracer::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[spans_[i].parent] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

bool Tracer::WriteJsonl(const std::string& path, const char* workload,
                        uint64_t seed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": %zu}\n",
               workload, static_cast<unsigned long long>(seed), spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"query\": %lld, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 i, SpanNameString(s.name), s.parent,
                 static_cast<long long>(s.query),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

namespace {

/// RAII span.
class Scope {
 public:
  Scope(Tracer* t, SpanName name, int64_t query)
      : t_(t), id_(t->Begin(name, query)) {}
  ~Scope() { t_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Threshold resolution of AqpClient (NaN option = model default; a NaN
/// default degrades to accept-all).
double ResolveT(double requested, double default_t) {
  const double t = std::isnan(requested) ? default_t : requested;
  return std::isnan(t) ? vae::kTPlusInf : t;
}

std::string PredicateKey(const aqp::Predicate& pred) {
  std::string key = pred.conjunctive ? "&" : "|";
  for (const aqp::Condition& c : pred.conditions) {
    uint64_t bits = 0;
    std::memcpy(&bits, &c.value, sizeof(bits));
    key += ";" + std::to_string(c.attr) + "," +
           std::to_string(static_cast<int>(c.op)) + "," + std::to_string(bits);
  }
  return key;
}

std::string AggKey(const aqp::AggregateQuery& q) {
  return std::to_string(static_cast<int>(q.agg)) + "/" +
         std::to_string(q.measure_attr) + "/" +
         std::to_string(q.group_by_attr) + ":" + PredicateKey(q.filter);
}

/// Work counters of one replay.
struct ReplayCounts {
  size_t queries = 0;
  uint64_t rows_generated_in_queries = 0;
  uint64_t rows_generated = 0;
  uint64_t rows_filtered = 0;
  uint64_t rows_aggregated = 0;
  uint64_t frames = 0;
  uint64_t data_bytes = 0;
  size_t mismatches = 0;
};

/// AqpClient's pool + query cache rebuilt from public calls, so each call
/// into vae and aqp can carry its own span. Same rng draws, same growth
/// policy, same suffix-incremental cache: its estimates are checked
/// against the bytes the server streamed.
class ReplicaSession {
 public:
  ReplicaSession(const vae::VaeAqpModel& model,
                 const vae::AqpClient::Options& options, Tracer* tracer,
                 ReplayCounts* counts)
      : model_(model),
        options_(options),
        t_(ResolveT(options.t, model.default_t())),
        rng_(options.seed),
        pool_(model.tuple_encoder().schema()),
        tracer_(tracer),
        counts_(counts) {
    Scope open(tracer_, SpanName::kOpen, -1);
    GrowPool(options_.initial_samples, -1);
  }

  const relation::Table& pool() const { return pool_; }
  size_t pool_size() const { return pool_.num_rows(); }

  util::Result<aqp::QueryResult> RefineStep(const aqp::AggregateQuery& query,
                                            double max_ci, bool* final,
                                            int64_t qid) {
    DEEPAQP_ASSIGN_OR_RETURN(aqp::QueryResult result, Query(query, qid));
    bool tight = true;
    for (const auto& g : result.groups) {
      const double denom = std::abs(g.value);
      const double rel = denom > 0 ? g.ci_half_width / denom : g.ci_half_width;
      if (rel > max_ci) {
        tight = false;
        break;
      }
    }
    if (tight || pool_.num_rows() >= options_.max_samples) {
      *final = true;
      return result;
    }
    *final = false;
    GrowPool(pool_.num_rows() * 2, qid);
    return result;
  }

 private:
  struct FilterEntry {
    size_t rows_seen = 0;
    aqp::SelectionVector sel;
  };
  struct AggEntry {
    size_t rows_seen = 0;
    aqp::DenseGroupMoments acc;
  };

  void GrowPool(size_t target, int64_t qid) {
    target = std::min(target, options_.max_samples);
    const size_t n = pool_.num_rows();
    if (n >= target) return;
    Scope gen(tracer_, SpanName::kGenerate, qid);
    relation::Table extra = model_.Generate(target - n, t_, rng_);
    counts_->rows_generated += extra.num_rows();
    if (qid >= 0) counts_->rows_generated_in_queries += extra.num_rows();
    if (n == 0) {
      pool_ = std::move(extra);
    } else {
      (void)pool_.Append(extra);
    }
  }

  util::Result<aqp::QueryResult> Query(const aqp::AggregateQuery& query,
                                       int64_t qid) {
    DEEPAQP_RETURN_IF_ERROR(aqp::ValidateQuery(query, pool_));
    const size_t n = pool_.num_rows();
    const bool group_by = query.IsGroupBy();
    FilterEntry& filter = filters_[PredicateKey(query.filter)];
    if (filter.rows_seen < n) {
      Scope s(tracer_, SpanName::kFilter, qid);
      aqp::EvalPredicate(query.filter, pool_, filter.rows_seen, n, &filter.sel);
      counts_->rows_filtered += n - filter.rows_seen;
      filter.rows_seen = n;
    }
    AggEntry& agg = aggs_[AggKey(query)];
    if (agg.rows_seen < n) {
      Scope s(tracer_, SpanName::kAggregate, qid);
      const size_t groups =
          group_by ? static_cast<size_t>(pool_.Cardinality(
                         static_cast<size_t>(query.group_by_attr)))
                   : 1;
      agg.acc.EnsureGroups(std::max<size_t>(groups, 1),
                           query.agg == aqp::AggFunc::kQuantile);
      aqp::AccumulateSelected(query, pool_, filter.sel, agg.rows_seen, n,
                              &agg.acc);
      counts_->rows_aggregated += n - agg.rows_seen;
      agg.rows_seen = n;
    }
    Scope s(tracer_, SpanName::kFinalize, qid);
    return aqp::FinalizeEstimate(query, aqp::ToGroupMoments(agg.acc, group_by),
                                 n, options_.population_rows);
  }

  const vae::VaeAqpModel& model_;
  vae::AqpClient::Options options_;
  double t_;
  util::Rng rng_;
  relation::Table pool_;
  std::map<std::string, FilterEntry> filters_;
  std::map<std::string, AggEntry> aggs_;
  Tracer* tracer_;
  ReplayCounts* counts_;
};

/// Sessions the replay walks: a seeded subset of the run's sessions (those
/// whose first query finished), each as a prefix of its recorded queries.
struct ReplayPlan {
  std::vector<size_t> sessions;
  size_t max_queries_per_session = 0;
};

ReplayPlan PlanReplay(const RunLog& log, Workload workload, uint64_t seed) {
  ReplayPlan plan;
  size_t max_sessions = 0;
  switch (workload) {
    case Workload::kColdChurn:
    case Workload::kSharedChurn:
      max_sessions = 24;
      plan.max_queries_per_session = 1;
      break;
    case Workload::kWarmScan:
      max_sessions = 1;
      plan.max_queries_per_session = 400;
      break;
    case Workload::kOpenMix:
      max_sessions = 48;
      plan.max_queries_per_session = 1;
      break;
  }
  plan.sessions = ReplayableSessions(log, Mix(seed, 0x7ace), max_sessions);
  return plan;
}

/// One query through the serving path, as the server session and the
/// client would run it, with every layer call in its own span.
void ReplayQuery(ReplicaSession& session, const QueryRecord& rec, int64_t qid,
                 const server::ChannelProducer::Options& channel_options,
                 Tracer* tracer, ReplayCounts* counts) {
  Scope root(tracer, SpanName::kQuery, qid);
  const uint64_t channel = 1;
  {
    Scope s(tracer, SpanName::kWireControl, qid);
    server::ClientMessage m;
    m.kind = server::ClientMessageKind::kQuery;
    m.sql = rec.sql;
    m.max_relative_ci = rec.max_ci;
    m.channel = channel;
    auto decoded = server::DecodeClientMessage(server::EncodeClientMessage(m));
    (void)decoded;
  }
  util::Result<aqp::AggregateQuery> parsed = [&] {
    Scope s(tracer, SpanName::kParse, qid);
    return aqp::ParseSql(rec.sql, session.pool());
  }();
  if (!parsed.ok()) {
    ++counts->mismatches;
    return;
  }
  {
    Scope s(tracer, SpanName::kWireControl, qid);
    server::ServerMessage started;
    started.kind = server::ServerMessageKind::kQueryStarted;
    started.channel = channel;
    auto bytes = server::EncodeServerMessage(started);
    counts->data_bytes += bytes.size();
    (void)server::DecodeServerMessage(bytes);
  }
  server::ChannelProducer producer(channel, channel_options);
  server::ChannelConsumer consumer(channel);
  std::vector<uint8_t> last;
  uint32_t estimates = 0;
  bool final = false;
  while (!consumer.finished()) {
    while (!final && producer.CanPush()) {
      auto result = session.RefineStep(*parsed, rec.max_ci, &final, qid);
      if (!result.ok()) {
        ++counts->mismatches;
        return;
      }
      std::vector<uint8_t> payload;
      {
        Scope s(tracer, SpanName::kWireEncode, qid);
        server::Estimate est;
        est.pool_rows = session.pool_size();
        est.result = std::move(*result);
        payload = server::EncodeEstimate(est);
      }
      Scope s(tracer, SpanName::kChannel, qid);
      (void)producer.Push(std::move(payload), final);
    }
    std::vector<server::DataFrame> frames;
    {
      Scope s(tracer, SpanName::kChannel, qid);
      frames = producer.PollSend();
    }
    if (frames.empty()) break;  // nothing left to deliver: a stall
    for (server::DataFrame& frame : frames) {
      std::vector<uint8_t> bytes;
      {
        Scope s(tracer, SpanName::kWireEncode, qid);
        server::ServerMessage msg;
        msg.kind = server::ServerMessageKind::kData;
        msg.channel = frame.channel;
        msg.data = std::move(frame);
        bytes = server::EncodeServerMessage(msg);
      }
      ++counts->frames;
      counts->data_bytes += bytes.size();
      util::Result<server::ServerMessage> msg = [&] {
        Scope s(tracer, SpanName::kWireDecode, qid);
        return server::DecodeServerMessage(bytes);
      }();
      if (!msg.ok()) {
        ++counts->mismatches;
        return;
      }
      std::vector<std::vector<uint8_t>> delivered;
      server::AckFrame ack;
      {
        Scope s(tracer, SpanName::kChannel, qid);
        consumer.OnData(msg->data);
        delivered = consumer.TakeDelivered();
        ack = consumer.MakeAck();
      }
      {
        Scope s(tracer, SpanName::kWireDecode, qid);
        for (auto& p : delivered) {
          (void)server::DecodeEstimate(p);
          ++estimates;
          last = std::move(p);
        }
      }
      {
        Scope s(tracer, SpanName::kWireControl, qid);
        server::ClientMessage m;
        m.kind = server::ClientMessageKind::kAck;
        m.ack = ack;
        auto decoded =
            server::DecodeClientMessage(server::EncodeClientMessage(m));
        if (decoded.ok()) ack = decoded->ack;
      }
      Scope s(tracer, SpanName::kChannel, qid);
      producer.OnAck(ack);
      producer.Tick();
    }
  }
  ++counts->queries;
  if (estimates != rec.estimates || last != rec.final_payload) {
    ++counts->mismatches;
  }
}

ReplayCounts Replay(Fixture& fixture, const RunLog& log, const ReplayPlan& plan,
                    Tracer* tracer) {
  ReplayCounts counts;
  for (size_t s : plan.sessions) {
    const SessionRecord& rec = log.sessions[s];
    ReplicaSession session(
        fixture.model(), EffectiveOptions(fixture.server_options().client, rec),
        tracer, &counts);
    size_t n = 0;
    for (int qi : rec.queries) {
      const QueryRecord& q = log.queries[qi];
      if (!q.done || n++ >= plan.max_queries_per_session) break;
      ReplayQuery(session, q, qi, fixture.server_options().channel, tracer,
                  &counts);
    }
  }
  return counts;
}

/// Generation stages, one public call at a time (the caller runs it with a
/// one-thread pool, so Generate is serial too): chunk by
/// chunk exactly as VaeAqpModel::Generate cuts and seeds its work, window by
/// window exactly as its chunk loop runs (healthy path). The rows produced
/// are compared with a serial Generate of the same request.
struct StageResult {
  double generate_serial_s = 0.0;
  size_t candidates = 0;
  size_t accepted = 0;
  size_t rows = 0;
  bool identical = false;
  double stage_s[5] = {0, 0, 0, 0, 0};  // prior, decoder, vrs, decode, append
};

relation::Table EmptySampleTable(const encoding::TupleEncoder& encoder) {
  relation::Table out(encoder.schema());
  for (size_t c = 0; c < encoder.schema().num_attributes(); ++c) {
    if (encoder.schema().IsCategorical(c)) {
      out.DeclareCardinality(c, encoder.layout()[c].cardinality);
      for (const std::string& label : encoder.layout()[c].labels) {
        out.InternLabel(c, label);
      }
    }
  }
  return out;
}

StageResult StageReplay(vae::VaeAqpModel& model, uint64_t seed, Tracer* tracer) {
  // Generate's chunk size (vae_model.cc kGenerateChunkRows); the replay
  // mirrors it so each chunk's rng stream is the one Generate uses.
  constexpr size_t kChunkRows = 512;
  constexpr size_t kRows = 16 * kChunkRows;
  StageResult out;
  const double t = ResolveT(std::nan(""), model.default_t());
  const vae::VaeNet& net = model.net();
  const encoding::TupleEncoder& encoder = model.tuple_encoder();

  relation::Table reference = EmptySampleTable(encoder);
  out.generate_serial_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    util::Rng rng(seed);
    const Clock::time_point a = Clock::now();
    reference = model.Generate(kRows, t, rng);
    out.generate_serial_s =
        std::min(out.generate_serial_s, SecondsBetween(a, Clock::now()));
  }

  util::Rng rng(seed);
  const uint64_t master = rng.NextUint64();
  relation::Table all = EmptySampleTable(encoder);
  const bool reject = t != vae::kTPlusInf;
  nn::ScratchArena arena;
  nn::Matrix z, logits, bits, ratio, kept;
  vae::VaeNet::Posterior post;
  std::vector<size_t> accepted;
  std::vector<size_t> finite_rows;
  auto timed = [&](int stage, SpanName name, auto&& fn) {
    Scope s(tracer, name, -2);
    const Clock::time_point a = Clock::now();
    fn();
    out.stage_s[stage] += SecondsBetween(a, Clock::now());
  };
  for (size_t c = 0; c * kChunkRows < kRows; ++c) {
    const size_t n = std::min(kChunkRows, kRows - c * kChunkRows);
    util::Rng chunk_rng = util::Rng::ChildStream(master, c);
    relation::Table chunk = EmptySampleTable(encoder);
    const size_t window = std::max<size_t>(128, std::min<size_t>(1024, n));
    while (chunk.num_rows() < n) {
      const size_t remaining = n - chunk.num_rows();
      const size_t batch = std::min(window, std::max<size_t>(remaining, 64));
      timed(0, SpanName::kPrior,
            [&] { net.SamplePriorInto(batch, chunk_rng, &z); });
      timed(1, SpanName::kDecoder,
            [&] { net.DecodeLogitsConstInto(z, &logits, &arena); });
      timed(2, SpanName::kVrs, [&] {
        accepted.clear();
        if (!reject) {
          accepted.resize(batch);
          std::iota(accepted.begin(), accepted.end(), 0);
        } else {
          bits.Resize(batch, logits.cols());
          nn::SigmoidBernoulliVec(logits.data(), bits.size(), chunk_rng,
                                  bits.data());
          net.EncodeConstInto(bits, &post, &arena);
          net.LogRatioRowsConstInto(bits, post, z, &ratio, &arena);
          size_t best = 0;
          bool have_best = false;
          for (size_t i = 0; i < batch; ++i) {
            const double r = ratio.At(i, 0);
            if (!std::isfinite(r)) continue;
            if (!have_best || r > ratio.At(best, 0)) {
              best = i;
              have_best = true;
            }
            if (t == vae::kTMinusInf) continue;
            const double log_a = std::min(0.0, t + r);
            if (std::log(std::max(chunk_rng.NextDouble(), 1e-300)) <= log_a) {
              accepted.push_back(i);
            }
          }
          if (accepted.empty() && have_best) accepted.push_back(best);
        }
        if (accepted.size() > remaining) accepted.resize(remaining);
        logits.GatherRowsInto(accepted, &kept);
      });
      out.candidates += batch;
      out.accepted += accepted.size();
      if (accepted.empty()) break;  // unhealthy model: Generate would degrade
      relation::Table decoded = EmptySampleTable(encoder);
      timed(3, SpanName::kDecode, [&] {
        decoded = encoder.DecodeLogits(kept, model.options().decode, chunk_rng);
        finite_rows.clear();
        for (size_t r = 0; r < decoded.num_rows(); ++r) {
          bool finite = true;
          for (size_t col = 0; col < decoded.num_attributes(); ++col) {
            if (!decoded.schema().IsCategorical(col) &&
                !std::isfinite(decoded.NumValue(r, col))) {
              finite = false;
              break;
            }
          }
          if (finite) finite_rows.push_back(r);
        }
        if (finite_rows.size() != decoded.num_rows()) {
          decoded = decoded.Gather(finite_rows);
        }
      });
      if (decoded.num_rows() == 0) break;
      timed(4, SpanName::kAppend, [&] { (void)chunk.Append(decoded); });
    }
    (void)all.Append(chunk);
  }
  out.rows = all.num_rows();

  out.identical = all.num_rows() == reference.num_rows() &&
                  all.num_attributes() == reference.num_attributes();
  for (size_t r = 0; out.identical && r < all.num_rows(); ++r) {
    for (size_t c = 0; c < all.num_attributes(); ++c) {
      const double x = all.CellAsDouble(r, c);
      const double y = reference.CellAsDouble(r, c);
      if (std::memcmp(&x, &y, sizeof(x)) != 0) {
        out.identical = false;
        break;
      }
    }
  }
  return out;
}

double SafeDiv(double a, double b) { return b > 0 ? a / b : 0.0; }

}  // namespace

TraceReport TracedPass(Fixture& fixture, const RunLog& log, Workload workload,
                       uint64_t seed, const std::string& trace_path) {
  const ReplayPlan plan = PlanReplay(log, workload, seed);

  // A server strand runs a session's work inside a pool task, where the
  // nested ParallelFor of Generate runs inline: one core per session. The
  // replay runs on one thread too, so its costs are the ones the TCP run
  // paid.
  const int threads = util::GlobalThreads();
  util::SetGlobalThreads(1);

  // Overhead: the same replay with the recorder off and on, twice each,
  // alternating; the faster of each pair of runs is compared.
  double untraced_s = std::numeric_limits<double>::infinity();
  double traced_s = std::numeric_limits<double>::infinity();
  Tracer tracer(true);
  ReplayCounts counts;
  for (int rep = 0; rep < 2; ++rep) {
    Tracer off(false);
    Clock::time_point a = Clock::now();
    Replay(fixture, log, plan, &off);
    untraced_s = std::min(untraced_s, SecondsBetween(a, Clock::now()));
    Tracer on(true);
    a = Clock::now();
    ReplayCounts c = Replay(fixture, log, plan, &on);
    const double s = SecondsBetween(a, Clock::now());
    if (s < traced_s) {
      traced_s = s;
      tracer = std::move(on);
      counts = c;
    }
  }

  // Spans of the TCP run itself (free: the timestamps already exist).
  for (size_t i = 0; i < log.queries.size(); ++i) {
    const QueryRecord& q = log.queries[i];
    if (!q.done) continue;
    const int root = static_cast<int>(tracer.spans().size());
    tracer.Add(SpanName::kTcpQuery, static_cast<int64_t>(i), -1, q.due, q.final);
    if (q.is_started) {
      tracer.Add(SpanName::kTcpStartWait, static_cast<int64_t>(i), root, q.sent,
                 q.started);
    }
  }

  const StageResult stages = StageReplay(fixture.model(), Mix(seed, 0x57a6e),
                                         &tracer);
  util::SetGlobalThreads(threads);

  // Self times per layer, overall and per replayed query.
  const std::vector<int64_t> self = tracer.SelfTimes();
  constexpr size_t kNames = static_cast<size_t>(SpanName::kCount);
  double total_s[kNames] = {};
  size_t count[kNames] = {};
  std::map<int64_t, double> gen_q, aqp_q, srv_q;
  for (size_t i = 0; i < self.size(); ++i) {
    const Span& s = tracer.spans()[i];
    const size_t k = static_cast<size_t>(s.name);
    const double sec = static_cast<double>(self[i]) * 1e-9;
    total_s[k] += sec;
    ++count[k];
    if (s.query < 0) continue;
    switch (s.name) {
      case SpanName::kGenerate:
        gen_q[s.query] += sec;
        break;
      case SpanName::kParse:
      case SpanName::kFilter:
      case SpanName::kAggregate:
      case SpanName::kFinalize:
        aqp_q[s.query] += sec;
        break;
      case SpanName::kWireEncode:
      case SpanName::kWireDecode:
      case SpanName::kWireControl:
      case SpanName::kChannel:
        srv_q[s.query] += sec;
        break;
      default:
        break;
    }
  }
  // The server share adds what the replay cannot see: transport plus strand
  // queue wait, measured on the TCP run from send to kQueryStarted.
  double gen_sum = 0.0, aqp_sum = 0.0, srv_sum = 0.0;
  for (const auto& [qid, aqp_s] : aqp_q) {
    const QueryRecord& q = log.queries[static_cast<size_t>(qid)];
    const double wait = q.is_started ? SecondsBetween(q.sent, q.started) : 0.0;
    gen_sum += gen_q[qid];
    aqp_sum += aqp_s;
    srv_sum += srv_q[qid] + wait;
  }
  const double share_total = gen_sum + aqp_sum + srv_sum;
  auto t = [&](SpanName n) { return total_s[static_cast<size_t>(n)]; };
  auto c = [&](SpanName n) {
    return static_cast<double>(count[static_cast<size_t>(n)]);
  };
  const double stage_sum = stages.stage_s[0] + stages.stage_s[1] +
                           stages.stage_s[2] + stages.stage_s[3] +
                           stages.stage_s[4];
  const double cand = static_cast<double>(stages.candidates);
  const double rows = static_cast<double>(stages.rows);
  const double queries = static_cast<double>(counts.queries);

  if (!trace_path.empty() &&
      !tracer.WriteJsonl(trace_path, WorkloadName(workload), seed)) {
    std::fprintf(stderr, "aqpbench: cannot write %s\n", trace_path.c_str());
  }
  TraceReport report;
  report.replay_mismatches = counts.mismatches;
  report.stage_identical = stages.identical;
  std::vector<Metric>& m = report.metrics;
  m.push_back({"gen.rows_per_query", "rows",
                 SafeDiv(static_cast<double>(counts.rows_generated_in_queries),
                         queries)});
  m.push_back({"gen.us_per_row", "us",
                 SafeDiv(t(SpanName::kGenerate) * 1e6,
                         static_cast<double>(counts.rows_generated))});
  m.push_back({"vrs.accept_rate", "frac", SafeDiv(static_cast<double>(stages.accepted), cand)});
  m.push_back({"vae.prior_us_per_cand", "us", SafeDiv(stages.stage_s[0] * 1e6, cand)});
  m.push_back({"nn.decoder_us_per_cand", "us", SafeDiv(stages.stage_s[1] * 1e6, cand)});
  m.push_back({"vae.vrs_us_per_cand", "us", SafeDiv(stages.stage_s[2] * 1e6, cand)});
  m.push_back({"encoding.decode_us_per_row", "us", SafeDiv(stages.stage_s[3] * 1e6, rows)});
  m.push_back({"relation.append_us_per_row", "us", SafeDiv(stages.stage_s[4] * 1e6, rows)});
  m.push_back({"gen.stage_residual_frac", "frac",
                 1.0 - SafeDiv(stage_sum, stages.generate_serial_s)});
  m.push_back({"gen.stage_replay_identical", "bool", stages.identical ? 1.0 : 0.0});
  m.push_back({"aqp.parse_us", "us", SafeDiv(t(SpanName::kParse) * 1e6, c(SpanName::kParse))});
  m.push_back({"aqp.filter_ns_per_row", "ns",
                 SafeDiv(t(SpanName::kFilter) * 1e9,
                         static_cast<double>(counts.rows_filtered))});
  m.push_back({"aqp.aggregate_ns_per_row", "ns",
                 SafeDiv(t(SpanName::kAggregate) * 1e9,
                         static_cast<double>(counts.rows_aggregated))});
  m.push_back({"aqp.finalize_us", "us",
                 SafeDiv(t(SpanName::kFinalize) * 1e6, c(SpanName::kFinalize))});
  const double frames = static_cast<double>(counts.frames);
  m.push_back({"wire.encode_us_per_frame", "us",
                 SafeDiv(t(SpanName::kWireEncode) * 1e6, frames)});
  m.push_back({"wire.decode_us_per_frame", "us",
                 SafeDiv(t(SpanName::kWireDecode) * 1e6, frames)});
  m.push_back({"wire.bytes_per_query", "B",
                 SafeDiv(static_cast<double>(counts.data_bytes), queries)});
  m.push_back({"trace.gen_share", "frac", SafeDiv(gen_sum, share_total)});
  m.push_back({"trace.aqp_share", "frac", SafeDiv(aqp_sum, share_total)});
  m.push_back({"trace.server_share", "frac", SafeDiv(srv_sum, share_total)});
  m.push_back({"trace.overhead_frac", "frac", SafeDiv(traced_s, untraced_s) - 1.0});
  m.push_back({"trace.replayed_queries", "count", queries});
  m.push_back({"trace.replay_mismatches", "count", static_cast<double>(counts.mismatches)});
  return report;
}

}  // namespace aqpbench
