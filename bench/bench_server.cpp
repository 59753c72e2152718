// Server daemon throughput/latency: N concurrent sessions, each streaming
// precision-on-demand queries to completion (every DATA frame acked by the
// client thread). Reports queries/sec and tail latency per session count,
// for the in-process pipe transport and for real loopback TCP (full wire
// encode/decode + socket supervision), so the transport overhead is a
// measured number rather than folklore.
//
//   bench_server [--sessions 8] [--queries 16] [--rows N] [--epochs N]
//                [--quick] [--json] [--quant off|fp16|int8] [--quant_sweep]
//                [--transport pipe|tcp|all]
//
// --json writes BENCH_server.json with one record per (quant mode,
// transport, session count), carrying queries_per_sec and p50/p99 latency
// in milliseconds.
// --quant selects the decoder quantization the server generates under;
// --quant_sweep runs off/fp16/int8 in turn for a direct fp32-vs-quantized
// serving comparison (modes whose kernel self-check fails on this CPU are
// skipped with a note).

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

#include "nn/kernels_quant.h"
#include "server/server.h"
#include "server/socket_client.h"
#include "server/socket_transport.h"
#include "server/transport.h"
#include "util/flags.h"
#include "util/timer.h"
#include "vae/vae_model.h"

namespace deepaqp {
namespace {

struct QuerySpec {
  std::string sql;
  double max_relative_ci;
};

std::vector<QuerySpec> Workload() {
  return {
      {"SELECT AVG(fare) FROM R WHERE trip_distance > 1", 0.05},
      {"SELECT COUNT(*) FROM R WHERE passengers >= 2", 0.08},
      {"SELECT SUM(fare) FROM R WHERE duration_min > 10", 0.08},
      {"SELECT AVG(duration_min) FROM R WHERE trip_distance > 2", 0.05},
  };
}

/// Opens a session and runs `queries` to completion, acking every frame;
/// appends one wall-clock latency (seconds) per query.
void DriveSession(server::AqpServer& srv, const std::vector<QuerySpec>& queries,
                  std::vector<double>* latencies) {
  auto pipe = std::make_shared<server::PipeTransport>();
  server::ClientMessage open;
  open.kind = server::ClientMessageKind::kOpenSession;
  open.model_name = "bench";
  srv.Handle(open, pipe);
  server::ServerMessage opened = pipe->Pop();
  if (opened.kind != server::ServerMessageKind::kSessionOpened) {
    std::fprintf(stderr, "open failed: %s\n", opened.message.c_str());
    return;
  }
  const uint64_t session = opened.session;

  for (const QuerySpec& spec : queries) {
    util::Stopwatch watch;
    server::ClientMessage query;
    query.kind = server::ClientMessageKind::kQuery;
    query.session = session;
    query.sql = spec.sql;
    query.max_relative_ci = spec.max_relative_ci;
    srv.Handle(query, pipe);

    server::ServerMessage first;
    do {
      first = pipe->Pop();
    } while (first.kind == server::ServerMessageKind::kData);
    if (first.kind != server::ServerMessageKind::kQueryStarted) {
      std::fprintf(stderr, "query failed: %s\n", first.message.c_str());
      return;
    }
    server::ChannelConsumer consumer(first.channel);
    while (!consumer.finished()) {
      server::ServerMessage msg = pipe->Pop();
      if (msg.kind != server::ServerMessageKind::kData ||
          msg.channel != first.channel) {
        if (msg.kind == server::ServerMessageKind::kError) {
          std::fprintf(stderr, "stream failed: %s\n", msg.message.c_str());
          return;
        }
        continue;
      }
      consumer.OnData(msg.data);
      consumer.TakeDelivered();
      server::ClientMessage ack;
      ack.kind = server::ClientMessageKind::kAck;
      ack.session = session;
      ack.ack = consumer.MakeAck();
      srv.Handle(ack, pipe);
    }
    latencies->push_back(watch.ElapsedSeconds());
  }
}

/// TCP counterpart of DriveSession: the same workload through a
/// RetryingConnection against the loopback SocketServer — real framing,
/// real acks, real sockets.
void DriveSessionTcp(uint16_t port, const std::vector<QuerySpec>& queries,
                     std::vector<double>* latencies) {
  server::RetryingConnection::Options copts;
  copts.port = port;
  server::RetryingConnection client(copts);
  if (const util::Status st = client.Connect(); !st.ok()) {
    std::fprintf(stderr, "tcp connect failed: %s\n", st.ToString().c_str());
    return;
  }
  if (const util::Status st = client.OpenSession("bench"); !st.ok()) {
    std::fprintf(stderr, "tcp open failed: %s\n", st.ToString().c_str());
    return;
  }
  for (const QuerySpec& spec : queries) {
    util::Stopwatch watch;
    auto stream = client.RunQuery(spec.sql, spec.max_relative_ci);
    if (!stream.ok()) {
      std::fprintf(stderr, "tcp stream failed: %s\n",
                   stream.status().ToString().c_str());
      return;
    }
    latencies->push_back(watch.ElapsedSeconds());
  }
  client.CloseSession();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(p * static_cast<double>(v.size())));
  return v[idx];
}

struct ServerRecord {
  int sessions = 0;
  int threads = 0;
  size_t queries = 0;
  double queries_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::string quant;      ///< decoder quantization mode of this pass
  std::string transport;  ///< "pipe" (in-process) or "tcp" (loopback)
};

}  // namespace
}  // namespace deepaqp

int main(int argc, char** argv) {
  using namespace deepaqp;
  util::Flags flags(argc, argv);
  if (const util::Status st = nn::ApplyRuntimeFlags(flags); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  const bool quick = flags.GetBool("quick", false);
  const bool json = flags.GetBool("json", false);
  const auto rows = static_cast<size_t>(flags.GetInt("rows", 4000));
  const int epochs = static_cast<int>(flags.GetInt("epochs", quick ? 5 : 8));
  const auto queries_per_session =
      static_cast<size_t>(flags.GetInt("queries", quick ? 8 : 16));
  const int max_sessions = static_cast<int>(flags.GetInt("sessions", 8));

  relation::Table table = bench::MakeDataset("taxi", rows, /*seed=*/21);
  vae::VaeAqpOptions vopts;
  vopts.epochs = epochs;
  vopts.hidden_dim = 48;
  vopts.seed = 77;
  vopts.encoder.numeric_bins = 16;
  auto model = vae::VaeAqpModel::Train(table, vopts);
  if (!model.ok()) {
    std::fprintf(stderr, "train failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  // Non-const handle: the quant sweep re-prepares the decoder plan between
  // passes; sessions still see it through a const shared_ptr.
  std::shared_ptr<vae::VaeAqpModel> owned = std::move(*model);
  std::shared_ptr<const vae::VaeAqpModel> shared = owned;

  std::vector<nn::QuantMode> quant_modes = {nn::ActiveQuantMode()};
  if (flags.GetBool("quant_sweep", false)) {
    quant_modes = {nn::QuantMode::kOff, nn::QuantMode::kFp16,
                   nn::QuantMode::kInt8};
  }

  // Cycle the workload out to the requested per-session query count.
  std::vector<QuerySpec> base = Workload();
  std::vector<QuerySpec> queries;
  for (size_t i = 0; i < queries_per_session; ++i) {
    queries.push_back(base[i % base.size()]);
  }

  std::vector<int> sweep;
  if (quick) {
    sweep = {4};
  } else {
    for (int s = 1; s <= max_sessions; s *= 2) sweep.push_back(s);
  }

  std::vector<std::string> transports;
  const std::string transport_flag = flags.GetString("transport", "all");
  if (transport_flag == "all") {
    transports = {"pipe", "tcp"};
  } else if (transport_flag == "pipe" || transport_flag == "tcp") {
    transports = {transport_flag};
  } else {
    std::fprintf(stderr, "bad --transport '%s' (pipe|tcp|all)\n",
                 transport_flag.c_str());
    return 2;
  }

  std::vector<ServerRecord> records;
  for (nn::QuantMode quant : quant_modes) {
    if (const util::Status st = owned->PrepareQuantized(quant); !st.ok()) {
      std::fprintf(stderr, "skipping quant=%s: %s\n",
                   nn::QuantModeName(quant), st.ToString().c_str());
      continue;
    }
    for (const std::string& transport : transports) {
      for (int sessions : sweep) {
        server::AqpServer::Options sopts;
        sopts.client.initial_samples = 400;
        sopts.client.max_samples = 6400;
        sopts.client.population_rows = rows;
        sopts.client.seed = 2027;
        server::AqpServer srv(sopts);
        srv.registry().Install("bench", shared);

        std::unique_ptr<server::SocketServer> sock;
        if (transport == "tcp") {
          server::SocketServer::Options tcp_opts;
          tcp_opts.port = 0;  // ephemeral
          sock = std::make_unique<server::SocketServer>(&srv, tcp_opts);
          if (const util::Status st = sock->Listen(); !st.ok()) {
            std::fprintf(stderr, "tcp listen failed: %s\n",
                         st.ToString().c_str());
            continue;
          }
          if (const util::Status st = sock->Start(); !st.ok()) {
            std::fprintf(stderr, "tcp start failed: %s\n",
                         st.ToString().c_str());
            continue;
          }
        }

        std::vector<std::vector<double>> latencies(sessions);
        util::Stopwatch wall;
        {
          std::vector<std::thread> clients;
          clients.reserve(sessions);
          for (int s = 0; s < sessions; ++s) {
            if (transport == "tcp") {
              const uint16_t port = sock->port();
              clients.emplace_back([port, &queries, &latencies, s] {
                DriveSessionTcp(port, queries, &latencies[s]);
              });
            } else {
              clients.emplace_back([&srv, &queries, &latencies, s] {
                DriveSession(srv, queries, &latencies[s]);
              });
            }
          }
          for (std::thread& t : clients) t.join();
        }
        const double elapsed = wall.ElapsedSeconds();
        if (sock != nullptr) sock->Shutdown();

        std::vector<double> all;
        for (const auto& per : latencies) {
          all.insert(all.end(), per.begin(), per.end());
        }
        ServerRecord r;
        r.sessions = sessions;
        r.threads = util::GlobalThreads();
        r.queries = all.size();
        r.queries_per_sec = elapsed > 0 ? all.size() / elapsed : 0.0;
        r.p50_ms = Percentile(all, 0.50) * 1e3;
        r.p99_ms = Percentile(all, 0.99) * 1e3;
        r.quant = nn::QuantModeName(quant);
        r.transport = transport;
        records.push_back(r);
        std::printf(
            "sessions=%-2d threads=%-2d quant=%-4s transport=%-4s "
            "queries=%-3zu qps=%8.2f p50=%7.2f ms p99=%7.2f ms\n",
            r.sessions, r.threads, r.quant.c_str(), r.transport.c_str(),
            r.queries, r.queries_per_sec, r.p50_ms, r.p99_ms);
        std::fflush(stdout);
      }
    }
  }
  if (json) {
    const char* path = "BENCH_server.json";
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"server\",\n  \"records\": [\n");
    for (size_t i = 0; i < records.size(); ++i) {
      const ServerRecord& r = records[i];
      std::fprintf(f,
                   "    {\"name\": \"serve_stream\", \"sessions\": %d, "
                   "\"threads\": %d, \"quant\": \"%s\", "
                   "\"transport\": \"%s\", "
                   "\"queries\": %zu, "
                   "\"queries_per_sec\": %.3f, \"p50_ms\": %.3f, "
                   "\"p99_ms\": %.3f}%s\n",
                   r.sessions, r.threads, r.quant.c_str(),
                   r.transport.c_str(), r.queries,
                   r.queries_per_sec, r.p50_ms, r.p99_ms,
                   i + 1 < records.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu records)\n", path, records.size());
  }
  return 0;
}
