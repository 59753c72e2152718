// deepaqp_cli — end-to-end command-line driver for the library.
//
//   deepaqp_cli make-data --dataset taxi|census|flights --rows N --out d.csv
//   deepaqp_cli train     --csv d.csv --types cat,cat,num,... --out m.bin
//                         [--epochs N] [--hidden N] [--depth N]
//                         [--encoding one-hot|binary|integer] [--bins N]
//   deepaqp_cli info      --model m.bin
//   deepaqp_cli generate  --model m.bin --n N --out samples.csv [--t X]
//   deepaqp_cli query     --model m.bin --population N --sql "SELECT ..."
//                         [--samples N] [--t X]
//   deepaqp_cli load-model --model m.bin [--degraded]
//   deepaqp_cli save-model --model m.bin --out m2.bin
//   deepaqp_cli serve      --model m.bin [--name default] [--text]
//                          [--samples N] [--max-samples N] [--population N]
//                          [--listen PORT] [--port-file f] [--heartbeat-ms N]
//                          [--max-sessions N] [--max-queued N] [--drain-ms N]
//   deepaqp_cli client     --port N --sql "SELECT ..." [--host H] [--ci X]
//                          [--name default] [--retries N]
//
// The `query` flow is the paper's client story: everything after `train`
// needs only the model file — never the data. `load-model` verifies a
// snapshot's checksums and prints loader stats; `save-model` re-encodes a
// verified model into a fresh current-format snapshot (atomic write).

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "aqp/estimator.h"
#include "aqp/sql_parser.h"
#include "data/generators.h"
#include "encoding/tuple_encoder.h"
#include "ensemble/ensemble_model.h"
#include "nn/runtime.h"
#include "relation/csv.h"
#include "server/server.h"
#include "server/socket_client.h"
#include "server/socket_transport.h"
#include "server/transport.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/serialize.h"
#include "util/snapshot.h"
#include "util/string_util.h"
#include "vae/vae_model.h"

using namespace deepaqp;  // NOLINT: tool brevity

namespace {

int Fail(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fputs(
      "usage: deepaqp_cli "
      "<make-data|train|info|generate|query|load-model|save-model|serve"
      "|client> "
      "[--flags]\n"
      "run with a command and no flags for that command's requirements\n"
      "global flags: --threads N, --pin off|compact|scatter, "
      "--kernel blocked|simd|auto, --quant off|fp16|int8, "
      "--failpoints SPEC\n",
      stderr);
  return 2;
}

relation::Table MakeDataset(const std::string& name, size_t rows) {
  if (name == "census") return data::GenerateCensus({.rows = rows});
  if (name == "flights") return data::GenerateFlights({.rows = rows});
  return data::GenerateTaxi({.rows = rows});
}

int CmdMakeData(const util::Flags& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fputs("make-data needs --out <file.csv>\n", stderr);
    return 2;
  }
  const auto rows = static_cast<size_t>(flags.GetInt("rows", 10000));
  relation::Table table =
      MakeDataset(flags.GetString("dataset", "taxi"), rows);
  auto status = relation::WriteCsv(table, out);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu rows x %zu attributes to %s\n", table.num_rows(),
              table.num_attributes(), out.c_str());
  return 0;
}

util::Result<relation::Schema> SchemaFromCsvHeader(
    const std::string& path, const std::string& types_csv) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return util::Status::IOError("cannot open " + path);
  char buf[1 << 16];
  if (std::fgets(buf, sizeof(buf), f) == nullptr) {
    std::fclose(f);
    return util::Status::InvalidArgument("empty CSV");
  }
  std::fclose(f);
  const auto names = util::Split(util::Trim(buf), ',');
  const auto types = util::Split(types_csv, ',');
  if (names.size() != types.size()) {
    return util::Status::InvalidArgument(
        "--types must list one of cat|num per CSV column (" +
        std::to_string(names.size()) + " columns found)");
  }
  relation::Schema schema;
  for (size_t i = 0; i < names.size(); ++i) {
    const std::string t = util::Trim(types[i]);
    if (t != "cat" && t != "num") {
      return util::Status::InvalidArgument("bad type '" + t +
                                           "' (use cat or num)");
    }
    DEEPAQP_RETURN_IF_ERROR(schema.AddAttribute(
        names[i], t == "cat" ? relation::AttrType::kCategorical
                             : relation::AttrType::kNumeric));
  }
  return schema;
}

int CmdTrain(const util::Flags& flags) {
  const std::string csv = flags.GetString("csv", "");
  const std::string types = flags.GetString("types", "");
  const std::string out = flags.GetString("out", "");
  if (csv.empty() || types.empty() || out.empty()) {
    std::fputs("train needs --csv, --types and --out\n", stderr);
    return 2;
  }
  auto schema = SchemaFromCsvHeader(csv, types);
  if (!schema.ok()) return Fail(schema.status());
  auto table = relation::ReadCsv(csv, *schema);
  if (!table.ok()) return Fail(table.status());

  vae::VaeAqpOptions options;
  options.epochs = static_cast<int>(flags.GetInt("epochs", 20));
  options.hidden_dim = static_cast<size_t>(flags.GetInt("hidden", 64));
  options.depth = static_cast<int>(flags.GetInt("depth", 2));
  options.encoder.numeric_bins = static_cast<int>(flags.GetInt("bins", 32));
  const std::string enc = flags.GetString("encoding", "binary");
  options.encoder.kind = enc == "one-hot"
                             ? encoding::EncodingKind::kOneHot
                             : (enc == "integer"
                                    ? encoding::EncodingKind::kInteger
                                    : encoding::EncodingKind::kBinary);

  std::printf("training on %zu rows (%s encoding, %d epochs)...\n",
              table->num_rows(), enc.c_str(), options.epochs);
  vae::TrainingStats stats;
  auto model = vae::VaeAqpModel::Train(*table, options, &stats);
  if (!model.ok()) return Fail(model.status());
  auto bytes = (*model)->Serialize();
  auto status = util::AtomicWriteFile(out, bytes);
  if (!status.ok()) return Fail(status);
  std::printf("trained in %.1fs; wrote %.1f KB model to %s (T = %.2f)\n",
              stats.total_seconds, bytes.size() / 1024.0, out.c_str(),
              (*model)->default_t());
  return 0;
}

util::Result<std::unique_ptr<vae::VaeAqpModel>> LoadModel(
    const util::Flags& flags) {
  const std::string path = flags.GetString("model", "");
  if (path.empty()) {
    return util::Status::InvalidArgument("missing --model <file>");
  }
  DEEPAQP_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                           util::ReadFile(path));
  return vae::VaeAqpModel::Deserialize(bytes);
}

int CmdInfo(const util::Flags& flags) {
  auto model = LoadModel(flags);
  if (!model.ok()) return Fail(model.status());
  const auto& enc = (*model)->tuple_encoder();
  std::printf("deepaqp VAE model\n");
  std::printf("  encoded dim:   %zu (%s)\n", enc.encoded_dim(),
              encoding::EncodingKindName(enc.kind()));
  std::printf("  latent dim:    %zu\n", (*model)->net().latent_dim());
  std::printf("  parameters:    %zu\n", (*model)->net().NumParameters());
  std::printf("  size:          %.1f KB\n",
              (*model)->ModelSizeBytes() / 1024.0);
  std::printf("  calibrated T:  %.3f\n", (*model)->default_t());
  std::printf("  schema:\n");
  for (size_t c = 0; c < enc.schema().num_attributes(); ++c) {
    const auto& layout = enc.layout()[c];
    std::printf("    %-20s %-12s |dom|=%d width=%zu\n",
                enc.schema().attribute(c).name.c_str(),
                relation::AttrTypeName(enc.schema().attribute(c).type),
                layout.cardinality, layout.width);
  }
  return 0;
}

int CmdGenerate(const util::Flags& flags) {
  auto model = LoadModel(flags);
  if (!model.ok()) return Fail(model.status());
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fputs("generate needs --out <file.csv>\n", stderr);
    return 2;
  }
  const auto n = static_cast<size_t>(flags.GetInt("n", 1000));
  const double t = flags.GetDouble("t", (*model)->default_t());
  util::Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 42)));
  relation::Table sample = (*model)->Generate(n, t, rng);
  auto status = relation::WriteCsv(sample, out);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu synthetic tuples to %s\n", sample.num_rows(),
              out.c_str());
  return 0;
}

int CmdQuery(const util::Flags& flags) {
  auto model = LoadModel(flags);
  if (!model.ok()) return Fail(model.status());
  const std::string sql = flags.GetString("sql", "");
  if (sql.empty()) {
    std::fputs("query needs --sql \"SELECT ...\"\n", stderr);
    return 2;
  }
  const auto population =
      static_cast<size_t>(flags.GetInt("population", 1000000));
  const auto samples = static_cast<size_t>(flags.GetInt("samples", 5000));
  const double t = flags.GetDouble("t", (*model)->default_t());
  util::Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 42)));

  relation::Table sample = (*model)->Generate(samples, t, rng);
  auto query = aqp::ParseSql(sql, sample);
  if (!query.ok()) return Fail(query.status());
  auto result = aqp::EstimateFromSample(*query, sample, population);
  if (!result.ok()) return Fail(result.status());

  std::printf("%s  (on %zu synthetic tuples, population %zu)\n",
              query->ToString(sample.schema()).c_str(), sample.num_rows(),
              population);
  for (const auto& g : result->groups) {
    std::string label = "*";
    if (g.group >= 0) {
      const auto gattr = static_cast<size_t>(query->group_by_attr);
      label = sample.dict(gattr).size() > g.group
                  ? sample.dict(gattr).LabelOf(g.group)
                  : std::to_string(g.group);
    }
    std::printf("  %-16s %14.4f  +- %.4f\n", label.c_str(), g.value,
                g.ci_half_width);
  }
  return 0;
}

util::Result<std::vector<uint8_t>> ReadModelBytes(const util::Flags& flags) {
  const std::string path = flags.GetString("model", "");
  if (path.empty()) {
    return util::Status::InvalidArgument("missing --model <file>");
  }
  return util::ReadFile(path);
}

void PrintSnapshotStats(const util::SnapshotReader& snap) {
  std::printf("deepaqp snapshot (format v%u)\n", snap.format_version());
  std::printf("  kind:            %s (payload v%u)\n", snap.kind().c_str(),
              snap.payload_version());
  std::printf("  size:            %zu bytes\n", snap.stats().total_bytes);
  std::printf("  sections:        %zu\n", snap.stats().num_sections);
  for (const auto& s : snap.sections()) {
    std::printf("    %-14s %10zu bytes  crc32=%08x%s\n", s.name.c_str(),
                s.size, s.crc32, s.in_bounds ? "" : "  [TRUNCATED]");
  }
  std::printf("  file checksum:   %s\n",
              snap.stats().file_checksum_ok ? "ok" : "FAILED");
  std::printf("  verify time:     %.3f ms\n",
              snap.stats().verify_seconds * 1e3);
}

/// Verifies a model file end to end and prints loader stats. With
/// --degraded, a damaged ensemble is additionally loaded tolerantly so the
/// operator can see what coverage survives.
int CmdLoadModel(const util::Flags& flags) {
  auto bytes = ReadModelBytes(flags);
  if (!bytes.ok()) return Fail(bytes.status());
  auto snap = util::SnapshotReader::Open(*bytes);
  const bool tolerant = flags.GetBool("degraded", false);
  if (!snap.ok() && tolerant) {
    snap = util::SnapshotReader::OpenTolerant(*bytes);
  }
  if (!snap.ok()) return Fail(snap.status());
  PrintSnapshotStats(*snap);

  if (snap->kind() == vae::kVaeModelSnapshotKind) {
    auto model = vae::VaeAqpModel::Deserialize(*bytes);
    if (!model.ok()) return Fail(model.status());
    std::printf("  payload:         VAE model, %zu parameters, T = %.3f\n",
                (*model)->net().NumParameters(), (*model)->default_t());
    return 0;
  }
  if (snap->kind() == ensemble::kEnsembleSnapshotKind) {
    ensemble::EnsembleLoadReport report;
    auto model =
        tolerant
            ? ensemble::EnsembleModel::DeserializeDegraded(*bytes, &report)
            : ensemble::EnsembleModel::Deserialize(*bytes);
    if (!model.ok()) return Fail(model.status());
    std::printf("  payload:         ensemble, %zu member(s)\n",
                (*model)->num_members());
    if (tolerant) {
      std::printf("  coverage:        %.1f%% (%zu/%zu members)\n",
                  report.coverage * 100.0, report.members_loaded,
                  report.members_total);
      for (const std::string& e : report.member_errors) {
        std::printf("  lost:            %s\n", e.c_str());
      }
    }
    return 0;
  }
  std::printf("  payload:         unknown kind (container verified only)\n");
  return 0;
}

/// Loads a model with full verification and re-encodes it into a fresh
/// current-format snapshot at --out (atomic write). This is the format
/// migration path once newer payload versions exist.
int CmdSaveModel(const util::Flags& flags) {
  auto bytes = ReadModelBytes(flags);
  if (!bytes.ok()) return Fail(bytes.status());
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fputs("save-model needs --out <file.bin>\n", stderr);
    return 2;
  }
  auto snap = util::SnapshotReader::Open(*bytes);
  if (!snap.ok()) return Fail(snap.status());

  std::vector<uint8_t> fresh;
  if (snap->kind() == vae::kVaeModelSnapshotKind) {
    auto model = vae::VaeAqpModel::Deserialize(*bytes);
    if (!model.ok()) return Fail(model.status());
    fresh = (*model)->Serialize();
  } else if (snap->kind() == ensemble::kEnsembleSnapshotKind) {
    auto model = ensemble::EnsembleModel::Deserialize(*bytes);
    if (!model.ok()) return Fail(model.status());
    fresh = (*model)->Serialize();
  } else {
    return Fail(util::Status::InvalidArgument(
        "cannot re-save unknown snapshot kind '" + snap->kind() + "'"));
  }
  auto status = util::AtomicWriteFile(out, fresh);
  if (!status.ok()) return Fail(status);
  std::printf("verified %zu bytes, re-encoded %zu bytes -> %s\n",
              bytes->size(), fresh.size(), out.c_str());
  return 0;
}

/// Interactive line protocol for humans and shell scripts: the daemon acks
/// every DATA frame itself and prints decoded estimates as text.
///
///   open
///   query <session> <max_relative_ci> <sql...>
///   close <session>
///   quit
int ServeText(server::AqpServer& srv) {
  auto pipe = std::make_shared<server::PipeTransport>();
  std::printf("deepaqp server ready (text mode); commands: "
              "open | query <sid> <ci> <sql> | close <sid> | quit\n");
  char line[1 << 14];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    const std::string input = util::Trim(line);
    if (input.empty()) continue;
    if (input == "quit") break;

    if (input == "open") {
      server::ClientMessage open;
      open.kind = server::ClientMessageKind::kOpenSession;
      open.model_name = "default";
      srv.Handle(open, pipe);
      server::ServerMessage reply = pipe->Pop();
      if (reply.kind == server::ServerMessageKind::kSessionOpened) {
        std::printf("session %llu\n",
                    static_cast<unsigned long long>(reply.session));
      } else {
        std::printf("error: %s\n", reply.message.c_str());
      }
      continue;
    }

    if (input.rfind("close ", 0) == 0) {
      server::ClientMessage close;
      close.kind = server::ClientMessageKind::kCloseSession;
      close.session = std::strtoull(input.c_str() + 6, nullptr, 10);
      srv.Handle(close, pipe);
      // Spurious retransmits of the last stream may still be queued ahead
      // of the confirmation; the consumer already has those frames.
      server::ServerMessage reply;
      do {
        reply = pipe->Pop();
      } while (reply.kind == server::ServerMessageKind::kData);
      std::printf("%s\n",
                  reply.kind == server::ServerMessageKind::kSessionClosed
                      ? "closed"
                      : ("error: " + reply.message).c_str());
      continue;
    }

    if (input.rfind("query ", 0) == 0) {
      char* cursor = nullptr;
      const uint64_t session =
          std::strtoull(input.c_str() + 6, &cursor, 10);
      const double ci = std::strtod(cursor, &cursor);
      const std::string sql = util::Trim(cursor);
      if (sql.empty()) {
        std::printf("error: query needs <session> <max_relative_ci> <sql>\n");
        continue;
      }
      server::ClientMessage query;
      query.kind = server::ClientMessageKind::kQuery;
      query.session = session;
      query.sql = sql;
      query.max_relative_ci = ci;
      srv.Handle(query, pipe);

      server::ServerMessage first;
      do {
        first = pipe->Pop();  // skipping stale frames of an earlier stream
      } while (first.kind == server::ServerMessageKind::kData);
      if (first.kind != server::ServerMessageKind::kQueryStarted) {
        std::printf("error: %s\n", first.message.c_str());
        continue;
      }
      server::ChannelConsumer consumer(first.channel);
      bool stream_failed = false;
      while (!consumer.finished() && !stream_failed) {
        server::ServerMessage msg = pipe->Pop();
        if (msg.kind == server::ServerMessageKind::kError) {
          std::printf("error: %s\n", msg.message.c_str());
          stream_failed = true;
          break;
        }
        if (msg.kind != server::ServerMessageKind::kData ||
            msg.channel != first.channel) {
          continue;  // stale frame of an earlier stream
        }
        consumer.OnData(msg.data);
        for (const auto& payload : consumer.TakeDelivered()) {
          auto estimate = server::DecodeEstimate(payload);
          if (!estimate.ok()) {
            std::printf("error: %s\n",
                        estimate.status().ToString().c_str());
            stream_failed = true;
            break;
          }
          for (const auto& g : estimate->result.groups) {
            std::printf("estimate pool=%llu group=%d value=%.6f ci=%.6f\n",
                        static_cast<unsigned long long>(estimate->pool_rows),
                        g.group, g.value, g.ci_half_width);
          }
        }
        server::ClientMessage ack;
        ack.kind = server::ClientMessageKind::kAck;
        ack.session = session;
        ack.ack = consumer.MakeAck();
        srv.Handle(ack, pipe);
      }
      if (consumer.finished()) std::printf("final\n");
      std::fflush(stdout);
      continue;
    }
    std::printf("error: unknown command\n");
  }
  srv.WaitIdle();
  return 0;
}

/// SIGTERM/SIGINT latch for graceful drain. Async-signal-safe: the handler
/// only stores a flag the serve loops poll.
std::atomic<bool> g_shutdown_requested{false};

void HandleShutdownSignal(int) { g_shutdown_requested.store(true); }

void InstallServeSignalHandlers() {
  // A client vanishing mid-write must surface as EPIPE on the write call
  // (handled as connection-close), never as a process-killing signal.
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleShutdownSignal;
  sigemptyset(&sa.sa_mask);
  // No SA_RESTART: a blocking stdio read aborts with EINTR so the serve
  // loop can notice the flag and drain instead of dying mid-frame.
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

/// Serves the daemon over TCP until SIGTERM/SIGINT, then drains gracefully:
/// stop accepting, let in-flight streams finish (bounded), abort stragglers
/// with SHUTTING_DOWN, flush, exit.
int ServeTcp(server::AqpServer& srv, const util::Flags& flags, int port) {
  server::SocketServer::Options sopts;
  sopts.port = static_cast<uint16_t>(port);
  sopts.bind_address = flags.GetString("bind", "127.0.0.1");
  sopts.heartbeat_ms = static_cast<int>(
      flags.GetInt("heartbeat-ms", flags.GetInt("heartbeat_ms", 5000)));
  sopts.heartbeat_misses = static_cast<int>(flags.GetInt("heartbeat-misses", 3));
  sopts.drain_deadline_ms = static_cast<int>(flags.GetInt("drain-ms", 5000));
  server::SocketServer sock(&srv, sopts);
  if (auto st = sock.Listen(); !st.ok()) return Fail(st);
  if (auto st = sock.Start(); !st.ok()) return Fail(st);
  std::fprintf(stderr, "deepaqp server listening on %s:%u\n",
               sopts.bind_address.c_str(), sock.port());
  // Ephemeral-port discovery for scripts/tests: --port-file gets the bound
  // port once the listener is live.
  const std::string port_file = flags.GetString("port-file", "");
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%u\n", sock.port());
      std::fclose(f);
    }
  }
  while (!g_shutdown_requested.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fputs("drain: refusing new work, finishing in-flight streams\n",
             stderr);
  const bool clean = sock.Shutdown();
  std::fprintf(stderr, "drain %s\n",
               clean ? "complete" : "deadline exceeded (streams aborted)");
  return 0;
}

/// Runs the AQP daemon. Default is the binary transport on stdio — u32
/// length-prefixed ClientMessage frames in, ServerMessage frames out —
/// which is what a programmatic client speaks. --listen PORT serves the
/// same protocol over TCP (PORT 0 picks an ephemeral port, written to
/// --port-file) with heartbeats, session resumption and admission control.
/// --text switches to the line protocol above. The model is registered
/// under --name ("default"), and sessions inherit
/// --samples/--max-samples/--population/--seed.
int CmdServe(const util::Flags& flags) {
  InstallServeSignalHandlers();
  auto bytes = ReadModelBytes(flags);
  if (!bytes.ok()) return Fail(bytes.status());

  server::AqpServer::Options opts;
  opts.client.initial_samples =
      static_cast<size_t>(flags.GetInt("samples", 2000));
  opts.client.max_samples =
      static_cast<size_t>(flags.GetInt("max-samples", 200000));
  opts.client.population_rows =
      static_cast<size_t>(flags.GetInt("population", 1000000));
  opts.client.seed = static_cast<uint64_t>(flags.GetInt("seed", 2027));
  opts.max_sessions = static_cast<size_t>(
      flags.GetInt("max-sessions", flags.GetInt("max_sessions", 256)));
  opts.max_queued_per_session =
      static_cast<size_t>(flags.GetInt("max-queued", 256));
  server::AqpServer srv(opts);
  auto version =
      srv.registry().Register(flags.GetString("name", "default"), *bytes);
  if (!version.ok()) return Fail(version.status());

  if (flags.GetBool("text", false)) return ServeText(srv);

  const int listen_port = static_cast<int>(flags.GetInt("listen", -1));
  if (listen_port >= 0) return ServeTcp(srv, flags, listen_port);

  auto sink = std::make_shared<server::StdioTransport>(stdout);
  for (;;) {
    if (g_shutdown_requested.load()) break;
    auto request = server::StdioTransport::ReadRequest(stdin);
    if (!request.ok()) {
      // A signal aborting the read is a drain request, not an error.
      if (g_shutdown_requested.load()) break;
      return Fail(request.status());
    }
    if (!request->has_value()) break;  // client hung up cleanly
    srv.Handle(**request, sink);
  }
  if (g_shutdown_requested.load()) {
    srv.Drain(static_cast<int>(flags.GetInt("drain-ms", 5000)));
  }
  srv.WaitIdle();
  if (!sink->last_error().ok()) {
    // The peer dropping its end mid-stream is a normal client lifecycle
    // event for a daemon, not a failure.
    if (server::IsPeerClosed(sink->last_error())) return 0;
    return Fail(sink->last_error());
  }
  return 0;
}

/// TCP client: opens a session against a running `serve --listen` daemon,
/// streams one query to the requested precision, and prints the estimates.
/// Survives server restarts and connection drops via exponential backoff +
/// session resumption.
int CmdClient(const util::Flags& flags) {
  const std::string sql = flags.GetString("sql", "");
  const int port = static_cast<int>(flags.GetInt("port", -1));
  if (sql.empty() || port < 0) {
    std::fputs(
        "client needs --port N --sql \"SELECT ...\" "
        "[--host 127.0.0.1] [--name default] [--ci 0.05] "
        "[--samples N] [--max-samples N] [--population N] [--seed N]\n",
        stderr);
    return 2;
  }
  server::RetryingConnection::Options copts;
  copts.host = flags.GetString("host", "127.0.0.1");
  copts.port = static_cast<uint16_t>(port);
  copts.max_attempts = static_cast<int>(flags.GetInt("retries", 10));
  server::RetryingConnection client(copts);
  if (auto st = client.Connect(); !st.ok()) return Fail(st);
  if (auto st = client.OpenSession(
          flags.GetString("name", "default"),
          static_cast<uint64_t>(flags.GetInt("samples", 0)),
          static_cast<uint64_t>(flags.GetInt("max-samples", 0)),
          static_cast<uint64_t>(flags.GetInt("population", 0)),
          static_cast<uint64_t>(flags.GetInt("seed", 0)));
      !st.ok()) {
    return Fail(st);
  }
  auto stream = client.RunQuery(sql, flags.GetDouble("ci", 0.05));
  if (!stream.ok()) return Fail(stream.status());
  for (const server::Estimate& est : stream->estimates) {
    for (const auto& g : est.result.groups) {
      std::printf("estimate pool=%llu group=%d value=%.6f ci=%.6f\n",
                  static_cast<unsigned long long>(est.pool_rows), g.group,
                  g.value, g.ci_half_width);
    }
  }
  std::printf("final after %zu estimates (%llu reconnects, %llu resumes)\n",
              stream->estimates.size(),
              static_cast<unsigned long long>(client.reconnects()),
              static_cast<unsigned long long>(stream->resumes));
  client.CloseSession();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  util::Flags flags(argc - 1, argv + 1);
  if (const util::Status st = nn::ApplyRuntimeFlags(flags); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  int rc;
  if (cmd == "make-data") rc = CmdMakeData(flags);
  else if (cmd == "train") rc = CmdTrain(flags);
  else if (cmd == "info") rc = CmdInfo(flags);
  else if (cmd == "generate") rc = CmdGenerate(flags);
  else if (cmd == "query") rc = CmdQuery(flags);
  else if (cmd == "load-model") rc = CmdLoadModel(flags);
  else if (cmd == "save-model") rc = CmdSaveModel(flags);
  else if (cmd == "serve") rc = CmdServe(flags);
  else if (cmd == "client") rc = CmdClient(flags);
  else return Usage();
  // Chaos observability: with fail points active, persist (or print) the
  // per-site fault counters so a chaos run leaves a structured record.
  if (util::FailpointsEnabled()) {
    const std::string fault_log = flags.GetString("fault-log", "");
    const std::string json = util::FailpointReportJson();
    if (!fault_log.empty()) {
      std::FILE* f = std::fopen(fault_log.c_str(), "w");
      if (f != nullptr) {
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
      } else {
        std::fprintf(stderr, "cannot write --fault-log %s\n",
                     fault_log.c_str());
      }
    } else {
      std::fputs(json.c_str(), stderr);
    }
  }
  return rc;
}
