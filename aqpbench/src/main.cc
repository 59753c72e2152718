// aqpbench: the repository benchmark. Trains the census model, serves it
// from an in-process AqpServer behind a loopback SocketServer, drives one
// workload over real TCP for a fixed time, checks the answers, and prints
// every metric by name and unit.
//
//   aqpbench --workload cold_churn|shared_churn|warm_scan|open_mix --seed N
//            --seconds S --trace 0|1 [--git-rev REV] [--src-digest HEX]
//            [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same load and
// then the traced pass, and reports the per-layer metrics. stdout ends with
// a provenance record line ("RECORD {...}") and, last, the result object
// {"correct", "attempted", "failed", "metrics"}. aqpbench/run.py builds the
// binary and forwards these flags; see aqpbench/README.md.

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "aqp/engine.h"
#include "checks.h"
#include "common.h"
#include "fixture.h"
#include "load.h"
#include "nn/kernels.h"
#include "nn/kernels_quant.h"
#include "trace.h"
#include "util/cpu_features.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/topology.h"

namespace aqpbench {
namespace {

using namespace deepaqp;

/// The fixed latency budget of each workload: a query whose final estimate
/// arrives later (or never) misses it. Set between the p90 and p95 of final
/// latency measured on the 4-core machine the baseline in README.md comes
/// from, so the share moves with the tail rather than the median.
double BudgetMs(Workload w) {
  switch (w) {
    case Workload::kColdChurn:
    case Workload::kSharedChurn:
      return 40.0;
    case Workload::kWarmScan:
      return 3.5;
    case Workload::kOpenMix:
      return 100.0;
  }
  return 0.0;
}

/// Cumulative (steal, total) CPU jiffies from /proc/stat. On a VM, time the
/// host gave this machine's vCPUs to someone else shows up as steal; the
/// record carries its share of the run so a disturbed run is visible.
std::pair<double, double> CpuStealAndTotal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0.0, total = 0.0;
  for (int i = 0; i < 8 && in; ++i) {
    double v = 0.0;
    in >> v;
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// Resets VmHWM to the current RSS (Linux clear_refs, value 5), so the peak
/// read after the timed window covers serving rather than the set-ups'
/// training. Returns false where the kernel does not support it; the peak
/// then covers the whole process, and the record says so.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// The timed window is cut into kBlocks equal blocks by due time. Timing
/// metrics are the median over blocks of each block's value, so a burst
/// that disturbs one or two blocks (the VM host taking CPU away) does not
/// move them. A percentile is taken per block only when every block
/// supports it (10 finished queries beyond it), else over the whole window.
constexpr int kBlocks = 5;

struct Block {
  size_t attempted = 0;
  size_t done = 0;
  size_t within_budget = 0;
  std::vector<double> ttfe_ms, final_ms;
};

struct WindowStats {
  size_t attempted = 0;
  size_t failed = 0;
  size_t done = 0;
  std::vector<double> ttfe_ms, final_ms, start_wait_ms, estimates, pool_rows;
  size_t repeats = 0;
  std::vector<Block> blocks = std::vector<Block>(kBlocks);
  double block_seconds = 0.0;
  std::vector<std::string> errors;

  double BlockMedian(double (*f)(const Block&, double), double arg) const {
    std::vector<double> v;
    for (const Block& b : blocks) v.push_back(f(b, arg));
    return Quantile(v, 0.5);
  }
  /// q-quantile of first-estimate (final = false) or final latency.
  double Latency(bool final, double q) const {
    bool per_block = true;
    for (const Block& b : blocks) per_block &= QuantileSupported(b.done, q);
    if (!per_block) return Quantile(final ? final_ms : ttfe_ms, q);
    return BlockMedian(final ? +[](const Block& b, double p) {
                                 return Quantile(b.final_ms, p);
                               }
                             : +[](const Block& b, double p) {
                                 return Quantile(b.ttfe_ms, p);
                               },
                       q);
  }
  double Qps() const {
    return BlockMedian(
        [](const Block& b, double s) { return static_cast<double>(b.done) / s; },
        block_seconds);
  }
  double BudgetMetFrac() const {
    return BlockMedian(
        [](const Block& b, double) {
          return b.attempted > 0 ? static_cast<double>(b.within_budget) /
                                       static_cast<double>(b.attempted)
                                 : 0.0;
        },
        0.0);
  }
};

WindowStats Summarize(const RunLog& log, double budget_ms, double seconds) {
  WindowStats w;
  w.block_seconds = seconds / kBlocks;
  for (const QueryRecord& q : log.queries) {
    if (!q.in_window) continue;
    const int k = std::clamp(
        static_cast<int>(SecondsBetween(log.window_start, q.due) /
                         w.block_seconds),
        0, kBlocks - 1);
    Block& b = w.blocks[k];
    ++w.attempted;
    ++b.attempted;
    if (q.repeat) ++w.repeats;
    if (!q.done) {
      ++w.failed;
      if (w.errors.size() < 5) {
        w.errors.push_back(q.failed ? q.error : "never finished");
      }
      continue;
    }
    ++w.done;
    ++b.done;
    const double ttfe_ms = MillisBetween(q.due, q.first);
    const double final_ms = MillisBetween(q.due, q.final);
    w.ttfe_ms.push_back(ttfe_ms);
    w.final_ms.push_back(final_ms);
    b.ttfe_ms.push_back(ttfe_ms);
    b.final_ms.push_back(final_ms);
    if (final_ms <= budget_ms) ++b.within_budget;
    if (q.is_started) w.start_wait_ms.push_back(MillisBetween(q.sent, q.started));
    w.estimates.push_back(q.estimates);
    w.pool_rows.push_back(static_cast<double>(q.final_pool_rows));
  }
  return w;
}

int Main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string workload_name = flags.GetString("workload", "");
  Workload workload;
  if (workload_name == "cold_churn") {
    workload = Workload::kColdChurn;
  } else if (workload_name == "shared_churn") {
    workload = Workload::kSharedChurn;
  } else if (workload_name == "warm_scan") {
    workload = Workload::kWarmScan;
  } else if (workload_name == "open_mix") {
    workload = Workload::kOpenMix;
  } else {
    std::fprintf(stderr,
                 "aqpbench: --workload must be cold_churn, shared_churn, "
                 "warm_scan or open_mix (got '%s')\n",
                 workload_name.c_str());
    return 2;
  }
  if (!flags.Has("seed") || !flags.Has("seconds")) {
    std::fprintf(stderr, "aqpbench: --seed and --seconds are required\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  const double seconds = flags.GetDouble("seconds", 0.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  if (!(seconds > 0.0)) {
    std::fprintf(stderr, "aqpbench: --seconds must be positive\n");
    return 2;
  }
  // Set-ups per run (setup_s is their median) and seconds of load before
  // the timed window opens (connections, caches and strands settle).
  constexpr int kSetups = 5;
  constexpr double kWarmupSeconds = 1.0;
  util::SetLogLevel(util::LogLevel::kWarning);

  // ---- set-up, repeated; the last one serves the run -------------------
  std::vector<double> setup_s;
  std::vector<double> prewarm_s;  ///< the pool pre-warm part of each set-up
  std::unique_ptr<Fixture> fixture;
  std::unique_ptr<Load> load;
  bool model_deterministic = true;
  std::vector<uint8_t> first_model;
  for (int i = 0; i < kSetups; ++i) {
    load.reset();
    fixture.reset();
    const Clock::time_point a = Clock::now();
    auto built = Fixture::Build();
    if (!built.ok()) {
      std::fprintf(stderr, "aqpbench: set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    fixture = std::move(*built);
    const Clock::time_point b = Clock::now();
    load = std::make_unique<Load>(workload, seed, fixture.get());
    if (const util::Status st = load->Prewarm(); !st.ok()) {
      std::fprintf(stderr, "aqpbench: prewarm failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(SecondsBetween(a, Clock::now()));
    prewarm_s.push_back(SecondsBetween(b, Clock::now()));
    if (i == 0) first_model = fixture->model_bytes();
    if (fixture->model_bytes() != first_model) model_deterministic = false;
  }

  load->Prepare(kWarmupSeconds, seconds);
  const bool peak_rss_reset = ResetPeakRss();
  const auto cpu_before = CpuStealAndTotal();
  RunLog log = load->Run(kWarmupSeconds, seconds);
  const auto cpu_after = CpuStealAndTotal();
  const double cpu_total = cpu_after.second - cpu_before.second;
  const double steal_frac =
      cpu_total > 0 ? (cpu_after.first - cpu_before.first) / cpu_total : 0.0;
  load.reset();

  // ---- correctness gate --------------------------------------------------
  // Sessions x queries replayed: one-query sessions on cold_churn and
  // open_mix; a prefix of one 200k-row session on warm_scan.
  size_t det_sessions = 16, det_queries = 1;
  if (workload == Workload::kWarmScan) std::tie(det_sessions, det_queries) = std::make_tuple(1, 100);
  const DeterminismReport det =
      CheckDeterminism(*fixture, log, seed, det_sessions, det_queries);
  const std::vector<double> rel_errs = RelativeErrors(*fixture, log, seed, 5000);

  const double budget = BudgetMs(workload);
  const WindowStats w = Summarize(log, budget, seconds);
  const double attempted = static_cast<double>(std::max<size_t>(w.attempted, 1));
  const double peak_rss_mb = PeakRssMb();

  std::vector<Metric> e2e = {
      {"setup_s", "s", Quantile(setup_s, 0.5)},
      {"qps", "1/s", w.Qps()},
      {"ttfe_p50_ms", "ms", w.Latency(false, 0.5)},
      {"ttfe_p99_ms", "ms", w.Latency(false, 0.99)},
      {"final_p50_ms", "ms", w.Latency(true, 0.5)},
      {"final_p99_ms", "ms", w.Latency(true, 0.99)},
      {"budget_met_frac", "frac", w.BudgetMetFrac()},
      {"rel_err_p50", "frac", Quantile(rel_errs, 0.5)},
      {"ok_frac", "frac", 1.0 - static_cast<double>(w.failed) / attempted},
      {"peak_rss_mb", "MB", peak_rss_mb},
  };

  // ---- per-layer metrics -------------------------------------------------
  // The traced pass's own checks (replay == server bytes, stage replay ==
  // Generate) gate the run too: when they fail, the per-layer figures
  // describe a stale copy of the serving loop, not the code under test.
  std::vector<Metric> layers;
  TraceReport traced;
  if (trace) {
    fixture->StopServer();  // the traced pass owns the machine
    traced = TracedPass(*fixture, log, workload, seed,
                        flags.GetString("trace-out", ""));
    layers = traced.metrics;
    std::vector<double> open_ms;
    std::set<std::tuple<uint64_t, uint64_t, uint64_t>> pool_keys;
    size_t sessions = 0, dup_pools = 0, cached_queries = 0;
    double rows_filtered = 0.0, rows_aggregated = 0.0;
    for (const SessionRecord& s : log.sessions) {
      if (!s.opened) continue;
      ++sessions;
      open_ms.push_back(MillisBetween(s.open_sent, s.opened_at));
      const auto o = EffectiveOptions(fixture->server_options().client, s);
      if (!pool_keys.insert({o.seed, o.initial_samples, o.max_samples}).second) {
        ++dup_pools;
      }
      if (s.have_cache) {
        rows_filtered += static_cast<double>(s.cache.rows_filtered);
        rows_aggregated += static_cast<double>(s.cache.rows_aggregated);
        cached_queries += s.queries.size();
      }
    }
    const double cq = static_cast<double>(std::max<size_t>(cached_queries, 1));
    std::vector<double> lag = log.lag_ms;
    const std::vector<Metric> tcp_layers = {
        {"pool.rows_at_final_p50", "rows", Quantile(w.pool_rows, 0.5)},
        {"pool.mb_live_peak", "MB", log.pool_mb_live_peak},
        {"cache.rows_filtered_per_query", "rows", rows_filtered / cq},
        {"cache.rows_aggregated_per_query", "rows", rows_aggregated / cq},
        {"load.dup_pool_frac", "frac",
         sessions > 0 ? static_cast<double>(dup_pools) / sessions : 0.0},
        {"load.repeat_frac", "frac", static_cast<double>(w.repeats) / attempted},
        {"server.start_wait_p50_ms", "ms", Quantile(w.start_wait_ms, 0.5)},
        {"server.start_wait_p99_ms", "ms", Quantile(w.start_wait_ms, 0.99)},
        {"server.queue_depth_mean", "tasks", Mean(log.queue_depth)},
        {"server.estimates_per_query", "frames", Mean(w.estimates)},
        {"server.busy_rejects", "count", static_cast<double>(log.busy_rejects)},
        {"client.open_ms_p50", "ms", Quantile(open_ms, 0.5)},
        {"socket.ping_rtt_us_p50", "us", Quantile(log.ping_rtt_us, 0.5)},
        {"socket.reconnects", "count",
         static_cast<double>(log.connection_losses)},
        {"load.offered_qps", "1/s",
         log.offered_qps > 0 ? log.offered_qps : w.attempted / seconds},
        {"load.lag_p99_ms", "ms", Quantile(lag, 0.99)},
    };
    layers.insert(layers.end(), tcp_layers.begin(), tcp_layers.end());
  }
  fixture->StopServer();
  const bool correct = det.mismatches == 0 && w.failed == 0 &&
                       model_deterministic && w.attempted > 0 &&
                       traced.replay_mismatches == 0 && traced.stage_identical;

  // ---- report --------------------------------------------------------------
  std::fprintf(stderr, "aqpbench %s seed=%llu seconds=%g trace=%d\n",
               WorkloadName(workload), static_cast<unsigned long long>(seed),
               seconds, trace ? 1 : 0);
  std::fprintf(stderr,
               "  attempted=%zu done=%zu failed=%zu budget=%g ms "
               "cpu_steal=%.3f\n",
               w.attempted, w.done, w.failed, budget, steal_frac);
  if (!QuantileSupported(w.ttfe_ms.size(), 0.99)) {
    std::fprintf(stderr,
                 "  WARNING: %zu finished queries leave fewer than 10 beyond "
                 "p99; the p99 figures are not supported by the sample\n",
                 w.ttfe_ms.size());
  }
  for (const Metric& m : e2e) {
    std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "  %-34s %14.6g %s\n", "fail_frac",
               static_cast<double>(w.failed) / attempted, "frac");
  std::fprintf(stderr, "  %-34s %14.6g %s\n", "budget_miss_frac",
               1.0 - w.BudgetMetFrac(), "frac");
  for (const Metric& m : layers) {
    std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "  determinism gate: %zu sessions, %zu queries, %zu mismatches\n",
               det.sessions, det.queries, det.mismatches);
  for (const std::string& p : det.problems) std::fprintf(stderr, "  MISMATCH %s\n", p.c_str());
  for (const std::string& e : w.errors) std::fprintf(stderr, "  FAILED %s\n", e.c_str());
  if (!model_deterministic) {
    std::fprintf(stderr, "  MISMATCH model bytes differ between set-ups\n");
  }
  if (traced.replay_mismatches > 0) {
    std::fprintf(stderr,
                 "  MISMATCH %zu replayed queries differ from the server's "
                 "stream; the replay no longer mirrors AqpClient\n",
                 traced.replay_mismatches);
  }
  if (!traced.stage_identical) {
    std::fprintf(stderr,
                 "  MISMATCH stage replay rows differ from Generate; the stage "
                 "costs no longer describe Generate's loop\n");
  }

  const util::CpuTopology& topo = util::Topology();
  std::string record = "{\"workload\": " + JsonString(WorkloadName(workload)) +
                       ", \"seed\": " + std::to_string(seed) +
                       ", \"seconds\": " + JsonNumber(seconds) +
                       ", \"trace\": " + (trace ? "1" : "0") +
                       ", \"git_rev\": " + JsonString(flags.GetString("git-rev", "unknown")) +
                       ", \"src_digest\": " + JsonString(flags.GetString("src-digest", "unknown")) +
                       ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                       ", \"isa\": " + JsonString(util::CpuFeaturesToString(util::CpuInfo())) +
                       ", \"topology\": " + JsonString(topo.ToString()) +
                       ", \"kernel\": " + JsonString(nn::GemmKernelKindName(nn::ActiveGemmKernel())) +
                       ", \"quant\": " + JsonString(nn::QuantModeName(nn::ActiveQuantMode())) +
                       ", \"engine\": " + JsonString(aqp::EngineName(aqp::ActiveEngine())) +
                       ", \"pin\": " + JsonString(util::PinPolicyName(util::ActivePinPolicy())) +
                       ", \"threads\": " + std::to_string(util::GlobalThreads()) +
                       ", \"connections\": " + std::to_string(kConnections) +
                       ", \"budget_ms\": " + JsonNumber(budget) +
                       ", \"attempted\": " + std::to_string(w.attempted) +
                       ", \"failed\": " + std::to_string(w.failed) +
                       ", \"fail_frac\": " + JsonNumber(static_cast<double>(w.failed) / attempted) +
                       ", \"budget_miss_frac\": " + JsonNumber(1.0 - w.BudgetMetFrac()) +
                       ", \"p99_supported\": " + (QuantileSupported(w.ttfe_ms.size(), 0.99) ? "true" : "false") +
                       ", \"cpu_steal_frac\": " + JsonNumber(steal_frac) +
                       ", \"peak_rss_reset\": " + (peak_rss_reset ? "true" : "false") +
                       ", \"setup_s_all\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    record += (i ? ", " : "") + JsonNumber(setup_s[i]);
  }
  record += "], \"prewarm_s_all\": [";
  for (size_t i = 0; i < prewarm_s.size(); ++i) {
    record += (i ? ", " : "") + JsonNumber(prewarm_s[i]);
  }
  record += "], \"correct\": " + std::string(correct ? "true" : "false") +
            ", \"metrics\": " + MetricsJson(trace ? layers : e2e) + "}";
  std::printf("RECORD %s\n", record.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", w.attempted, w.failed,
              MetricsJson(trace ? layers : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace aqpbench

int main(int argc, char** argv) { return aqpbench::Main(argc, argv); }
