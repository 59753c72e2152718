#ifndef AQPBENCH_TRACE_H_
#define AQPBENCH_TRACE_H_

// The traced pass. Spans are recorded from the benchmark's own files around
// calls into each layer's public functions, kept in memory, and written out
// at the end. Two sources:
//
//  * the TCP run's own timestamps (query, start wait), which cost nothing
//    extra to record, and
//  * an in-process replay of a seeded subset of the run's sessions, in their
//    recorded order, through the public calls of every serving layer:
//    vae (VaeAqpModel::Generate), aqp (ParseSql, EvalPredicate,
//    AccumulateSelected, FinalizeEstimate), wire (Encode/Decode*) and the
//    server channel (ChannelProducer/ChannelConsumer).
//
// A separate stage replay walks generation windows through VaeNet, the
// kernels, TupleEncoder and Table one public call at a time.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "fixture.h"
#include "load.h"

namespace aqpbench {

enum class SpanName : uint8_t {
  kTcpQuery,      ///< TCP run: due -> final frame
  kTcpStartWait,  ///< TCP run: send -> kQueryStarted
  kQuery,         ///< replay: one query, root
  kOpen,          ///< replay: session open (initial pool), root
  kGenerate,      ///< VaeAqpModel::Generate
  kParse,         ///< aqp::ParseSql
  kFilter,        ///< aqp::EvalPredicate
  kAggregate,     ///< aqp::AccumulateSelected
  kFinalize,      ///< aqp::FinalizeEstimate
  kWireEncode,    ///< EncodeEstimate + EncodeServerMessage of a DATA frame
  kWireDecode,    ///< DecodeServerMessage + DecodeEstimate of a DATA frame
  kWireControl,   ///< query/ack/started message encode + decode
  kChannel,       ///< ChannelProducer / ChannelConsumer state machines
  kPrior,         ///< VaeNet::SamplePriorInto
  kDecoder,       ///< VaeNet::DecodeLogitsConstInto
  kVrs,           ///< SigmoidBernoulliVec + EncodeConstInto + LogRatio + accept
  kDecode,        ///< TupleEncoder::DecodeLogits (+ non-finite scrub)
  kAppend,        ///< Table::Append
  kCount
};

const char* SpanNameString(SpanName name);

struct Span {
  SpanName name = SpanName::kQuery;
  int32_t parent = -1;
  int64_t query = -1;  ///< RunLog query index; -1 for session-level work
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder. Disabled, Begin/End cost a branch, which is
/// what the overhead measurement compares against.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  int Begin(SpanName name, int64_t query);
  void End(int span);
  void Add(SpanName name, int64_t query, int32_t parent, Clock::time_point a,
           Clock::time_point b);
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time (ns) of every span: duration minus its children's.
  std::vector<int64_t> SelfTimes() const;
  bool WriteJsonl(const std::string& path, const char* workload,
                  uint64_t seed) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The trace-derived per-layer metrics (replay-based gen/aqp/wire costs,
/// trace shares, overhead) and the replay's own checks: the replicated
/// queries must reproduce the server's final bytes and the stage replay
/// must reproduce Generate's rows. A failed check means the metrics were
/// measured on a copy of the serving loop that no longer matches it.
struct TraceReport {
  std::vector<Metric> metrics;
  size_t replay_mismatches = 0;
  bool stage_identical = true;
};

/// Runs the traced replay and the stage replay for `log`'s workload. Spans
/// go to `trace_path`.
TraceReport TracedPass(Fixture& fixture, const RunLog& log, Workload workload,
                       uint64_t seed, const std::string& trace_path);

}  // namespace aqpbench

#endif  // AQPBENCH_TRACE_H_
