#include "server/session.h"

#include <utility>

#include "aqp/sql_parser.h"

namespace deepaqp::server {

namespace {

/// Hands every frame `producer` has due (never-sent or resend-due) to
/// `emit`.
void Transmit(ChannelProducer& producer, const Session::FrameSink& emit) {
  for (DataFrame& frame : producer.PollSend()) emit(std::move(frame));
}

}  // namespace

Session::Session(uint64_t id, std::string model_name,
                 std::shared_ptr<const ModelSnapshot> snapshot,
                 const vae::AqpClient::Options& client_options,
                 const ChannelProducer::Options& channel_options)
    : id_(id),
      model_name_(std::move(model_name)),
      snapshot_(std::move(snapshot)),
      client_options_(client_options),
      channel_options_(channel_options),
      client_(vae::AqpClient::Share(snapshot_->model, client_options)) {}

util::Status Session::StartQuery(uint64_t channel, const std::string& sql,
                                 double max_relative_ci) {
  if (!(max_relative_ci > 0.0)) {
    return util::Status::InvalidArgument(
        "max_relative_ci must be positive, got " +
        std::to_string(max_relative_ci));
  }
  for (const QueryStream& s : streams_) {
    // Duplicate client-chosen channel id: the query already has a stream
    // (the client re-sent it after a reconnect, unsure whether the first
    // copy arrived). Starting a second stream would refine the pool twice.
    if (s.channel == channel) return util::Status::OK();
  }
  DEEPAQP_ASSIGN_OR_RETURN(aqp::AggregateQuery query,
                           aqp::ParseSql(sql, client_->pool()));
  QueryStream stream(channel, channel_options_);
  stream.query = query;
  stream.max_relative_ci = max_relative_ci;
  streams_.push_back(std::move(stream));
  return util::Status::OK();
}

bool Session::HasWork() const {
  for (const QueryStream& s : streams_) {
    if (!s.exhausted || s.producer.in_flight() > 0) return true;
  }
  return false;
}

void Session::Step(const ModelRegistry& registry, const FrameSink& emit,
                   std::vector<ServerMessage>* errors) {
  for (;;) {
    // Hot-swap probe: the registry may have installed a newer version of
    // our model. Only act on it at a stream boundary — no open stream has
    // emitted an estimate yet — because the swap resets the pool and caches
    // and would otherwise break the monotonic pool_rows/precision
    // trajectory of an in-flight stream. Mid-stream, the old refcounted
    // snapshot keeps serving until the front stream retires.
    const bool at_stream_boundary =
        streams_.empty() || streams_.front().producer.next_seq() == 0;
    if (at_stream_boundary &&
        registry.VersionOf(model_name_) != snapshot_->version) {
      auto snap = registry.Get(model_name_);
      if (snap.ok()) {
        snapshot_ = std::move(*snap);
        client_->SwapModel(snapshot_->model);
        ++model_swaps_;
      }
      // A NotFound (model deleted mid-flight) keeps the old refcounted
      // snapshot serving — that is the point of refcounting.
    }

    // Only the front stream refines (per-session query serialization); it
    // pushes estimates until its window is full, the stream completes, or
    // the channel fails.
    while (!streams_.empty()) {
      QueryStream& front = streams_.front();
      bool dropped = false;
      while (!front.exhausted && front.producer.CanPush()) {
        bool final = false;
        auto result = client_->QueryRefineStep(front.query,
                                               front.max_relative_ci, &final);
        util::Status push_status;
        if (result.ok()) {
          Estimate estimate;
          estimate.pool_rows = client_->pool_size();
          estimate.result = std::move(*result);
          push_status = front.producer.Push(EncodeEstimate(estimate), final);
          front.exhausted = final && push_status.ok();
        } else {
          push_status = result.status();
        }
        if (!push_status.ok()) {
          if (errors != nullptr) {
            errors->push_back(MakeError(id_, front.channel, push_status));
          }
          streams_.pop_front();
          dropped = true;
          break;
        }
        // Answer first: the estimate leaves now, and the pool doubling it
        // left pending is paid by the next refinement, not before this send.
        Transmit(front.producer, emit);
      }
      // A live front stream (window-full, or exhausted and waiting for acks)
      // blocks later streams — per-session queries refine strictly in order.
      // Only a dropped front lets the next stream take over within this step.
      if (!dropped) break;
    }

    // Transmit due retransmissions (timeouts, NACK gaps, resume replays)
    // of every open stream, and retire streams whose final frame is fully
    // acknowledged.
    for (auto it = streams_.begin(); it != streams_.end();) {
      if (it->producer.failed()) {
        if (errors != nullptr) {
          errors->push_back(MakeError(id_, it->channel, it->producer.error()));
        }
        it = streams_.erase(it);
        continue;
      }
      Transmit(it->producer, emit);
      if (it->producer.complete()) {
        it = streams_.erase(it);
      } else {
        ++it;
      }
    }

    // Retiring the front may have promoted a queued stream that has not
    // refined yet. Pump again now: the client is waiting for that stream's
    // first frames and will send no further event to trigger another step,
    // so breaking here would stall pipelined queries forever. Terminates:
    // a promoted front just pushed frames that cannot already be acked, so
    // each extra pass needs a retirement and streams_ is finite.
    if (streams_.empty()) break;
    const QueryStream& front = streams_.front();
    if (front.exhausted || !front.producer.CanPush()) break;
  }
}

void Session::ReplayUnacked() {
  for (QueryStream& s : streams_) s.producer.ReplayUnacked();
}

void Session::AbortOpenStreams(const util::Status& reason,
                               std::vector<ServerMessage>* errors) {
  for (const QueryStream& s : streams_) {
    if (errors != nullptr) errors->push_back(MakeError(id_, s.channel, reason));
  }
  streams_.clear();
}

void Session::HandleAck(const AckFrame& ack) {
  for (QueryStream& s : streams_) {
    if (s.channel != ack.channel) continue;
    s.producer.OnAck(ack);
    s.producer.Tick();
    return;
  }
}

}  // namespace deepaqp::server
