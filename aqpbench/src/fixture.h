#ifndef AQPBENCH_FIXTURE_H_
#define AQPBENCH_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "relation/table.h"
#include "server/server.h"
#include "server/socket_transport.h"
#include "util/status.h"
#include "vae/vae_model.h"

namespace aqpbench {

/// The system under test, built the way a deployment builds it: the census
/// relation (paper Sec. VI-A), a VAE trained on it, and an AqpServer behind
/// a SocketServer on a loopback ephemeral port.
class Fixture {
 public:
  /// Census rows; also every session's population_rows, so COUNT/SUM
  /// estimates scale to the relation the exact answers come from.
  static constexpr size_t kCensusRows = 20000;
  static constexpr char kModelName[] = "census";

  /// Data + training + server start. Deterministic: every call produces
  /// byte-identical model bytes (checked by the caller across set-ups).
  static deepaqp::util::Result<std::unique_ptr<Fixture>> Build();

  ~Fixture();
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  /// Graceful socket shutdown (drains the server), then destroys the
  /// socket server and the AqpServer; the census and the model stay.
  /// Idempotent. Required before the global thread pool is resized, because
  /// the server's scheduler holds the pool it was built with.
  void StopServer();

  const deepaqp::relation::Table& census() const { return census_; }
  /// Non-const: the stage replay needs VaeAqpModel::net(); sessions only
  /// ever see the const snapshot installed in the registry.
  deepaqp::vae::VaeAqpModel& model() { return *model_; }
  std::shared_ptr<const deepaqp::vae::VaeAqpModel> shared_model() const {
    return model_;
  }
  const std::vector<uint8_t>& model_bytes() const { return model_bytes_; }
  deepaqp::server::AqpServer& server() { return *server_; }
  const deepaqp::server::AqpServer::Options& server_options() const {
    return server_options_;
  }
  uint16_t port() const { return socket_->port(); }

 private:
  Fixture() = default;

  deepaqp::relation::Table census_{deepaqp::relation::Schema()};
  std::shared_ptr<deepaqp::vae::VaeAqpModel> model_;
  std::vector<uint8_t> model_bytes_;
  deepaqp::server::AqpServer::Options server_options_;
  std::unique_ptr<deepaqp::server::AqpServer> server_;
  std::unique_ptr<deepaqp::server::SocketServer> socket_;
};

}  // namespace aqpbench

#endif  // AQPBENCH_FIXTURE_H_
