#include "fixture.h"

#include "data/generators.h"
#include "util/thread_pool.h"

namespace aqpbench {

using namespace deepaqp;

util::Result<std::unique_ptr<Fixture>> Fixture::Build() {
  std::unique_ptr<Fixture> f(new Fixture());

  // Data and training run on one thread. At this model size four threads
  // train no faster than one on a 4-core VM (2.5-3.2 s against 2.1-2.4 s),
  // and their per-batch barriers wait for whichever vCPU the host took
  // away, which made set-up time swing threefold under CPU steal. One
  // thread makes set-up time a measure of set-up work. The model bytes do
  // not depend on the thread count.
  const int threads = util::GlobalThreads();
  util::SetGlobalThreads(1);
  f->census_ = data::GenerateCensus({.rows = kCensusRows, .seed = 1});

  // The benches' default model shape (bench_common.h DefaultVaeOptions) at
  // an epoch count that keeps one set-up near two seconds.
  vae::VaeAqpOptions vopts;
  vopts.epochs = 5;
  vopts.hidden_dim = 64;
  vopts.depth = 2;
  vopts.encoder.numeric_bins = 24;
  vopts.seed = 97;
  auto model = vae::VaeAqpModel::Train(f->census_, vopts);
  util::SetGlobalThreads(threads);
  if (!model.ok()) return model.status();
  f->model_ = std::move(*model);
  f->model_bytes_ = f->model_->Serialize();

  // Production defaults (AqpClient::Options) except the population, which
  // is the relation the model was trained on.
  f->server_options_.client.population_rows = kCensusRows;
  f->server_ = std::make_unique<server::AqpServer>(f->server_options_);
  f->server_->registry().Install(kModelName, f->model_);

  server::SocketServer::Options sopts;
  sopts.port = 0;
  f->socket_ = std::make_unique<server::SocketServer>(f->server_.get(), sopts);
  DEEPAQP_RETURN_IF_ERROR(f->socket_->Listen());
  DEEPAQP_RETURN_IF_ERROR(f->socket_->Start());
  return f;
}

Fixture::~Fixture() { StopServer(); }

void Fixture::StopServer() {
  if (socket_ != nullptr) socket_->Shutdown();
  socket_.reset();
  server_.reset();
}

}  // namespace aqpbench
