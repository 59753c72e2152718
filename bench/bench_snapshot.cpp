// Snapshot persistence bench: serialize / deserialize / checksum-verify
// throughput for a trained VAE at a few model sizes. Persistence is on the
// serving path (a cold server loads its model before answering the first
// query), so load cost — dominated by the CRC sweep plus weight copies —
// matters alongside model quality.
//
//   ./bench_snapshot [--rows 20000] [--epochs 3] [--reps 20]

#include "bench_common.h"

#include <vector>

#include "util/snapshot.h"
#include "util/timer.h"

using namespace deepaqp;  // NOLINT: bench brevity

namespace {

void PrintThroughputRow(const std::string& series, const char* op,
                        size_t bytes, double seconds) {
  bench::PrintValueRow("Snapshot", "census", series + " " + op, "ms",
                       seconds * 1e3);
  bench::PrintValueRow("Snapshot", "census", series + " " + op, "mb_per_sec",
                       static_cast<double>(bytes) / 1e6 / seconds);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  if (const util::Status st = nn::ApplyRuntimeFlags(flags); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  const auto rows = static_cast<size_t>(flags.GetInt("rows", 20000));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 3));
  const int reps = static_cast<int>(flags.GetInt("reps", 20));

  const relation::Table table = bench::MakeDataset("census", rows);

  for (int hidden : {32, 64, 128}) {
    vae::VaeAqpOptions options = bench::DefaultVaeOptions(epochs);
    options.hidden_dim = hidden;
    auto model = vae::VaeAqpModel::Train(table, options);
    if (!model.ok()) return 1;

    char series[32];
    std::snprintf(series, sizeof(series), "hidden=%d", hidden);

    // Serialize: encode + section table + CRC sweep.
    std::vector<uint8_t> bytes;
    util::Stopwatch save_watch;
    for (int r = 0; r < reps; ++r) bytes = (*model)->Serialize();
    PrintThroughputRow(series, "serialize", bytes.size(),
                       save_watch.ElapsedSeconds() / reps);
    bench::PrintValueRow("Snapshot", "census", series, "snapshot_bytes",
                         static_cast<double>(bytes.size()));

    // Deserialize: full strict open + section decode into a live model.
    util::Stopwatch load_watch;
    for (int r = 0; r < reps; ++r) {
      auto back = vae::VaeAqpModel::Deserialize(bytes);
      if (!back.ok()) return 1;
    }
    PrintThroughputRow(series, "deserialize", bytes.size(),
                       load_watch.ElapsedSeconds() / reps);

    // Verify-only: container open + per-section CRC check, no decode. This
    // is the integrity floor a loader pays before trusting any byte.
    util::Stopwatch verify_watch;
    for (int r = 0; r < reps; ++r) {
      auto snap = util::SnapshotReader::Open(bytes);
      if (!snap.ok()) return 1;
      for (const auto& s : snap->sections()) {
        if (!snap->Section(s.name).ok()) return 1;
      }
    }
    PrintThroughputRow(series, "verify", bytes.size(),
                       verify_watch.ElapsedSeconds() / reps);
  }
  return 0;
}
