// Cluster ring balance: how evenly sharding spreads uploads over 4 nodes.
//
// Route a corpus of uploads spread over many (building, floor) shards
// through a 4-node ring and compute
//
//   ring_balance_4x = 1 / max_node_share
//
// where max_node_share is the most-loaded node's fraction of the corpus. It
// is the ceiling on what 4 nodes could buy over one if every node processed
// its routed share in parallel, not a measured throughput. The shard->node
// map is a pure function of the FNV-1a ring tokens, so the number is exact
// and host-independent; the acceptance bar (>= 2.5x at 4 nodes, perfect
// balance being 4.0x) is pinned in bench/baselines/TOLERANCES.conf.
// Wall-clock series here are presence-checked only.
//
// Emits BENCH_cluster.json lines:
//   - route_submit_seconds:    4-node routed run, per repeat (wall clock),
//   - route_submit_rf2_seconds: same corpus at replication_factor 2,
//   - max_node_share:          most-loaded node's fraction of the corpus,
//   - ring_balance_4x:         the gated balance multiple
//     (`--check` exits non-zero below 2.5x).
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "api/v2.hpp"
#include "bench_util.hpp"
#include "common/stopwatch.hpp"

namespace {

constexpr const char* kBench = "cluster";
constexpr int kRepeats = 3;
constexpr std::size_t kShards = 256;
constexpr double kRequiredBalance = 2.5;

crowdmap::api::ClientOptions client_options(std::size_t nodes,
                                            std::size_t replication) {
  crowdmap::api::ClientOptions options;
  options.config = crowdmap::core::PipelineConfig::fast_profile();
  options.config.cluster.nodes = nodes;
  options.config.cluster.replication_factor = replication;
  options.config.parallel.threads = 1;
  return options;
}

/// Routes one small upload per shard; returns elapsed seconds.
double route_corpus(crowdmap::api::Client& client) {
  crowdmap::api::SubmitUploadRequest request;
  request.payload = crowdmap::cloud::Blob(128, 0x5A);
  crowdmap::common::Stopwatch timer;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    request.upload_id = "upload-" + std::to_string(shard);
    request.building = "bldg-" + std::to_string(shard);
    if (!client.submit_upload(request).status.ok()) {
      std::cerr << "upload refused for shard " << shard << "\n";
      std::exit(1);
    }
  }
  const double seconds = timer.elapsed_seconds();
  client.drain();
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace crowdmap;

  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }

  std::vector<double> routed_seconds;
  std::vector<double> rf2_seconds;
  double max_share = 1.0;
  for (int r = 0; r < kRepeats; ++r) {
    api::Client lean(client_options(4, 1));
    routed_seconds.push_back(route_corpus(lean));

    const auto metrics = lean.metrics();
    double max_routed = 0.0;
    for (std::size_t node = 0; node < lean.nodes(); ++node) {
      max_routed = std::max(
          max_routed,
          metrics.value("crowdmap_cluster_uploads_routed_total",
                        {{"node", lean.node_name(node)}}));
    }
    max_share = max_routed / static_cast<double>(kShards);

    api::Client replicated(client_options(4, 2));
    rf2_seconds.push_back(route_corpus(replicated));
  }
  std::cout << "# " << kShards << " shards over 4 nodes, most-loaded share "
            << max_share << "\n";

  bench::emit_bench_json(kBench, "route_submit_seconds", routed_seconds);
  bench::emit_bench_json(kBench, "route_submit_rf2_seconds", rf2_seconds);
  bench::emit_bench_scalar(kBench, "max_node_share", max_share);

  const double balance = max_share > 0.0 ? 1.0 / max_share : 0.0;
  bench::emit_bench_scalar(kBench, "ring_balance_4x", balance);

  if (check && balance < kRequiredBalance) {
    std::cerr << "FAIL: ring balance " << balance
              << "x at 4 nodes is below the " << kRequiredBalance
              << "x acceptance bar\n";
    return 1;
  }
  return 0;
}
