#include "harness/config.hpp"

namespace qoebench {

std::optional<Workload> workloadFromString(std::string_view name) {
  if (name == "lab_replay") return Workload::kLabReplay;
  if (name == "isp_churn") return Workload::kIspChurn;
  return std::nullopt;
}

std::string_view toString(Workload workload) {
  switch (workload) {
    case Workload::kLabReplay:
      return "lab_replay";
    case Workload::kIspChurn:
      return "isp_churn";
  }
  return "unknown";
}

bool rtpVisible(const vcaqoe::netflow::FlowKey& key) {
  return (key.dstIp & 0xFF800000u) == 0x0A800000u;
}

vcaqoe::engine::EngineOptions deploymentConfig(
    std::shared_ptr<vcaqoe::inference::ModelRegistry> registry) {
  using namespace vcaqoe;
  engine::EngineOptions options;
  options.streaming.heuristic.lookback = kLookback;
  options.streaming.heuristic.deltaMaxBytes = 2;
  options.streaming.extraction.videoPt = kVideoPt;
  options.streaming.extraction.rtxPt = kRtxPt;
  options.featureSetResolver = [](const netflow::FlowKey& key) {
    return rtpVisible(key) ? features::FeatureSet::kRtp
                           : features::FeatureSet::kIpUdp;
  };
  options.numWorkers = kWorkers;
  options.registry = std::move(registry);
  options.idleTimeoutNs = kIdleTimeoutNs;
  options.inferenceBatch = kInferenceBatch;
  options.inferenceFlushNs = kInferenceFlushNs;
  return options;
}

}  // namespace qoebench
