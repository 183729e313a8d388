#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/streaming.hpp"
#include "engine/multi_flow_engine.hpp"
#include "harness/config.hpp"
#include "ingest/packet_source.hpp"
#include "rxstats/qoe_metrics.hpp"

/// Benchmark inputs: simulated calls written into one in-memory classic
/// pcap, plus the per-VCA models the monitor serves. Everything is a pure
/// function of (workload, seed, scale); the program under test only ever
/// sees the pcap bytes and the model files.
namespace qoebench {

/// One simulated call as the monitoring point sees it.
struct Call {
  vcaqoe::netflow::FlowKey key;
  std::string vca;  ///< "meet" | "teams" | "webex"
  /// Stream-time start, in whole windows, so call second s is window
  /// startWindow + s.
  std::int64_t startWindow = 0;
  /// Per-second ground truth, seconds since call start.
  vcaqoe::rxstats::QoeTimeline truth;
};

/// One (VCA, feature set) model family the workload serves; each has a
/// forest per QoE target.
struct ModelKey {
  std::string vca;
  vcaqoe::features::FeatureSet set = vcaqoe::features::FeatureSet::kIpUdp;
  friend bool operator==(const ModelKey&, const ModelKey&) = default;
};

struct Inputs {
  std::vector<Call> calls;
  /// Classic pcap, records in arrival order.
  std::vector<std::uint8_t> pcap;
  std::uint64_t packets = 0;
  /// Stream time of the last packet.
  vcaqoe::common::TimeNs streamEndNs = 0;
  std::vector<ModelKey> servedModels;
};

/// Builds the workload's traffic. `scale` multiplies the call count (1 is
/// the benchmark's size; the tests use less). Throws std::runtime_error
/// if a call pauses long enough for idle eviction to split it, because the
/// reference keeps one estimator per 5-tuple.
Inputs generateInputs(Workload workload, std::uint64_t seed,
                      double scale = 1.0);

/// Trains one forest per (model key, QoE target) from simulated calls
/// drawn from a fixed per-workload seed stream (disjoint from the inputs')
/// and writes them as
/// `<dir>/<vca>/<set>/<target>.fforest`. Window records come from
/// `core::StreamingEstimator` configured with `streaming` (the engine's own
/// options, with the key's feature set), so served features match trained
/// ones.
void trainModels(Workload workload, std::span<const ModelKey> models,
                 const vcaqoe::core::StreamingOptions& streaming,
                 const std::string& dir, double scale = 1.0);

/// The pcap's packets, parsed once (the live generator's input).
std::vector<vcaqoe::ingest::SourcePacket> parseStream(
    std::span<const std::uint8_t> pcap);

/// Served frame-rate accuracy against simulator truth.
struct Accuracy {
  double fpsMae = 0.0;
  std::uint64_t windows = 0;  ///< windows with valid truth and a prediction
};

/// `results` in canonical order; `flowKeys[id]` is the 5-tuple of flow id.
Accuracy fpsAccuracy(const Inputs& inputs,
                     std::span<const vcaqoe::engine::EngineResult> results,
                     std::span<const vcaqoe::netflow::FlowKey> flowKeys);

}  // namespace qoebench
