#include "harness/probes.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/media_classifier.hpp"
#include "features/columns.hpp"
#include "harness/compare.hpp"
#include "harness/config.hpp"
#include "rtp/rtp.hpp"

namespace qoebench {

using namespace vcaqoe;

namespace {

features::FeatureSet featureSetOf(const engine::EngineOptions& config,
                                  const netflow::FlowKey& key) {
  return config.featureSetResolver ? config.featureSetResolver(key)
                                   : config.streaming.featureSet;
}

/// [begin, end) of each flow's windows in the canonical result order.
std::vector<std::pair<std::size_t, std::size_t>> flowRanges(
    const ReferenceRun& reference) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges(
      reference.flowKeys.size(), {0, 0});
  const auto& results = reference.results;
  for (std::size_t i = 0; i < results.size();) {
    std::size_t j = i;
    while (j < results.size() && results[j].flow == results[i].flow) ++j;
    ranges[results[i].flow] = {i, j};
    i = j;
  }
  return ranges;
}

}  // namespace

ProbeResult probeInference(const ReferenceRun& reference,
                           const engine::EngineOptions& config,
                           Tracer& tracer) {
  ProbeResult probe;
  const auto root = traceSpan(&tracer, SpanKind::kBenchProbe, 0);
  const core::MediaClassifier classifier(config.streaming.classifier);
  const auto ranges = flowRanges(reference);
  std::vector<inference::WindowContext> contexts;
  std::vector<inference::PredictionSet> predictions;
  for (std::size_t flow = 0; flow < ranges.size(); ++flow) {
    const auto& key = reference.flowKeys[flow];
    const auto backend = config.registry->resolveSet(
        std::string(core::toString(classifier.classifyVca(key))),
        inference::kAllTargets, featureSetOf(config, key));
    for (std::size_t first = ranges[flow].first; first < ranges[flow].second;
         first += kInferenceBatch) {
      const std::size_t last =
          std::min(first + kInferenceBatch, ranges[flow].second);
      contexts.clear();
      for (std::size_t i = first; i < last; ++i) {
        contexts.push_back(
            core::makeWindowContext(reference.results[i].output));
      }
      predictions.assign(contexts.size(), inference::PredictionSet{});
      {
        const auto span = traceSpan(
            &tracer, SpanKind::kInferencePredict,
            windowKey(static_cast<std::uint32_t>(flow),
                      reference.results[first].output.window));
        backend->predictWindowBatch(contexts, predictions);
      }
      for (std::size_t i = first; i < last; ++i) {
        ++probe.windows;
        if (!samePredictions(predictions[i - first],
                             reference.results[i].output.predictions)) {
          ++probe.mismatches;
        }
      }
    }
  }
  return probe;
}

ProbeResult probeFeatures(std::span<const ingest::SourcePacket> stream,
                          const ReferenceRun& reference,
                          const engine::EngineOptions& config,
                          Tracer& tracer) {
  ProbeResult probe;
  const auto root = traceSpan(&tracer, SpanKind::kBenchProbe, 0);
  const core::MediaClassifier classifier(config.streaming.classifier);
  const common::DurationNs windowNs = config.streaming.windowNs;
  std::unordered_map<netflow::FlowKey, std::size_t, netflow::FlowKeyHash> ids;
  for (std::size_t id = 0; id < reference.flowKeys.size(); ++id) {
    ids.emplace(reference.flowKeys[id], id);
  }
  std::vector<std::vector<const netflow::Packet*>> packets(ids.size());
  for (const auto& sp : stream) {
    const auto it = ids.find(sp.flow);
    if (it != ids.end()) packets[it->second].push_back(&sp.packet);
  }
  const auto ranges = flowRanges(reference);
  features::WindowColumns video;
  features::WindowColumns whole;
  for (std::size_t flow = 0; flow < ranges.size(); ++flow) {
    const features::FeatureSet set =
        featureSetOf(config, reference.flowKeys[flow]);
    const bool rtpSet = set == features::FeatureSet::kRtp;
    std::size_t next = 0;  // first packet not yet consumed
    const auto& flowPackets = packets[flow];
    for (std::size_t i = ranges[flow].first; i < ranges[flow].second; ++i) {
      const auto& expected = reference.results[i].output;
      video.assignFrom({}, false);
      whole.assignFrom({}, rtpSet);
      while (next < flowPackets.size() &&
             common::windowIndex(flowPackets[next]->arrivalNs, windowNs) <=
                 expected.window) {
        const netflow::Packet& packet = *flowPackets[next++];
        bool isVideo = false;
        if (rtpSet) {
          const auto header = rtp::decode(packet.headBytes());
          isVideo = header.has_value() &&
                    header->payloadType == config.streaming.extraction.videoPt;
          whole.append(packet);
        } else {
          isVideo = classifier.isVideo(packet);
        }
        if (isVideo) video.append(packet);
      }
      std::vector<double> extracted;
      {
        const auto span = traceSpan(
            &tracer, SpanKind::kFeaturesExtract,
            windowKey(static_cast<std::uint32_t>(flow), expected.window));
        extracted = features::extractFeatures(whole, video, windowNs, set,
                                              config.streaming.extraction);
      }
      ++probe.windows;
      if (extracted.size() != expected.features.size() ||
          !std::equal(extracted.begin(), extracted.end(),
                      expected.features.begin(),
                      [](double a, double b) { return sameDouble(a, b); })) {
        ++probe.mismatches;
      }
    }
  }
  return probe;
}

}  // namespace qoebench
