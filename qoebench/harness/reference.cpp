#include "harness/reference.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "ingest/pcap_replay.hpp"

namespace qoebench {

using namespace vcaqoe;

ReferenceRun runReference(std::span<const std::uint8_t> pcap,
                          const engine::EngineOptions& config,
                          Tracer* tracer) {
  if (!config.registry) {
    throw std::invalid_argument("reference needs the config's registry");
  }
  ReferenceRun run;
  ingest::PcapReplaySource source(pcap);
  const core::MediaClassifier classifier(config.streaming.classifier);
  engine::FlowTable table;
  // A deque never relocates, so each estimator's callback may keep its id.
  std::deque<core::StreamingEstimator> estimators;
  std::vector<std::int64_t> firstWindow;
  const std::int64_t start = nowNs();
  {
    const auto root = traceSpan(tracer, SpanKind::kBenchReference, 0);
    ingest::SourcePacket sp;
    for (std::uint64_t index = 0;; ++index) {
      {
        const auto span = packetSpan(tracer, SpanKind::kIngestNext, index);
        if (!source.next(sp)) break;
      }
      const engine::FlowId id = table.intern(sp.flow);
      if (id == estimators.size()) {
        const features::FeatureSet set = config.featureSetResolver
                                             ? config.featureSetResolver(sp.flow)
                                             : config.streaming.featureSet;
        core::StreamingEstimator::BackendPtr backend;
        {
          const auto span =
              traceSpan(tracer, SpanKind::kInferenceResolve, index);
          backend = config.registry->resolveSet(
              std::string(core::toString(classifier.classifyVca(sp.flow))),
              inference::kAllTargets, set);
        }
        core::StreamingOptions options = config.streaming;
        options.featureSet = set;
        estimators.emplace_back(
            std::move(options),
            [&results = run.results, id](const core::StreamingOutput& out) {
              results.push_back({id, out});
            },
            std::move(backend));
        run.flowKeys.push_back(sp.flow);
        firstWindow.push_back(
            common::windowIndex(sp.packet.arrivalNs, config.streaming.windowNs));
      }
      const std::size_t before = run.results.size();
      const auto span = packetSpan(tracer, SpanKind::kCoreOnPacket, index);
      estimators[id].onPacket(sp.packet);
      if (tracer != nullptr && tracer->sampledPacket(index) &&
          run.results.size() != before) {
        tracer->relabel(SpanKind::kCoreEmit);
      }
      ++run.packets;
    }
    for (auto& estimator : estimators) {
      const auto span = traceSpan(tracer, SpanKind::kCoreFinish, 0);
      estimator.finish();
    }
    std::stable_sort(run.results.begin(), run.results.end(),
                     [](const engine::EngineResult& a,
                        const engine::EngineResult& b) {
                       if (a.flow != b.flow) return a.flow < b.flow;
                       return a.output.window < b.output.window;
                     });
  }
  run.seconds = static_cast<double>(nowNs() - start) / 1e9;
  for (const auto& result : run.results) {
    if (result.output.window < firstWindow[result.flow]) {
      ++run.preFirstPacketWindows;
    }
  }
  return run;
}

}  // namespace qoebench
