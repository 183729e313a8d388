#include "harness/workload.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common/load.hpp"
#include "common/rng.hpp"
#include "core/session.hpp"
#include "datasets/generators.hpp"
#include "datasets/vca_profiles.hpp"
#include "ingest/pcap_replay.hpp"
#include "ml/flattened_forest.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"
#include "netem/conditions.hpp"
#include "netflow/pcap.hpp"

namespace qoebench {
namespace {

using namespace vcaqoe;

/// Per-workload traffic shape. Why each workload looks the way it does is
/// recorded in README.md.
struct Shape {
  int calls = 0;
  double minCallSec = 0.0;
  double maxCallSec = 0.0;
  /// Call starts are drawn from [0, startSpreadSec) whole seconds.
  int startSpreadSec = 1;
  datasets::Deployment deployment = datasets::Deployment::kLab;
  /// Every n-th Teams/Webex call sits behind the RTP-visible vantage
  /// (0: none).
  int rtpEveryNthPtCall = 0;
  /// Real-world calls are capped to a few hundred kbps.
  double minCapKbps = 0.0;
  double maxCapKbps = 0.0;
  int trainCallsPerVca = 0;
  double trainCallSec = 0.0;
  /// Seed of the training calls: fixed per workload, so the served models
  /// (and fps_mae's dependence on them) do not move with --seed.
  std::uint64_t trainSeed = 0;
};

Shape shapeOf(Workload workload) {
  Shape shape;
  if (workload == Workload::kIspChurn) {
    shape.calls = 2000;
    shape.minCallSec = 15.0;  // §4.2: 15-25 s real-world calls
    shape.maxCallSec = 25.0;
    shape.startSpreadSec = 100;
    shape.deployment = datasets::Deployment::kRealWorld;
    shape.minCapKbps = 200.0;
    shape.maxCapKbps = 600.0;
    shape.trainCallsPerVca = 30;
    shape.trainCallSec = 20.0;
    shape.trainSeed = 0x15C0C4u;
  } else {
    // Every call ends within the idle timeout of the stream's end, so no
    // flow is evicted while the stream runs: lab traffic has no churn.
    shape.calls = 200;
    shape.minCallSec = 36.0;
    shape.maxCallSec = 40.0;
    shape.startSpreadSec = 5;
    shape.deployment = datasets::Deployment::kLab;
    shape.rtpEveryNthPtCall = 2;  // 2/3 of calls are Teams/Webex -> 1/3
    shape.trainCallsPerVca = 12;
    shape.trainCallSec = 40.0;
    shape.trainSeed = 0x1AB;
  }
  return shape;
}

constexpr std::uint32_t serverIp(int vca) {
  // Addresses are labels only; the VCA verdict comes from the media port.
  constexpr std::uint32_t kServers[3] = {0x8EFA5201u, 0x34700001u,
                                         0xAA480001u};
  return kServers[vca];
}

constexpr std::uint16_t mediaPort(int vca) {
  // Meet relay, Teams transport relay, Webex media (MediaClassifier).
  constexpr std::uint16_t kPorts[3] = {19305, 3478, 9000};
  return kPorts[vca];
}

struct CallSpec {
  simcall::VcaProfile profile;
  netem::ConditionSchedule schedule;
  rxstats::GroundTruthOptions truthOptions;
  double durationSec = 0.0;
  std::uint64_t simSeed = 0;
  int vca = 0;
  bool rtp = false;
  std::int64_t startWindow = 0;
};

/// Draws call `index` of VCA `vca`. The VCA mix and RTP placement are
/// stratified by index (not drawn) so seeds differ only in durations,
/// start times and network conditions. Consumes `rng` in a fixed order, so
/// the spec sequence is a pure function of the seed.
CallSpec drawCall(const Shape& shape, common::Rng& rng, int vca, int index) {
  CallSpec spec;
  spec.vca = vca;
  spec.profile = datasets::allProfiles(shape.deployment)[spec.vca];
  spec.durationSec = rng.uniform(shape.minCallSec, shape.maxCallSec);
  spec.startWindow = rng.uniformInt(0, shape.startSpreadSec - 1);
  spec.simSeed = rng.engine()();
  const auto seconds =
      static_cast<std::size_t>(std::ceil(spec.durationSec)) + 1;
  if (shape.deployment == datasets::Deployment::kLab) {
    netem::NdtTraceSynthesizer synth(rng.engine()());
    spec.schedule = synth.synthesize(seconds);
    // Indices 1, 2 (Teams, Webex) of every 3-call round; every n-th round.
    spec.rtp = spec.vca != 0 && shape.rtpEveryNthPtCall > 0 &&
               (index / 3) % shape.rtpEveryNthPtCall == 0;
  } else {
    const double cap = rng.uniform(shape.minCapKbps, shape.maxCapKbps);
    spec.profile.maxTargetKbps = cap;
    spec.profile.startKbps = std::min(spec.profile.startKbps, cap);
    spec.profile.minTargetKbps = std::min(spec.profile.minTargetKbps, cap);
    const auto& households = netem::householdProfiles();
    const auto& household = households[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(households.size()) - 1))];
    common::Rng scheduleRng(rng.engine()());
    spec.schedule = netem::householdSchedule(household, seconds, scheduleRng);
    spec.truthOptions = datasets::raspberryPiReceiver(spec.profile);
  }
  return spec;
}

/// Simulates every spec on a small pool; results land by index, so the
/// output does not depend on scheduling.
std::vector<core::LabeledSession> simulate(const std::vector<CallSpec>& specs) {
  std::vector<core::LabeledSession> sessions(specs.size());
  const std::size_t threads =
      std::min<std::size_t>(common::hardwareThreadsOr(1), 4);
  std::atomic<std::size_t> next{0};
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < specs.size();
             i = next.fetch_add(1)) {
          const CallSpec& spec = specs[i];
          sessions[i] = datasets::simulateSession(
              spec.profile, spec.schedule, spec.durationSec, spec.simSeed, i,
              spec.truthOptions);
        }
      });
    }
  }
  return sessions;
}

constexpr int vcaIndex(std::string_view name) {
  return name == "meet" ? 0 : name == "teams" ? 1 : 2;
}

}  // namespace

Inputs generateInputs(Workload workload, std::uint64_t seed, double scale) {
  const Shape shape = shapeOf(workload);
  common::Rng rng(seed);
  const int calls = std::max(
      3, static_cast<int>(std::lround(shape.calls * scale)));
  std::vector<CallSpec> specs;
  specs.reserve(static_cast<std::size_t>(calls));
  for (int i = 0; i < calls; ++i) {
    specs.push_back(drawCall(shape, rng, i % 3, i));
  }
  auto sessions = simulate(specs);

  Inputs inputs;
  std::vector<ingest::SourcePacket> stream;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const CallSpec& spec = specs[i];
    auto& session = sessions[i];
    Call call;
    call.vca = spec.profile.name;
    call.startWindow = spec.startWindow;
    call.key.srcIp = serverIp(spec.vca);
    call.key.srcPort = mediaPort(spec.vca);
    call.key.dstIp = 0x0A000000u | (spec.rtp ? 0x00800000u : 0u) |
                     static_cast<std::uint32_t>(i + 1);
    call.key.dstPort = static_cast<std::uint16_t>(49152 + i % 16000);
    const common::TimeNs offset = spec.startWindow * common::kNanosPerSecond;
    common::TimeNs previous = 0;
    for (auto packet : session.packets) {
      if (packet.arrivalNs - previous >= kIdleTimeoutNs / 2) {
        throw std::runtime_error("call " + std::to_string(i) +
                                 " pauses long enough for idle eviction");
      }
      previous = packet.arrivalNs;
      packet.arrivalNs += offset;
      stream.push_back({call.key, packet});
    }
    call.truth = std::move(session.truth);
    std::stable_sort(call.truth.begin(), call.truth.end(),
                     [](const rxstats::QoeRow& a, const rxstats::QoeRow& b) {
                       return a.second < b.second;
                     });
    session.packets = {};
    inputs.calls.push_back(std::move(call));
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const ingest::SourcePacket& a,
                      const ingest::SourcePacket& b) {
                     return a.packet.arrivalNs < b.packet.arrivalNs;
                   });
  netflow::PcapWriter writer;
  for (const auto& sp : stream) writer.write(sp.flow, sp.packet);
  inputs.pcap = writer.bytes();
  inputs.packets = stream.size();
  inputs.streamEndNs = stream.empty() ? 0 : stream.back().packet.arrivalNs;

  for (const auto& call : inputs.calls) {
    const ModelKey key{call.vca, rtpVisible(call.key)
                                     ? features::FeatureSet::kRtp
                                     : features::FeatureSet::kIpUdp};
    if (std::find(inputs.servedModels.begin(), inputs.servedModels.end(),
                  key) == inputs.servedModels.end()) {
      inputs.servedModels.push_back(key);
    }
  }
  std::sort(inputs.servedModels.begin(), inputs.servedModels.end(),
            [](const ModelKey& a, const ModelKey& b) {
              return std::tie(a.vca, a.set) < std::tie(b.vca, b.set);
            });
  return inputs;
}

void trainModels(Workload workload, std::span<const ModelKey> models,
                 const core::StreamingOptions& streaming,
                 const std::string& dir, double scale) {
  const Shape shape = shapeOf(workload);
  // The workload's fixed training seed stream (not --seed).
  common::Rng rng(shape.trainSeed ^ 0x9E3779B97F4A7C15ULL);
  const int perVca = std::max(
      2, static_cast<int>(std::lround(shape.trainCallsPerVca * scale)));
  Shape trainShape = shape;
  trainShape.minCallSec = shape.trainCallSec;
  trainShape.maxCallSec = shape.trainCallSec;
  std::vector<CallSpec> specs;
  for (int vca = 0; vca < 3; ++vca) {
    for (int i = 0; i < perVca; ++i) {
      specs.push_back(drawCall(trainShape, rng, vca, i));
    }
  }
  const auto sessions = simulate(specs);

  std::uint64_t modelIndex = 0;
  for (const auto& model : models) {
    core::StreamingOptions options = streaming;
    options.featureSet = model.set;
    const auto codec = core::resolutionCodecFor(model.vca);
    std::array<ml::Dataset, inference::kNumTargets> data;
    for (auto& d : data) d.featureNames = features::featureNames(model.set);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].vca != vcaIndex(model.vca)) continue;
      const auto& session = sessions[i];
      std::unordered_map<std::int64_t, const rxstats::QoeRow*> truth;
      for (const auto& row : session.truth) truth[row.second] = &row;
      core::StreamingEstimator estimator(
          options, [&](const core::StreamingOutput& out) {
            const auto it = truth.find(out.window);
            if (it == truth.end() || !it->second->valid) return;
            const rxstats::QoeRow& row = *it->second;
            data[0].addRow(out.features, row.fps);
            data[1].addRow(out.features, row.bitrateKbps);
            data[2].addRow(out.features, row.frameJitterMs);
            data[3].addRow(out.features, codec.encode(row.frameHeight));
          });
      for (const auto& packet : session.packets) estimator.onPacket(packet);
      estimator.finish();
    }
    const std::filesystem::path base = std::filesystem::path(dir) /
                                       model.vca /
                                       std::string(features::toString(model.set));
    std::filesystem::create_directories(base);
    for (const auto target : inference::kAllTargets) {
      const auto t = static_cast<std::size_t>(target);
      ml::ForestOptions forestOptions;  // 60 trees, as in the paper's setup
      ml::RandomForest forest;
      forest.fit(data[t],
                 target == inference::QoeTarget::kResolution
                     ? ml::TreeTask::kClassification
                     : ml::TreeTask::kRegression,
                 forestOptions, shape.trainSeed * 31 + modelIndex * 7 + t);
      ml::saveFlattenedForestFile(
          ml::FlattenedForest(forest),
          (base / (std::string(inference::toString(target)) +
                   ml::kFlatForestFileExtension))
              .string());
    }
    ++modelIndex;
  }
}

std::vector<ingest::SourcePacket> parseStream(
    std::span<const std::uint8_t> pcap) {
  ingest::PcapReplaySource source(pcap);
  std::vector<ingest::SourcePacket> stream;
  ingest::SourcePacket sp;
  while (source.next(sp)) stream.push_back(sp);
  return stream;
}

Accuracy fpsAccuracy(const Inputs& inputs,
                     std::span<const engine::EngineResult> results,
                     std::span<const netflow::FlowKey> flowKeys) {
  std::unordered_map<netflow::FlowKey, const Call*, netflow::FlowKeyHash>
      byKey;
  for (const auto& call : inputs.calls) byKey[call.key] = &call;
  double absError = 0.0;
  Accuracy accuracy;
  for (const auto& result : results) {
    const auto it = byKey.find(flowKeys[result.flow]);
    if (it == byKey.end()) continue;
    const Call& call = *it->second;
    const std::int64_t second = result.output.window - call.startWindow;
    const auto row = std::lower_bound(
        call.truth.begin(), call.truth.end(), second,
        [](const rxstats::QoeRow& r, std::int64_t s) { return r.second < s; });
    if (row == call.truth.end() || row->second != second || !row->valid) {
      continue;
    }
    const auto fps =
        result.output.predictions.get(inference::QoeTarget::kFrameRate);
    if (!fps) continue;
    absError += std::abs(*fps - row->fps);
    ++accuracy.windows;
  }
  if (accuracy.windows > 0) {
    accuracy.fpsMae = absError / static_cast<double>(accuracy.windows);
  }
  return accuracy;
}

}  // namespace qoebench
