#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "engine/multi_flow_engine.hpp"
#include "inference/model_registry.hpp"

/// The one engine configuration every workload runs (the deployment
/// config), and the workload names. Only the traffic differs between
/// workloads; nothing here may depend on which workload runs.
namespace qoebench {

enum class Workload { kLabReplay, kIspChurn };

std::optional<Workload> workloadFromString(std::string_view name);
std::string_view toString(Workload workload);

/// Generator + dispatcher + workers must fit a 4-core host.
inline constexpr int kWorkers = 2;
/// Results are drained every this many packets (the replay driver's
/// default cadence).
inline constexpr std::size_t kPollEvery = 1024;
/// Stream-time cadence of `MultiFlowEngine::pump`.
inline constexpr vcaqoe::common::DurationNs kPumpIntervalNs =
    100 * vcaqoe::common::kNanosPerMilli;
/// Flows quiet for this long (stream time) are evicted.
inline constexpr vcaqoe::common::DurationNs kIdleTimeoutNs =
    10 * vcaqoe::common::kNanosPerSecond;
/// Cross-flow inference batching: windows held per shard, and the
/// stream-time deadline after which a partial batch is flushed.
inline constexpr std::size_t kInferenceBatch = 32;
inline constexpr vcaqoe::common::DurationNs kInferenceFlushNs =
    250 * vcaqoe::common::kNanosPerMilli;
/// Algorithm-1 lookback: the engine runs one Nmax for every flow.
inline constexpr int kLookback = 2;
/// RTP payload types the kRtp flows carry (lab Teams and Webex video/RTX).
inline constexpr std::uint8_t kVideoPt = 102;
inline constexpr std::uint8_t kRtxPt = 103;

/// Feature-set rule: clients in 10.128.0.0/9 sit behind a vantage point
/// where RTP headers are visible; their flows run the 24-wide kRtp row.
bool rtpVisible(const vcaqoe::netflow::FlowKey& key);

/// The deployment config: hash placement, no migration, no pinning, every
/// QoE target, cross-flow batching, idle eviction, `kWorkers` workers.
vcaqoe::engine::EngineOptions deploymentConfig(
    std::shared_ptr<vcaqoe::inference::ModelRegistry> registry);

/// Monotonic wall clock in ns (steady_clock).
inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace qoebench
