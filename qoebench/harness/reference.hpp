#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/multi_flow_engine.hpp"
#include "harness/trace.hpp"

/// The single-threaded reference: the same packet stream through a
/// `FlowTable` and one `core::StreamingEstimator` per flow, with the models
/// the engine config's registry serves, predicted per window (unbatched).
/// It is the benchmark's baseline and its correctness oracle.
namespace qoebench {

struct ReferenceRun {
  /// Every window, in canonical (flow id, window) order.
  std::vector<vcaqoe::engine::EngineResult> results;
  /// 5-tuple of each flow id (first-seen order, as the engine assigns).
  std::vector<vcaqoe::netflow::FlowKey> flowKeys;
  std::uint64_t packets = 0;
  /// Wall time from the first next() to the canonical result set.
  double seconds = 0.0;
  /// Windows emitted before their flow's first packet.
  std::uint64_t preFirstPacketWindows = 0;
};

/// Runs the reference over a classic pcap. With a tracer, records
/// ingest.next / inference.resolve / core.* spans.
ReferenceRun runReference(std::span<const std::uint8_t> pcap,
                          const vcaqoe::engine::EngineOptions& config,
                          Tracer* tracer = nullptr);

}  // namespace qoebench
