#pragma once

#include <cstdint>
#include <span>

#include "engine/multi_flow_engine.hpp"
#include "harness/reference.hpp"
#include "harness/trace.hpp"
#include "ingest/packet_source.hpp"

/// Traced-run probes that call single layers directly on the reference's
/// windows, so each layer's per-window cost is measured where the work
/// happens. Each probe also checks its output against the reference.
namespace qoebench {

struct ProbeResult {
  std::uint64_t windows = 0;
  std::uint64_t mismatches = 0;
};

/// Re-predicts every reference window with `predictWindowBatch` on the
/// flow's resolved backend, in chunks of the engine's inference batch,
/// each under an inference.predict span.
ProbeResult probeInference(const ReferenceRun& reference,
                           const vcaqoe::engine::EngineOptions& config,
                           Tracer& tracer);

/// Rebuilds each reference window's `WindowColumns` from its packets and
/// re-extracts its features, each under a features.extract span.
ProbeResult probeFeatures(
    std::span<const vcaqoe::ingest::SourcePacket> stream,
    const ReferenceRun& reference,
    const vcaqoe::engine::EngineOptions& config, Tracer& tracer);

}  // namespace qoebench
