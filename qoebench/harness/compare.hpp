#pragma once

#include <cstdint>
#include <span>

#include "core/streaming.hpp"
#include "engine/multi_flow_engine.hpp"

/// The benchmark's correctness check: every engine window against the
/// sequential reference, keyed by (flow, window), compared bit for bit.
namespace qoebench {

struct Comparison {
  std::uint64_t expected = 0;    ///< reference windows
  std::uint64_t missing = 0;     ///< in the reference, not in the run
  std::uint64_t extra = 0;       ///< in the run, not in the reference
  std::uint64_t mismatched = 0;  ///< same key, some field differs
  std::uint64_t failed() const { return missing + extra + mismatched; }
};

/// Bit-pattern equality (distinguishes -0.0 from 0.0; NaN equals itself).
bool sameDouble(double a, double b);

/// Same targets set, with bit-identical values.
bool samePredictions(const vcaqoe::inference::PredictionSet& a,
                     const vcaqoe::inference::PredictionSet& b);

/// True when features, heuristic and every prediction carry the same bit
/// patterns (a permuted or sign-flipped field is caught, unlike a sum).
bool sameBits(const vcaqoe::core::StreamingOutput& a,
              const vcaqoe::core::StreamingOutput& b);

/// Merge-joins two result streams in canonical (flow, window) order.
Comparison compareResults(
    std::span<const vcaqoe::engine::EngineResult> expected,
    std::span<const vcaqoe::engine::EngineResult> actual);

}  // namespace qoebench
