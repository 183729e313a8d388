#include "harness/compare.hpp"

#include <bit>
#include <tuple>

namespace qoebench {
using namespace vcaqoe;

bool sameDouble(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool samePredictions(const inference::PredictionSet& a,
                     const inference::PredictionSet& b) {
  for (const auto target : inference::kAllTargets) {
    const auto x = a.get(target);
    const auto y = b.get(target);
    if (x.has_value() != y.has_value()) return false;
    if (x && !sameDouble(*x, *y)) return false;
  }
  return true;
}

bool sameBits(const core::StreamingOutput& a, const core::StreamingOutput& b) {
  if (a.window != b.window || a.features.size() != b.features.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.features.size(); ++i) {
    if (!sameDouble(a.features[i], b.features[i])) return false;
  }
  const auto& h = a.heuristic;
  const auto& g = b.heuristic;
  return h.window == g.window && h.frameCount == g.frameCount &&
         sameDouble(h.fps, g.fps) && sameDouble(h.bitrateKbps, g.bitrateKbps) &&
         sameDouble(h.frameJitterMs, g.frameJitterMs) &&
         samePredictions(a.predictions, b.predictions);
}

Comparison compareResults(std::span<const engine::EngineResult> expected,
                          std::span<const engine::EngineResult> actual) {
  Comparison c;
  c.expected = expected.size();
  std::size_t i = 0;
  std::size_t j = 0;
  const auto key = [](const engine::EngineResult& r) {
    return std::make_tuple(r.flow, r.output.window);
  };
  while (i < expected.size() || j < actual.size()) {
    if (j == actual.size() ||
        (i < expected.size() && key(expected[i]) < key(actual[j]))) {
      ++c.missing;
      ++i;
    } else if (i == expected.size() || key(actual[j]) < key(expected[i])) {
      ++c.extra;
      ++j;
    } else {
      if (!sameBits(expected[i].output, actual[j].output)) ++c.mismatched;
      ++i;
      ++j;
    }
  }
  return c;
}

}  // namespace qoebench
