#include "harness/latency.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "harness/config.hpp"

namespace qoebench {

void LatencyProbe::useSchedule(const OpenLoopSchedule& schedule,
                               vcaqoe::common::TimeNs streamEndNs) {
  reachedNs_.clear();
  while (nextEndNs() <= streamEndNs) {
    reachedNs_.push_back(schedule.dueNs(nextEndNs()));
  }
}

void LatencyProbe::record(std::int64_t window, std::int64_t wallNs) {
  if (window < 0 || window >= static_cast<std::int64_t>(reachedNs_.size())) {
    return;
  }
  windows_.push_back(window);
  samplesMs_.push_back(
      static_cast<double>(wallNs - reachedNs_[static_cast<std::size_t>(window)]) /
      1e6);
}

std::vector<Segment> segmentsOf(std::span<const double> latencyMs,
                                std::span<const std::int64_t> latencyWindows,
                                std::span<const double> lagMs,
                                std::span<const std::int64_t> lagWindows) {
  std::map<std::int64_t, std::pair<std::vector<double>, std::vector<double>>>
      bySegment;
  for (std::size_t i = 0; i < latencyMs.size(); ++i) {
    bySegment[latencyWindows[i] / kSegmentWindows].first.push_back(
        latencyMs[i]);
  }
  for (std::size_t i = 0; i < lagMs.size(); ++i) {
    const auto it = bySegment.find(lagWindows[i] / kSegmentWindows);
    if (it != bySegment.end()) it->second.second.push_back(lagMs[i]);
  }
  std::vector<Segment> segments;
  for (auto& [index, samples] : bySegment) {
    auto& [latency, lag] = samples;
    segments.push_back({index, percentile(std::move(lag), 0.99),
                        percentile(latency, 0.5),
                        percentile(latency, 0.99)});
  }
  return segments;
}

CalmLatency calmLatency(std::span<const Segment> segments) {
  std::map<std::int64_t, std::vector<const Segment*>> byIndex;
  for (const auto& segment : segments) {
    byIndex[segment.index].push_back(&segment);
  }
  CalmLatency result;
  std::vector<double> p50s, p99s;
  for (auto& [index, replays] : byIndex) {
    std::vector<double> p50, p99;
    for (const Segment* segment : replays) {
      if (segment->genLagP99Ms <= kCalmGenLagMs) {
        p50.push_back(segment->p50Ms);
        p99.push_back(segment->p99Ms);
      }
    }
    if (p50.empty()) {
      const Segment* least = *std::min_element(
          replays.begin(), replays.end(), [](const auto* a, const auto* b) {
            return a->genLagP99Ms < b->genLagP99Ms;
          });
      p50.push_back(least->p50Ms);
      p99.push_back(least->p99Ms);
    }
    result.segmentsKept += p50.size();
    p50s.push_back(median(std::move(p50)));
    p99s.push_back(median(std::move(p99)));
  }
  result.p50Ms = median(std::move(p50s));
  result.p99Ms = median(std::move(p99s));
  return result;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

}  // namespace qoebench
