#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/time.hpp"

/// Window freshness: the wall time from the moment the stream reaches a
/// window's end to the moment `poll()` hands that window's result over.
namespace qoebench {

/// An open-loop schedule: stream time t is due at wall time
/// wallStartNs + (t - streamStartNs) / compression, whatever the system
/// under test is doing.
struct OpenLoopSchedule {
  std::int64_t wallStartNs = 0;
  vcaqoe::common::TimeNs streamStartNs = 0;
  double compression = 1.0;

  std::int64_t dueNs(vcaqoe::common::TimeNs streamNs) const {
    return wallStartNs + static_cast<std::int64_t>(
                             static_cast<double>(streamNs - streamStartNs) /
                             compression);
  }
};

class LatencyProbe {
 public:
  explicit LatencyProbe(vcaqoe::common::DurationNs windowNs)
      : windowNs_(windowNs) {}

  /// Every window end up to `streamEndNs` is reached when the open-loop
  /// schedule says it is due.
  void useSchedule(const OpenLoopSchedule& schedule,
                   vcaqoe::common::TimeNs streamEndNs);

  /// `window`'s result was handed over at `wallNs`. Windows whose end the
  /// stream has not reached are not sampled.
  void record(std::int64_t window, std::int64_t wallNs);

  std::span<const double> samplesMs() const { return samplesMs_; }
  /// The window of each sample, index for index with `samplesMs()`.
  std::span<const std::int64_t> sampleWindows() const { return windows_; }

 private:
  vcaqoe::common::TimeNs nextEndNs() const {
    return static_cast<vcaqoe::common::TimeNs>(reachedNs_.size() + 1) *
           windowNs_;
  }

  vcaqoe::common::DurationNs windowNs_;
  /// reachedNs_[w]: wall time the stream reached the end of window w.
  std::vector<std::int64_t> reachedNs_;
  std::vector<double> samplesMs_;
  std::vector<std::int64_t> windows_;
};

/// Open-loop replays are judged in segments of this many windows of stream
/// time, short enough that one host stall spoils only a few of them.
inline constexpr std::int64_t kSegmentWindows = 10;

/// One segment of an open-loop replay.
struct Segment {
  /// Position in the stream: windows [index, index + 1) * kSegmentWindows.
  std::int64_t index = 0;
  /// p99 lateness of the generator over the segment's packets.
  double genLagP99Ms = 0.0;
  /// Window latency percentiles over the segment's samples.
  double p50Ms = 0.0;
  double p99Ms = 0.0;
};

/// Groups a replay's latency samples (by window) and generator lateness
/// (by each packet's window) into segments. Segments without latency
/// samples are left out.
std::vector<Segment> segmentsOf(std::span<const double> latencyMs,
                                std::span<const std::int64_t> latencyWindows,
                                std::span<const double> lagMs,
                                std::span<const std::int64_t> lagWindows);

/// A segment is calm when its generator kept the schedule: p99 lateness at
/// or below this (normally 0.06-0.2 ms). A late generator means the host
/// stalled it, and the monitor with it.
inline constexpr double kCalmGenLagMs = 1.0;

/// A run's window latency. Each stream position is judged by the replays
/// in which its segment was calm, or by the least late one when none was:
/// the median of their p50 (p99). The run's figure is the median of those
/// over the positions, so every part of the stream counts once, whichever
/// replays the host stalled.
struct CalmLatency {
  double p50Ms = 0.0;
  double p99Ms = 0.0;
  std::size_t segmentsKept = 0;  ///< segments judged calm or least late
};
CalmLatency calmLatency(std::span<const Segment> segments);

/// Nearest-rank percentile (q in [0, 1]) of unsorted values; 0 when empty.
double percentile(std::vector<double> values, double q);

/// Median of unsorted values; 0 when empty.
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

}  // namespace qoebench
