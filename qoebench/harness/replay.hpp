#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/multi_flow_engine.hpp"
#include "harness/latency.hpp"
#include "harness/trace.hpp"
#include "ingest/packet_source.hpp"

/// One engine run over the workload's stream, driven from outside through
/// public calls: an ingest source -> the replay driver -> MultiFlowEngine.
/// Untraced runs go through `ingest::replay`; traced runs use the
/// benchmark's own copy of its loop (same calls, same order, same poll and
/// pump cadence) with a span around each call.
namespace qoebench {

struct ReplayRun {
  /// Every window, in canonical (flow id, window) order.
  std::vector<vcaqoe::engine::EngineResult> results;
  std::uint64_t packets = 0;
  /// Wall time from the first next() until finish() returned.
  double seconds = 0.0;
  /// Resident-set growth from before the engine was built to after
  /// finish() (heap trimmed first, so freed pages of earlier runs do not
  /// hide it).
  double memGrowthMb = 0.0;
  /// Open-loop runs: window latency samples, for windows at or after their
  /// flow's first packet, handed over by poll() while the stream ran.
  std::vector<double> latencyMs;
  /// Open-loop runs: the replay in segments (see latency.hpp).
  std::vector<Segment> segments;
  vcaqoe::engine::EngineStats stats;
  std::size_t retainedFlowRecords = 0;
  /// Live runs: generator lateness (p99) and the deepest capture queue
  /// seen at a poll (traced runs only).
  double genLagP99Ms = 0.0;
  std::size_t queueDepthMax = 0;
  /// Traced runs: results handed over by poll(), and maxima sampled at
  /// each poll.
  std::uint64_t polledResults = 0;
  std::uint64_t backlogMax = 0;
  std::size_t activeFlowsMax = 0;
};

/// Returns freed heap pages to the OS where the allocator supports it.
void trimHeap();

/// Replays a classic pcap flat out.
ReplayRun replayFlatOut(std::span<const std::uint8_t> pcap,
                        const vcaqoe::engine::EngineOptions& config,
                        Tracer* tracer = nullptr);

/// Open loop: a generator thread pushes `stream` into a `LiveCaptureStub`,
/// each packet when it is due under `compression` x real time, whether or
/// not the monitor keeps up.
ReplayRun replayLive(std::span<const vcaqoe::ingest::SourcePacket> stream,
                     const vcaqoe::engine::EngineOptions& config,
                     double compression, Tracer* tracer = nullptr);

}  // namespace qoebench
