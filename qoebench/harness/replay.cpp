#include "harness/replay.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <thread>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "harness/config.hpp"
#include "harness/latency.hpp"
#include "ingest/live_capture.hpp"
#include "ingest/pcap_replay.hpp"
#include "ingest/replay_driver.hpp"

namespace qoebench {
namespace {

using namespace vcaqoe;

/// Current resident set in bytes (0 where /proc is unavailable).
std::uint64_t residentBytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  if (!(statm >> size >> resident)) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/// Samples a result only if its window is at or after the flow's first
/// packet (the leading empty windows are not fresh results).
bool sampled(const engine::MultiFlowEngine& engine,
             const engine::EngineResult& result,
             common::DurationNs windowNs) {
  const auto& stats = engine.flowStats()[result.flow];
  return result.output.window >=
         common::windowIndex(stats.firstArrivalNs, windowNs);
}

void sortCanonical(std::vector<engine::EngineResult>& results) {
  std::stable_sort(results.begin(), results.end(),
                   [](const engine::EngineResult& a,
                      const engine::EngineResult& b) {
                     if (a.flow != b.flow) return a.flow < b.flow;
                     return a.output.window < b.output.window;
                   });
}

/// The untraced path: `ingest::replay`, sampling latency (open loop only)
/// as each poll hands results over.
void driveUntraced(ingest::PacketSource& source,
                   engine::MultiFlowEngine& engine, LatencyProbe* probe,
                   common::DurationNs windowNs, ReplayRun& run) {
  ingest::ReplayHooks hooks;
  if (probe != nullptr) {
    hooks.onDrained = [&](std::span<const engine::EngineResult> drained) {
      const std::int64_t now = nowNs();
      for (const auto& result : drained) {
        if (sampled(engine, result, windowNs)) {
          probe->record(result.output.window, now);
        }
      }
    };
  }
  auto report =
      ingest::replay(source, engine, kPollEvery, kPumpIntervalNs, hooks);
  run.packets = report.packets;
  run.results = std::move(report.results);
}

/// The traced path: `ingest::replay`'s loop, call for call, with spans.
void driveTraced(ingest::PacketSource& source, engine::MultiFlowEngine& engine,
                 LatencyProbe* probe, common::DurationNs windowNs,
                 Tracer& tracer, const ingest::LiveCaptureStub* stub,
                 ReplayRun& run) {
  const auto root = traceSpan(&tracer, SpanKind::kBenchReplay, 0);
  const auto poll = [&](std::uint64_t index) {
    const std::size_t before = run.results.size();
    {
      const auto span = traceSpan(&tracer, SpanKind::kEnginePoll, index);
      engine.poll(run.results);
    }
    if (probe != nullptr) {
      const std::int64_t now = nowNs();
      for (std::size_t i = before; i < run.results.size(); ++i) {
        if (sampled(engine, run.results[i], windowNs)) {
          probe->record(run.results[i].output.window, now);
        }
      }
    }
    run.polledResults += run.results.size() - before;
    const auto stats = engine.stats();
    std::uint64_t backlog = 0;
    for (const auto& load : stats.shardLoads) backlog += load.backlog;
    run.backlogMax = std::max(run.backlogMax, backlog);
    run.activeFlowsMax = std::max(run.activeFlowsMax, stats.activeFlows);
    if (stub != nullptr) {
      run.queueDepthMax = std::max(run.queueDepthMax, stub->queued());
    }
  };
  ingest::SourcePacket sp;
  bool pumped = false;
  common::TimeNs lastPumpNs = 0;
  for (std::uint64_t index = 0;; ++index) {
    {
      const auto span = packetSpan(&tracer, SpanKind::kIngestNext, index);
      if (!source.next(sp)) break;
    }
    {
      const auto span = packetSpan(&tracer, SpanKind::kEngineOnPacket, index);
      engine.onPacket(sp.flow, sp.packet);
    }
    if (++run.packets % kPollEvery == 0) poll(index);
    if (!pumped || sp.packet.arrivalNs - lastPumpNs >= kPumpIntervalNs) {
      {
        const auto span = traceSpan(&tracer, SpanKind::kEnginePump, index);
        engine.pump(sp.packet.arrivalNs);
      }
      poll(index);
      pumped = true;
      lastPumpNs = sp.packet.arrivalNs;
    }
  }
  std::vector<engine::EngineResult> rest;
  {
    const auto span = traceSpan(&tracer, SpanKind::kEngineFinish, run.packets);
    rest = engine.finish();
  }
  run.results.insert(run.results.end(), std::make_move_iterator(rest.begin()),
                     std::make_move_iterator(rest.end()));
  sortCanonical(run.results);
}

void drive(ingest::PacketSource& source, engine::MultiFlowEngine& engine,
           LatencyProbe* probe, common::DurationNs windowNs, Tracer* tracer,
           const ingest::LiveCaptureStub* stub, ReplayRun& run) {
  if (tracer != nullptr) {
    driveTraced(source, engine, probe, windowNs, *tracer, stub, run);
  } else {
    driveUntraced(source, engine, probe, windowNs, run);
  }
}

void finishRun(const engine::MultiFlowEngine& engine,
               std::uint64_t residentBefore, ReplayRun& run) {
  run.stats = engine.stats();
  run.retainedFlowRecords = engine.flowStats().size();
  run.memGrowthMb = (static_cast<double>(residentBytes()) -
                     static_cast<double>(residentBefore)) /
                    (1024.0 * 1024.0);
}

}  // namespace

void trimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

ReplayRun replayFlatOut(std::span<const std::uint8_t> pcap,
                        const engine::EngineOptions& config, Tracer* tracer) {
  ReplayRun run;
  trimHeap();
  const std::uint64_t residentBefore = residentBytes();
  engine::MultiFlowEngine engine(config);
  ingest::PcapReplaySource source(pcap);
  const std::int64_t start = nowNs();
  drive(source, engine, nullptr, config.streaming.windowNs, tracer, nullptr,
        run);
  run.seconds = static_cast<double>(nowNs() - start) / 1e9;
  finishRun(engine, residentBefore, run);
  return run;
}

ReplayRun replayLive(std::span<const ingest::SourcePacket> stream,
                     const engine::EngineOptions& config, double compression,
                     Tracer* tracer) {
  ReplayRun run;
  if (stream.empty()) return run;
  trimHeap();
  const std::uint64_t residentBefore = residentBytes();
  engine::MultiFlowEngine engine(config);
  ingest::LiveCaptureStub stub;
  LatencyProbe probe(config.streaming.windowNs);
  const OpenLoopSchedule schedule{nowNs() + 5 * common::kNanosPerMilli,
                                  stream.front().packet.arrivalNs,
                                  compression};
  probe.useSchedule(schedule, stream.back().packet.arrivalNs);
  std::vector<double> lagMs;
  std::vector<std::int64_t> lagWindows;
  lagMs.reserve(stream.size());
  lagWindows.reserve(stream.size());
  std::exception_ptr generatorError;
  {
    // Open loop: every packet is pushed once due, whatever the monitor is
    // doing; a late generator pushes at once and records how late it ran.
    // Between due times it spins on the clock rather than sleeping: it owns
    // one of the host's cores (generator + dispatcher + workers = 4), and
    // a sleeping thread's wake-up on a virtual machine can run milliseconds
    // late, which would blur lateness as a sign of host stalls.
    std::jthread generator([&] {
      try {
        std::size_t next = 0;
        while (next < stream.size()) {
          if (schedule.dueNs(stream[next].packet.arrivalNs) > nowNs()) {
            continue;
          }
          for (; next < stream.size(); ++next) {
            const auto& sp = stream[next];
            const std::int64_t dueNs = schedule.dueNs(sp.packet.arrivalNs);
            const std::int64_t pushNs = nowNs();
            if (dueNs > pushNs) break;
            stub.push(sp.flow, sp.packet);
            lagMs.push_back(static_cast<double>(pushNs - dueNs) / 1e6);
            lagWindows.push_back(common::windowIndex(
                sp.packet.arrivalNs, config.streaming.windowNs));
          }
        }
      } catch (...) {
        generatorError = std::current_exception();
      }
      stub.close();
    });
    drive(stub, engine, &probe, config.streaming.windowNs, tracer, &stub,
          run);
  }
  if (generatorError) std::rethrow_exception(generatorError);
  run.seconds = static_cast<double>(nowNs() - schedule.wallStartNs) / 1e9;
  finishRun(engine, residentBefore, run);
  const auto samples = probe.samplesMs();
  run.latencyMs.assign(samples.begin(), samples.end());
  run.segments =
      segmentsOf(samples, probe.sampleWindows(), lagMs, lagWindows);
  run.genLagP99Ms = percentile(std::move(lagMs), 0.99);
  return run;
}

}  // namespace qoebench
