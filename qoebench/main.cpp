// qoebench: the QoE-monitor benchmark binary.
//
// Drives the whole monitor from outside, the way pcap_monitor does: an
// ingest source -> ingest::replay -> MultiFlowEngine serving per-VCA forests
// loaded from a model directory, under one deployment config. Inputs are a
// pure function of (workload, seed). The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones. See README.md.
//
// Usage:
//   qoebench --workload lab_replay|isp_churn --seed N
//            --seconds S --trace 0|1 [--work-dir DIR] [--scale X]
//
// Exit codes: 0 success, 1 a window differed from the reference (or the
// run could not complete), 2 usage.

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "common/json_writer.hpp"
#include "common/parse.hpp"
#include "harness/compare.hpp"
#include "harness/config.hpp"
#include "harness/latency.hpp"
#include "harness/probes.hpp"
#include "harness/reference.hpp"
#include "harness/replay.hpp"
#include "harness/trace.hpp"
#include "harness/workload.hpp"
#include "inference/model_registry.hpp"
#include "ingest/pcap_replay.hpp"
#include "ingest/replay_driver.hpp"

namespace {

using namespace vcaqoe;
using namespace qoebench;

/// Stream time runs this many times faster than wall time in the open-loop
/// arm: about 0.32 Mpkt/s offered on lab_replay and 0.3 Mpkt/s on isp_churn,
/// a fifth of what the live path sustains flat out on a 4-core host (1.7 and
/// 1.35 Mpkt/s). At half of capacity, host stalls on a shared machine
/// doubled p50 for whole runs (see README.md).
constexpr double kOpenLoopCompression = 12.0;

struct Args {
  Workload workload = Workload::kLabReplay;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workDir = ".bench_build/qoebench-work";
  double scale = 1.0;
};

int usage(const std::string& message) {
  std::fprintf(stderr,
               "qoebench: %s\nusage: qoebench --workload "
               "lab_replay|isp_churn --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--scale X]\n",
               message.c_str());
  return 2;
}

bool parseArgs(int argc, char** argv, Args& args, std::string& error) {
  bool haveWorkload = false, haveSeed = false, haveSeconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = flag + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const auto workload = workloadFromString(value);
      if (!workload) {
        error = "unknown workload '" + value + "'";
        return false;
      }
      args.workload = *workload;
      haveWorkload = true;
    } else if (flag == "--seed") {
      const auto seed = common::parseInt(value);
      if (!seed || *seed < 0) {
        error = "--seed expects a non-negative integer, got '" + value + "'";
        return false;
      }
      args.seed = static_cast<std::uint64_t>(*seed);
      haveSeed = true;
    } else if (flag == "--seconds") {
      const auto seconds = common::parseDouble(value);
      if (!seconds || *seconds <= 0.0 || *seconds > 3600.0) {
        error = "--seconds expects a number in (0, 3600], got '" + value + "'";
        return false;
      }
      args.seconds = *seconds;
      haveSeconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        error = "--trace expects 0 or 1, got '" + value + "'";
        return false;
      }
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.workDir = value;
    } else if (flag == "--scale") {
      const auto scale = common::parseDouble(value);
      if (!scale || *scale <= 0.0 || *scale > 1.0) {
        error = "--scale expects a number in (0, 1], got '" + value + "'";
        return false;
      }
      args.scale = *scale;
    } else {
      error = "unknown argument '" + flag + "'";
      return false;
    }
  }
  if (!haveWorkload || !haveSeed || !haveSeconds) {
    error = "--workload, --seed and --seconds are required";
    return false;
  }
  return true;
}

double secondsSince(std::int64_t startNs) {
  return static_cast<double>(nowNs() - startNs) / 1e9;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One operator start-up, timed: create the registry, load every model the
/// workload serves, construct the engine. The heap is trimmed first, so the
/// pages earlier replays freed do not change what the start-up allocates.
struct SetUp {
  std::shared_ptr<inference::ModelRegistry> registry;
  std::unique_ptr<engine::MultiFlowEngine> engine;
  double seconds = 0.0;
  double modelLoadMs = 0.0;
};

SetUp setUp(const std::string& modelDir, std::span<const ModelKey> models) {
  trimHeap();
  SetUp setup;
  const std::int64_t start = nowNs();
  inference::ModelRegistryOptions options;
  options.modelDir = modelDir;
  setup.registry = std::make_shared<inference::ModelRegistry>(options);
  const std::int64_t loadStart = nowNs();
  for (const auto& model : models) {
    setup.registry->resolveSet(model.vca, inference::kAllTargets, model.set);
  }
  const std::int64_t loadEnd = nowNs();
  setup.engine = std::make_unique<engine::MultiFlowEngine>(
      deploymentConfig(setup.registry));
  setup.seconds = secondsSince(start);
  setup.modelLoadMs = static_cast<double>(loadEnd - loadStart) / 1e6;
  const auto stats = setup.registry->stats();
  const std::uint64_t expected = models.size() * inference::kNumTargets;
  if (stats.loads != expected || stats.loadFailures != 0) {
    throw std::runtime_error("loaded " + std::to_string(stats.loads) + " of " +
                             std::to_string(expected) + " models (" +
                             std::to_string(stats.loadFailures) + " failed)");
  }
  return setup;
}

/// Resolution counters of one replay: `after` minus `before`.
inference::RegistryStats registryDelta(const inference::RegistryStats& before,
                                       const inference::RegistryStats& after) {
  return {after.hits - before.hits, after.misses - before.misses,
          after.loads - before.loads, after.loadFailures - before.loadFailures};
}

class MetricSink {
 public:
  void add(const std::string& name, double value, const char* unit) {
    auto metric = common::JsonValue::object();
    metric.set("value", value);
    metric.set("unit", unit);
    metrics_.set(name, std::move(metric));
    std::printf("  %-36s %16.6g %s\n", name.c_str(), value, unit);
  }
  common::JsonValue take() { return std::move(metrics_); }

 private:
  common::JsonValue metrics_ = common::JsonValue::object();
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const Comparison& c) {
    attempted += c.expected + c.extra;
    failed += c.failed();
  }
  void add(const ProbeResult& p) {
    attempted += p.windows;
    failed += p.mismatches;
  }
};

/// Per-layer metrics of a traced run: the flat-out arm's spans and stats,
/// the open-loop arm's live-path figures, the reference and the probes.
void addLayerMetrics(MetricSink& sink, const Tracer& flat, const Tracer& live,
                     const ReplayRun& lastFlat, const ReplayRun& lastLive,
                     std::uint64_t polledResults, const ReferenceRun& traced,
                     double modelLoadMs, std::uint64_t registryLoads,
                     const inference::RegistryStats& replayRegistry,
                     std::size_t tracedReplays, double untracedPps,
                     double tracedPps) {
  const auto avgNs = [](const Tracer& t, SpanKind kind) {
    const auto& totals = t.totals(kind);
    return ratio(static_cast<double>(totals.totalNs),
                 static_cast<double>(totals.count));
  };
  const auto& stats = lastFlat.stats;
  double maxProcessed = 0.0, sumProcessed = 0.0, ewma = 0.0;
  for (const auto& load : stats.shardLoads) {
    maxProcessed =
        std::max(maxProcessed, static_cast<double>(load.packetsProcessed));
    sumProcessed += static_cast<double>(load.packetsProcessed);
    ewma += load.ewmaBatchNs;
  }
  const double shards = static_cast<double>(stats.shardLoads.size());
  const auto& emit = flat.totals(SpanKind::kCoreEmit);
  const auto& finish = flat.totals(SpanKind::kCoreFinish);
  const auto windows = static_cast<double>(traced.results.size());

  sink.add("ingest.next_ns", avgNs(flat, SpanKind::kIngestNext), "ns");
  sink.add("ingest.queue_depth_max",
           static_cast<double>(lastLive.queueDepthMax), "packets");
  sink.add("ingest.gen_lag_p99_ms", lastLive.genLagP99Ms, "ms");
  sink.add("engine.on_packet_ns", avgNs(flat, SpanKind::kEngineOnPacket), "ns");
  sink.add("engine.poll_ns_per_result",
           ratio(static_cast<double>(flat.totals(SpanKind::kEnginePoll).totalNs),
                 static_cast<double>(polledResults)),
           "ns");
  sink.add("engine.pump_ns", avgNs(live, SpanKind::kEnginePump), "ns");
  sink.add("engine.finish_ms", avgNs(flat, SpanKind::kEngineFinish) / 1e6, "ms");
  sink.add("engine.demux_cache_hit_ratio",
           ratio(static_cast<double>(stats.demuxCacheHits),
                 static_cast<double>(stats.demuxCacheLookups)),
           "ratio");
  sink.add("engine.pkts_per_dispatch_batch",
           ratio(static_cast<double>(lastLive.stats.packetsIngested),
                 static_cast<double>(lastLive.stats.batchesDispatched)),
           "packets");
  sink.add("engine.backlog_max", static_cast<double>(lastLive.backlogMax),
           "packets");
  sink.add("engine.shard_skew", ratio(maxProcessed, ratio(sumProcessed, shards)),
           "ratio");
  sink.add("engine.worker_batch_ns", ratio(ewma, shards), "ns");
  sink.add("engine.flows_admitted", static_cast<double>(stats.flows), "count");
  sink.add("engine.flows_evicted", static_cast<double>(stats.flowsEvicted),
           "count");
  sink.add("engine.active_flows_max",
           static_cast<double>(lastFlat.activeFlowsMax), "count");
  sink.add("engine.retained_flow_records",
           static_cast<double>(lastFlat.retainedFlowRecords), "count");
  sink.add("engine.windows_per_inference_batch",
           ratio(static_cast<double>(stats.batchedWindows),
                 static_cast<double>(stats.inferenceBatches)),
           "windows");
  sink.add("inference.model_load_ms", modelLoadMs, "ms");
  sink.add("inference.registry_loads", static_cast<double>(registryLoads),
           "count");
  sink.add("inference.registry_hits", static_cast<double>(replayRegistry.hits),
           "count");
  sink.add("inference.registry_misses",
           static_cast<double>(replayRegistry.misses), "count");
  sink.add("inference.registry_load_failures",
           static_cast<double>(replayRegistry.loadFailures), "count");
  sink.add("inference.resolve_ns", avgNs(flat, SpanKind::kInferenceResolve),
           "ns");
  sink.add("inference.predict_ns_per_window",
           ratio(static_cast<double>(
                     flat.totals(SpanKind::kInferencePredict).totalNs),
                 windows),
           "ns");
  sink.add("core.on_packet_ns", avgNs(flat, SpanKind::kCoreOnPacket), "ns");
  sink.add("core.emit_ns_per_window",
           ratio(static_cast<double>(emit.totalNs + finish.totalNs), windows),
           "ns");
  sink.add("core.windows_per_kpkt",
           ratio(1e3 * windows, static_cast<double>(traced.packets)),
           "windows/kpkt");
  sink.add("core.pre_first_packet_windows",
           static_cast<double>(traced.preFirstPacketWindows), "count");
  sink.add("features.extract_ns_per_window",
           avgNs(flat, SpanKind::kFeaturesExtract), "ns");
  // Self time per pass over the stream: ingest and engine spans come from
  // every traced replay, the other layers from the one traced reference
  // pass and the probes.
  for (const std::string_view name :
       {"ingest", "engine", "inference", "core", "features"}) {
    const double passes = name == "ingest" || name == "engine"
                              ? static_cast<double>(tracedReplays)
                              : 1.0;
    sink.add(std::string(name) + ".self_ms",
             ratio(static_cast<double>(flat.layerSelfNs(name)) / 1e6, passes),
             "ms");
  }
  sink.add("trace.overhead_pkts_per_s", untracedPps - tracedPps, "packets/s");
  sink.add("trace.overhead_pct",
           100.0 * ratio(untracedPps - tracedPps, untracedPps), "%");
}

int run(const Args& args) {
  const std::string workload(toString(args.workload));
  std::filesystem::create_directories(args.workDir);
  const std::string modelDir =
      (std::filesystem::path(args.workDir) / ("models-" + workload)).string();
  std::filesystem::remove_all(modelDir);

  // ---- inputs (untimed): traffic, models, and the reference oracle.
  const std::int64_t genStart = nowNs();
  const Inputs inputs = generateInputs(args.workload, args.seed, args.scale);
  trainModels(args.workload, inputs.servedModels,
              deploymentConfig(nullptr).streaming, modelDir, args.scale);
  const std::vector<ingest::SourcePacket> stream = parseStream(inputs.pcap);
  const double compression = kOpenLoopCompression;
  std::printf("%s seed %llu: %zu calls, %llu packets, %.1f MiB pcap, %.0f s "
              "of stream, %zu model families (inputs in %.1f s); open loop "
              "at %.0fx = %.0f packets/s\n",
              workload.c_str(), static_cast<unsigned long long>(args.seed),
              inputs.calls.size(),
              static_cast<unsigned long long>(inputs.packets),
              static_cast<double>(inputs.pcap.size()) / (1024.0 * 1024.0),
              static_cast<double>(inputs.streamEndNs) / 1e9,
              inputs.servedModels.size(), secondsSince(genStart), compression,
              ratio(compression * static_cast<double>(inputs.packets),
                    static_cast<double>(inputs.streamEndNs) / 1e9));

  // ---- set-up (timed on its own, here and between the timed arms). The
  // first set-up's registry serves every replay; its engine is the warm-up
  // engine.
  std::vector<double> setupSeconds, modelLoadMs;
  std::uint64_t registryLoads = 0;
  const auto timeSetUp = [&] {
    SetUp setup = setUp(modelDir, inputs.servedModels);
    setupSeconds.push_back(setup.seconds);
    modelLoadMs.push_back(setup.modelLoadMs);
    registryLoads = setup.registry->stats().loads;
    return setup;
  };
  SetUp first = timeSetUp();
  const engine::EngineOptions config = deploymentConfig(first.registry);

  const ReferenceRun oracle = runReference(inputs.pcap, config);
  const Accuracy accuracy =
      fpsAccuracy(inputs, oracle.results, oracle.flowKeys);
  if (accuracy.windows == 0) {
    std::fprintf(stderr, "qoebench: no window carried truth and a prediction\n");
    return 1;
  }

  // ---- warm-up: a throwaway replay on the set-up's engine (it shares the
  // registry), so the timed phase starts with warm caches and code.
  Tally tally;
  {
    ingest::PcapReplaySource source(inputs.pcap);
    const auto warm = ingest::replay(source, *first.engine, kPollEvery,
                                     kPumpIntervalNs);
    tally.add(compareResults(oracle.results, warm.results));
    first.engine.reset();
  }

  // ---- timed phase: the arms interleaved until the time is up, with a
  // timed set-up between arms so setup_s samples the whole run.
  const auto pps = [](const auto& r) {
    return ratio(static_cast<double>(r.packets), r.seconds);
  };
  std::vector<double> enginePps, tracedPps, seqPps, memGrowth;
  std::size_t openLoopRuns = 0, latencySamples = 0;
  std::vector<Segment> segments;
  Tracer flatTracer;
  Tracer liveTracer;
  ReplayRun lastFlat, lastLive;
  inference::RegistryStats replayRegistry;
  std::uint64_t polledResults = 0;
  const std::int64_t deadline =
      nowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
  do {
    {
      const ReplayRun r = replayFlatOut(inputs.pcap, config);
      tally.add(compareResults(oracle.results, r.results));
      enginePps.push_back(pps(r));
    }
    timeSetUp();
    if (args.trace) {
      const auto before = config.registry->stats();
      ReplayRun r = replayFlatOut(inputs.pcap, config, &flatTracer);
      replayRegistry = registryDelta(before, config.registry->stats());
      tally.add(compareResults(oracle.results, r.results));
      tracedPps.push_back(pps(r));
      polledResults += r.polledResults;
      r.results = {};
      lastFlat = std::move(r);
    } else {
      const ReferenceRun r = runReference(inputs.pcap, config);
      tally.add(compareResults(oracle.results, r.results));
      seqPps.push_back(pps(r));
      for (int i = 0; i < 2; ++i) {
        timeSetUp();
        const ReplayRun again = replayFlatOut(inputs.pcap, config);
        tally.add(compareResults(oracle.results, again.results));
        enginePps.push_back(pps(again));
      }
    }
    // The open-loop arm is the longest; once time is up, a round ends
    // before it rather than overrun by a whole replay.
    if (openLoopRuns > 0 && nowNs() >= deadline) break;
    timeSetUp();
    {
      ReplayRun r = replayLive(stream, config, compression,
                               args.trace ? &liveTracer : nullptr);
      tally.add(compareResults(oracle.results, r.results));
      std::printf("  open loop %zu: %.0f packets/s, generator lag p99 %.3f "
                  "ms, latency p50 %.3f ms, p99 %.3f ms\n",
                  ++openLoopRuns, pps(r), r.genLagP99Ms,
                  percentile(r.latencyMs, 0.5), percentile(r.latencyMs, 0.99));
      latencySamples += r.latencyMs.size();
      segments.insert(segments.end(), r.segments.begin(), r.segments.end());
      memGrowth.push_back(r.memGrowthMb);
      r.results = {};
      lastLive = std::move(r);
    }
    timeSetUp();
  } while (nowNs() < deadline);

  MetricSink sink;
  std::printf("%s: %zu flat-out runs, %zu reference runs, %zu open-loop "
              "runs; %llu windows compared, %llu failed\n",
              workload.c_str(), enginePps.size() + tracedPps.size(),
              seqPps.size(), openLoopRuns,
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  if (!args.trace) {
    const CalmLatency calm = calmLatency(segments);
    std::printf("  window latency over %zu samples in %zu open-loop runs "
                "(%zu segments, %zu of them used); fps MAE over %llu "
                "windows\n",
                latencySamples, openLoopRuns, segments.size(),
                calm.segmentsKept,
                static_cast<unsigned long long>(accuracy.windows));
    std::printf("  packets/s: flat-out upper quartile over %zu runs "
                "(min %.0f, median %.0f, max %.0f); reference median over %zu "
                "runs (min %.0f, max %.0f)\n",
                enginePps.size(), percentile(enginePps, 0.0),
                median(enginePps), percentile(enginePps, 1.0), seqPps.size(),
                percentile(seqPps, 0.0), percentile(seqPps, 1.0));
    std::printf("  set-up: median over %zu (min %.4f s, max %.4f s); model "
                "loads %.1f ms of it (median)\n",
                setupSeconds.size(), percentile(setupSeconds, 0.0),
                percentile(setupSeconds, 1.0), median(modelLoadMs));
    sink.add("pkts_per_s", percentile(enginePps, 0.75), "packets/s");
    sink.add("seq_pkts_per_s", median(seqPps), "packets/s");
    sink.add("window_latency_p50_ms", calm.p50Ms, "ms");
    sink.add("window_latency_p99_ms", calm.p99Ms, "ms");
    sink.add("fps_mae", accuracy.fpsMae, "frames/s");
    sink.add("mem_growth_mb", median(memGrowth), "MiB");
    sink.add("setup_s", median(setupSeconds), "s");
  } else {
    const ReferenceRun traced = runReference(inputs.pcap, config, &flatTracer);
    tally.add(compareResults(oracle.results, traced.results));
    tally.add(probeInference(oracle, config, flatTracer));
    tally.add(probeFeatures(stream, oracle, config, flatTracer));
    addLayerMetrics(sink, flatTracer, liveTracer, lastFlat, lastLive,
                    polledResults, traced, median(modelLoadMs), registryLoads,
                    replayRegistry, tracedPps.size(),
                    percentile(enginePps, 0.75), percentile(tracedPps, 0.75));
    for (const auto& [tracer, arm] :
         {std::pair{&flatTracer, "flat"}, std::pair{&liveTracer, "open-loop"}}) {
      const std::string path =
          (std::filesystem::path(args.workDir) /
           ("trace-" + workload + "-" + arm + ".json"))
              .string();
      if (!tracer->writeChromeTrace(path)) {
        std::fprintf(stderr, "qoebench: cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("  %zu spans written to %s\n", tracer->keptSpans(),
                  path.c_str());
    }
  }
  std::filesystem::remove_all(modelDir);

  auto result = common::JsonValue::object();
  result.set("correct", tally.failed == 0);
  result.set("attempted", tally.attempted);
  result.set("failed", tally.failed);
  result.set("metrics", sink.take());
  std::printf("%s\n", result.dump(0).c_str());
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parseArgs(argc, argv, args, error)) return usage(error);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qoebench: %s\n", e.what());
    return 1;
  }
}
