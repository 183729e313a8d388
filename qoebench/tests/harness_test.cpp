// Tests of the benchmark's own machinery: input generation, the due-time
// latency probe, and the bit-level comparator.

#include <gtest/gtest.h>

#include <utility>

#include "harness/compare.hpp"
#include "harness/latency.hpp"
#include "harness/workload.hpp"

namespace qoebench {
namespace {

using namespace vcaqoe;

TEST(Inputs, SameSeedSameBytesOtherSeedOtherBytes) {
  for (const auto workload : {Workload::kLabReplay, Workload::kIspChurn}) {
    const Inputs a = generateInputs(workload, 7, 0.02);
    const Inputs b = generateInputs(workload, 7, 0.02);
    const Inputs c = generateInputs(workload, 8, 0.02);
    ASSERT_GT(a.packets, 0u) << toString(workload);
    EXPECT_EQ(a.pcap, b.pcap) << toString(workload);
    EXPECT_EQ(a.servedModels, b.servedModels) << toString(workload);
    ASSERT_EQ(a.calls.size(), b.calls.size());
    for (std::size_t i = 0; i < a.calls.size(); ++i) {
      EXPECT_EQ(a.calls[i].key, b.calls[i].key);
      EXPECT_EQ(a.calls[i].startWindow, b.calls[i].startWindow);
      EXPECT_EQ(a.calls[i].truth, b.calls[i].truth);
    }
    EXPECT_NE(a.pcap, c.pcap) << toString(workload);
  }
}

TEST(Inputs, IspChurnIsIpUdpOnlyAndLabMixesRtp) {
  const Inputs isp = generateInputs(Workload::kIspChurn, 3, 0.05);
  for (const auto& model : isp.servedModels) {
    EXPECT_EQ(model.set, features::FeatureSet::kIpUdp);
  }
  const Inputs lab = generateInputs(Workload::kLabReplay, 3, 0.2);
  bool rtp = false;
  for (const auto& model : lab.servedModels) {
    rtp = rtp || model.set == features::FeatureSet::kRtp;
  }
  EXPECT_TRUE(rtp);
}

TEST(LatencyProbe, MeasuresFromScheduledWindowEnd) {
  // Stream time runs 10x faster than wall time from wall 1'000'000 ns, so
  // window w's end (w + 1) s is due at 1'000'000 + (w + 1) * 100 ms.
  const OpenLoopSchedule schedule{1'000'000, 0, 10.0};
  EXPECT_EQ(schedule.dueNs(common::kNanosPerSecond), 101'000'000);
  LatencyProbe probe(common::kNanosPerSecond);
  probe.useSchedule(schedule, 3 * common::kNanosPerSecond);
  probe.record(0, 101'000'000 + 5'000'000);  // 5 ms after window 0 was due
  probe.record(2, 301'000'000 + 250'000);    // 0.25 ms late
  probe.record(3, 999'000'000);  // window 3 ends after the stream: ignored
  ASSERT_EQ(probe.samplesMs().size(), 2u);
  EXPECT_DOUBLE_EQ(probe.samplesMs()[0], 5.0);
  EXPECT_DOUBLE_EQ(probe.samplesMs()[1], 0.25);
}

TEST(LatencySegments, GroupsSamplesAndLagByStreamPosition) {
  // Windows 0-9 form segment 0, 10-19 segment 1, and so on. Segment 3 has
  // lag but no latency samples, so it is not a segment.
  const std::vector<double> latency = {4, 5, 6, 40, 50, 5, 6, 7};
  const std::vector<std::int64_t> latencyWindows = {0,  1,  9,  10,
                                                    19, 20, 21, 29};
  const std::vector<double> lag = {0.1, 0.2, 20.0, 20.0, 0.3, 9.0};
  const std::vector<std::int64_t> lagWindows = {0, 5, 10, 15, 20, 35};
  const auto segments = segmentsOf(latency, latencyWindows, lag, lagWindows);
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[1].index, 1);
  EXPECT_DOUBLE_EQ(segments[0].genLagP99Ms, 0.2);
  EXPECT_DOUBLE_EQ(segments[0].p50Ms, 5.0);
  EXPECT_DOUBLE_EQ(segments[0].p99Ms, 6.0);
  EXPECT_DOUBLE_EQ(segments[1].genLagP99Ms, 20.0);
  EXPECT_DOUBLE_EQ(segments[1].p50Ms, 40.0);
  EXPECT_DOUBLE_EQ(segments[2].genLagP99Ms, 0.3);
}

TEST(LatencySegments, EachPositionUsesItsCalmReplays) {
  // Two replays of a three-segment stream: {index, lag, p50, p99}.
  const std::vector<Segment> segments = {
      {0, 0.2, 5.0, 10.0},  {1, 20.0, 40.0, 90.0}, {2, 7.0, 12.0, 30.0},
      {0, 9.0, 30.0, 60.0}, {1, 0.1, 6.0, 11.0},   {2, 5.0, 9.0, 20.0}};
  const CalmLatency calm = calmLatency(segments);
  // Position 0 and 1 each have one calm replay; no replay was calm at
  // position 2, so the less late one (lag 5) stands in.
  EXPECT_EQ(calm.segmentsKept, 3u);
  EXPECT_DOUBLE_EQ(calm.p50Ms, 6.0);   // median of {5, 6, 9}
  EXPECT_DOUBLE_EQ(calm.p99Ms, 11.0);  // median of {10, 11, 20}
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(percentile({5, 1, 4, 2, 3}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile({5, 1, 4, 2, 3}, 0.99), 5.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

engine::EngineResult window(engine::FlowId flow, std::int64_t w) {
  engine::EngineResult r;
  r.flow = flow;
  r.output.window = w;
  r.output.features = {1.5, 2.5, 3.5};
  r.output.heuristic.window = w;
  r.output.heuristic.fps = 24.0;
  r.output.predictions.set(inference::QoeTarget::kFrameRate, 29.5);
  return r;
}

TEST(Compare, CatchesAPermutedFeatureThatASumWouldMiss) {
  const std::vector<engine::EngineResult> expected = {window(0, 0),
                                                      window(0, 1)};
  auto actual = expected;
  std::swap(actual[1].output.features[0], actual[1].output.features[2]);
  const Comparison c = compareResults(expected, actual);
  EXPECT_EQ(c.expected, 2u);
  EXPECT_EQ(c.mismatched, 1u);
  EXPECT_EQ(c.failed(), 1u);
}

TEST(Compare, CountsMissingExtraAndPredictionBits) {
  const std::vector<engine::EngineResult> expected = {
      window(0, 0), window(0, 1), window(1, 0)};
  std::vector<engine::EngineResult> actual = {window(0, 0), window(1, 0),
                                              window(1, 1)};
  Comparison c = compareResults(expected, actual);
  EXPECT_EQ(c.missing, 1u);
  EXPECT_EQ(c.extra, 1u);
  EXPECT_EQ(c.mismatched, 0u);

  actual = expected;
  actual[2].output.predictions.set(inference::QoeTarget::kFrameRate, -0.0);
  auto zero = expected;
  zero[2].output.predictions.set(inference::QoeTarget::kFrameRate, 0.0);
  EXPECT_EQ(compareResults(zero, actual).mismatched, 1u);
  EXPECT_EQ(compareResults(expected, expected).failed(), 0u);
}

}  // namespace
}  // namespace qoebench
