#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/config.hpp"

/// Spans recorded in the benchmark's own code around its calls into each
/// layer of the monitor. Per-call spans (poll, pump, finish, resolve,
/// predict, extract) are timed on every call; per-packet spans only on every
/// `stride`-th packet, weighted by the stride, so tracing stays cheap and
/// totals still estimate the whole run. Spans are kept in memory (up to a
/// cap) and written out as a Chrome trace when the run ends.
namespace qoebench {

enum class SpanKind : std::uint8_t {
  kBenchReplay,      ///< one engine replay (root)
  kBenchReference,   ///< one sequential reference pass (root)
  kBenchProbe,       ///< the benchmark's own inference/feature loop (root)
  kIngestNext,       ///< PacketSource::next
  kEngineOnPacket,   ///< MultiFlowEngine::onPacket
  kEnginePoll,       ///< MultiFlowEngine::poll
  kEnginePump,       ///< MultiFlowEngine::pump
  kEngineFinish,     ///< MultiFlowEngine::finish
  kInferenceResolve, ///< ModelRegistry::resolveSet at admission
  kInferencePredict, ///< InferenceBackend::predictWindowBatch
  kCoreOnPacket,     ///< StreamingEstimator::onPacket, no window emitted
  kCoreEmit,         ///< StreamingEstimator::onPacket that emitted windows
  kCoreFinish,       ///< StreamingEstimator::finish
  kFeaturesExtract,  ///< features::extractFeatures
};
inline constexpr std::size_t kSpanKinds = 14;

/// "engine.on_packet", ...; the prefix before the dot is the layer.
std::string_view spanName(SpanKind kind);
std::string_view layerOf(SpanKind kind);

/// Key of a per-window span: (flow, window) packed.
inline std::uint64_t windowKey(std::uint32_t flow, std::int64_t window) {
  return (static_cast<std::uint64_t>(flow) << 32) |
         static_cast<std::uint32_t>(window);
}

class Tracer {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;  ///< total minus time covered by child spans
  };

  /// Per-packet spans are timed for every `stride`-th packet index.
  explicit Tracer(std::uint32_t stride = 16) : stride_(stride) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Closes its span on destruction. Scopes nest strictly (LIFO).
  class Scope {
   public:
    explicit Scope(Tracer* tracer) : tracer_(tracer) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  /// Opens a span that stands for `weight` calls.
  void begin(SpanKind kind, std::uint64_t key, std::uint32_t weight = 1);
  void end();
  /// Renames the innermost open span (a call whose kind is known only
  /// after it returned, e.g. whether it emitted).
  void relabel(SpanKind kind) { stack_.back().kind = kind; }

  bool sampledPacket(std::uint64_t index) const {
    return index % stride_ == 0;
  }
  std::uint32_t stride() const { return stride_; }

  const Totals& totals(SpanKind kind) const {
    return totals_[static_cast<std::size_t>(kind)];
  }
  /// Sum of self time over the layer's span kinds.
  std::int64_t layerSelfNs(std::string_view layer) const;
  std::size_t keptSpans() const { return spans_.size(); }

  /// Writes the kept spans as Chrome trace-event JSON ("X" events; args
  /// carry the span key and its parent's index). Returns false on I/O error.
  bool writeChromeTrace(const std::string& path) const;

 private:
  struct Span {
    SpanKind kind;
    std::int64_t startNs;
    std::int64_t endNs;
    std::int64_t parent;  ///< index into spans_, -1 for none
    std::uint64_t key;
  };
  struct Open {
    SpanKind kind;
    std::int64_t startNs;
    std::int64_t childNs;
    std::int64_t kept;  ///< index into spans_, -1 when not kept
    std::uint32_t weight;
  };
  static constexpr std::size_t kMaxKeptSpans = 100'000;

  std::uint32_t stride_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::array<Totals, kSpanKinds> totals_{};
};

/// Opens a per-call span on `tracer`; a no-op scope when it is null.
[[nodiscard]] inline Tracer::Scope traceSpan(Tracer* tracer, SpanKind kind,
                                             std::uint64_t key) {
  if (tracer == nullptr) return Tracer::Scope(nullptr);
  tracer->begin(kind, key);
  return Tracer::Scope(tracer);
}

/// Opens a per-packet span keyed by the packet's index, on sampled packets
/// only; a no-op scope otherwise.
[[nodiscard]] inline Tracer::Scope packetSpan(Tracer* tracer, SpanKind kind,
                                              std::uint64_t index) {
  if (tracer == nullptr || !tracer->sampledPacket(index)) {
    return Tracer::Scope(nullptr);
  }
  tracer->begin(kind, index, tracer->stride());
  return Tracer::Scope(tracer);
}

}  // namespace qoebench
