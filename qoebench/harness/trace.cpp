#include "harness/trace.hpp"

#include <fstream>

namespace qoebench {

namespace {

constexpr std::array<std::string_view, kSpanKinds> kNames = {
    "bench.replay",         "bench.reference",   "bench.probe",
    "ingest.next",          "engine.on_packet",  "engine.poll",
    "engine.pump",          "engine.finish",     "inference.resolve",
    "inference.predict",    "core.on_packet",    "core.emit",
    "core.finish",          "features.extract",
};

}  // namespace

std::string_view spanName(SpanKind kind) {
  return kNames[static_cast<std::size_t>(kind)];
}

std::string_view layerOf(SpanKind kind) {
  const std::string_view name = spanName(kind);
  return name.substr(0, name.find('.'));
}

void Tracer::begin(SpanKind kind, std::uint64_t key, std::uint32_t weight) {
  std::int64_t kept = -1;
  const std::int64_t start = nowNs();
  if (spans_.size() < kMaxKeptSpans) {
    std::int64_t parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kept >= 0) {
        parent = it->kept;
        break;
      }
    }
    kept = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{kind, start, start, parent, key});
  }
  stack_.push_back(Open{kind, start, 0, kept, weight});
}

void Tracer::end() {
  const std::int64_t endNs = nowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = (endNs - open.startNs) * open.weight;
  Totals& totals = totals_[static_cast<std::size_t>(open.kind)];
  totals.count += open.weight;
  totals.totalNs += duration;
  totals.selfNs += duration - open.childNs;
  if (!stack_.empty()) stack_.back().childNs += duration;
  if (open.kept >= 0) {
    Span& span = spans_[static_cast<std::size_t>(open.kept)];
    span.kind = open.kind;
    span.endNs = endNs;
  }
}

std::int64_t Tracer::layerSelfNs(std::string_view layer) const {
  std::int64_t total = 0;
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    if (layerOf(static_cast<SpanKind>(k)) == layer) total += totals_[k].selfNs;
  }
  return total;
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << spanName(s.kind)
        << "\",\"cat\":\"" << layerOf(s.kind) << "\",\"ph\":\"X\",\"ts\":"
        << static_cast<double>(s.startNs - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
        << ",\"pid\":1,\"tid\":1,\"args\":{\"index\":" << i
        << ",\"parent\":" << s.parent << ",\"key\":" << s.key << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace qoebench
