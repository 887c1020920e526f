#include "harness.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---- percentiles ------------------------------------------------------

namespace {

// 1-based nearest rank of percentile q among n samples.
size_t NearestRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

std::optional<double> TailPercentile(std::vector<double> values, double q) {
  if (values.empty() || q <= 0 || q > 1) return std::nullopt;
  const size_t rank = NearestRank(values.size(), q);
  if (values.size() - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

size_t MinSamplesFor(double q) {
  size_t n = 1;
  while (n - NearestRank(n, q) < kMinTailSamples) ++n;
  return n;
}

// ---- open loop --------------------------------------------------------

std::vector<Outcome> RunOpenLoop(
    const std::vector<Due>& schedule, size_t slots,
    const std::function<bool(size_t, const Due&)>& execute,
    const std::function<void(size_t, const Due&)>& verify) {
  std::vector<Outcome> outcomes(schedule.size());
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  auto slot_main = [&](size_t slot) {
    // Wake on time: the default 50 us timer slack would count as
    // lateness in every request.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= schedule.size()) return;
      const Due& request = schedule[i];
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::micro>(
                                       request.due_us));
      std::this_thread::sleep_until(due);
      Outcome& out = outcomes[i];
      out.due_us = request.due_us;
      out.kind = request.kind;
      out.seq = request.seq;
      out.start_us = UsBetween(start, Clock::now());
      out.ok = execute(slot, request);
      out.done_us = UsBetween(start, Clock::now());
      if (verify) verify(slot, request);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(slots);
  for (size_t s = 0; s < slots; ++s) threads.emplace_back(slot_main, s);
  for (std::thread& t : threads) t.join();
  return outcomes;
}

std::vector<Due> FixedRate(double rate_per_s, double seconds,
                           double offset_us, uint32_t kind) {
  std::vector<Due> out;
  if (rate_per_s <= 0) return out;
  const auto count = static_cast<size_t>(rate_per_s * seconds);
  const double gap_us = 1e6 / rate_per_s;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back({offset_us + static_cast<double>(i) * gap_us, kind, 0});
  }
  return out;
}

std::vector<Due> MergeSchedules(std::vector<std::vector<Due>> parts) {
  std::vector<Due> merged;
  for (std::vector<Due>& part : parts) {
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Due& a, const Due& b) { return a.due_us < b.due_us; });
  for (size_t i = 0; i < merged.size(); ++i) merged[i].seq = i;
  return merged;
}

// ---- spans ------------------------------------------------------------

namespace {

struct ThreadSpans {
  std::vector<int64_t> open;
  int thread = -1;
};
thread_local ThreadSpans tls_spans;

}  // namespace

SpanBuffer::SpanBuffer(size_t capacity)
    : spans_(new Span[capacity]), capacity_(capacity), epoch_(Clock::now()) {}

uint16_t SpanBuffer::Name(std::string_view layer) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == layer) return static_cast<uint16_t>(i);
  }
  names_.emplace_back(layer);
  return static_cast<uint16_t>(names_.size() - 1);
}

int64_t SpanBuffer::Begin(uint16_t name, uint64_t id) {
  const size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    tls_spans.open.push_back(-1);
    return -1;
  }
  if (tls_spans.thread < 0) tls_spans.thread = threads_.fetch_add(1);
  Span& span = spans_[slot];
  span.name = name;
  span.id = id;
  span.thread = static_cast<uint16_t>(tls_spans.thread);
  span.parent = -1;
  for (auto it = tls_spans.open.rbegin(); it != tls_spans.open.rend(); ++it) {
    if (*it >= 0) {
      span.parent = static_cast<int32_t>(*it);
      break;
    }
  }
  tls_spans.open.push_back(static_cast<int64_t>(slot));
  span.end_ns = 0;
  span.start_ns = (Clock::now() - epoch_).count();
  return static_cast<int64_t>(slot);
}

void SpanBuffer::End(int64_t slot) {
  const int64_t now = (Clock::now() - epoch_).count();
  if (!tls_spans.open.empty()) tls_spans.open.pop_back();
  if (slot >= 0) spans_[slot].end_ns = std::max<int64_t>(now, 1);
}

size_t SpanBuffer::size() const {
  return std::min(next_.load(), capacity_);
}

std::map<std::string, double> SpanBuffer::SelfMs() const {
  const size_t n = size();
  std::vector<int64_t> child_ns(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0 || s.parent < 0) continue;
    child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    self[names_[s.name]] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  return self;
}

std::map<std::string, double> SpanBuffer::TotalMs() const {
  std::map<std::string, double> total;
  for (size_t i = 0; i < size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    total[names_[s.name]] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return total;
}

std::map<std::string, uint64_t> SpanBuffer::Counts() const {
  std::map<std::string, uint64_t> counts;
  for (size_t i = 0; i < size(); ++i) {
    if (spans_[i].end_ns != 0) ++counts[names_[spans_[i].name]];
  }
  return counts;
}

std::string SpanBuffer::ChromeTrace(size_t max_events) const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (size_t i = 0; i < std::min(size(), max_events); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":\"%016llx\"}}",
                  first ? "" : ",\n", names_[s.name].c_str(),
                  static_cast<unsigned>(s.thread),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id));
    out += buf;
    first = false;
  }
  out += "]}\n";
  return out;
}

uint64_t DigestId(std::string_view hex_digest) {
  uint64_t id = 0;
  for (size_t i = 0; i < hex_digest.size() && i < 16; ++i) {
    const char c = hex_digest[i];
    const int v = c >= '0' && c <= '9'   ? c - '0'
                  : c >= 'a' && c <= 'f' ? c - 'a' + 10
                  : c >= 'A' && c <= 'F' ? c - 'A' + 10
                                         : 0;
    id = (id << 4) | static_cast<uint64_t>(v);
  }
  return id;
}

// ---- metrics ----------------------------------------------------------

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> catalog = {
      {"sample_p50_ms", "ms"},       {"sample_p99_ms", "ms"},
      {"samples_per_s", "1/s"},      {"peak_rss_mb", "MB"},
      {"setup_s", "s"},              {"ok_share", "share"},
  };
  return catalog;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> catalog = {
      {"sandbox.run_ms", "ms"},
      {"sandbox.run_instructions", "count"},
      {"sandbox.capture_ms", "ms"},
      {"sandbox.capture_snapshots", "count"},
      {"sandbox.capture_bytes", "bytes"},
      {"sandbox.capture_minflt", "count"},
      {"analysis.impact_ms", "ms"},
      {"analysis.impact_runs", "count"},
      {"analysis.impact_resumed_share", "share"},
      {"analysis.alignment_ms", "ms"},
      {"analysis.alignment_cells", "count"},
      {"analysis.alignment_calls", "count"},
      {"analysis.exclusiveness_ms", "ms"},
      {"analysis.exclusiveness_queries", "count"},
      {"analysis.determinism_ms", "ms"},
      {"analysis.determinism_slices", "count"},
      {"analysis.vaccine_yield", "share"},
      {"vaccine.clinic_ms", "ms"},
      {"vaccine.clinic_runs", "count"},
      {"vaccine.clinic_pass_share", "share"},
      {"campaign.fork_tax_ms", "ms"},
      {"campaign.worker_minflt_per_sample", "count"},
      {"campaign.journal_append_ms", "ms"},
      {"campaign.journal_fsyncs", "count"},
      {"vacstore.push_ms", "ms"},
      {"vacstore.since_us", "us"},
      {"vacstore.ingest_ms", "ms"},
      {"match_index.build_ms", "ms"},
      {"match_index.lookup_us", "us"},
      {"net.codec_us", "us"},
      {"net.connect_us", "us"},
      {"net.roundtrip_us.tcp", "us"},
      {"net.roundtrip_us.unix", "us"},
      {"vacd.busy_shed", "count"},
      {"vacd.rate_limited", "count"},
      {"vacd.saturated_reads_per_s", "1/s"},
      {"process.minflt_per_sample", "count"},
      {"loadgen.late_p99_ms", "ms"},
      {"tracing.overhead_share", "share"},
      {"attributed_share", "share"},
  };
  return catalog;
}

void Metrics::Set(std::string_view name, double value) {
  values_[std::string(name)] = value;
}

bool Metrics::Has(std::string_view name) const {
  return values_.find(name) != values_.end();
}

double Metrics::Get(std::string_view name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Oracle::Check(bool ok, std::string_view what) {
  if (ok) return;
  ++mismatches_;
  if (failures_.size() < 32) failures_.emplace_back(what);
}

int EmitResult(const std::vector<MetricSpec>& catalog, const Metrics& metrics,
               const Oracle& oracle, const RunTotals& totals,
               std::string* line) {
  uint64_t missing = 0;
  std::string body;
  char buf[512];
  for (const MetricSpec& spec : catalog) {
    const double value = metrics.Get(spec.name);
    if (!metrics.Has(spec.name) || !std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   spec.name);
      ++missing;
      continue;
    }
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}", body.empty() ? "" : ", ", spec.name,
                  value, spec.unit);
    body += buf;
  }
  for (const std::string& failure : oracle.failures()) {
    std::fprintf(stderr, "perfbench: oracle mismatch: %s\n", failure.c_str());
  }
  const bool correct = oracle.mismatches() == 0 && missing == 0;
  const uint64_t failed = totals.failed + oracle.mismatches() + missing;
  const uint64_t attempted =
      std::max<uint64_t>({totals.attempted, failed, 1});
  std::snprintf(buf, sizeof(buf),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  *line = buf + body + "}}";
  return correct ? 0 : 1;
}

// ---- process ----------------------------------------------------------

namespace {

Usage FromRusage(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return {usage.ru_minflt, usage.ru_maxrss};
}

}  // namespace

Usage SelfUsage() { return FromRusage(RUSAGE_SELF); }
Usage ChildrenUsage() { return FromRusage(RUSAGE_CHILDREN); }

}  // namespace perfbench
