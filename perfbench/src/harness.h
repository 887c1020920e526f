// Measurement harness for the repository benchmark: tail percentiles with
// a sample-count rule, open-loop request accounting, a benchmark-owned
// span buffer, the metric catalog that BENCHMARK.json mirrors, and the
// result line the benchmark prints last.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double MsSince(Clock::time_point start);
[[nodiscard]] double UsBetween(Clock::time_point a, Clock::time_point b);

// ---- percentiles ------------------------------------------------------

// A timing is reported at a percentile only when at least this many
// samples lie beyond it.
inline constexpr size_t kMinTailSamples = 10;

// Nearest-rank percentile `q` in (0, 1] of `values`, or nullopt when
// fewer than kMinTailSamples samples lie strictly beyond its rank.
[[nodiscard]] std::optional<double> TailPercentile(std::vector<double> values,
                                                   double q);

// Smallest sample count whose `q` percentile has kMinTailSamples beyond
// it (1000 for the 99th).
[[nodiscard]] size_t MinSamplesFor(double q);

// ---- open loop --------------------------------------------------------

// One scheduled request: due `due_us` after the loop's start. `kind`
// and `seq` are the caller's.
struct Due {
  double due_us = 0;
  uint32_t kind = 0;
  uint64_t seq = 0;
};

// What happened to one request. Latency runs from the due time, so a
// request that waited behind a stalled one is charged for the wait.
struct Outcome {
  double due_us = 0;
  double start_us = 0;  // when a slot sent it
  double done_us = 0;
  uint32_t kind = 0;
  uint64_t seq = 0;
  bool ok = false;
  [[nodiscard]] double latency_us() const { return done_us - due_us; }
  [[nodiscard]] double late_us() const { return start_us - due_us; }
};

// Runs `schedule` (ascending due times) open-loop on `slots` threads:
// each free slot takes the next request, sleeps until it is due, runs
// `execute(slot, request)` and records the outcome. At most `slots`
// requests are in flight. `execute` returns whether the request
// succeeded; `verify`, when given, then checks the reply outside the
// timed window. Slot `s` only ever runs on one thread, so per-slot state
// (a connection, a pull cursor) needs no locking.
[[nodiscard]] std::vector<Outcome> RunOpenLoop(
    const std::vector<Due>& schedule, size_t slots,
    const std::function<bool(size_t slot, const Due&)>& execute,
    const std::function<void(size_t slot, const Due&)>& verify = nullptr);

// Evenly spaced arrivals at `rate_per_s` for `seconds`, starting at
// `offset_us`, each tagged with `kind`.
[[nodiscard]] std::vector<Due> FixedRate(double rate_per_s, double seconds,
                                         double offset_us, uint32_t kind);

// Merges schedules by due time and numbers requests in due order.
[[nodiscard]] std::vector<Due> MergeSchedules(
    std::vector<std::vector<Due>> parts);

// ---- spans ------------------------------------------------------------

// Preallocated span buffer owned by the benchmark. Spans nest per
// thread; a span's self time is its duration minus the part its direct
// children cover. Recording is lock-free (one fetch_add per span);
// spans past the capacity are counted and dropped.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity);
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  // Interns a layer name; call before recording from several threads.
  uint16_t Name(std::string_view layer);

  // Opens a span under the calling thread's innermost open span. `id`
  // is the sample digest prefix or request sequence. Returns the slot.
  int64_t Begin(uint16_t name, uint64_t id);
  void End(int64_t slot);

  // Self time per layer name, in ms, over every closed span.
  [[nodiscard]] std::map<std::string, double> SelfMs() const;
  // Total (inclusive) time per layer name, in ms.
  [[nodiscard]] std::map<std::string, double> TotalMs() const;
  [[nodiscard]] std::map<std::string, uint64_t> Counts() const;

  // Chrome trace_event JSON: one complete ("X") event per span, the
  // recording thread as tid and the span id under args; at most
  // `max_events` events, oldest first.
  [[nodiscard]] std::string ChromeTrace(size_t max_events) const;

  [[nodiscard]] size_t size() const;
  [[nodiscard]] uint64_t dropped() const { return dropped_.load(); }

 private:
  // Trivially constructible, so the buffer's pages stay untouched until
  // a span lands in them. Begin() sets every field.
  struct Span {
    int64_t start_ns;
    int64_t end_ns;
    uint64_t id;
    int32_t parent;
    uint16_t name;
    uint16_t thread;
  };

  std::unique_ptr<Span[]> spans_;
  size_t capacity_;
  std::atomic<size_t> next_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint16_t> threads_{0};
  std::vector<std::string> names_;
  Clock::time_point epoch_;
};

// RAII span; a null buffer records nothing (the untraced run).
class Scope {
 public:
  Scope(SpanBuffer* buffer, uint16_t name, uint64_t id = 0)
      : buffer_(buffer), slot_(buffer ? buffer->Begin(name, id) : -1) {}
  ~Scope() {
    if (buffer_ != nullptr) buffer_->End(slot_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanBuffer* buffer_;
  int64_t slot_;
};

// First 16 hex digits of a digest as a span id.
[[nodiscard]] uint64_t DigestId(std::string_view hex_digest);

// ---- metrics ----------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric catalog; BENCHMARK.json lists exactly these names and units
// (the harness test holds the two together).
[[nodiscard]] const std::vector<MetricSpec>& EndToEndMetrics();
[[nodiscard]] const std::vector<MetricSpec>& PerLayerMetrics();

// Values collected during a run, keyed by metric name.
class Metrics {
 public:
  void Set(std::string_view name, double value);
  [[nodiscard]] bool Has(std::string_view name) const;
  [[nodiscard]] double Get(std::string_view name) const;

 private:
  std::map<std::string, double, std::less<>> values_;
};

// Correctness checks made outside the timed regions. A failed check is
// a mismatch: it fails the run and counts as a failed operation.
class Oracle {
 public:
  void Check(bool ok, std::string_view what);
  [[nodiscard]] uint64_t mismatches() const { return mismatches_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  uint64_t mismatches_ = 0;
  std::vector<std::string> failures_;
};

struct RunTotals {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // failed or refused operations, oracle excluded
};

// Renders the result line for `catalog`: correct, attempted, failed
// (operations plus oracle mismatches) and every catalog metric with its
// unit. A catalog metric the run did not set is itself a mismatch.
// Returns the process exit code: 0 only when the run was correct.
int EmitResult(const std::vector<MetricSpec>& catalog, const Metrics& metrics,
               const Oracle& oracle, const RunTotals& totals,
               std::string* line);

// ---- process ----------------------------------------------------------

struct Usage {
  long minflt = 0;
  long maxrss_kb = 0;
};
[[nodiscard]] Usage SelfUsage();
[[nodiscard]] Usage ChildrenUsage();

}  // namespace perfbench
