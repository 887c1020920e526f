// The stages every workload is built from — detonate, campaign, store,
// feed — each driving the program only through its public API, the way
// `autovac analyze`/`campaign`/`serve` drive it.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/exclusiveness.h"
#include "harness.h"
#include "support/status.h"
#include "vaccine/pipeline.h"
#include "vacstore/store.h"
#include "vm/program.h"

namespace perfbench {

namespace analysis = autovac::analysis;
namespace vm = autovac::vm;

// What one benchmark process shares across its stages.
struct Run {
  std::string dir;            // scratch directory inside the checkout
  uint64_t seed = 0;
  double seconds = 0;         // measured duration of the main stage
  size_t slots = 1;           // feed generator threads = in-flight cap
  SpanBuffer* spans = nullptr;  // null in the untraced run
  Metrics metrics;
  Oracle oracle;
  RunTotals totals;
};

// Layer and region names recorded in the span buffer. Regions bound the
// busy time attribution is measured against; probe spans re-measure a
// call only to split a layer and are excluded from attribution.
struct Names {
  uint16_t region_sample, region_campaign, region_request;
  uint16_t sandbox_capture, probe_sandbox_run, probe_alignment;
  uint16_t impact, exclusiveness, determinism;
  uint16_t campaign_run, clinic, ingest;
  uint16_t codec, roundtrip_tcp, roundtrip_unix;
  uint16_t probe_journal, probe_fork, probe_net, probe_store;
};
Names InternNames(SpanBuffer& spans);

// ---- set-up -----------------------------------------------------------

struct Benign {
  std::vector<vm::Program> corpus;
  analysis::ExclusivenessIndex index;
};
// The benign exclusiveness index, trained as the CLI trains it.
[[nodiscard]] Benign TrainBenign();

// Synthetic distribution-tier vaccines: literal mutex names, three in
// ten a wildcard pattern.
[[nodiscard]] std::vector<autovac::vaccine::Vaccine> SyntheticVaccines(
    uint64_t seed, size_t count);

// Creates a durable store at `path` holding `preload`, with the benign
// conflict index installed as `autovac serve` installs it.
[[nodiscard]] autovac::Result<autovac::vacstore::VaccineStore> CreateStore(
    const std::string& path,
    const std::vector<autovac::vaccine::Vaccine>& preload,
    const analysis::ExclusivenessIndex& index);

// A vacd child started as an operator starts it: the program's own CLI,
// `autovac serve --socket S --store F --tcp 127.0.0.1:0`, with default
// VacdOptions and the benign conflict index.
class VacdChild {
 public:
  VacdChild() = default;
  ~VacdChild();
  VacdChild(const VacdChild&) = delete;
  VacdChild& operator=(const VacdChild&) = delete;

  // Returns once the server answers a status request on both listeners.
  [[nodiscard]] autovac::Status Start(const std::string& store_path,
                                      const std::string& socket_path);
  // SIGTERM, then waits; false when the child did not exit cleanly.
  bool Stop();

  [[nodiscard]] uint16_t tcp_port() const { return port_; }
  // CPU time the child has used, user plus system, in seconds.
  [[nodiscard]] double CpuSeconds() const;

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;  // the child's stdout, kept open until it exits
  uint16_t port_ = 0;
};

// ---- detonate ---------------------------------------------------------

struct Detonation {
  std::vector<double> latency_ms;  // one per Analyze call
  double wall_s = 0;
  long minflt = 0;                 // minor faults over the loop
  // First pass, index-aligned with the programs it covered.
  std::vector<std::string> report_digests;
  std::vector<std::vector<autovac::vaccine::Vaccine>> vaccines;
};

// Closed loop, one caller: Analyze each program in turn, cycling, until
// `seconds` have passed and at least `min_samples` were analyzed.
[[nodiscard]] Detonation Detonate(const autovac::vaccine::VaccinePipeline& pipeline,
                                  const std::vector<vm::Program>& programs,
                                  double seconds, size_t min_samples);

// `passes` closed-loop passes over all of `programs`, one after another,
// each in a child forked from this process as it stands: every pass
// starts from the same process history, as a forked campaign worker
// does. Latencies are pooled; the report digests are the first pass's,
// and every later pass must repeat them.
[[nodiscard]] Detonation ForkedPasses(
    Run& run, const autovac::vaccine::VaccinePipeline& pipeline,
    const std::vector<vm::Program>& programs, size_t passes);

// Digest of a report with its phase costs dropped: the fast path retires
// fewer instructions than the full re-run, and phase costs count them.
[[nodiscard]] std::string ReportDigest(autovac::vaccine::SampleReport report);

// Oracle: the legacy full re-run path (snapshot_replay=false) must give
// byte-equal reports for every program the first pass covered.
void CheckAgainstLegacy(Run& run, const analysis::ExclusivenessIndex& index,
                        const std::vector<vm::Program>& programs,
                        const Detonation& detonation);

// Traced run: Analyze decomposed into the public calls it makes, each
// timed from outside, over `programs`. Checks every sample's vaccines
// against `expected` (Analyze's) and sets the sandbox.* and analysis.*
// layer metrics. Returns the pass wall time in seconds.
double DecomposedPass(
    Run& run, const Names& names, const autovac::vaccine::VaccinePipeline& pipeline,
    const std::vector<vm::Program>& programs,
    const std::vector<std::vector<autovac::vaccine::Vaccine>>& expected);

// ---- campaign ---------------------------------------------------------

struct CampaignCycle {
  autovac::vaccine::CampaignReport report;
  size_t vaccines = 0;
  size_t clinic_passed = 0;
  size_t clinic_runs = 0;
  double wall_s = 0;
  long worker_minflt = 0;
};

// One unattended operator run: forked workers (jobs=2) with an fsync'd
// journal, the clinic over every vaccine, and the clinic-passed vaccines
// ingested into `store`. Wall time ends when they are durable.
[[nodiscard]] CampaignCycle RunCampaignCycle(
    Run& run, const Names* names, const autovac::vaccine::VaccinePipeline& pipeline,
    const std::vector<vm::Program>& programs, const Benign& benign,
    autovac::vacstore::VaccineStore& store);

// Traced-run probes of the campaign layer: forced-isolation jobs=1 minus
// in-process on a fixed subset, and journal appends with fsync.
void CampaignProbes(Run& run, const Names& names,
                    const autovac::vaccine::VaccinePipeline& pipeline,
                    const std::vector<vm::Program>& programs,
                    const autovac::vaccine::CampaignReport& report);

// ---- feed -------------------------------------------------------------

struct FeedConfig {
  // The reference step: open-loop reads at a fixed rate, one in flight
  // per slot, with JSON pushes alongside.
  double reference_rate = 0;  // reads per second
  double reference_seconds = 0;
  double push_rate = 0;       // pushes per second
  // The traced run's saturation stage: closed-loop TCP reads, `depth`
  // pipelined per slot.
  size_t saturation_depth = 0;
  double saturation_seconds = 0;
};

// Serves the store at `store_path` from a vacd child: the reference
// step, then (traced) the saturation stage; sets the feed metrics and
// checks every reply.
void RunFeed(Run& run, const Names* names, const FeedConfig& config,
             const std::string& store_path, const Benign& benign);

}  // namespace perfbench
