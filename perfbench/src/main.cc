// perfbench: the repository benchmark.
//
//   perfbench --workload <paper_mix|evasive_campaign>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Every workload runs the user's whole path — detonate samples, make the
// vaccines durable in a store, serve them from vacd to an open-loop fleet
// — and the workload decides which stage carries the weight. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it times
// every call it makes into the program's modules in its own span buffer
// and prints the per-layer metrics. The last stdout line is the result.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "evasion/corpus.h"
#include "malware/corpus.h"
#include "stages.h"
#include "support/json.h"
#include "support/tracing.h"
#include "vaccine/json.h"
#include "vacstore/store.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace av = autovac;

constexpr size_t kPaperSamples = 1716;      // Table II
constexpr size_t kEvasivePerClass = 128;    // 512 samples, four classes
// Campaigns per run at least; samples_per_s is their median rate, so one
// disturbed campaign does not move it.
constexpr size_t kMinCampaigns = 5;
// The latency passes' corpus: a superset of the campaign's
// (same seeds per class and index), large enough that its median and
// tail do not hang on a handful of samples.
constexpr size_t kEvasiveLatencyPerClass = 1024;
// Passes over that corpus; their latencies are pooled.
constexpr size_t kLatencyPasses = 2;
constexpr size_t kPaperTraceSamples = 1000;
constexpr int kSetupRepeats = 11;
constexpr uint64_t kDefaultSeed = 1;
constexpr size_t kSpanCapacity = size_t{1} << 21;
constexpr size_t kTraceEventsWritten = 200000;

// The feed stage: a reference step at a fixed rate with pushes in
// flight; the traced run then saturates vacd with pipelined reads.
FeedConfig Feed() {
  FeedConfig config;
  config.reference_rate = 4000;
  config.reference_seconds = 5;
  config.push_rate = 2;
  config.saturation_depth = 64;
  config.saturation_seconds = 3;
  return config;
}

// The preload: the paper's vaccine count, 373 static and 163 daemon-kind
// identifiers (EXPERIMENTS.md, identifier kinds); SyntheticVaccines makes
// three in ten wildcards to match.
constexpr size_t kPreload = 536;

struct Inputs {
  Benign benign;
  std::vector<vm::Program> programs;
  std::vector<vm::Program> latency_programs;  // evasive_campaign only
  std::string store_path;
};

std::vector<vm::Program> Corpus(const std::string& workload, uint64_t seed,
                                size_t per_class = kEvasivePerClass) {
  std::vector<vm::Program> programs;
  if (workload == "paper_mix") {
    av::malware::CorpusOptions options;
    options.seed = seed;
    options.total = kPaperSamples;
    auto corpus = av::malware::GenerateCorpus(options);
    AUTOVAC_CHECK(corpus.ok());
    for (av::malware::CorpusSample& sample : *corpus) {
      programs.push_back(std::move(sample.program));
    }
  } else {
    av::evasion::EvasiveCorpusOptions options;
    options.seed = seed;
    options.per_class = per_class;
    auto corpus = av::evasion::GenerateEvasiveCorpus(options);
    AUTOVAC_CHECK(corpus.ok());
    for (av::evasion::EvasiveSample& sample : *corpus) {
      programs.push_back(std::move(sample.program));
    }
  }
  return programs;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Set-up as a user pays it: the benign index, the corpus, the store
// (created, then loaded) and a vacd start. Repeated; the median counts.
Inputs SetUp(Run& run, const std::string& workload) {
  std::vector<double> seconds;
  Inputs inputs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    Inputs fresh;
    fresh.benign = TrainBenign();
    fresh.programs = Corpus(workload, run.seed);
    fresh.store_path = run.dir + "/feed.store";
    {
      auto created =
          CreateStore(fresh.store_path,
                      SyntheticVaccines(run.seed, kPreload),
                      fresh.benign.index);
      run.oracle.Check(created.ok(), "set-up: store creation failed");
    }
    run.oracle.Check(av::vacstore::VaccineStore::Open(fresh.store_path).ok(),
                     "set-up: store load failed");
    VacdChild vacd;
    run.oracle.Check(vacd.Start(fresh.store_path, run.dir + "/vacd.sock").ok(),
                     "set-up: vacd start failed");
    run.oracle.Check(vacd.Stop(), "set-up: vacd exit");
    seconds.push_back(MsSince(start) / 1000);
    inputs = std::move(fresh);
  }
  run.metrics.Set("setup_s", Median(seconds));
  // The benchmark's own input, not a user's set-up: left out of setup_s.
  if (workload == "evasive_campaign") {
    inputs.latency_programs = Corpus(workload, run.seed, kEvasiveLatencyPerClass);
  }
  return inputs;
}

void SetLatencies(Run& run, const Detonation& d) {
  if (auto v = TailPercentile(d.latency_ms, 0.5)) {
    run.metrics.Set("sample_p50_ms", *v);
  }
  if (auto v = TailPercentile(d.latency_ms, 0.99)) {
    run.metrics.Set("sample_p99_ms", *v);
  }
  run.metrics.Set("process.minflt_per_sample",
                  static_cast<double>(d.minflt) /
                      static_cast<double>(d.latency_ms.size()));
}

// The detonation stage. Untraced: a closed loop with one caller for at
// least `seconds` and a p99's worth of samples. Traced: one untraced
// pass over the first `trace_samples` programs, then the same programs
// through the decomposed pipeline, whose vaccines must equal Analyze's.
Detonation DetonationStage(Run& run, const Names* names,
                           const av::vaccine::VaccinePipeline& pipeline,
                           const std::vector<vm::Program>& programs,
                           double seconds, size_t trace_samples) {
  if (names == nullptr) {
    Detonation d = Detonate(pipeline, programs, seconds, MinSamplesFor(0.99));
    SetLatencies(run, d);
    run.totals.attempted += d.latency_ms.size();
    return d;
  }
  const std::vector<vm::Program> subset(
      programs.begin(),
      programs.begin() + std::min(trace_samples, programs.size()));
  Detonation d = Detonate(pipeline, subset, 0, subset.size());
  SetLatencies(run, d);
  const double traced_s = DecomposedPass(run, *names, pipeline, subset, d.vaccines);
  std::map<std::string, double> total = run.spans->TotalMs();
  const double probes_s =
      (total["probe.sandbox.run"] + total["probe.analysis.alignment"]) / 1000;
  run.metrics.Set("tracing.overhead_share",
                  (traced_s - probes_s) / d.wall_s - 1);
  run.totals.attempted += d.latency_ms.size() + subset.size();
  return d;
}

void Ingest(Run& run, const Names* names, const Inputs& inputs,
            const std::vector<std::vector<av::vaccine::Vaccine>>& vaccines) {
  auto store = av::vacstore::VaccineStore::Open(inputs.store_path);
  run.oracle.Check(store.ok(), "ingest: store does not open");
  if (!store.ok()) return;
  store->SetConflictIndex(&inputs.benign.index);
  av::vaccine::CampaignReport report;
  for (const auto& sample_vaccines : vaccines) {
    av::vaccine::SampleReport sample;
    sample.vaccines = sample_vaccines;
    report.reports.push_back(std::move(sample));
  }
  Scope span(names != nullptr ? run.spans : nullptr,
             names != nullptr ? names->ingest : 0);
  run.oracle.Check(av::vacstore::IngestCampaignReport(*store, report).ok(),
                   "ingest failed");
}

void NoCampaign(Run& run) {
  for (const char* name :
       {"campaign.fork_tax_ms", "campaign.worker_minflt_per_sample",
        "campaign.journal_append_ms", "campaign.journal_fsyncs",
        "vaccine.clinic_runs", "vaccine.clinic_pass_share"}) {
    run.metrics.Set(name, 0);
  }
}

void PaperMix(Run& run, const Names* names, Inputs& inputs) {
  const av::vaccine::VaccinePipeline pipeline(&inputs.benign.index);
  const Detonation d = DetonationStage(run, names, pipeline, inputs.programs,
                                       run.seconds, kPaperTraceSamples);
  run.metrics.Set("samples_per_s",
                  static_cast<double>(d.latency_ms.size()) / d.wall_s);
  CheckAgainstLegacy(run, inputs.benign.index, inputs.programs, d);
  Ingest(run, names, inputs, d.vaccines);
  NoCampaign(run);
}

// The vaccine and clinic counts BENCHMARK.json records for the default
// seed, from the evasive_campaign workload's "why".
bool RecordedCounts(size_t* vaccines, size_t* passed) {
  std::ifstream in("BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  auto json = av::ParseJson(text.str());
  if (!json.ok()) return false;
  const av::JsonValue* workloads = json->Find("workloads");
  if (workloads == nullptr || !workloads->is_array()) return false;
  for (const av::JsonValue& w : workloads->array) {
    auto name = av::JsonFieldString(w, "name");
    auto why = av::JsonFieldString(w, "why");
    if (!name.ok() || !why.ok() || *name != "evasive_campaign") continue;
    std::smatch match;
    static const std::regex kCounts("(\\d+) vaccines, (\\d+) clinic-passed");
    if (!std::regex_search(*why, match, kCounts)) return false;
    *vaccines = std::stoul(match[1]);
    *passed = std::stoul(match[2]);
    return true;
  }
  return false;
}

void EvasiveCampaign(Run& run, const Names* names, Inputs& inputs) {
  const av::vaccine::VaccinePipeline pipeline(&inputs.benign.index);
  const size_t n = inputs.programs.size();
  std::string first_report;
  av::vaccine::CampaignReport report;
  size_t vaccines = 0, passed = 0, clinic_runs = 0, samples = 0;
  double wall_s = 0;
  std::vector<double> rates;
  long worker_faults = 0;
  {
    auto store = av::vacstore::VaccineStore::Open(inputs.store_path);
    run.oracle.Check(store.ok(), "campaign: store does not open");
    if (!store.ok()) return;
    store->SetConflictIndex(&inputs.benign.index);
    // Whole campaigns until the measured time is spent and at least
    // kMinCampaigns were measured. Untraced, a first campaign warms the
    // page cache and the store file: it is checked but not timed. The
    // traced run makes one campaign.
    bool warm_up = names == nullptr;
    do {
      CampaignCycle cycle = RunCampaignCycle(run, names, pipeline,
                                             inputs.programs, inputs.benign,
                                             *store);
      const std::string json = av::vaccine::CampaignReportToJson(cycle.report);
      if (first_report.empty()) first_report = json;
      run.oracle.Check(json == first_report, "campaign report not repeatable");
      run.totals.attempted += n;
      run.totals.failed += cycle.report.samples_failed;
      vaccines = cycle.vaccines;
      passed = cycle.clinic_passed;
      clinic_runs = cycle.clinic_runs;
      report = std::move(cycle.report);
      if (std::exchange(warm_up, false)) continue;
      samples += n;
      wall_s += cycle.wall_s;
      rates.push_back(static_cast<double>(n) / cycle.wall_s);
      worker_faults += cycle.worker_minflt;
    } while (names == nullptr &&
             (rates.size() < kMinCampaigns || wall_s < run.seconds));
  }
  run.metrics.Set("samples_per_s", Median(rates));
  run.metrics.Set("campaign.worker_minflt_per_sample",
                  static_cast<double>(worker_faults) /
                      static_cast<double>(samples));
  run.metrics.Set("vaccine.clinic_runs", static_cast<double>(clinic_runs));
  run.metrics.Set("vaccine.clinic_pass_share",
                  vaccines == 0 ? 0.0
                                : static_cast<double>(passed) /
                                      static_cast<double>(vaccines));
  std::printf("campaign: %zu samples, %zu vaccines, %zu clinic-passed; "
              "samples/s per campaign:", n, vaccines, passed);
  for (const double rate : rates) std::printf(" %.1f", rate);
  std::printf("\n");

  // Time to verdict per sample on the same kind of corpus. It runs before
  // any in-process Analyze, and untraced each pass runs in a child forked
  // from this process, as campaign workers are, so every pass starts from
  // the same process history: per-sample cost follows allocator state.
  Detonation d;
  if (names == nullptr) {
    d = ForkedPasses(run, pipeline, inputs.latency_programs, kLatencyPasses);
    SetLatencies(run, d);
    run.totals.attempted += d.latency_ms.size();
  } else {
    d = DetonationStage(run, names, pipeline, inputs.latency_programs, 0,
                        inputs.latency_programs.size());
  }

  // Oracles: the forked report equals in-process AnalyzeCampaign, and
  // the default seed reproduces the counts BENCHMARK.json records.
  CheckAgainstLegacy(run, inputs.benign.index, inputs.latency_programs, d);
  run.oracle.Check(av::vaccine::CampaignReportToJson(av::vaccine::AnalyzeCampaign(
                       pipeline, inputs.programs)) == first_report,
                   "forked campaign differs from in-process AnalyzeCampaign");
  if (run.seed == kDefaultSeed) {
    size_t want_vaccines = 0, want_passed = 0;
    run.oracle.Check(RecordedCounts(&want_vaccines, &want_passed),
                     "BENCHMARK.json records no default-seed counts");
    run.oracle.Check(want_vaccines == vaccines && want_passed == passed,
                     "default-seed vaccine or clinic count changed");
  }
  if (names != nullptr) {
    CampaignProbes(run, *names, pipeline, inputs.programs, report);
  }
}

// Share of the traced busy time spent inside module calls. Busy time is
// the regions' time (per sample, per campaign, per request) minus the
// probe re-measurements inside them; what is left in a region's own self
// time is the benchmark's glue.
void SetAttribution(Run& run) {
  std::map<std::string, double> total = run.spans->TotalMs();
  std::map<std::string, double> self = run.spans->SelfMs();
  double busy = 0;
  double glue = 0;
  for (const char* region : {"region.sample", "region.campaign", "region.request"}) {
    busy += total[region];
    glue += self[region];
  }
  busy -= total["probe.sandbox.run"] + total["probe.analysis.alignment"];
  run.metrics.Set("attributed_share", busy > 0 ? (busy - glue) / busy : 0);
  run.metrics.Set("vaccine.clinic_ms", total["vaccine.clinic"]);
  run.metrics.Set("vacstore.ingest_ms", total["vacstore.ingest"]);
}

int PrintUsage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_mix|evasive_campaign> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoll(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return PrintUsage();
    }
  }
  if ((workload != "paper_mix" && workload != "evasive_campaign") ||
      seed < 0 || seconds <= 0 || (trace != 0 && trace != 1) || argc % 2 == 0) {
    return PrintUsage();
  }

  // As `autovac analyze`/`campaign` run: the program's own tracer on.
  autovac::GlobalTracer().set_enabled(true);
  Run run;
  run.seed = static_cast<uint64_t>(seed);
  run.seconds = seconds;
  run.slots = std::max(1u, std::thread::hardware_concurrency());
  run.dir = ".bench_run/" + workload + "-" + std::to_string(seed) + "-" +
            std::to_string(::getpid());
  std::filesystem::create_directories(run.dir);
  std::unique_ptr<SpanBuffer> spans;
  std::optional<Names> names;
  if (trace == 1) {
    spans = std::make_unique<SpanBuffer>(kSpanCapacity);
    names = InternNames(*spans);
    run.spans = spans.get();
  }
  std::printf("perfbench: workload %s seed %lld seconds %g trace %d | build %s"
              " | compiler %s | nproc %u\n",
              workload.c_str(), seed, seconds, trace, PERFBENCH_BUILD_TYPE,
              __VERSION__, std::thread::hardware_concurrency());

  Inputs inputs = SetUp(run, workload);
  const Names* traced = names ? &*names : nullptr;
  // Detonation runs before the feed: the feed's large buffers, once
  // freed, raise glibc's mmap threshold, after which the sandbox's 1 MiB
  // memory images stop faulting and analysis runs up to three times
  // faster than it does for a user.
  if (workload == "paper_mix") {
    PaperMix(run, traced, inputs);
  } else {
    EvasiveCampaign(run, traced, inputs);
  }
  RunFeed(run, traced, Feed(), inputs.store_path, inputs.benign);

  const Usage self = SelfUsage();
  const Usage children = ChildrenUsage();
  run.metrics.Set("peak_rss_mb",
                  static_cast<double>(std::max(self.maxrss_kb,
                                               children.maxrss_kb)) / 1024);
  const uint64_t failed = run.totals.failed + run.oracle.mismatches();
  run.metrics.Set("ok_share",
                  1.0 - static_cast<double>(failed) /
                            static_cast<double>(std::max<uint64_t>(
                                run.totals.attempted, 1)));
  if (spans) {
    SetAttribution(run);
    std::filesystem::create_directories(".bench_run/traces");
    const std::string path = ".bench_run/traces/" + workload + "-" +
                             std::to_string(seed) + ".json";
    std::ofstream(path) << spans->ChromeTrace(kTraceEventsWritten);
    std::printf("trace: %zu spans (%llu dropped), Chrome trace %s\n",
                spans->size(),
                static_cast<unsigned long long>(spans->dropped()),
                path.c_str());
  }

  const std::vector<MetricSpec>& catalog =
      trace == 1 ? PerLayerMetrics() : EndToEndMetrics();
  // Everything measured, both catalogs, for people; the result line
  // below carries this mode's catalog only.
  std::vector<MetricSpec> measured = EndToEndMetrics();
  measured.insert(measured.end(), PerLayerMetrics().begin(),
                  PerLayerMetrics().end());
  for (const MetricSpec& spec : measured) {
    if (run.metrics.Has(spec.name)) {
      std::printf("  %-36s %18.6f %s\n", spec.name, run.metrics.Get(spec.name),
                  spec.unit);
    }
  }
  std::string line;
  const int code = EmitResult(catalog, run.metrics, run.oracle, run.totals,
                              &line);
  std::error_code ignored;
  std::filesystem::remove_all(run.dir, ignored);
  std::printf("%s\n", line.c_str());
  return code;
}
