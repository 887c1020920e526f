// autovac — command-line front end for the AUTOVAC pipeline.
//
// `autovac --help` lists the commands; `autovac <command> --help` is the
// reference for a command's flags. Both are generated from the command
// table at the bottom of this file and each command's flag table
// (support/flags.h), so what is documented is exactly what is accepted.
//
// Samples are written in the sandbox assembly dialect (see
// src/vm/assembler.h); everything runs inside the simulator — no real
// binaries are executed.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/stat.h>

#include "campaign/supervisor.h"
#include "evasion/classes.h"
#include "evasion/corpus.h"
#include "fleet/agent.h"
#include "fleet/coordinator.h"
#include "malware/benign.h"
#include "net/chaosproxy.h"
#include "net/client.h"
#include "net/endpoint.h"
#include "net/faultwire.h"
#include "net/server.h"
#include "net/sync.h"
#include "sandbox/sandbox.h"
#include "support/flags.h"
#include "support/metrics.h"
#include "support/strings.h"
#include "support/table.h"
#include "support/tracing.h"
#include "trace/serialize.h"
#include "vaccine/bdr.h"
#include "vaccine/clinic.h"
#include "vaccine/delivery.h"
#include "vaccine/json.h"
#include "vaccine/package.h"
#include "vaccine/report.h"
#include "vaccine/pipeline.h"
#include "vacstore/store.h"
#include "vm/disassembler.h"

using namespace autovac;

namespace {

// Prints the error and returns exit code 1.
int ReportError(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Like ReportError, but a server that shed the request (BUSY) exits 4.
int ReportClientError(const Status& status) {
  ReportError(status);
  return net::VacdClient::IsBusy(status) ? 4 : 1;
}

// For commands that take no positional arguments.
int UnexpectedArgument(const FlagTable& flags) {
  return flags.Fail("unexpected argument '" + flags.positionals()[0] + "'");
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Writes `text` to `path`, checking both the write and the close (where a
// full disk surfaces), so a failed output fails the command. Prints the
// error and returns false on failure.
bool WriteOutput(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file != nullptr) {
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), file) == text.size();
    const int write_errno = errno;
    if (std::fclose(file) == 0 && wrote) return true;
    if (!wrote) errno = write_errno;
  }
  std::fprintf(stderr, "error: cannot write %s: %s\n", path.c_str(),
               std::strerror(errno));
  return false;
}

// Writes `text` to `path`, or to stdout when no path was given.
bool WriteOutputOrStdout(const std::string& path, const std::string& text) {
  if (!path.empty()) return WriteOutput(path, text);
  std::fputs(text.c_str(), stdout);
  return true;
}

Result<vm::Program> LoadSample(const std::string& path) {
  auto source = ReadFileToString(path);
  if (!source.ok()) return source.status();
  return sandbox::AssembleForSandbox(source.value());
}

Result<std::vector<vm::Program>> LoadSamples(
    const std::vector<std::string>& paths) {
  std::vector<vm::Program> programs;
  programs.reserve(paths.size());
  for (const std::string& path : paths) {
    auto program = LoadSample(path);
    if (!program.ok()) return program.status();
    programs.push_back(std::move(program).value());
  }
  return programs;
}

analysis::ExclusivenessIndex TrainIndex() {
  analysis::ExclusivenessIndex index;
  auto benign = malware::BuildBenignCorpus();
  AUTOVAC_CHECK(benign.ok());
  for (const vm::Program& app : benign.value()) {
    os::HostEnvironment env = os::HostEnvironment::StandardMachine();
    sandbox::RunOptions options;
    options.enable_taint = false;
    index.IndexBenignTrace(app.name,
                           sandbox::RunProgram(app, env, options).api_trace);
  }
  return index;
}

// The pipeline flags of analyze, campaign, coordinate and
// detonate-worker, declared straight into the options they set. The
// fleet folds them into the campaign config digest, so a coordinator and
// its workers must be given the same ones.
void AddPipelineFlags(FlagTable& flags, vaccine::PipelineOptions* options) {
  flags.Switch("--no-exclusiveness",
               "skip the benign-corpus exclusiveness filter",
               &options->run_exclusiveness, false);
  flags.Unsigned("--max-api-calls", "n", "cap API calls per sandbox run",
                 &options->limits.max_api_calls);
  flags.Unsigned("--max-call-depth", "n", "cap the shadow call-stack depth",
                 &options->limits.max_call_depth);
  flags.Unsigned("--mutation-threads", "n",
                 "Phase-II mutation re-run threads (default 1)",
                 &options->mutation_threads, 1);
  flags.Switch("--no-snapshot-replay",
               "re-run mutations from the start, not from snapshots",
               &options->snapshot_replay, false);
}

// Flags shared by `analyze` and `campaign`.
struct AnalyzeFlags {
  vaccine::PipelineOptions pipeline;
  bool run_clinic = true;
  std::string package_path;
  std::string report_path;
  uint64_t fault_seed = 0;
  double fault_rate = 0.02;
  std::string metrics_path;
  std::string trace_path;
};

void AddAnalyzeFlags(FlagTable& flags, AnalyzeFlags* analyze) {
  AddPipelineFlags(flags, &analyze->pipeline);
  flags.Switch("--no-clinic", "skip the malware-clinic safety test",
               &analyze->run_clinic, false);
  flags.String("--package", "out.pkg",
               "write clinic-passed vaccines as a package",
               &analyze->package_path);
  flags.String("--report", "out.md",
               "write the markdown report (analyze only)",
               &analyze->report_path);
  flags.Unsigned("--fault-seed", "n", "inject deterministic faults from seed n",
                 &analyze->fault_seed);
  flags.Double("--fault-rate", "p",
               "fault probability per API call (default 0.02)",
               &analyze->fault_rate);
  flags.String("--metrics-out", "f", "dump the metrics registry as JSONL",
               &analyze->metrics_path);
  flags.String("--trace-out", "f", "write a Chrome trace_event JSON file",
               &analyze->trace_path);
}

// Arms the --fault-seed schedule, if one was given, on `options`.
void ArmFaults(const FlagTable& flags, const AnalyzeFlags& analyze,
               sandbox::FaultPlan* plan, vaccine::PipelineOptions* options) {
  if (!flags.Seen("--fault-seed")) return;
  *plan = sandbox::FaultPlan::Randomized(analyze.fault_seed,
                                         analyze.fault_rate);
  options->fault_plan = plan;
  std::printf("fault injection: %s\n", plan->Summary().c_str());
}

// Writes --metrics-out / --trace-out if requested. Returns 0 or 1.
int ExportTelemetry(const AnalyzeFlags& flags) {
  if (!flags.metrics_path.empty()) {
    const std::string jsonl = ExportMetricsJsonl(GlobalMetrics().Snapshot());
    if (!WriteOutput(flags.metrics_path, jsonl)) return 1;
    std::printf("metrics written to %s (%zu series)\n",
                flags.metrics_path.c_str(), GlobalMetrics().size());
  }
  if (!flags.trace_path.empty()) {
    const std::string trace = ExportChromeTrace(GlobalTracer(), {});
    if (!WriteOutput(flags.trace_path, trace)) return 1;
    std::printf("trace written to %s (%zu spans)\n", flags.trace_path.c_str(),
                GlobalTracer().spans().size());
  }
  return 0;
}

void PrintPhaseCosts(const std::vector<PhaseTotal>& costs) {
  if (costs.empty()) return;
  // Deterministic fields only (no wall times): stdout must stay
  // byte-identical across same-seed runs.
  TextTable table({"phase", "spans", "instructions"});
  for (const PhaseTotal& cost : costs) {
    table.AddRow({cost.name, std::to_string(cost.spans),
                  std::to_string(cost.ticks)});
  }
  std::printf("\nanalysis cost by phase (VM instructions):\n%s",
              table.Render().c_str());
}

// Clinic-tests `vaccines` in place (removing the discarded ones) and
// prints the outcome. The paper's §IV-D gate: a vaccine that changes any
// benign program's behaviour never ships.
void ApplyClinic(std::vector<vaccine::Vaccine>& vaccines) {
  if (vaccines.empty()) return;
  auto benign = malware::BuildBenignCorpus();
  AUTOVAC_CHECK(benign.ok());
  vaccine::ClinicResult clinic =
      vaccine::RunClinicTest(vaccines, benign.value());
  std::printf("clinic: %zu vaccines tested against %zu benign programs — "
              "%zu passed, %zu discarded\n",
              vaccines.size(), benign->size(), clinic.passed.size(),
              clinic.discarded.size());
  for (size_t i = 0; i < clinic.discarded.size(); ++i) {
    std::printf("clinic: discarded %s (deviates %s)\n",
                clinic.discarded[i].Summary().c_str(),
                clinic.discard_reasons[i].c_str());
  }
  vaccines = std::move(clinic.passed);
}

int CmdAnalyze(FlagTable& flags, int argc, char** argv) {
  AnalyzeFlags analyze;
  AddAnalyzeFlags(flags, &analyze);
  if (auto exit = flags.ParseOrExit(argc, argv)) return *exit;
  if (flags.positionals().size() != 1) {
    return flags.Fail("analyze takes exactly one sample");
  }
  GlobalTracer().set_enabled(true);

  auto program = LoadSample(flags.positionals()[0]);
  if (!program.ok()) return ReportError(program.status());
  std::printf("sample '%s': %zu instructions, digest %s\n",
              program->name.c_str(), program->code.size(),
              program->Digest().c_str());

  vaccine::PipelineOptions& options = analyze.pipeline;
  analysis::ExclusivenessIndex index;
  if (options.run_exclusiveness) {
    index = TrainIndex();
    std::printf("exclusiveness index: %zu identifiers from the benign "
                "corpus\n", index.size());
  }
  sandbox::FaultPlan fault_plan(analyze.fault_seed);
  ArmFaults(flags, analyze, &fault_plan, &options);
  vaccine::VaccinePipeline pipeline(
      options.run_exclusiveness ? &index : nullptr, options);
  auto report = pipeline.Analyze(program.value());
  if (analyze.run_clinic) ApplyClinic(report.vaccines);
  // Clinic spans opened after Analyze; fold them into the rollup.
  report.phase_costs = GlobalTracer().PhaseTotals(0);
  if (!analyze.report_path.empty()) {
    if (!WriteOutput(analyze.report_path,
                     vaccine::RenderSampleReport(report))) {
      return 1;
    }
    std::printf("report written to %s\n", analyze.report_path.c_str());
  }

  std::printf("\nPhase-I : %zu resource-API occurrences, %zu tainted; "
              "resource-sensitive: %s\n",
              report.resource_api_occurrences, report.tainted_occurrences,
              report.resource_sensitive ? "yes" : "no");
  std::printf("Phase-II: %zu targets; filtered %zu non-exclusive, %zu "
              "no-impact, %zu non-deterministic\n",
              report.targets_considered, report.filtered_not_exclusive,
              report.filtered_no_impact, report.filtered_non_deterministic);
  if (!report.Clean() || report.faults_injected > 0) {
    std::printf("resilience: %zu faults injected, %zu retries, %zu targets "
                "faulted, %zu vaccines demoted\n",
                report.faults_injected, report.impact_retries,
                report.targets_faulted, report.vaccines_demoted);
    if (!report.phase1_status.ok()) {
      std::printf("phase-1 status: %s\n",
                  report.phase1_status.ToString().c_str());
    }
    if (!report.phase2_status.ok()) {
      std::printf("phase-2 status: %s\n",
                  report.phase2_status.ToString().c_str());
    }
  }
  PrintPhaseCosts(report.phase_costs);
  std::printf("\n");
  if (report.vaccines.empty()) {
    std::printf("no vaccines extracted.\n");
    return ExportTelemetry(analyze);
  }
  for (const vaccine::Vaccine& v : report.vaccines) {
    std::printf("vaccine: %s\n", v.Summary().c_str());
  }

  if (!analyze.package_path.empty()) {
    if (!WriteOutput(analyze.package_path,
                     vaccine::SerializePackage(report.vaccines))) {
      return 1;
    }
    std::printf("\npackage written to %s (%zu vaccines)\n",
                analyze.package_path.c_str(), report.vaccines.size());
  }
  return ExportTelemetry(analyze);
}

int CmdCampaign(FlagTable& flags, int argc, char** argv) {
  AnalyzeFlags analyze;
  campaign::CampaignOptions durability;
  std::string campaign_out;
  AddAnalyzeFlags(flags, &analyze);
  flags.Unsigned("--jobs", "n",
                 "parallel forked worker processes (default 1)",
                 &durability.jobs, 1);
  flags.String("--journal", "f",
               "write-ahead journal, one fsync'd record per sample",
               &durability.journal_path);
  flags.Switch("--resume", "skip samples already completed in --journal",
               &durability.resume);
  flags.Unsigned("--sample-deadline-ms", "n",
                 "SIGKILL a worker stuck on one sample this long",
                 &durability.sample_deadline_ms);
  flags.Unsigned("--stop-after", "n",
                 "stop cleanly after n samples (exit code 3)",
                 &durability.stop_after);
  flags.String("--campaign-out", "f", "write the campaign report as JSON",
               &campaign_out);
  if (auto exit = flags.ParseOrExit(argc, argv)) return *exit;
  if (flags.positionals().empty()) {
    return flags.Fail("campaign needs at least one sample");
  }
  GlobalTracer().set_enabled(true);

  auto programs = LoadSamples(flags.positionals());
  if (!programs.ok()) return ReportError(programs.status());

  vaccine::PipelineOptions& options = analyze.pipeline;
  analysis::ExclusivenessIndex index;
  if (options.run_exclusiveness) index = TrainIndex();
  // Total concurrency is --jobs worker processes x --mutation-threads
  // pool threads inside each worker; cap it at the machine's hardware
  // threads so a generous flag combination cannot oversubscribe the box.
  // The note goes to stderr — stdout is the dashboard, which must stay
  // byte-comparable across machines.
  const size_t requested_threads = options.mutation_threads;
  const size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  if (durability.jobs * requested_threads > hardware) {
    options.mutation_threads = std::max<size_t>(1, hardware / durability.jobs);
    std::fprintf(stderr,
                 "campaign: capping --mutation-threads %zu -> %zu "
                 "(%zu jobs x threads must fit %zu hardware threads)\n",
                 requested_threads, options.mutation_threads,
                 durability.jobs, hardware);
  }
  sandbox::FaultPlan fault_plan(analyze.fault_seed);
  ArmFaults(flags, analyze, &fault_plan, &options);
  vaccine::VaccinePipeline pipeline(
      options.run_exclusiveness ? &index : nullptr, options);

  if (flags.Seen("--fault-seed")) {
    // The fault schedule changes analysis output but lives outside
    // PipelineOptions; fold it into the journal's config digest so a
    // resume with different fault flags is refused.
    durability.config_extra = StrFormat("fault_seed=%llu fault_rate=%.17g",
                                        static_cast<unsigned long long>(
                                            analyze.fault_seed),
                                        analyze.fault_rate);
  }
  auto outcome =
      campaign::RunDurableCampaign(pipeline, programs.value(), durability);
  if (!outcome.ok()) return ReportError(outcome.status());
  vaccine::CampaignReport& campaign = outcome.value().report;
  const campaign::CampaignRunStats& stats = outcome.value().stats;
  // Durability narration goes to stderr: stdout is the dashboard, which
  // must stay byte-comparable between fresh and resumed runs.
  if (!durability.journal_path.empty() || durability.WorkerMode()) {
    std::fprintf(stderr,
                 "campaign: %zu samples replayed from journal, %zu analyzed "
                 "(%zu worker crashes, %zu deadline kills, %zu retries, "
                 "%zu quarantined)\n",
                 stats.samples_loaded, stats.samples_analyzed,
                 stats.workers_crashed, stats.deadline_kills,
                 stats.worker_retries, stats.samples_quarantined);
  }
  if (stats.interrupted) {
    std::fprintf(stderr,
                 "campaign: interrupted after %zu samples; resume with "
                 "--resume --journal %s\n",
                 stats.samples_analyzed, durability.journal_path.c_str());
  }

  TextTable table({"sample", "sensitive", "targets", "vaccines", "demoted",
                   "faults", "clean"});
  std::vector<vaccine::Vaccine> all_vaccines;
  for (const vaccine::SampleReport& report : campaign.reports) {
    table.AddRow({report.sample_name,
                  report.resource_sensitive ? "yes" : "no",
                  std::to_string(report.targets_considered),
                  std::to_string(report.vaccines.size()),
                  std::to_string(report.vaccines_demoted),
                  std::to_string(report.faults_injected),
                  report.Clean() ? "yes" : "no"});
    all_vaccines.insert(all_vaccines.end(), report.vaccines.begin(),
                        report.vaccines.end());
  }
  std::printf("campaign dashboard (%zu samples):\n%s",
              campaign.reports.size(), table.Render().c_str());
  std::printf("totals: %zu vaccines, %zu demoted, %zu faults injected, "
              "%zu samples degraded, %zu failed\n",
              campaign.total_vaccines, campaign.total_demoted,
              campaign.total_faults_injected, campaign.samples_degraded,
              campaign.samples_failed);

  // Phase costs come from the per-report rollups (the supervisor's own
  // tracer sees nothing when samples ran in forked workers or were
  // replayed from a journal), plus whatever the clinic adds in-process.
  const size_t pre_clinic = GlobalTracer().spans().size();
  if (analyze.run_clinic) ApplyClinic(all_vaccines);
  const std::vector<PhaseTotal> clinic_costs =
      GlobalTracer().PhaseTotals(pre_clinic);
  PrintPhaseCosts(MergePhaseTotals({&campaign.phase_costs, &clinic_costs}));

  if (!analyze.package_path.empty()) {
    if (!WriteOutput(analyze.package_path,
                     vaccine::SerializePackage(all_vaccines))) {
      return 1;
    }
    std::printf("package written to %s (%zu vaccines)\n",
                analyze.package_path.c_str(), all_vaccines.size());
  }
  if (!campaign_out.empty()) {
    if (!WriteOutput(campaign_out,
                     vaccine::CampaignReportToJson(campaign) + "\n")) {
      return 1;
    }
    std::printf("campaign report written to %s (%zu samples)\n",
                campaign_out.c_str(), campaign.reports.size());
  }
  const int telemetry = ExportTelemetry(analyze);
  if (telemetry != 0) return telemetry;
  return stats.interrupted ? 3 : 0;
}

int CmdTest(FlagTable& flags, int argc, char** argv) {
  if (auto exit = flags.ParseOrExit(argc, argv)) return *exit;
  if (flags.positionals().size() != 2) {
    return flags.Fail("test takes a sample and a package");
  }
  auto program = LoadSample(flags.positionals()[0]);
  if (!program.ok()) return ReportError(program.status());
  auto package_text = ReadFileToString(flags.positionals()[1]);
  if (!package_text.ok()) return ReportError(package_text.status());
  auto vaccines = vaccine::ParsePackage(package_text.value());
  if (!vaccines.ok()) return ReportError(vaccines.status());
  std::printf("package: %zu vaccines\n", vaccines->size());

  auto bdr = vaccine::MeasureBdr(program.value(), vaccines.value());
  std::printf("normal machine:     %zu native calls\n",
              bdr.native_calls_normal);
  std::printf("vaccinated machine: %zu native calls%s\n",
              bdr.native_calls_vaccinated,
              bdr.malware_terminated_early ? " (malware self-terminated)"
                                           : "");
  std::printf("BDR = %.2f\n", bdr.bdr);
  // Success when the package demonstrably affected the sample.
  return (bdr.bdr > 0.0 || bdr.malware_terminated_early) ? 0 : 1;
}

int CmdTrace(FlagTable& flags, int argc, char** argv) {
  std::string out_path;
  flags.String("--out", "f", "write the trace to a file instead of stdout",
               &out_path);
  if (auto exit = flags.ParseOrExit(argc, argv)) return *exit;
  if (flags.positionals().size() != 1) {
    return flags.Fail("trace takes exactly one sample");
  }
  auto program = LoadSample(flags.positionals()[0]);
  if (!program.ok()) return ReportError(program.status());
  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  auto run = sandbox::RunProgram(program.value(), env, {});
  if (!WriteOutputOrStdout(out_path,
                           trace::SerializeApiTrace(run.api_trace))) {
    return 1;
  }
  if (!out_path.empty()) {
    std::printf("trace with %zu calls written to %s\n",
                run.api_trace.calls.size(), out_path.c_str());
  }
  return 0;
}

int CmdDisasm(FlagTable& flags, int argc, char** argv) {
  if (auto exit = flags.ParseOrExit(argc, argv)) return *exit;
  if (flags.positionals().size() != 1) {
    return flags.Fail("disasm takes exactly one sample");
  }
  auto program = LoadSample(flags.positionals()[0]);
  if (!program.ok()) return ReportError(program.status());
  std::fputs(
      vm::DisassembleProgram(program.value(), sandbox::SandboxApiNamer())
          .c_str(),
      stdout);
  return 0;
}

int CmdCorpus(FlagTable& flags, int argc, char** argv) {
  std::string out_dir;
  std::string class_list;
  evasion::EvasiveCorpusOptions options;
  flags.String("--out", "dir", "directory for the .asm files (created)",
               &out_dir);
  flags.Unsigned("--seed", "n", "corpus seed (default 2013)", &options.seed);
  flags.Unsigned("--per-class", "n", "samples per class (default 8)",
                 &options.per_class, 1);
  flags.String("--evasion", "list",
               "comma-separated classes to generate (default all)",
               &class_list);
  if (auto exit = flags.ParseOrExit(argc, argv)) return *exit;
  if (!flags.positionals().empty()) return UnexpectedArgument(flags);
  if (out_dir.empty()) return flags.Fail("corpus requires --out");
  if (flags.Seen("--evasion")) {
    // Strict: one unknown name fails the whole run instead of silently
    // generating a smaller corpus.
    for (const std::string& name : StrSplit(class_list, ",", true)) {
      auto cls = evasion::ParseEvasionClass(name);
      if (!cls.has_value()) {
        std::fprintf(stderr, "error: unknown evasion class '%s'\n",
                     name.c_str());
        return 2;
      }
      options.classes.push_back(*cls);
    }
  }
  if (::mkdir(out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", out_dir.c_str(),
                 std::strerror(errno));
    return 1;
  }
  auto corpus = evasion::GenerateEvasiveCorpus(options);
  if (!corpus.ok()) return ReportError(corpus.status());
  for (const evasion::EvasiveSample& sample : corpus.value()) {
    if (!WriteOutput(out_dir + "/" + sample.program.name + ".asm",
                     sample.source)) {
      return 1;
    }
  }
  std::printf("corpus: wrote %zu samples to %s (seed %llu)\n",
              corpus->size(), out_dir.c_str(),
              static_cast<unsigned long long>(options.seed));
  return 0;
}

// ---- vacd commands ---------------------------------------------------

std::atomic<bool> g_stop_requested{false};

void HandleStopSignal(int) { g_stop_requested.store(true); }

void InstallStopHandlers() {
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
}

// Blocks until SIGINT or SIGTERM, polling every 50 ms.
void WaitForStopSignal() {
  InstallStopHandlers();
  while (!g_stop_requested.load()) {
    ::usleep(50 * 1000);
  }
}

// The vacd client flags: endpoint, deadline and retry policy.
struct ClientFlags {
  std::string socket_path;  // endpoint spec: Unix path or tcp:host:port
  uint64_t deadline_ms = 5000;
  net::RetryPolicy retry;  // default: a single attempt
  bool binary = false;     // compact binary encoding for the read path
};

void AddClientFlags(FlagTable& flags, ClientFlags* client,
                    bool with_binary = true) {
  flags.String("--socket", "s", "server endpoint: Unix path or tcp:host:port",
               &client->socket_path);
  flags.Unsigned("--deadline-ms", "n", "request deadline (default 5000)",
                 &client->deadline_ms);
  flags.Unsigned("--retries", "n", "attempts per request (default 1)",
                 &client->retry.max_attempts, 1);
  flags.Unsigned("--retry-budget-ms", "n",
                 "total retry budget (default 30000)",
                 &client->retry.max_total_ms);
  flags.Unsigned("--retry-seed", "n", "seed for deterministic backoff jitter",
                 &client->retry.seed);
  if (with_binary) {
    flags.Switch("--binary", "compact binary encoding for reads",
                 &client->binary);
  }
}

// Parses a vacd client command line; nullopt to carry on.
std::optional<int> ParseClient(FlagTable& flags, int argc, char** argv,
                               const ClientFlags& client) {
  if (auto exit = flags.ParseOrExit(argc, argv)) return exit;
  if (client.socket_path.empty()) {
    return flags.Fail("this command requires --socket");
  }
  return std::nullopt;
}

int CmdServe(FlagTable& flags, int argc, char** argv) {
  net::VacdOptions options;
  std::string store_path;
  std::string tcp;
  bool use_exclusiveness = true;
  flags.String("--socket", "s", "Unix socket to listen on",
               &options.socket_path);
  flags.String("--store", "f", "durable store file (JSONL, created)",
               &store_path);
  flags.Unsigned("--threads", "n", "request worker threads (default 4)",
                 &options.threads, 1);
  flags.Unsigned("--checkpoint-every", "n",
                 "checkpoint after every n accepted vaccines",
                 &options.checkpoint_every);
  flags.Unsigned("--dedup-window", "n",
                 "push replies kept for retries (default 128)",
                 &options.push_dedup_window);
  flags.Switch("--no-exclusiveness", "skip the benign-conflict quarantine",
               &use_exclusiveness, false);
  flags.String("--tcp", "host:port", "also listen on TCP (port 0: ephemeral)",
               &tcp);
  flags.Unsigned("--max-connections", "n",
                 "connections before BUSY (default 4096)",
                 &options.max_connections);
  flags.Double("--rate-rps", "r",
               "per-connection requests/second (default 0: off)",
               &options.rate_limit_rps);
  flags.Double("--rate-burst", "n", "token-bucket burst size (default 64)",
               &options.rate_limit_burst);
  flags.Unsigned("--idle-timeout-ms", "n",
                 "close idle connections (default 60000)",
                 &options.idle_timeout_ms);
  if (auto exit = flags.ParseOrExit(argc, argv)) return *exit;
  if (!flags.positionals().empty()) return UnexpectedArgument(flags);
  if (options.socket_path.empty()) return flags.Fail("serve requires --socket");
  if (!tcp.empty()) {
    // Accept "host:port", "port", or a full "tcp:..." spec.
    if (tcp.rfind("tcp:", 0) != 0) tcp = "tcp:" + tcp;
    auto endpoint = net::ParseEndpoint(tcp);
    if (!endpoint.ok()) {
      ReportError(endpoint.status());
      return 2;
    }
    options.tcp_host = endpoint->host;
    options.tcp_port = endpoint->port;
  }

  vacstore::VaccineStore store;
  if (!store_path.empty()) {
    auto opened = vacstore::VaccineStore::Open(store_path);
    if (!opened.ok()) return ReportError(opened.status());
    store = std::move(opened).value();
    if (store.repaired_torn_tail()) {
      std::fprintf(stderr,
                   "vacd: dropped a torn record from %s (crash mid-push)\n",
                   store_path.c_str());
    }
  }
  analysis::ExclusivenessIndex index;
  if (use_exclusiveness) {
    index = TrainIndex();
    store.SetConflictIndex(&index);
    auto rescanned = store.RescanConflicts();
    if (!rescanned.ok()) return ReportError(rescanned.status());
    if (*rescanned > 0) {
      std::fprintf(stderr, "vacd: quarantined %zu stored vaccines that "
                   "conflict with the benign corpus\n", *rescanned);
    }
  }

  net::VacdServer server(std::move(store), options);
  const Status started = server.Start();
  if (!started.ok()) return ReportError(started);
  // The "listening" line is the readiness signal scripts wait for.
  std::printf("vacd: listening on %s (%zu served, %zu quarantined, "
              "epoch %llu)\n",
              options.socket_path.c_str(), server.Stats().served,
              server.Stats().quarantined,
              static_cast<unsigned long long>(server.Stats().epoch));
  if (server.tcp_port() != 0) {
    // Scripts parse the resolved port from this line (--tcp ...:0
    // binds an ephemeral one).
    std::printf("vacd: tcp listening on tcp:%s:%u\n",
                options.tcp_host.c_str(),
                static_cast<unsigned>(server.tcp_port()));
  }
  std::fflush(stdout);

  WaitForStopSignal();
  const net::StatusReply stats = server.Stats();
  server.Stop();
  std::printf("vacd: stopped after %llu requests (%llu shed); "
              "%llu served, %llu quarantined, epoch %llu\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.served),
              static_cast<unsigned long long>(stats.quarantined),
              static_cast<unsigned long long>(stats.epoch));
  return 0;
}

int CmdPush(FlagTable& flags, int argc, char** argv) {
  ClientFlags client;
  AddClientFlags(flags, &client);
  if (auto exit = ParseClient(flags, argc, argv, client)) return *exit;
  if (flags.positionals().empty()) {
    return flags.Fail("push needs at least one package file");
  }
  std::vector<vaccine::Vaccine> vaccines;
  for (const std::string& path : flags.positionals()) {
    auto text = ReadFileToString(path);
    if (!text.ok()) return ReportError(text.status());
    auto parsed_package = vaccine::ParsePackage(text.value());
    if (!parsed_package.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                   parsed_package.status().ToString().c_str());
      return 1;
    }
    vaccines.insert(vaccines.end(), parsed_package->begin(),
                    parsed_package->end());
  }
  net::VacdClient vacd(client.socket_path, client.deadline_ms, client.retry);
  vacd.set_binary(client.binary);
  auto reply = vacd.Push(vaccines);
  if (!reply.ok()) return ReportClientError(reply.status());
  std::printf("pushed %zu vaccines: %llu added, %llu duplicates, "
              "%llu quarantined; feed epoch %llu\n",
              vaccines.size(),
              static_cast<unsigned long long>(reply->added),
              static_cast<unsigned long long>(reply->duplicates),
              static_cast<unsigned long long>(reply->quarantined),
              static_cast<unsigned long long>(reply->epoch));
  return 0;
}

int CmdQuery(FlagTable& flags, int argc, char** argv) {
  ClientFlags client;
  std::string resource_name;
  AddClientFlags(flags, &client);
  flags.String("--resource", "type",
               "file|registry|mutex|process|window|library|service",
               &resource_name);
  if (auto exit = ParseClient(flags, argc, argv, client)) return *exit;
  if (!flags.Seen("--resource") || flags.positionals().size() != 1) {
    return flags.Fail("query needs --resource and exactly one identifier");
  }
  auto resource = os::ResourceTypeFromName(resource_name);
  if (!resource.ok()) {
    ReportError(resource.status());
    return 2;
  }
  const std::string& identifier = flags.positionals()[0];
  net::VacdClient vacd(client.socket_path, client.deadline_ms, client.retry);
  vacd.set_binary(client.binary);
  auto reply = vacd.Query(resource.value(), identifier);
  if (!reply.ok()) return ReportClientError(reply.status());
  if (reply->matches.empty()) {
    std::printf("no vaccine matches '%s'\n", identifier.c_str());
    return 1;
  }
  for (const vaccine::Vaccine& v : reply->matches) {
    std::printf("match: %s\n", v.Summary().c_str());
    std::printf("action: %s\n",
                v.simulate_presence
                    ? "simulate presence (report already-exists)"
                    : "deny access");
  }
  return 0;
}

int CmdPull(FlagTable& flags, int argc, char** argv) {
  ClientFlags client;
  uint64_t since = 0;
  std::string out_path;
  AddClientFlags(flags, &client);
  flags.Unsigned("--since", "epoch", "only vaccines after this feed epoch",
                 &since);
  flags.String("--out", "f", "write the feed JSON to a file", &out_path);
  if (auto exit = ParseClient(flags, argc, argv, client)) return *exit;
  if (!flags.positionals().empty()) return UnexpectedArgument(flags);
  net::VacdClient vacd(client.socket_path, client.deadline_ms, client.retry);
  vacd.set_binary(client.binary);
  const net::Request request = net::PullRequest{since};
  // RoundTripRaw is one attempt by design; under --retries (or --binary,
  // whose raw reply is not printable), fall back to the typed path and
  // re-serialize (canonical JSON, so the output bytes match what the
  // server would have sent for a JSON request).
  Result<std::string> raw = Status::Internal("unreachable");
  if (client.retry.max_attempts > 1 || client.binary) {
    auto retried = vacd.RoundTrip(request);
    if (retried.ok()) {
      raw = net::ReplyToJson(*retried);
    } else {
      raw = retried.status();
    }
  } else {
    raw = vacd.RoundTripRaw(net::RequestToJson(request));
  }
  if (!raw.ok()) return ReportError(raw.status());
  auto reply = net::ParseReply(raw.value());
  if (!reply.ok()) return ReportError(reply.status());
  if (const auto* error = std::get_if<net::ErrorReply>(&reply.value())) {
    std::fprintf(stderr, "error: %s\n", error->message.c_str());
    return error->busy ? 4 : 1;
  }
  const auto* page = std::get_if<net::PullReply>(&reply.value());
  if (page == nullptr) {
    std::fprintf(stderr, "error: unexpected reply kind for pull\n");
    return 1;
  }
  if (!WriteOutputOrStdout(out_path, *raw + "\n")) return 1;
  std::fprintf(stderr, "pulled %zu vaccines since epoch %llu (feed epoch "
               "%llu)\n",
               page->items.size(), static_cast<unsigned long long>(since),
               static_cast<unsigned long long>(page->epoch));
  return 0;
}

int CmdSync(FlagTable& flags, int argc, char** argv) {
  ClientFlags client;
  uint64_t page_limit = 0;
  std::string out_path;
  AddClientFlags(flags, &client);
  flags.Unsigned("--page", "n", "delta-pull page size (0 = unpaged)",
                 &page_limit);
  flags.String("--out", "f", "write the mirrored feed JSON to a file",
               &out_path);
  if (auto exit = ParseClient(flags, argc, argv, client)) return *exit;
  if (!flags.positionals().empty()) return UnexpectedArgument(flags);
  net::VacdClient vacd(client.socket_path, client.deadline_ms, client.retry);
  vacd.set_binary(client.binary);
  net::FeedMirror mirror;
  const Status synced = mirror.SyncFrom(vacd, page_limit);
  if (!synced.ok()) return ReportClientError(synced);
  if (!WriteOutputOrStdout(out_path, mirror.CanonicalJson() + "\n")) return 1;
  std::fprintf(stderr,
               "synced %zu vaccines to feed epoch %llu (page limit %llu)\n",
               mirror.size(),
               static_cast<unsigned long long>(mirror.cursor()),
               static_cast<unsigned long long>(page_limit));
  return 0;
}

int CmdQuarantine(FlagTable& flags, int argc, char** argv) {
  ClientFlags client;
  std::string reason = "operator";
  AddClientFlags(flags, &client);
  flags.String("--reason", "s", "recorded retraction reason", &reason);
  if (auto exit = ParseClient(flags, argc, argv, client)) return *exit;
  if (flags.positionals().size() != 1) {
    return flags.Fail("quarantine needs exactly one digest");
  }
  const std::string& digest = flags.positionals()[0];
  net::VacdClient vacd(client.socket_path, client.deadline_ms, client.retry);
  auto reply = vacd.Quarantine(digest, reason);
  if (!reply.ok()) return ReportClientError(reply.status());
  std::printf("%s %s; feed epoch %llu\n",
              reply->already ? "already quarantined" : "quarantined",
              digest.c_str(), static_cast<unsigned long long>(reply->epoch));
  return 0;
}

int CmdChaosProxy(FlagTable& flags, int argc, char** argv) {
  net::ChaosProxyOptions options;
  uint64_t seed = 1;
  double rate = 0.1;
  flags.String("--listen", "s", "endpoint the client should connect to",
               &options.listen_path);
  flags.String("--backend", "s", "the real vacd endpoint to relay to",
               &options.backend_path);
  flags.Unsigned("--fault-seed", "n", "seed of the fault plan (default 1)",
                 &seed);
  flags.Double("--fault-rate", "p", "per-rule fault probability (default 0.1)",
               &rate);
  flags.Unsigned("--deadline-ms", "n", "relay socket deadline (default 5000)",
                 &options.deadline_ms);
  if (auto exit = flags.ParseOrExit(argc, argv)) return *exit;
  if (!flags.positionals().empty()) return UnexpectedArgument(flags);
  if (options.listen_path.empty() || options.backend_path.empty()) {
    return flags.Fail("chaos-proxy requires --listen and --backend");
  }
  options.verbose = true;
  const net::NetFaultPlan plan = net::NetFaultPlan::Randomized(seed, rate);
  net::ChaosProxy proxy(plan, options);
  const Status started = proxy.Start();
  if (!started.ok()) return ReportError(started);
  // The "relaying" line is the readiness signal scripts wait for.
  std::printf("chaos-proxy: relaying %s -> %s (%s)\n",
              options.listen_path.c_str(), options.backend_path.c_str(),
              plan.Summary().c_str());
  std::fflush(stdout);

  WaitForStopSignal();
  proxy.Stop();
  std::printf("chaos-proxy: stopped after %llu connections, %llu faults "
              "injected\n",
              static_cast<unsigned long long>(proxy.connections()),
              static_cast<unsigned long long>(proxy.faults_injected()));
  return 0;
}

int CmdStatus(FlagTable& flags, int argc, char** argv) {
  ClientFlags client;
  AddClientFlags(flags, &client);
  if (auto exit = ParseClient(flags, argc, argv, client)) return *exit;
  if (!flags.positionals().empty()) return UnexpectedArgument(flags);
  net::VacdClient vacd(client.socket_path, client.deadline_ms, client.retry);
  vacd.set_binary(client.binary);
  auto stats = vacd.Stats();
  if (!stats.ok()) return ReportClientError(stats.status());
  std::printf("vacd at %s:\n", client.socket_path.c_str());
  std::printf("  feed epoch        %llu\n",
              static_cast<unsigned long long>(stats->epoch));
  std::printf("  served            %llu\n",
              static_cast<unsigned long long>(stats->served));
  std::printf("  quarantined       %llu\n",
              static_cast<unsigned long long>(stats->quarantined));
  std::printf("  requests          %llu\n",
              static_cast<unsigned long long>(stats->requests));
  std::printf("  shed (busy)       %llu\n",
              static_cast<unsigned long long>(stats->shed));
  std::printf("  evicted (slow)    %llu\n",
              static_cast<unsigned long long>(stats->evicted));
  std::printf("  checkpoint epoch  %llu\n",
              static_cast<unsigned long long>(stats->checkpoint_epoch));
  std::printf("  replayed at load  %llu\n",
              static_cast<unsigned long long>(stats->replayed));
  std::printf("  push dedup hits   %llu\n",
              static_cast<unsigned long long>(stats->dedup_hits));
  return 0;
}

// ---- fleet commands --------------------------------------------------

int CmdCoordinate(FlagTable& flags, int argc, char** argv) {
  vaccine::PipelineOptions pipeline_options;
  fleet::CoordinatorOptions options;
  std::string campaign_out;
  // After the last sample completes, keep serving until no request has
  // arrived for this long. Idle workers learn done=true from their next
  // claim instead of finding a severed socket, and a worker whose done
  // reply was torn by the network gets a second chance within its retry
  // backoff (capped at 2 s, hence the 3 s default).
  uint64_t linger_ms = 3000;
  AddPipelineFlags(flags, &pipeline_options);
  flags.String("--socket", "s", "endpoint the workers connect to",
               &options.socket_path);
  flags.String("--journal", "f", "write-ahead journal of assignments",
               &options.journal_path);
  flags.Switch("--resume", "replay --journal after a coordinator crash",
               &options.resume);
  flags.Unsigned("--lease-ms", "n", "lease validity window (default 5000)",
                 &options.lease_ms);
  flags.Unsigned("--threads", "n", "request worker threads (default 4)",
                 &options.threads, 1);
  flags.String("--store", "f", "stream extracted vaccines into this store",
               &options.store_path);
  flags.String("--campaign-out", "f", "write the merged report as JSON",
               &campaign_out);
  flags.Unsigned("--linger-ms", "n",
                 "keep serving until quiet this long (default 3000)",
                 &linger_ms);
  flags.Unsigned("--crash-after-assignments", "n",
                 "chaos drill: SIGKILL after journaling n assignments",
                 &options.crash_after_assignments);
  if (auto exit = flags.ParseOrExit(argc, argv)) return *exit;
  if (options.socket_path.empty()) {
    return flags.Fail("coordinate requires --socket");
  }
  if (flags.positionals().empty()) {
    return flags.Fail("coordinate needs at least one sample");
  }
  auto programs = LoadSamples(flags.positionals());
  if (!programs.ok()) return ReportError(programs.status());
  const size_t total = programs->size();

  fleet::FleetCoordinator coordinator(std::move(programs).value(),
                                      pipeline_options, options);
  const Status started = coordinator.Start();
  if (!started.ok()) return ReportError(started);
  // The "listening" line is the readiness signal scripts wait for.
  std::printf("coordinator: listening on %s (%zu samples, %zu already "
              "journaled, lease %llu ms, config %s)\n",
              options.socket_path.c_str(), total,
              coordinator.Stats().resumed_completed,
              static_cast<unsigned long long>(options.lease_ms),
              coordinator.config_digest().c_str());
  std::fflush(stdout);

  InstallStopHandlers();
  Status outcome = Status::Ok();
  while (true) {
    outcome = coordinator.WaitUntilDone(/*timeout_ms=*/200);
    if (outcome.ok()) break;
    if (outcome.code() != StatusCode::kDeadlineExceeded) break;
    if (g_stop_requested.load()) break;
  }
  if (outcome.ok() && linger_ms > 0) {
    // Drain: the campaign is done but idle workers are still polling
    // claims. Keep serving until the fleet goes quiet so each of them
    // observes done=true instead of a torn connection.
    uint64_t last = coordinator.requests_served();
    uint64_t quiet = 0;
    while (quiet < linger_ms && !g_stop_requested.load()) {
      ::usleep(100 * 1000);
      const uint64_t now = coordinator.requests_served();
      if (now != last) {
        last = now;
        quiet = 0;
      } else {
        quiet += 100;
      }
    }
  }
  const net::FleetStatusReply progress = coordinator.Progress();
  const fleet::CoordinatorStats stats = coordinator.Stats();
  coordinator.Stop();
  // Durability narration goes to stderr: stdout stays byte-comparable
  // between fresh and resumed runs.
  std::fprintf(stderr,
               "coordinator: %llu/%llu samples done, %llu reassigned, "
               "%llu stale uploads rejected, %llu duplicates, %llu dedup "
               "hits, %llu workers seen, %llu verdicts (%llu suspicious), "
               "%llu vaccines ingested\n",
               static_cast<unsigned long long>(progress.completed),
               static_cast<unsigned long long>(progress.total),
               static_cast<unsigned long long>(progress.reassigned),
               static_cast<unsigned long long>(progress.stale_rejected),
               static_cast<unsigned long long>(progress.duplicates),
               static_cast<unsigned long long>(stats.dedup_hits),
               static_cast<unsigned long long>(progress.workers),
               static_cast<unsigned long long>(progress.verdicts),
               static_cast<unsigned long long>(progress.suspicious),
               static_cast<unsigned long long>(stats.ingested));
  if (!outcome.ok() && outcome.code() != StatusCode::kDeadlineExceeded) {
    return ReportError(outcome);
  }
  if (!progress.done) {
    std::fprintf(stderr,
                 "coordinator: interrupted; resume with --resume "
                 "--journal %s\n",
                 options.journal_path.c_str());
    return 3;
  }

  auto report = coordinator.Report();
  if (!report.ok()) return ReportError(report.status());
  std::printf("fleet campaign complete: %zu samples, %zu vaccines "
              "(%zu demoted), %zu faults injected, %zu degraded, "
              "%zu failed\n",
              report->reports.size(), report->total_vaccines,
              report->total_demoted, report->total_faults_injected,
              report->samples_degraded, report->samples_failed);
  if (!campaign_out.empty()) {
    if (!WriteOutput(campaign_out,
                     vaccine::CampaignReportToJson(report.value()) + "\n")) {
      return 1;
    }
    std::printf("campaign report written to %s (%zu samples)\n",
                campaign_out.c_str(), report->reports.size());
  }
  return 0;
}

int CmdDetonateWorker(FlagTable& flags, int argc, char** argv) {
  vaccine::PipelineOptions pipeline_options;
  ClientFlags client;
  fleet::WorkerOptions options;
  AddPipelineFlags(flags, &pipeline_options);
  AddClientFlags(flags, &client, /*with_binary=*/false);
  flags.String("--worker-id", "s", "lease owner name (default 'worker')",
               &options.worker_id);
  flags.Switch("--verdicts", "stream advisory verdicts before analysis",
               &options.verdicts);
  flags.Unsigned("--idle-poll-ms", "n",
                 "claim poll interval while idle (default 50)",
                 &options.idle_poll_ms);
  flags.Unsigned("--max-idle-ms", "n",
                 "give up after idling this long (default 60000)",
                 &options.max_idle_ms);
  flags.Unsigned("--kill-after-claims", "n",
                 "chaos drill: SIGKILL after the n-th claim",
                 &options.kill_after_claims);
  flags.Switch("--kill-mid-upload",
               "chaos drill: SIGKILL after sending the first upload",
               &options.kill_mid_upload);
  if (auto exit = ParseClient(flags, argc, argv, client)) return *exit;
  if (flags.positionals().empty()) {
    return flags.Fail("detonate-worker needs the corpus samples");
  }
  options.socket_path = client.socket_path;
  options.deadline_ms = client.deadline_ms;
  options.retry = client.retry;
  // Workers produce the phase-cost rollups that land in the merged
  // campaign report; the tracer must run exactly as `autovac campaign`
  // runs it or the merged report bytes would differ.
  GlobalTracer().set_enabled(true);

  auto corpus = LoadSamples(flags.positionals());
  if (!corpus.ok()) return ReportError(corpus.status());
  analysis::ExclusivenessIndex index;
  if (pipeline_options.run_exclusiveness) index = TrainIndex();
  vaccine::VaccinePipeline pipeline(
      pipeline_options.run_exclusiveness ? &index : nullptr,
      pipeline_options);

  auto stats = fleet::RunWorker(pipeline, corpus.value(), options);
  if (!stats.ok()) return ReportError(stats.status());
  std::printf("worker %s: %zu claimed, %zu completed, %zu stale, "
              "%zu duplicates, %zu verdicts\n",
              options.worker_id.c_str(), stats->claimed, stats->completed,
              stats->stale, stats->duplicates, stats->verdicts);
  return 0;
}

// ---- command table ---------------------------------------------------

struct Command {
  const char* name;
  const char* synopsis;     // arguments after the command name
  const char* description;  // the --help paragraph after the flag list
  int (*run)(FlagTable& flags, int argc, char** argv);
};

const Command kCommands[] = {
    {"analyze", "<sample.asm> [options]",
     "Runs Phase I+II on an assembly sample, clinic-tests the extracted\n"
     "vaccines against the benign corpus, and prints the survivors.\n"
     "--fault-seed runs the whole analysis under a deterministic\n"
     "randomized fault schedule; the limit flags cap the execution\n"
     "envelope. --metrics-out dumps the process metrics registry as\n"
     "JSONL; --trace-out writes a Chrome trace_event file (load it in\n"
     "chrome://tracing or Perfetto) whose timestamps are VM instruction\n"
     "counts, so same-seed runs produce identical span trees. Reports are\n"
     "byte-identical for any --mutation-threads, with or without\n"
     "--no-snapshot-replay.\n",
     CmdAnalyze},
    {"campaign", "<sample.asm>... [options]",
     "Analyzes a wave of samples with crash isolation and prints the\n"
     "per-sample dashboard plus campaign phase-cost totals. --journal\n"
     "makes the campaign durable: every completed sample is fsync'd to a\n"
     "write-ahead journal and --resume re-runs only the missing ones,\n"
     "producing the same report bytes as an uninterrupted run. --jobs > 1\n"
     "or --sample-deadline-ms > 0 shards samples across forked worker\n"
     "processes, so a crashing or hanging sample becomes a failed row,\n"
     "never a dead campaign; --jobs x --mutation-threads is capped at the\n"
     "machine's hardware threads. Exit code 3 means the run stopped early\n"
     "(--stop-after) with the journal intact.\n",
     CmdCampaign},
    {"test", "<sample.asm> <package.pkg>",
     "Deploys the package on a fresh machine and re-runs the sample\n"
     "against it: native calls on a normal and a vaccinated machine, and\n"
     "the BDR. Exit 0 when the package demonstrably affected the sample.\n",
     CmdTest},
    {"trace", "<sample.asm> [--out <f>]",
     "Runs the sample once and dumps the serialized API trace.\n", CmdTrace},
    {"disasm", "<sample.asm>",
     "Assembles the sample and prints the program listing.\n", CmdDisasm},
    {"serve", "--socket <s> [--store <f>] [--tcp <host:port>] [options]",
     "Runs vacd, the vaccine store + distribution server, until SIGINT\n"
     "or SIGTERM (both drain: every request already at the worker pool\n"
     "is answered and the store is fsync'd before exit). With --store the\n"
     "feed is durable: pushes append to a fsync'd JSONL journal that\n"
     "survives crashes and restarts; --checkpoint-every bounds restart\n"
     "recovery to the delta since the last checkpoint. Vaccines whose\n"
     "identifier or pattern collides with the benign corpus are\n"
     "quarantined (stored, never served) unless --no-exclusiveness is\n"
     "given. --dedup-window 0 disables idempotent push retries.\n"
     "The Unix socket and the optional --tcp listener share one\n"
     "event-driven core: persistent connections, pipelined JSON or\n"
     "binary frames, per-connection flow control (connection cap, token\n"
     "bucket, bounded write buffer, idle sweep; 0 disables the idle\n"
     "timeout). --tcp port 0 picks an ephemeral port, printed in the\n"
     "readiness line. No authentication yet: bind loopback (the default\n"
     "host) unless the network is trusted.\n",
     CmdServe},
    {"push", "--socket <s> <package.pkg>... [options]",
     "Ingests the packages' vaccines into a running vacd. The store\n"
     "dedups by content digest, so re-pushing a package is a no-op;\n"
     "conflicting vaccines are quarantined, not served. Retried pushes\n"
     "(--retries > 1) carry an idempotency id.\n",
     CmdPush},
    {"query", "--socket <s> --resource <type> <identifier> [options]",
     "Asks vacd which served vaccines match the identifier (resource\n"
     "types: file, registry, mutex, process, window, library,\n"
     "service). Exit 0 when at least one vaccine matches, 1 when\n"
     "none does.\n",
     CmdQuery},
    {"pull", "--socket <s> [--since <epoch>] [--out <f>] [options]",
     "Fetches every served vaccine newer than the given feed epoch.\n"
     "The feed page (the server's reply JSON) goes to stdout or --out\n"
     "verbatim; the same store contents produce byte-identical pages\n"
     "across server restarts. The summary line goes to stderr.\n",
     CmdPull},
    {"sync", "--socket <s> [--page <n>] [--out <f>] [--binary] [options]",
     "Mirrors the full vaccine feed with incremental pulls: pages of\n"
     "at most --page items (0 = one unbounded pull) are fetched with\n"
     "'pull --since <cursor>' until the feed is drained, tombstones\n"
     "are applied, and the converged mirror is written to --out (or\n"
     "stdout) as canonical feed JSON — byte-identical to one full\n"
     "pull from the live server. The summary line goes to stderr.\n",
     CmdSync},
    {"quarantine", "--socket <s> <digest> [--reason <s>] [options]",
     "Retracts one vaccine from a running vacd by content digest: it\n"
     "stays stored but is never served again, and delta-syncing\n"
     "clients receive a tombstone on their next pull. Idempotent —\n"
     "quarantining an already-quarantined digest reports 'already'.\n",
     CmdQuarantine},
    {"chaos-proxy", "--listen <s> --backend <s> [--fault-seed <n>] [options]",
     "Relays vacd connections from --listen to --backend through a\n"
     "deterministic wire-fault injector: refused connects, frames cut\n"
     "mid-byte, one-byte-at-a-time delivery, stalls and duplicated\n"
     "requests, all drawn from --fault-seed. Point a client at the\n"
     "proxy socket to rehearse its retry policy against a real vacd:\n"
     "  autovac serve --socket /tmp/vacd.sock --store feed.jsonl &\n"
     "  autovac chaos-proxy --listen /tmp/chaos.sock \\\n"
     "      --backend /tmp/vacd.sock --fault-seed 7 &\n"
     "  autovac push --socket /tmp/chaos.sock --retries 8 wave.pkg\n"
     "Runs until SIGINT/SIGTERM, then prints a fault summary.\n",
     CmdChaosProxy},
    {"status", "--socket <s> [options]",
     "Prints a running vacd's operational counters. The recovery\n"
     "telemetry shows what a restart would cost: 'checkpoint epoch'\n"
     "is the feed epoch the last checkpoint covers, 'replayed' the\n"
     "journal records actually replayed at the last start, and\n"
     "'dedup hits' how often the idempotency window absorbed a\n"
     "retried push.\n",
     CmdStatus},
    {"coordinate", "--socket <s> <sample.asm>... [options]",
     "Shards the samples across remote detonation workers under\n"
     "leases. A worker that crashes, stalls, or partitions loses its\n"
     "lease and the sample is reassigned; a zombie upload under a\n"
     "reassigned lease is rejected stale, so every sample is counted\n"
     "exactly once. With --journal every assignment and completion is\n"
     "fsync'd write-ahead, and --resume restarts a SIGKILLed\n"
     "coordinator with only the unacknowledged delta lost; the final\n"
     "report is byte-identical to a fault-free `autovac campaign` run\n"
     "for any failure schedule. After the campaign completes the\n"
     "coordinator keeps serving until the fleet has been quiet for\n"
     "--linger-ms, so idle workers observe done instead of a torn\n"
     "socket. The pipeline flags are folded into the campaign config\n"
     "digest and must match the workers'. Exit code 3 means\n"
     "interrupted with the journal intact.\n",
     CmdCoordinate},
    {"detonate-worker", "--socket <s> <sample.asm>... [options]",
     "Runs one detonation worker against a coordinator: claim a\n"
     "sample, analyze it while a heartbeat thread renews the lease,\n"
     "upload the report, repeat until the campaign is done. The\n"
     "sample files and pipeline flags must match the coordinator's\n"
     "(both are folded into the campaign config digest) or every\n"
     "claim is refused. A worker that stalls past the lease window\n"
     "loses the sample to reassignment; its late upload is rejected\n"
     "stale and not counted.\n",
     CmdDetonateWorker},
    {"corpus",
     "--out <dir> [--seed <n>] [--per-class <n>] [--evasion <list>]",
     "Generates the adversarial evasion corpus as assembly sources in\n"
     "<dir> (created if absent). Classes: stalling, env-probe,\n"
     "runtime-unpack, vaccine-aware; default is all of them. The same\n"
     "--seed writes byte-identical files regardless of which class\n"
     "subset is requested; unknown class names are rejected (exit 2).\n",
     CmdCorpus},
};

void PrintUsage(std::FILE* out) {
  std::fprintf(out, "usage: autovac <command> [arguments] [options]\n");
  for (const Command& command : kCommands) {
    std::fprintf(out, "  %-16s%s\n", command.name, command.synopsis);
  }
  std::fprintf(
      out,
      "run 'autovac <command> --help' for a command's flags.\n"
      "quick start (vaccine feed):\n"
      "  autovac campaign samples/*.asm --package wave.pkg\n"
      "  autovac serve --socket /tmp/vacd.sock --store feed.jsonl &\n"
      "  autovac push --socket /tmp/vacd.sock wave.pkg\n"
      "  autovac query --socket /tmp/vacd.sock --resource mutex BadMutex\n"
      "  autovac pull --socket /tmp/vacd.sock --since 0\n");
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string name = argv[1];
  if (name == "--help" || name == "-h") {
    PrintUsage(stdout);
    return 0;
  }
  for (const Command& command : kCommands) {
    if (name == command.name) {
      FlagTable flags(
          StrFormat("autovac %s %s", command.name, command.synopsis),
          command.description);
      return command.run(flags, argc - 2, argv + 2);
    }
  }
  std::fprintf(stderr, "error: unknown command '%s'\n", name.c_str());
  return Usage();
}
