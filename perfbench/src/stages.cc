#include "stages.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "analysis/alignment.h"
#include "analysis/determinism.h"
#include "analysis/impact.h"
#include "campaign/journal.h"
#include "campaign/supervisor.h"
#include "malware/benign.h"
#include "net/binary.h"
#include "net/client.h"
#include "net/endpoint.h"
#include "net/faultwire.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/sync.h"
#include "sandbox/sandbox.h"
#include "sandbox/snapshot.h"
#include "support/digest.h"
#include "support/match_index.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/strings.h"
#include "support/tracing.h"
#include "vaccine/clinic.h"
#include "vaccine/json.h"

namespace perfbench {

namespace av = autovac;
using av::vaccine::Vaccine;

Names InternNames(SpanBuffer& spans) {
  Names n{};
  n.region_sample = spans.Name("region.sample");
  n.region_campaign = spans.Name("region.campaign");
  n.region_request = spans.Name("region.request");
  n.sandbox_capture = spans.Name("sandbox.capture");
  n.probe_sandbox_run = spans.Name("probe.sandbox.run");
  n.probe_alignment = spans.Name("probe.analysis.alignment");
  n.impact = spans.Name("analysis.impact");
  n.exclusiveness = spans.Name("analysis.exclusiveness");
  n.determinism = spans.Name("analysis.determinism");
  n.campaign_run = spans.Name("campaign.run");
  n.clinic = spans.Name("vaccine.clinic");
  n.ingest = spans.Name("vacstore.ingest");
  n.codec = spans.Name("net.codec");
  n.roundtrip_tcp = spans.Name("net.roundtrip.tcp");
  n.roundtrip_unix = spans.Name("net.roundtrip.unix");
  n.probe_journal = spans.Name("probe.campaign.journal");
  n.probe_fork = spans.Name("probe.campaign.fork");
  n.probe_net = spans.Name("probe.net");
  n.probe_store = spans.Name("probe.store");
  return n;
}

namespace {

// Wall time of `fn` in microseconds, recorded as a span when tracing.
template <typename Fn>
double TimedUs(SpanBuffer* spans, uint16_t name, uint64_t id, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  {
    Scope scope(spans, name, id);
    fn();
  }
  return UsBetween(start, Clock::now());
}

double Mean(double total, size_t count) {
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

}  // namespace

// ---- set-up -----------------------------------------------------------

Benign TrainBenign() {
  Benign benign;
  auto corpus = av::malware::BuildBenignCorpus();
  AUTOVAC_CHECK(corpus.ok());
  benign.corpus = std::move(corpus).value();
  for (const vm::Program& app : benign.corpus) {
    av::os::HostEnvironment env = av::os::HostEnvironment::StandardMachine();
    av::sandbox::RunOptions options;
    options.enable_taint = false;
    benign.index.IndexBenignTrace(
        app.name, av::sandbox::RunProgram(app, env, options).api_trace);
  }
  return benign;
}

std::vector<Vaccine> SyntheticVaccines(uint64_t seed, size_t count) {
  std::vector<Vaccine> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Vaccine v;
    v.malware_name = av::StrFormat("perfbench-family-%zu", i % 97);
    v.malware_digest = av::StrFormat("perfbench-%llu-%zu",
                                     static_cast<unsigned long long>(seed), i);
    v.resource_type = av::os::ResourceType::kMutex;
    v.operation = av::os::Operation::kCreate;
    v.simulate_presence = true;
    v.immunization = av::analysis::ImmunizationType::kFull;
    if (i % 10 < 3) {
      v.identifier = av::StrFormat("pb%llu-worker-%zu-*",
                                   static_cast<unsigned long long>(seed), i);
      v.identifier_kind = av::analysis::IdentifierClass::kPartialStatic;
      v.delivery = av::vaccine::DeliveryMethod::kDaemon;
      auto pattern = av::Pattern::Compile(v.identifier);
      AUTOVAC_CHECK(pattern.ok());
      v.pattern = std::move(pattern).value();
    } else {
      v.identifier = av::StrFormat("pb%llu-mutex-%zu",
                                   static_cast<unsigned long long>(seed), i);
      v.pattern = av::Pattern::Literal(v.identifier);
    }
    out.push_back(std::move(v));
  }
  return out;
}

av::Result<av::vacstore::VaccineStore> CreateStore(
    const std::string& path, const std::vector<Vaccine>& preload,
    const analysis::ExclusivenessIndex& index) {
  ::unlink(path.c_str());
  ::unlink((path + ".ckpt").c_str());
  AUTOVAC_ASSIGN_OR_RETURN(av::vacstore::VaccineStore store,
                           av::vacstore::VaccineStore::Open(path));
  store.SetConflictIndex(&index);
  if (!preload.empty()) {
    AUTOVAC_ASSIGN_OR_RETURN(const av::vacstore::PushStats stats,
                             store.Push(preload));
    (void)stats;
  }
  return store;
}

namespace {

// Whether the process whose /proc status file is `path` has a handler
// installed for SIGTERM (its SigCgt mask).
bool CatchesSigterm(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("SigCgt:", 0) != 0) continue;
    const uint64_t mask = std::stoull(line.substr(7), nullptr, 16);
    return (mask >> (SIGTERM - 1)) & 1;
  }
  return false;
}

}  // namespace

VacdChild::~VacdChild() { Stop(); }

av::Status VacdChild::Start(const std::string& store_path,
                            const std::string& socket_path) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) return av::Status::Internal("pipe");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    return av::Status::Internal("fork failed");
  }
  if (pid == 0) {
    // The server must not outlive a benchmark that is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    ::dup2(out[1], STDOUT_FILENO);
    ::execl(PERFBENCH_AUTOVAC, "autovac", "serve", "--socket",
            socket_path.c_str(), "--store", store_path.c_str(), "--tcp",
            "127.0.0.1:0", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(out[1]);
  pid_ = pid;
  out_fd_ = out[0];
  // The readiness lines: "vacd: listening ...", then the TCP port.
  std::string lines;
  char buf[256];
  const std::string marker = "vacd: tcp listening on tcp:127.0.0.1:";
  size_t at = std::string::npos;
  while ((at = lines.find(marker)) == std::string::npos ||
         lines.find('\n', at) == std::string::npos) {
    const ssize_t got = ::read(out_fd_, buf, sizeof(buf));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      Stop();
      return av::Status::Internal("vacd child failed to start");
    }
    lines.append(buf, static_cast<size_t>(got));
  }
  port_ = static_cast<uint16_t>(std::stoul(lines.substr(at + marker.size())));
  // Started means answering: one status request over each listener.
  const av::net::VacdClient unix_client(socket_path);
  const av::net::VacdClient tcp_client(
      av::StrFormat("tcp:127.0.0.1:%u", static_cast<unsigned>(port_)));
  if (!unix_client.Stats().ok() || !tcp_client.Stats().ok()) {
    Stop();
    return av::Status::Internal("vacd child does not answer");
  }
  // The CLI installs its SIGTERM handler after the readiness lines; a
  // SIGTERM before that would kill it instead of draining it.
  const std::string status_path = av::StrFormat("/proc/%d/status", pid_);
  for (int i = 0; i < 5000 && !CatchesSigterm(status_path); ++i) {
    ::usleep(1000);
  }
  return av::Status::Ok();
}

bool VacdChild::Stop() {
  if (pid_ < 0) return true;
  ::kill(pid_, SIGTERM);  // the CLI drains and exits 0 on SIGTERM
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  ::close(out_fd_);
  pid_ = -1;
  out_fd_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double VacdChild::CpuSeconds() const {
  std::ifstream in(av::StrFormat("/proc/%d/stat", pid_));
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the command name's closing parenthesis; utime and stime
  // are the 12th and 13th of them, in clock ticks.
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0;
  for (int i = 1; i <= 13 && fields >> field; ++i) {
    if (i >= 12) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// ---- detonate ---------------------------------------------------------

std::string ReportDigest(av::vaccine::SampleReport report) {
  report.phase_costs.clear();
  return av::HexDigest128(av::vaccine::SampleReportToJson(report));
}

Detonation Detonate(const av::vaccine::VaccinePipeline& pipeline,
                    const std::vector<vm::Program>& programs, double seconds,
                    size_t min_samples) {
  Detonation out;
  out.latency_ms.reserve(std::max(min_samples, programs.size()));
  const long faults_before = SelfUsage().minflt;
  const Clock::time_point start = Clock::now();
  double bookkeeping_ms = 0;
  for (size_t i = 0;; ++i) {
    const vm::Program& program = programs[i % programs.size()];
    const Clock::time_point begin = Clock::now();
    av::vaccine::SampleReport report = pipeline.Analyze(program);
    out.latency_ms.push_back(MsSince(begin));
    if (i < programs.size()) {
      // Oracle inputs, kept out of the loop's wall time.
      const Clock::time_point keep = Clock::now();
      out.vaccines.push_back(report.vaccines);
      out.report_digests.push_back(ReportDigest(std::move(report)));
      bookkeeping_ms += MsSince(keep);
    }
    if (i + 1 >= min_samples && MsSince(start) >= seconds * 1000) break;
  }
  out.wall_s = (MsSince(start) - bookkeeping_ms) / 1000;
  out.minflt = SelfUsage().minflt - faults_before;
  return out;
}

Detonation ForkedPasses(Run& run, const av::vaccine::VaccinePipeline& pipeline,
                        const std::vector<vm::Program>& programs,
                        size_t passes) {
  Detonation out;
  for (size_t pass = 0; pass < passes; ++pass) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      run.oracle.Check(false, "forked pass: pipe");
      return out;
    }
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(fds[0]);
      const Detonation d = Detonate(pipeline, programs, 0, programs.size());
      std::string text = av::StrFormat("%ld\n", d.minflt);
      for (size_t i = 0; i < d.latency_ms.size(); ++i) {
        text += av::StrFormat("%.9g %s\n", d.latency_ms[i],
                              d.report_digests[i].c_str());
      }
      for (size_t at = 0; at < text.size();) {
        const ssize_t n = ::write(fds[1], text.data() + at, text.size() - at);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) ::_exit(1);
        at += static_cast<size_t>(n);
      }
      ::_exit(0);
    }
    ::close(fds[1]);
    std::string text;
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = pid < 0 ? 0 : ::read(fds[0], buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      text.append(buf, static_cast<size_t>(n));
    }
    ::close(fds[0]);
    int status = 1;
    while (pid > 0 && ::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    run.oracle.Check(pid > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0,
                     "forked pass did not finish");
    std::istringstream lines(text);
    long minflt = 0;
    lines >> minflt;
    out.minflt += minflt;
    double ms = 0;
    std::string digest;
    size_t i = 0;
    for (; lines >> ms >> digest; ++i) {
      out.latency_ms.push_back(ms);
      if (pass == 0) {
        out.report_digests.push_back(digest);
      } else if (i < out.report_digests.size() &&
                 digest != out.report_digests[i]) {
        run.oracle.Check(false, "forked pass differs from the first: " +
                                    programs[i].name);
      }
    }
    run.oracle.Check(i == programs.size(), "forked pass reported too few samples");
  }
  return out;
}

void CheckAgainstLegacy(Run& run, const analysis::ExclusivenessIndex& index,
                        const std::vector<vm::Program>& programs,
                        const Detonation& detonation) {
  av::vaccine::PipelineOptions options;
  options.snapshot_replay = false;
  const av::vaccine::VaccinePipeline legacy(&index, options);
  for (size_t i = 0; i < detonation.report_digests.size(); ++i) {
    run.oracle.Check(
        ReportDigest(legacy.Analyze(programs[i])) ==
            detonation.report_digests[i],
        "report differs from the legacy full re-run: " + programs[i].name);
  }
}

namespace {

bool AbnormalStop(vm::StopReason reason) {
  switch (reason) {
    case vm::StopReason::kFault:
    case vm::StopReason::kCallDepthLimit:
    case vm::StopReason::kApiCallLimit:
    case vm::StopReason::kTraceLimit:
      return true;
    default:
      return false;
  }
}

// Determinism analysis and vaccine assembly for one impactful target,
// as Analyze assembles it.
av::Result<Vaccine> AssembleVaccine(
    const vm::Program& sample, const std::string& digest,
    const av::sandbox::RunResult& phase1,
    const av::analysis::MutationTarget& target,
    const av::analysis::ImpactResult& impact,
    const av::analysis::DeterminismOptions& options) {
  uint32_t anchor = target.anchor_sequence;
  if (phase1.api_trace.calls[anchor].identifier_addr == 0) {
    for (const av::trace::ApiCallRecord& call : phase1.api_trace.calls) {
      if (call.resource_identifier == target.identifier &&
          call.identifier_addr != 0) {
        anchor = call.sequence;
        break;
      }
    }
  }
  AUTOVAC_ASSIGN_OR_RETURN(
      const av::analysis::DeterminismReport determinism,
      av::analysis::AnalyzeIdentifier(phase1.instruction_trace,
                                      phase1.api_trace, anchor, options));
  if (determinism.cls == av::analysis::IdentifierClass::kNonDeterministic) {
    return av::Status::OutOfRange("entirely random identifier");
  }
  Vaccine vaccine;
  vaccine.malware_name = sample.name;
  vaccine.malware_digest = digest;
  vaccine.resource_type = target.resource_type;
  vaccine.operation = target.operation;
  vaccine.identifier = target.identifier;
  vaccine.simulate_presence = target.SimulatesPresence();
  vaccine.identifier_kind = determinism.cls;
  vaccine.immunization = impact.effect.type;
  vaccine.pattern = determinism.pattern;
  vaccine.delivery =
      determinism.cls == av::analysis::IdentifierClass::kStatic
          ? av::vaccine::DeliveryMethod::kDirectInjection
          : av::vaccine::DeliveryMethod::kDaemon;
  if (determinism.cls ==
      av::analysis::IdentifierClass::kAlgorithmDeterministic) {
    auto slice = av::analysis::ExtractSlice(
        sample, phase1.instruction_trace, phase1.api_trace, determinism,
        anchor);
    if (slice.ok()) vaccine.slice = std::move(slice).value();
  }
  for (const av::trace::ApiCallRecord& call : phase1.api_trace.calls) {
    if (call.is_resource_api &&
        call.resource_identifier == target.identifier) {
      vaccine.observed_operations.insert(
          av::os::OperationSymbol(call.operation));
    }
  }
  return vaccine;
}

// The LCS table cells AlignTraces fills for traces of `n` and `m` calls:
// n*m, or none past its cell budget, where it aligns greedily. The
// program does not count them; this mirrors the budget rule in
// analysis/alignment.cc, so a change to the aligner must change it too.
uint64_t LcsCells(size_t n, size_t m) {
  constexpr size_t kMaxLcsCells = 32u * 1024 * 1024;
  const bool greedy = n != 0 && m != 0 && (n + 1) > kMaxLcsCells / (m + 1);
  return greedy ? 0 : static_cast<uint64_t>(n) * m;
}

bool SameVaccines(const std::vector<Vaccine>& a, const std::vector<Vaccine>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (av::vaccine::VaccineToJson(a[i]) != av::vaccine::VaccineToJson(b[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

double DecomposedPass(Run& run, const Names& n,
                      const av::vaccine::VaccinePipeline& pipeline,
                      const std::vector<vm::Program>& programs,
                      const std::vector<std::vector<Vaccine>>& expected) {
  SpanBuffer* spans = run.spans;
  const av::vaccine::PipelineOptions& options = pipeline.options();
  const analysis::ExclusivenessIndex* index = pipeline.exclusiveness_index();
  const bool fast_path = options.snapshot_replay &&
                         options.impact.cycle_budget == options.phase1_budget;
  double run_us = 0, capture_us = 0, align_us = 0;
  uint64_t instructions = 0, snapshots_taken = 0, snapshot_bytes = 0;
  uint64_t impact_runs = 0, resumed = 0, cells = 0, alignments = 0;
  uint64_t exclusiveness_queries = 0, slices = 0, vaccines_made = 0;
  long capture_faults = 0, run_faults = 0;

  // Digests are the span ids, so they are taken before the pass.
  std::vector<std::string> digests;
  for (const vm::Program& sample : programs) digests.push_back(sample.Digest());
  std::vector<std::vector<Vaccine>> made(programs.size());
  const Clock::time_point pass_start = Clock::now();
  for (size_t i = 0; i < programs.size(); ++i) {
    const vm::Program& sample = programs[i];
    const std::string& digest = digests[i];
    const uint64_t id = DigestId(digest);
    Scope region(spans, n.region_sample, id);

    av::sandbox::RunOptions phase1_options;
    phase1_options.cycle_budget = options.phase1_budget;
    phase1_options.enable_taint = true;
    phase1_options.record_instructions = true;
    phase1_options.limits = options.limits;
    phase1_options.fault_plan = options.fault_plan;
    av::sandbox::SnapshotRecorder snapshots(options.snapshot_cap);
    av::sandbox::RunResult phase1;
    long faults = SelfUsage().minflt;
    capture_us += TimedUs(spans, n.sandbox_capture, id, [&] {
      av::os::HostEnvironment env = pipeline.BaselineMachine();
      phase1 = fast_path ? av::sandbox::RunProgramWithCapture(
                               sample, env, phase1_options, {}, snapshots)
                         : av::sandbox::RunProgram(sample, env, phase1_options);
    });
    capture_faults += SelfUsage().minflt - faults;
    snapshots_taken += snapshots.size();
    snapshot_bytes += snapshots.total_bytes();
    // The same run without capture: capture cost is the difference.
    faults = SelfUsage().minflt;
    run_us += TimedUs(spans, n.probe_sandbox_run, id, [&] {
      av::os::HostEnvironment env = pipeline.BaselineMachine();
      instructions +=
          av::sandbox::RunProgram(sample, env, phase1_options).cycles_used;
    });
    run_faults += SelfUsage().minflt - faults;

    std::vector<Vaccine>& vaccines = made[i];
    if (phase1.AnyTaintedPredicate()) {
      std::vector<av::analysis::MutationTarget> targets;
      std::optional<av::os::HostEnvironment> baseline;
      TimedUs(spans, n.impact, id, [&] {
        baseline.emplace(pipeline.BaselineMachine());
        targets = av::analysis::CollectMutationTargets(phase1.api_trace);
      });
      std::set<std::pair<av::os::ResourceType, std::string>> keys;
      size_t sample_runs = 0;
      for (const av::analysis::MutationTarget& target : targets) {
        if (keys.count({target.resource_type, target.identifier}) > 0) {
          continue;
        }
        bool eligible = !target.identifier.empty();
        TimedUs(spans, n.exclusiveness, id, [&] {
          if (options.run_exclusiveness && index != nullptr) {
            ++exclusiveness_queries;
            eligible = eligible && index->IsExclusive(target.identifier);
          }
        });
        if (!eligible) continue;
        if (sample_runs >= options.max_targets) break;
        ++sample_runs;

        av::analysis::ImpactOptions impact_options = options.impact;
        impact_options.limits = options.limits;
        impact_options.fault_plan = options.fault_plan;
        av::analysis::ImpactResult impact;
        auto probe_alignment = [&] {
          align_us += TimedUs(spans, n.probe_alignment, id, [&] {
            (void)av::analysis::AlignTraces(phase1.api_trace,
                                            impact.mutated_trace,
                                            options.impact.classifier.alignment);
          });
          cells += LcsCells(phase1.api_trace.calls.size(),
                            impact.mutated_trace.calls.size());
          ++alignments;
        };
        TimedUs(spans, n.impact, id, [&] {
          std::optional<av::analysis::ImpactResult> resumed_run;
          if (fast_path) {
            const av::sandbox::MachineSnapshot* snapshot = snapshots.Find(
                target.api_name, target.caller_pc, target.identifier);
            if (snapshot != nullptr) {
              resumed_run = av::analysis::TryResumeImpactAnalysis(
                  sample, *snapshot, phase1.api_trace, target, impact_options);
            }
          }
          if (resumed_run.has_value()) ++resumed;
          impact = resumed_run.has_value()
                       ? std::move(*resumed_run)
                       : av::analysis::RunImpactAnalysis(
                             sample, *baseline, phase1.api_trace, target,
                             impact_options);
          ++impact_runs;
        });
        probe_alignment();
        for (size_t retry = 0; AbnormalStop(impact.stop_reason) &&
                               retry < options.max_impact_retries;
             ++retry) {
          impact_options.cycle_budget =
              std::max<uint64_t>(impact_options.cycle_budget / 2, 1);
          TimedUs(spans, n.impact, id, [&] {
            impact = av::analysis::RunImpactAnalysis(
                sample, *baseline, phase1.api_trace, target, impact_options);
            ++impact_runs;
          });
          probe_alignment();
        }
        if (impact.effect.type == av::analysis::ImmunizationType::kNone) {
          continue;
        }
        av::Result<Vaccine> vaccine = av::Status::Internal("not run");
        TimedUs(spans, n.determinism, id, [&] {
          ++slices;
          vaccine = AssembleVaccine(sample, digest, phase1, target, impact,
                                    options.determinism);
        });
        if (!vaccine.ok()) continue;
        vaccines.push_back(std::move(vaccine).value());
        keys.insert({target.resource_type, target.identifier});
      }
    }
    // The run's memory images and traces are freed inside the layer that
    // made them, as Analyze frees them before it returns.
    capture_us += TimedUs(spans, n.sandbox_capture, id, [&] {
      const av::sandbox::SnapshotRecorder released = std::move(snapshots);
      const av::sandbox::RunResult done = std::move(phase1);
    });
  }
  const double wall_s = MsSince(pass_start) / 1000;
  for (size_t i = 0; i < programs.size(); ++i) {
    vaccines_made += made[i].size();
    run.oracle.Check(SameVaccines(made[i], expected[i]),
                     "decomposed pipeline differs from Analyze: " +
                         programs[i].name);
  }

  Metrics& m = run.metrics;
  const std::map<std::string, double> self = spans->SelfMs();
  auto self_ms = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  m.Set("sandbox.run_ms", run_us / 1000);
  m.Set("sandbox.run_instructions", static_cast<double>(instructions));
  m.Set("sandbox.capture_ms", (capture_us - run_us) / 1000);
  m.Set("sandbox.capture_snapshots", static_cast<double>(snapshots_taken));
  m.Set("sandbox.capture_bytes", static_cast<double>(snapshot_bytes));
  m.Set("sandbox.capture_minflt", static_cast<double>(capture_faults - run_faults));
  m.Set("analysis.impact_ms", self_ms("analysis.impact") - align_us / 1000);
  m.Set("analysis.impact_runs", static_cast<double>(impact_runs));
  m.Set("analysis.impact_resumed_share",
        impact_runs == 0 ? 0.0
                         : static_cast<double>(resumed) /
                               static_cast<double>(impact_runs));
  m.Set("analysis.alignment_ms", align_us / 1000);
  m.Set("analysis.alignment_cells", static_cast<double>(cells));
  m.Set("analysis.alignment_calls", static_cast<double>(alignments));
  m.Set("analysis.exclusiveness_ms", self_ms("analysis.exclusiveness"));
  m.Set("analysis.exclusiveness_queries",
        static_cast<double>(exclusiveness_queries));
  m.Set("analysis.determinism_ms", self_ms("analysis.determinism"));
  m.Set("analysis.determinism_slices", static_cast<double>(slices));
  m.Set("analysis.vaccine_yield",
        impact_runs == 0 ? 0.0
                         : static_cast<double>(vaccines_made) /
                               static_cast<double>(impact_runs));
  return wall_s;
}

// ---- campaign ---------------------------------------------------------

CampaignCycle RunCampaignCycle(Run& run, const Names* names,
                               const av::vaccine::VaccinePipeline& pipeline,
                               const std::vector<vm::Program>& programs,
                               const Benign& benign,
                               av::vacstore::VaccineStore& store) {
  SpanBuffer* spans = names != nullptr ? run.spans : nullptr;
  const Names n = names != nullptr ? *names : Names{};
  CampaignCycle cycle;
  av::campaign::CampaignOptions options;
  options.jobs = 2;
  options.journal_path = run.dir + "/campaign.journal";
  ::unlink(options.journal_path.c_str());

  const long child_faults = ChildrenUsage().minflt;
  const Clock::time_point start = Clock::now();
  {
    Scope region(spans, n.region_campaign);
    av::Result<av::campaign::CampaignRun> result = av::Status::Internal("not run");
    TimedUs(spans, n.campaign_run, 0, [&] {
      result = av::campaign::RunDurableCampaign(pipeline, programs, options);
    });
    if (!result.ok()) {
      run.oracle.Check(false, "campaign: " + result.status().ToString());
      return cycle;
    }
    cycle.report = std::move(result->report);
    std::vector<Vaccine> all;
    for (const av::vaccine::SampleReport& report : cycle.report.reports) {
      all.insert(all.end(), report.vaccines.begin(), report.vaccines.end());
    }
    // The sandbox records every run it finishes in this histogram; its
    // count across the clinic is the runs the clinic made.
    const av::Histogram* runs = av::GlobalMetrics().GetHistogram(
        "sandbox.run_cycles", {});
    const uint64_t runs_before = runs->count();
    av::vaccine::ClinicResult clinic;
    TimedUs(spans, n.clinic, 0, [&] {
      clinic = av::vaccine::RunClinicTest(all, benign.corpus);
    });
    cycle.clinic_runs = runs->count() - runs_before;
    cycle.vaccines = all.size();
    cycle.clinic_passed = clinic.passed.size();
    // Only clinic-passed vaccines reach the store.
    std::set<std::string> passed;
    for (const Vaccine& v : clinic.passed) {
      passed.insert(av::vaccine::VaccineToJson(v));
    }
    av::vaccine::CampaignReport durable;
    for (const av::vaccine::SampleReport& report : cycle.report.reports) {
      av::vaccine::SampleReport kept;
      for (const Vaccine& v : report.vaccines) {
        if (passed.count(av::vaccine::VaccineToJson(v)) > 0) {
          kept.vaccines.push_back(v);
        }
      }
      durable.reports.push_back(std::move(kept));
    }
    av::Result<av::vacstore::PushStats> ingested = av::Status::Internal("not run");
    TimedUs(spans, n.ingest, 0, [&] {
      ingested = av::vacstore::IngestCampaignReport(store, durable);
    });
    run.oracle.Check(ingested.ok(), "campaign ingest failed");
  }
  cycle.wall_s = MsSince(start) / 1000;
  cycle.worker_minflt = ChildrenUsage().minflt - child_faults;
  return cycle;
}

void CampaignProbes(Run& run, const Names& n,
                    const av::vaccine::VaccinePipeline& pipeline,
                    const std::vector<vm::Program>& programs,
                    const av::vaccine::CampaignReport& report) {
  constexpr size_t kForkSubset = 64;
  const std::vector<vm::Program> subset(
      programs.begin(),
      programs.begin() + std::min(kForkSubset, programs.size()));
  std::string inproc_json;
  std::string forked_json;
  const double inproc_us = TimedUs(run.spans, n.probe_fork, 0, [&] {
    inproc_json = av::vaccine::CampaignReportToJson(
        av::vaccine::AnalyzeCampaign(pipeline, subset));
  });
  av::campaign::CampaignOptions isolated;
  isolated.force_worker_isolation = true;
  const double forked_us = TimedUs(run.spans, n.probe_fork, 1, [&] {
    auto forked = av::campaign::RunDurableCampaign(pipeline, subset, isolated);
    if (forked.ok()) {
      forked_json = av::vaccine::CampaignReportToJson(forked->report);
    }
  });
  run.oracle.Check(inproc_json == forked_json,
                   "forked jobs=1 campaign differs from in-process");
  run.metrics.Set("campaign.fork_tax_ms", (forked_us - inproc_us) / 1000);

  const std::string path = run.dir + "/probe.journal";
  auto journal = av::campaign::CampaignJournal::Create(
      path, av::campaign::MakeJournalHeader(pipeline.options(), programs));
  run.oracle.Check(journal.ok(), "journal probe: create failed");
  if (!journal.ok()) return;
  double append_us = 0;
  uint64_t fsyncs = 1;  // the header
  for (size_t i = 0; i < report.reports.size(); ++i) {
    append_us += TimedUs(run.spans, n.probe_journal, i, [&] {
      run.oracle.Check(journal->Append(i, report.reports[i]).ok(),
                       "journal probe: append failed");
    });
    ++fsyncs;
  }
  run.metrics.Set("campaign.journal_append_ms", append_us / 1000);
  run.metrics.Set("campaign.journal_fsyncs", static_cast<double>(fsyncs));
}

// ---- feed -------------------------------------------------------------

namespace {

enum Kind : uint32_t { kQueryTcp = 0, kQueryUnix, kPullTcp, kPush };

// The read mix, in percent. DESIGN.md §13 sizes the TCP tier for "a
// million endpoints polling a feed", so delta pulls come first; binary
// queries are the other per-endpoint request. The Unix socket is the
// host-local control surface (§10), so its queries are an operator's
// and few. The order is sourced; the shares themselves are assumptions.
constexpr uint64_t kPullShare = 80;
constexpr uint64_t kTcpQueryShare = 15;
constexpr uint64_t kUnixQueryShare = 5;
// Queries naming a served vaccine, in tenths; the rest miss. An
// assumption: it keeps both index paths (hash hit, anchor scan) busy.
constexpr uint64_t kQueryHitTenths = 7;

constexpr double kWarmupSeconds = 0.5;
// Idle time between stages, so one stage's queue never spills into the
// next.
constexpr double kGapSeconds = 0.5;

struct Query {
  av::os::ResourceType type = av::os::ResourceType::kMutex;
  std::string identifier;
  std::vector<std::string> expected;  // matched identifiers, feed order
};

// Per generator slot; only its own thread touches it.
struct Slot {
  int fd = -1;
  uint64_t cursor = 0;
  uint64_t mismatches = 0;
  uint64_t busy = 0;
  av::Result<av::net::Reply> reply = av::Status::Internal("not run");
};

// A query text that `pattern` matches: wildcards filled in.
std::string Instance(const std::string& pattern, size_t salt) {
  std::string out;
  for (const char c : pattern) {
    if (c == '*') {
      out += av::StrFormat("x%zu", salt);
    } else if (c == '?') {
      out += 'q';
    } else {
      out += c;
    }
  }
  return out;
}

// Whether a read reply is what the served store must answer: a query's
// matches equal the local index's, a delta pull holds only live items
// past the cursor it was sent with. A pull advances `*cursor`.
bool ReadIsCorrect(const av::net::Reply& reply, const Query* query,
                   uint64_t sent_cursor, uint64_t* cursor) {
  if (query == nullptr) {
    const auto* pull = std::get_if<av::net::PullReply>(&reply);
    if (pull == nullptr || pull->more) return false;
    for (const av::net::FeedItem& item : pull->items) {
      if (item.epoch <= sent_cursor || item.quarantined) return false;
    }
    *cursor = std::max(*cursor, pull->epoch);
    return true;
  }
  const auto* matches = std::get_if<av::net::QueryReply>(&reply);
  if (matches == nullptr || matches->matches.size() != query->expected.size()) {
    return false;
  }
  for (size_t i = 0; i < query->expected.size(); ++i) {
    if (matches->matches[i].identifier != query->expected[i]) return false;
  }
  return true;
}

std::string EncodeRead(const Query* query, uint64_t cursor) {
  bool ok = false;
  return query == nullptr
             ? av::net::EncodeBinaryRequest(av::net::PullRequest{cursor, 0}, &ok)
             : av::net::EncodeBinaryRequest(
                   av::net::QueryRequest{query->type, query->identifier}, &ok);
}

struct Saturation {
  double reads_per_s = 0;
  std::optional<double> query_p99_us;
  uint64_t reads = 0;
  uint64_t failed = 0;
};

// Closed loop: every slot keeps `depth` binary TCP reads pipelined on
// its persistent connection and sends the next one as each reply lands,
// for `seconds`; replies still in flight then drain. Reads are the TCP
// part of the mix. Latency runs from the request's send.
Saturation Saturate(std::vector<Slot>& slots, const std::vector<Query>& queries,
                     size_t depth, double seconds, uint64_t seed) {
  struct Sent {
    Clock::time_point at;
    const Query* query;  // null for a pull
    uint64_t cursor;
  };
  std::vector<std::vector<double>> query_us(slots.size());
  std::vector<uint64_t> reads(slots.size(), 0), failed(slots.size(), 0);
  std::vector<double> last_us(slots.size(), 0);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto slot_main = [&](size_t s) {
    Slot& slot = slots[s];
    av::Rng rng(seed * 1000003 + depth * 131 + s);
    std::deque<Sent> inflight;
    std::string out;
    auto send_next = [&] {
      const bool pull =
          rng.NextBelow(kPullShare + kTcpQueryShare) < kPullShare;
      const Query* query =
          pull ? nullptr : &queries[rng.NextBelow(queries.size())];
      out += av::net::EncodeNetFrame(EncodeRead(query, slot.cursor));
      inflight.push_back({Clock::now(), query, slot.cursor});
    };
    auto flush = [&] {
      size_t at = 0;
      while (at < out.size()) {
        const ssize_t n =
            ::send(slot.fd, out.data() + at, out.size() - at, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        at += static_cast<size_t>(n);
      }
      out.clear();
      return true;
    };
    for (size_t i = 0; i < depth; ++i) send_next();
    bool alive = flush();
    av::net::FrameDecoder decoder;
    std::string payload;
    std::vector<char> buf(size_t{1} << 16);
    while (alive && !inflight.empty()) {
      const ssize_t got = ::recv(slot.fd, buf.data(), buf.size(), 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      decoder.Append({buf.data(), static_cast<size_t>(got)});
      for (;;) {
        const av::Result<bool> next = decoder.Next(&payload);
        if (!next.ok()) alive = false;
        if (!next.ok() || !*next) break;
        const Clock::time_point now = Clock::now();
        const Sent sent = inflight.front();
        inflight.pop_front();
        ++reads[s];
        last_us[s] = UsBetween(start, now);
        if (sent.query != nullptr) {
          query_us[s].push_back(UsBetween(sent.at, now));
        }
        const av::Result<av::net::Reply> reply =
            av::net::ParseBinaryReply(payload);
        const auto* error =
            reply.ok() ? std::get_if<av::net::ErrorReply>(&*reply) : nullptr;
        if (!reply.ok() || error != nullptr) {
          ++failed[s];
          if (error != nullptr && error->busy) ++slot.busy;
        } else if (!ReadIsCorrect(*reply, sent.query, sent.cursor,
                                  &slot.cursor)) {
          ++slot.mismatches;
        }
        if (now < end) send_next();
      }
      alive = alive && flush();
    }
    failed[s] += inflight.size();  // never answered
    reads[s] += inflight.size();
  };
  std::vector<std::thread> threads;
  for (size_t s = 0; s < slots.size(); ++s) threads.emplace_back(slot_main, s);
  for (std::thread& t : threads) t.join();

  Saturation result;
  std::vector<double> all_query_us;
  double elapsed_us = 0;
  for (size_t s = 0; s < slots.size(); ++s) {
    all_query_us.insert(all_query_us.end(), query_us[s].begin(),
                        query_us[s].end());
    result.reads += reads[s];
    result.failed += failed[s];
    elapsed_us = std::max(elapsed_us, last_us[s]);
  }
  if (elapsed_us > 0) {
    result.reads_per_s = 1e6 * static_cast<double>(result.reads - result.failed) /
                         elapsed_us;
  }
  result.query_p99_us = TailPercentile(std::move(all_query_us), 0.99);
  return result;
}

}  // namespace

void RunFeed(Run& run, const Names* names, const FeedConfig& config,
             const std::string& store_path, const Benign& benign) {
  SpanBuffer* spans = names != nullptr ? run.spans : nullptr;
  const Names n = names != nullptr ? *names : Names{};
  Metrics& m = run.metrics;
  constexpr size_t kTypes = av::os::kNumResourceTypes;

  // The served set as vacd will load it, and the oracle's own index.
  std::vector<av::vacstore::StoreEntry> served;
  uint64_t start_epoch = 0;
  {
    auto store = av::vacstore::VaccineStore::Open(store_path);
    run.oracle.Check(store.ok(), "feed: store does not open");
    if (!store.ok()) return;
    store->SetConflictIndex(&benign.index);
    run.oracle.Check(store->RescanConflicts().ok(), "feed: rescan failed");
    for (const av::vacstore::StoreEntry& entry : store->entries()) {
      if (!entry.quarantined) served.push_back(entry);
    }
    start_epoch = store->epoch();
  }
  std::array<av::PatternIndex, kTypes> index;
  std::array<std::vector<size_t>, kTypes> entry_of;
  for (size_t i = 0; i < served.size(); ++i) {
    const Vaccine& v = served[i].vaccine;
    const auto type = static_cast<size_t>(v.resource_type);
    (void)index[type].Add(
        v.identifier_kind == av::analysis::IdentifierClass::kPartialStatic
            ? v.pattern
            : av::Pattern::Literal(v.identifier));
    entry_of[type].push_back(i);
  }
  const double build_us = TimedUs(spans, n.probe_store, 0, [&] {
    for (av::PatternIndex& type_index : index) type_index.Build();
  });

  // Query table: literal hits, wildcard hits and misses.
  av::Rng rng(run.seed * 7919 + 17);
  std::vector<Query> queries(2048);
  double lookup_us = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    Query& q = queries[i];
    if (rng.NextBelow(10) < kQueryHitTenths && !served.empty()) {
      const Vaccine& v = served[rng.NextBelow(served.size())].vaccine;
      q.type = v.resource_type;
      q.identifier =
          v.identifier_kind == av::analysis::IdentifierClass::kPartialStatic
              ? Instance(v.identifier, i)
              : v.identifier;
    } else {
      q.identifier = av::StrFormat("perfbench-miss-%zu", i);
    }
    const auto type = static_cast<size_t>(q.type);
    std::vector<size_t> ids;
    lookup_us += TimedUs(spans, n.probe_store, i,
                         [&] { ids = index[type].Match(q.identifier); });
    for (const size_t id : ids) {
      q.expected.push_back(served[entry_of[type][id]].vaccine.identifier);
    }
  }
  m.Set("match_index.build_ms", build_us / 1000);
  m.Set("match_index.lookup_us", Mean(lookup_us, queries.size()));

  // Schedule: the reference step after a warm-up window that no metric
  // measures; pushes stop just before the step ends, so pulls see every
  // one.
  const double begin_us = (kWarmupSeconds + kGapSeconds) * 1e6;
  const double end_us = begin_us + config.reference_seconds * 1e6;
  std::vector<std::vector<Due>> parts;
  parts.push_back(FixedRate(config.reference_rate, kWarmupSeconds, 0,
                            kQueryTcp));
  std::vector<Due> reads =
      FixedRate(config.reference_rate, config.reference_seconds, begin_us, 0);
  for (Due& due : reads) {
    const uint64_t roll = rng.NextBelow(100);
    due.kind = roll < kPullShare                    ? kPullTcp
               : roll < kPullShare + kTcpQueryShare ? kQueryTcp
                                                    : kQueryUnix;
  }
  static_assert(kPullShare + kTcpQueryShare + kUnixQueryShare == 100);
  parts.push_back(std::move(reads));
  parts.push_back(FixedRate(config.push_rate, config.reference_seconds - 0.05,
                            begin_us, kPush));
  std::vector<Due> schedule = MergeSchedules(std::move(parts));
  std::vector<uint32_t> arg(schedule.size());
  size_t pushes = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    arg[i] = schedule[i].kind == kPush
                 ? static_cast<uint32_t>(pushes++)
                 : static_cast<uint32_t>(rng.NextBelow(queries.size()));
  }
  std::vector<Vaccine> push_vaccines;
  std::vector<std::string> push_payloads;
  std::unordered_map<std::string, size_t> push_of_digest;
  for (size_t i = 0; i < pushes; ++i) {
    Vaccine v;
    v.malware_name = "perfbench-pusher";
    v.malware_digest = av::StrFormat("perfbench-push-%zu", i);
    v.resource_type = av::os::ResourceType::kMutex;
    v.operation = av::os::Operation::kCreate;
    v.simulate_presence = true;
    v.immunization = av::analysis::ImmunizationType::kFull;
    v.identifier = av::StrFormat("perfbench-push-%llu-%zu",
                                 static_cast<unsigned long long>(run.seed), i);
    v.pattern = av::Pattern::Literal(v.identifier);
    push_of_digest[av::vaccine::VaccineDigest(v)] = i;
    av::net::PushRequest push;
    push.vaccines.push_back(v);
    push_payloads.push_back(av::net::RequestToJson(av::net::Request(push)));
    push_vaccines.push_back(std::move(v));
  }
  std::vector<std::atomic<int64_t>> sent_ns(pushes);
  std::vector<std::atomic<int64_t>> visible_ns(pushes);
  for (size_t i = 0; i < pushes; ++i) {
    sent_ns[i] = 0;
    visible_ns[i] = 0;
  }

  const std::string socket = run.dir + "/vacd.sock";
  VacdChild vacd;
  const av::Status started = vacd.Start(store_path, socket);
  run.oracle.Check(started.ok(), "feed: " + started.ToString());
  if (!started.ok()) return;
  av::net::Endpoint tcp;
  tcp.tcp = true;
  tcp.host = "127.0.0.1";
  tcp.port = vacd.tcp_port();
  const std::string tcp_spec = tcp.Spec();
  constexpr uint64_t kDeadlineMs = 5000;

  std::vector<Slot> slots(run.slots);
  for (Slot& slot : slots) {
    auto fd = av::net::DialEndpoint(tcp, kDeadlineMs);
    run.oracle.Check(fd.ok(), "feed: tcp connect failed");
    slot.fd = fd.ok() ? *fd : -1;
    slot.cursor = start_epoch;
  }

  auto now_ns = [] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  };
  auto execute = [&](size_t s, const Due& due) -> bool {
    Slot& slot = slots[s];
    Scope region(spans, n.region_request, due.seq);
    const uint32_t a = arg[due.seq];
    std::string payload;
    av::Result<std::string> raw = av::Status::Internal("not run");
    if (due.kind == kPush) {
      sent_ns[a] = now_ns();
      Scope rt(spans, n.roundtrip_unix, due.seq);
      raw = av::net::FrameRoundTrip(socket, kDeadlineMs, push_payloads[a]);
    } else {
      {
        Scope codec(spans, n.codec, due.seq);
        payload = EncodeRead(due.kind == kPullTcp ? nullptr : &queries[a],
                             slot.cursor);
      }
      if (due.kind == kQueryUnix) {
        Scope rt(spans, n.roundtrip_unix, due.seq);
        raw = av::net::FrameRoundTrip(socket, kDeadlineMs, payload);
      } else {
        Scope rt(spans, n.roundtrip_tcp, due.seq);
        const av::Status wrote = av::net::WriteNetFrame(slot.fd, payload);
        raw = wrote.ok() ? av::net::ReadNetFrame(slot.fd)
                         : av::Result<std::string>(wrote);
      }
    }
    if (!raw.ok()) return false;
    {
      Scope codec(spans, n.codec, due.seq);
      slot.reply = due.kind == kPush ? av::net::ParseReply(*raw)
                                     : av::net::ParseBinaryReply(*raw);
    }
    if (!slot.reply.ok()) return false;
    if (const auto* error = std::get_if<av::net::ErrorReply>(&*slot.reply)) {
      if (error->busy) ++slot.busy;
      return false;
    }
    if (const auto* pull = std::get_if<av::net::PullReply>(&*slot.reply)) {
      const int64_t seen = now_ns();
      for (const av::net::FeedItem& item : pull->items) {
        auto it = push_of_digest.find(item.digest);
        if (it == push_of_digest.end()) continue;
        int64_t unset = 0;
        visible_ns[it->second].compare_exchange_strong(unset, seen);
      }
    }
    return true;
  };
  // Checks each reply once its latency is recorded.
  auto verify = [&](size_t s, const Due& due) {
    Slot& slot = slots[s];
    if (!slot.reply.ok()) return;
    const uint32_t a = arg[due.seq];
    bool ok = false;
    if (due.kind == kPush) {
      const auto* push = std::get_if<av::net::PushReply>(&*slot.reply);
      ok = push != nullptr && push->added == 1;
    } else {
      ok = ReadIsCorrect(*slot.reply,
                         due.kind == kPullTcp ? nullptr : &queries[a],
                         slot.cursor, &slot.cursor);
    }
    if (!ok) ++slot.mismatches;
    slot.reply = av::Status::Internal("not run");
  };
  const std::vector<Outcome> outcomes =
      RunOpenLoop(schedule, slots.size(), execute, verify);

  // ---- reference step -------------------------------------------------
  uint64_t failed = 0;
  uint64_t pushed = 0;
  std::vector<double> late;
  late.reserve(outcomes.size());
  std::array<std::vector<double>, 4> by_kind;
  for (const Outcome& o : outcomes) {
    if (!o.ok) ++failed;
    if (o.ok && o.kind == kPush) ++pushed;
    late.push_back(o.late_us() / 1000);
    if (o.due_us >= begin_us && o.due_us < end_us) {
      by_kind[o.kind].push_back(o.latency_us());
    }
  }
  run.totals.attempted += outcomes.size();
  run.totals.failed += failed;
  // Printed, not gated: read latency at a fixed rate followed the shared
  // host's scheduling and disk noise and did not repeat across runs.
  std::printf("feed reference %.0f reads/s + %.0f pushes/s for %.0f s:\n",
              config.reference_rate, config.push_rate,
              config.reference_seconds);
  static const char* kKindNames[] = {"tcp query", "unix query", "tcp pull"};
  for (uint32_t kind = kQueryTcp; kind < kPush; ++kind) {
    if (by_kind[kind].empty()) continue;
    std::printf("  %-10s %6zu requests, p50 %9.1f us, p99 %9.1f us\n",
                kKindNames[kind], by_kind[kind].size(),
                TailPercentile(by_kind[kind], 0.5).value_or(-1),
                TailPercentile(by_kind[kind], 0.99).value_or(-1));
  }
  std::vector<double> visible_ms;
  for (size_t i = 0; i < pushes; ++i) {
    if (sent_ns[i] == 0 || visible_ns[i] == 0) {
      ++run.totals.failed;  // never seen by a pull
      continue;
    }
    visible_ms.push_back(static_cast<double>(visible_ns[i] - sent_ns[i]) / 1e6);
  }
  // Too few pushes for the tail rule: their median and maximum.
  std::sort(visible_ms.begin(), visible_ms.end());
  std::printf("  %zu pushes visible to a pull after median %.2f ms, max %.2f ms\n",
              visible_ms.size(),
              visible_ms.empty() ? -1.0 : visible_ms[visible_ms.size() / 2],
              visible_ms.empty() ? -1.0 : visible_ms.back());
  if (auto v = TailPercentile(late, 0.99)) m.Set("loadgen.late_p99_ms", *v);
  const double codec_count =
      static_cast<double>(spans != nullptr ? spans->Counts()["net.codec"] : 0);
  if (spans != nullptr) {
    m.Set("net.codec_us", codec_count == 0
                              ? 0.0
                              : spans->TotalMs()["net.codec"] * 1000 / codec_count);
  }

  // ---- saturation (traced run) ----------------------------------------
  // vacd's read rate with every slot pipelining `depth` TCP reads. A
  // layer figure, not an end-to-end one: it did not repeat from run to
  // run on a shared host. It records no spans (pipelined requests would
  // overlap on one thread), so it stays out of attribution.
  if (spans != nullptr) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kGapSeconds));
    const double cpu_before = vacd.CpuSeconds();
    const Clock::time_point started_at = Clock::now();
    const Saturation r = Saturate(slots, queries, config.saturation_depth,
                                  config.saturation_seconds, run.seed);
    // vacd's CPU over the stage's wall time: near 1 when its
    // single-threaded read loop, not the generator, is the limit.
    const double vacd_busy =
        (vacd.CpuSeconds() - cpu_before) / (MsSince(started_at) / 1000);
    run.totals.attempted += r.reads;
    run.totals.failed += r.failed;
    m.Set("vacd.saturated_reads_per_s", r.reads_per_s);
    std::printf("feed saturation, depth %zu x %zu slots: %.0f reads/s, query "
                "p99 %.1f us, vacd busy %.2f\n",
                config.saturation_depth, slots.size(), r.reads_per_s,
                r.query_p99_us.value_or(-1), vacd_busy);
  }

  uint64_t busy = 0;
  for (Slot& slot : slots) {
    run.oracle.Check(slot.mismatches == 0,
                     av::StrFormat("feed: %llu verdicts differ from the local "
                                   "index",
                                   static_cast<unsigned long long>(
                                       slot.mismatches)));
    busy += slot.busy;
    if (slot.fd >= 0) av::net::WireClose(slot.fd);
  }
  m.Set("vacd.rate_limited", static_cast<double>(busy));

  // ---- after the load: oracle and per-call probes --------------------
  const av::net::VacdClient json_client(tcp_spec, kDeadlineMs);
  auto status = json_client.Stats();
  run.oracle.Check(status.ok(), "feed: status request failed");
  if (status.ok()) {
    m.Set("vacd.busy_shed", static_cast<double>(status->shed));
    run.oracle.Check(status->served == served.size() + pushed,
                     "feed: served count differs from preload + pushes");
  }
  av::net::FeedMirror mirror;
  run.oracle.Check(mirror.SyncFrom(json_client).ok(), "feed: mirror sync");
  auto full = json_client.Pull(0);
  run.oracle.Check(full.ok() && mirror.CanonicalJson() ==
                                    av::net::ReplyToJson(av::net::Reply(*full)),
                   "feed: mirror differs from one full pull");
  if (spans != nullptr) {
    constexpr size_t kProbes = 300;
    bool ok = false;
    const std::string query_payload = av::net::EncodeBinaryRequest(
        av::net::QueryRequest{queries[0].type, queries[0].identifier}, &ok);
    av::net::Endpoint unix_endpoint;
    unix_endpoint.path = socket;
    double connect_us = 0, tcp_us = 0, unix_us = 0;
    for (size_t i = 0; i < kProbes; ++i) {
      for (const av::net::Endpoint* e : {&tcp, &unix_endpoint}) {
        int fd = -1;
        connect_us += TimedUs(spans, n.probe_net, i, [&] {
          auto dialed = av::net::DialEndpoint(*e, kDeadlineMs);
          fd = dialed.ok() ? *dialed : -1;
        });
        run.oracle.Check(fd >= 0, "probe: connect failed");
        if (fd >= 0) av::net::WireClose(fd);
      }
      tcp_us += TimedUs(spans, n.probe_net, i, [&] {
        run.oracle.Check(
            av::net::FrameRoundTrip(tcp_spec, kDeadlineMs, query_payload).ok(),
            "probe: tcp round trip failed");
      });
      unix_us += TimedUs(spans, n.probe_net, i, [&] {
        run.oracle.Check(
            av::net::FrameRoundTrip(socket, kDeadlineMs, query_payload).ok(),
            "probe: unix round trip failed");
      });
    }
    m.Set("net.connect_us", Mean(connect_us, 2 * kProbes));
    m.Set("net.roundtrip_us.tcp", Mean(tcp_us, kProbes));
    m.Set("net.roundtrip_us.unix", Mean(unix_us, kProbes));
  }
  run.oracle.Check(vacd.Stop(), "feed: vacd child did not exit cleanly");

  if (spans != nullptr) {
    // The store layer on its own: pushes into a scratch durable store,
    // delta reads over the served store as the feed left it.
    constexpr size_t kStoreProbes = 200;
    auto scratch = CreateStore(run.dir + "/probe.store", {}, benign.index);
    run.oracle.Check(scratch.ok(), "probe: scratch store");
    double push_us = 0;
    for (size_t i = 0; scratch.ok() && i < kStoreProbes; ++i) {
      push_us += TimedUs(spans, n.probe_store, i, [&] {
        run.oracle.Check(scratch->Push({push_vaccines[i % pushes]}).ok(),
                         "probe: push failed");
      });
    }
    m.Set("vacstore.push_ms", Mean(push_us, kStoreProbes) / 1000);
    auto store = av::vacstore::VaccineStore::Open(store_path);
    run.oracle.Check(store.ok(), "probe: store reopen");
    double since_us = 0;
    for (size_t i = 0; store.ok() && i < kStoreProbes; ++i) {
      const uint64_t since =
          start_epoch + (store->epoch() - start_epoch) * i / kStoreProbes;
      since_us += TimedUs(spans, n.probe_store, i,
                          [&] { (void)store->Since(since); });
    }
    m.Set("vacstore.since_us", Mean(since_us, kStoreProbes));
  }
}

}  // namespace perfbench
