// vacd coverage, inside-out: frame codec over a socketpair, protocol
// JSON round-trips, then the real server on a scratch Unix socket —
// push/query/pull/status end to end, conflict quarantine at the serving
// layer, explicit BUSY overload shedding, request deadlines against a
// stalled client, malformed-frame rejection, and byte-identical PULL
// replies across a server restart (the feed is content-addressed and
// canonically serialized, so restarting must not change a single byte).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/exclusiveness.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "vaccine/json.h"
#include "vacstore/store.h"

namespace autovac::net {
namespace {

// Removes the scratch path (socket or store file) on both ends of the
// test, compaction temp included. Relative paths keep sun_path short.
class ScratchPath {
 public:
  explicit ScratchPath(std::string path) : path_(std::move(path)) {
    std::remove(path_.c_str());
    std::remove((path_ + ".compact").c_str());
  }
  ~ScratchPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".compact").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

vaccine::Vaccine MakeVaccine(os::ResourceType type,
                             const std::string& identifier,
                             bool presence = true,
                             analysis::IdentifierClass kind =
                                 analysis::IdentifierClass::kStatic) {
  vaccine::Vaccine v;
  v.malware_name = "sample-" + identifier;
  v.malware_digest = "d-" + identifier;
  v.resource_type = type;
  v.identifier = identifier;
  v.simulate_presence = presence;
  v.identifier_kind = kind;
  v.immunization = analysis::ImmunizationType::kFull;
  v.delivery = kind == analysis::IdentifierClass::kStatic
                   ? vaccine::DeliveryMethod::kDirectInjection
                   : vaccine::DeliveryMethod::kDaemon;
  if (kind == analysis::IdentifierClass::kPartialStatic) {
    auto pattern = Pattern::Compile(identifier);
    EXPECT_TRUE(pattern.ok());
    if (pattern.ok()) v.pattern = std::move(pattern).value();
  }
  return v;
}

int ConnectTo(const std::string& socket_path) {
  int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << socket_path;
  // A receive timeout so a misbehaving server fails the test instead of
  // hanging it.
  timeval timeout = {5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  return fd;
}

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

TEST(NetFrame, RoundTripsOverSocketPair) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  const std::string payload = "{\"op\":\"status\"}";
  ASSERT_TRUE(WriteNetFrame(fds[0], payload).ok());
  auto read = ReadNetFrame(fds[1]);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);

  // Empty payloads are legal frames.
  ASSERT_TRUE(WriteNetFrame(fds[0], "").ok());
  auto empty = ReadNetFrame(fds[1]);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  // A clean close between frames is NotFound, not corruption.
  close(fds[0]);
  auto eof = ReadNetFrame(fds[1]);
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  close(fds[1]);
}

TEST(NetFrame, BadMagicIsRejected) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const unsigned char junk[kNetFrameHeaderSize] = {'X', 'X', 'X', 'X',
                                                   1,   0,   0,   0};
  ASSERT_EQ(write(fds[0], junk, sizeof junk),
            static_cast<ssize_t>(sizeof junk));
  auto read = ReadNetFrame(fds[1]);
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  close(fds[0]);
  close(fds[1]);
}

TEST(NetFrame, TruncatedFrameIsCorruption) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Valid header promising 100 payload bytes, then only 3 arrive.
  const unsigned char header[kNetFrameHeaderSize] = {0x41, 0x56, 0x4E, 0x46,
                                                     100,  0,    0,    0};
  ASSERT_EQ(write(fds[0], header, sizeof header),
            static_cast<ssize_t>(sizeof header));
  ASSERT_EQ(write(fds[0], "abc", 3), 3);
  close(fds[0]);
  auto read = ReadNetFrame(fds[1]);
  EXPECT_EQ(read.status().code(), StatusCode::kInternal);
  close(fds[1]);
}

// ---------------------------------------------------------------------
// Protocol JSON
// ---------------------------------------------------------------------

TEST(Protocol, RequestsRoundTrip) {
  PushRequest push;
  push.vaccines.push_back(MakeVaccine(os::ResourceType::kMutex, "evil-m"));
  push.vaccines.push_back(MakeVaccine(os::ResourceType::kFile,
                                      "c:\\\\evil\\\\*", false,
                                      analysis::IdentifierClass::kPartialStatic));
  auto push_parsed = ParseRequest(RequestToJson(Request{push}));
  ASSERT_TRUE(push_parsed.ok()) << push_parsed.status().ToString();
  const auto* push_back = std::get_if<PushRequest>(&*push_parsed);
  ASSERT_NE(push_back, nullptr);
  ASSERT_EQ(push_back->vaccines.size(), 2u);
  EXPECT_EQ(vaccine::VaccineToJson(push_back->vaccines[1]),
            vaccine::VaccineToJson(push.vaccines[1]));

  QueryRequest query;
  query.resource_type = os::ResourceType::kRegistry;
  query.identifier = "hklm\\software\\evil";
  auto query_parsed = ParseRequest(RequestToJson(Request{query}));
  ASSERT_TRUE(query_parsed.ok());
  const auto* query_back = std::get_if<QueryRequest>(&*query_parsed);
  ASSERT_NE(query_back, nullptr);
  EXPECT_EQ(query_back->resource_type, os::ResourceType::kRegistry);
  EXPECT_EQ(query_back->identifier, "hklm\\software\\evil");

  PullRequest pull;
  pull.since = 7;
  auto pull_parsed = ParseRequest(RequestToJson(Request{pull}));
  ASSERT_TRUE(pull_parsed.ok());
  const auto* pull_back = std::get_if<PullRequest>(&*pull_parsed);
  ASSERT_NE(pull_back, nullptr);
  EXPECT_EQ(pull_back->since, 7u);
  EXPECT_EQ(pull_back->limit, 0u);

  // Optional fields round-trip, and their absence keeps legacy bytes.
  EXPECT_EQ(RequestToJson(Request{pull}).find("limit"), std::string::npos);
  pull.limit = 32;
  auto paged = ParseRequest(RequestToJson(Request{pull}));
  ASSERT_TRUE(paged.ok());
  EXPECT_EQ(std::get_if<PullRequest>(&*paged)->limit, 32u);

  PushRequest idempotent;
  idempotent.vaccines.push_back(MakeVaccine(os::ResourceType::kMutex, "m"));
  EXPECT_EQ(RequestToJson(Request{idempotent}).find("request_id"),
            std::string::npos);
  idempotent.request_id = "retry-key-1";
  auto keyed = ParseRequest(RequestToJson(Request{idempotent}));
  ASSERT_TRUE(keyed.ok());
  EXPECT_EQ(std::get_if<PushRequest>(&*keyed)->request_id, "retry-key-1");

  auto status_parsed = ParseRequest(RequestToJson(Request{StatusRequest{}}));
  ASSERT_TRUE(status_parsed.ok());
  EXPECT_NE(std::get_if<StatusRequest>(&*status_parsed), nullptr);
}

TEST(Protocol, RepliesRoundTrip) {
  PushReply push;
  push.added = 3;
  push.duplicates = 2;
  push.quarantined = 1;
  push.epoch = 9;
  auto push_parsed = ParseReply(ReplyToJson(Reply{push}));
  ASSERT_TRUE(push_parsed.ok()) << push_parsed.status().ToString();
  const auto* push_back = std::get_if<PushReply>(&*push_parsed);
  ASSERT_NE(push_back, nullptr);
  EXPECT_EQ(push_back->added, 3u);
  EXPECT_EQ(push_back->duplicates, 2u);
  EXPECT_EQ(push_back->quarantined, 1u);
  EXPECT_EQ(push_back->epoch, 9u);

  PullReply pull;
  pull.epoch = 4;
  pull.more = true;
  FeedItem item;
  item.digest = "abc123";
  item.epoch = 2;
  item.vaccine = MakeVaccine(os::ResourceType::kMutex, "evil-m");
  pull.items.push_back(item);
  auto pull_parsed = ParseReply(ReplyToJson(Reply{pull}));
  ASSERT_TRUE(pull_parsed.ok());
  const auto* pull_back = std::get_if<PullReply>(&*pull_parsed);
  ASSERT_NE(pull_back, nullptr);
  EXPECT_EQ(pull_back->epoch, 4u);
  EXPECT_TRUE(pull_back->more);
  ASSERT_EQ(pull_back->items.size(), 1u);
  EXPECT_EQ(pull_back->items[0].digest, "abc123");
  EXPECT_EQ(pull_back->items[0].epoch, 2u);

  StatusReply status;
  status.epoch = 5;
  status.served = 4;
  status.quarantined = 1;
  status.requests = 99;
  status.shed = 2;
  status.evicted = 3;
  auto status_parsed = ParseReply(ReplyToJson(Reply{status}));
  ASSERT_TRUE(status_parsed.ok());
  const auto* status_back = std::get_if<StatusReply>(&*status_parsed);
  ASSERT_NE(status_back, nullptr);
  EXPECT_EQ(status_back->evicted, 3u);
  EXPECT_EQ(status_back->shed, 2u);

  ErrorReply error;
  error.busy = true;
  error.message = "overloaded";
  auto error_parsed = ParseReply(ReplyToJson(Reply{error}));
  ASSERT_TRUE(error_parsed.ok());
  const auto* error_back = std::get_if<ErrorReply>(&*error_parsed);
  ASSERT_NE(error_back, nullptr);
  EXPECT_TRUE(error_back->busy);
  EXPECT_EQ(error_back->message, "overloaded");
}

TEST(Protocol, MalformedRequestsAreRejected) {
  EXPECT_FALSE(ParseRequest("not json at all").ok());
  EXPECT_FALSE(ParseRequest("{}").ok());
  EXPECT_FALSE(ParseRequest("{\"op\":\"frobnicate\"}").ok());
  EXPECT_FALSE(ParseRequest("{\"op\":\"query\",\"resource\":999,"
                            "\"identifier\":\"x\"}").ok());
}

// ---------------------------------------------------------------------
// End to end over a real socket
// ---------------------------------------------------------------------

TEST(Vacd, PushQueryPullStatusEndToEnd) {
  ScratchPath sock("vacd_e2e.sock");
  analysis::ExclusivenessIndex conflicts;  // builtin whitelist only

  vacstore::VaccineStore store;
  store.SetConflictIndex(&conflicts);

  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 2;
  VacdServer server(std::move(store), options);
  ASSERT_TRUE(server.Start().ok());

  VacdClient client(sock.path());

  // One of everything: a mutex literal, a presence file, a floating
  // pattern, and a whitelist collision that must be quarantined.
  std::vector<vaccine::Vaccine> batch;
  batch.push_back(MakeVaccine(os::ResourceType::kMutex, "evilmutex123",
                              /*presence=*/true));
  batch.push_back(MakeVaccine(os::ResourceType::kFile,
                              "c:\\evil\\payload.bin", /*presence=*/false));
  batch.push_back(MakeVaccine(os::ResourceType::kFile, "c:\\\\evil\\\\*",
                              /*presence=*/true,
                              analysis::IdentifierClass::kPartialStatic));
  batch.push_back(MakeVaccine(os::ResourceType::kLibrary, "kernel32.dll"));

  auto push = client.Push(batch);
  ASSERT_TRUE(push.ok()) << push.status().ToString();
  EXPECT_EQ(push->added, 4u);
  EXPECT_EQ(push->duplicates, 0u);
  EXPECT_EQ(push->quarantined, 1u);
  EXPECT_EQ(push->epoch, 1u);

  // Literal hit, presence action intact.
  auto mutex_hit = client.Query(os::ResourceType::kMutex, "evilmutex123");
  ASSERT_TRUE(mutex_hit.ok()) << mutex_hit.status().ToString();
  ASSERT_EQ(mutex_hit->matches.size(), 1u);
  EXPECT_EQ(mutex_hit->matches[0].identifier, "evilmutex123");
  EXPECT_TRUE(mutex_hit->matches[0].simulate_presence);

  // The pattern vaccine matches an identifier nobody pushed literally;
  // the literal file vaccine matches itself too, so that path gets both.
  auto file_hit = client.Query(os::ResourceType::kFile,
                               "c:\\evil\\payload.bin");
  ASSERT_TRUE(file_hit.ok());
  EXPECT_EQ(file_hit->matches.size(), 2u);
  auto pattern_hit = client.Query(os::ResourceType::kFile,
                                  "c:\\evil\\dropper.exe");
  ASSERT_TRUE(pattern_hit.ok());
  ASSERT_EQ(pattern_hit->matches.size(), 1u);
  EXPECT_EQ(pattern_hit->matches[0].identifier_kind,
            analysis::IdentifierClass::kPartialStatic);

  // Quarantined vaccines are stored but never served.
  auto quarantined = client.Query(os::ResourceType::kLibrary, "kernel32.dll");
  ASSERT_TRUE(quarantined.ok());
  EXPECT_TRUE(quarantined->matches.empty());

  auto miss = client.Query(os::ResourceType::kMutex, "innocentmutex");
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->matches.empty());

  // PULL is the served feed only.
  auto pull = client.Pull(0);
  ASSERT_TRUE(pull.ok()) << pull.status().ToString();
  EXPECT_EQ(pull->epoch, 1u);
  ASSERT_EQ(pull->items.size(), 3u);
  for (const FeedItem& item : pull->items) {
    EXPECT_EQ(item.epoch, 1u);
    EXPECT_FALSE(item.digest.empty());
    EXPECT_EQ(item.digest, vaccine::VaccineDigest(item.vaccine));
  }
  auto caught_up = client.Pull(1);
  ASSERT_TRUE(caught_up.ok());
  EXPECT_TRUE(caught_up->items.empty());

  // Re-pushing the batch is pure dedup: no epoch bump, nothing new.
  auto again = client.Push(batch);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->added, 0u);
  EXPECT_EQ(again->duplicates, 4u);
  EXPECT_EQ(again->epoch, 1u);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->epoch, 1u);
  EXPECT_EQ(stats->served, 3u);
  EXPECT_EQ(stats->quarantined, 1u);
  EXPECT_GE(stats->requests, 8u);
  EXPECT_EQ(stats->shed, 0u);

  server.Stop();
}

TEST(Vacd, PagedPullNeverSplitsAnEpochAndResumes) {
  ScratchPath sock("vacd_paging.sock");
  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 1;
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());
  VacdClient client(sock.path());

  // Epoch 1 holds two vaccines, epoch 2 one: a limit of 1 must extend
  // the first page through all of epoch 1 so "since" stays an exact
  // resume cursor.
  ASSERT_TRUE(client.Push({MakeVaccine(os::ResourceType::kMutex, "page-a"),
                           MakeVaccine(os::ResourceType::kMutex, "page-b")})
                  .ok());
  ASSERT_TRUE(
      client.Push({MakeVaccine(os::ResourceType::kMutex, "page-c")}).ok());

  auto first = client.Pull(0, /*limit=*/1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->items.size(), 2u);
  EXPECT_TRUE(first->more);
  EXPECT_EQ(first->items.back().epoch, 1u);

  auto second = client.Pull(first->items.back().epoch, /*limit=*/1);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->items.size(), 1u);
  EXPECT_FALSE(second->more);
  EXPECT_EQ(second->items[0].vaccine.identifier, "page-c");

  // SyncAll pages through the same feed and merges it completely.
  auto all = client.SyncAll(0, /*page_limit=*/1);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->items.size(), 3u);
  EXPECT_EQ(all->epoch, 2u);

  // An unlimited pull is unchanged (and never reports more).
  auto unpaged = client.Pull(0);
  ASSERT_TRUE(unpaged.ok());
  EXPECT_EQ(unpaged->items.size(), 3u);
  EXPECT_FALSE(unpaged->more);
  server.Stop();
}

TEST(Vacd, OverloadIsShedWithExplicitBusy) {
  ScratchPath sock("vacd_busy.sock");
  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 1;
  options.max_connections = 0;  // every connection is over the line
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());

  VacdClient client(sock.path());

  // The raw variant exposes the busy shed as an ErrorReply value.
  auto reply = client.RoundTrip(Request{StatusRequest{}});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const auto* error = std::get_if<ErrorReply>(&*reply);
  ASSERT_NE(error, nullptr);
  EXPECT_TRUE(error->busy);

  // The typed helpers turn it into a retryable FailedPrecondition.
  auto stats = client.Stats();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(VacdClient::IsBusy(stats.status()));

  server.Stop();
  const StatusReply final_stats = server.Stats();
  EXPECT_GE(final_stats.shed, 2u);
  EXPECT_EQ(final_stats.requests, 0u);
}

TEST(Vacd, StalledClientHitsTheDeadlineAndServerSurvives) {
  ScratchPath sock("vacd_deadline.sock");
  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 2;
  options.idle_timeout_ms = 100;
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());

  // Half a frame header, then silence: the idle sweep must close the
  // connection.
  int fd = ConnectTo(sock.path());
  const unsigned char half[4] = {0x41, 0x56, 0x4E, 0x46};
  ASSERT_EQ(write(fd, half, sizeof half), static_cast<ssize_t>(sizeof half));
  char buffer[256];
  ssize_t n;
  while ((n = read(fd, buffer, sizeof buffer)) > 0) {
  }
  EXPECT_EQ(n, 0) << "server did not close the stalled connection";
  close(fd);

  // Real requests still work.
  VacdClient client(sock.path());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  server.Stop();
}

TEST(Vacd, MalformedFrameGetsAnErrorReplyNotACrash) {
  ScratchPath sock("vacd_malformed.sock");
  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 1;
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());

  int fd = ConnectTo(sock.path());
  ASSERT_TRUE(WriteNetFrame(fd, "this is not a request").ok());
  auto raw = ReadNetFrame(fd);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto reply = ParseReply(*raw);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const auto* error = std::get_if<ErrorReply>(&*reply);
  ASSERT_NE(error, nullptr);
  EXPECT_FALSE(error->busy);
  EXPECT_FALSE(error->message.empty());
  close(fd);

  VacdClient client(sock.path());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  server.Stop();
}

// ---------------------------------------------------------------------
// Restart byte-identity: the feed is deterministic storage
// ---------------------------------------------------------------------

TEST(Vacd, StatusReportsRecoveryAndDedupTelemetry) {
  ScratchPath store_file("vacd_opsstatus_store.jsonl");
  ScratchPath sock("vacd_opsstatus.sock");
  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 1;

  {
    auto store = vacstore::VaccineStore::Open(store_file.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    VacdServer server(std::move(*store), options);
    ASSERT_TRUE(server.Start().ok());
    VacdClient client(sock.path());

    // Epoch 1 is checkpointed; epoch 2 lives only in the journal.
    ASSERT_TRUE(
        client.Push({MakeVaccine(os::ResourceType::kMutex, "ops-a")}).ok());
    ASSERT_TRUE(server.CheckpointNow().ok());
    ASSERT_TRUE(
        client.Push({MakeVaccine(os::ResourceType::kMutex, "ops-b")}).ok());

    // A retried idempotent push: the second send is a dedup-window hit.
    PushRequest retried;
    retried.request_id = "ops-retry-1";
    retried.vaccines = {MakeVaccine(os::ResourceType::kFile, "c:\\ops-c")};
    ASSERT_TRUE(client.RoundTripRaw(RequestToJson(Request{retried})).ok());
    ASSERT_TRUE(client.RoundTripRaw(RequestToJson(Request{retried})).ok());

    auto stats = client.Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->epoch, 3u);
    EXPECT_EQ(stats->checkpoint_epoch, 1u);
    EXPECT_EQ(stats->replayed, 0u);  // this incarnation loaded nothing
    EXPECT_EQ(stats->dedup_hits, 1u);
    server.Stop();
  }

  // The restarted daemon reports how it recovered: the checkpoint it
  // loaded and how many journal records it replayed past it — exactly
  // the two numbers an operator needs to judge recovery health.
  {
    auto store = vacstore::VaccineStore::Open(store_file.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    VacdServer server(std::move(*store), options);
    ASSERT_TRUE(server.Start().ok());
    auto stats = VacdClient(sock.path()).Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->epoch, 3u);
    EXPECT_EQ(stats->checkpoint_epoch, 1u);
    EXPECT_GT(stats->replayed, 0u);
    EXPECT_EQ(stats->dedup_hits, 0u);  // the window died with the process
    server.Stop();
  }
}

TEST(Vacd, PullReplyIsByteIdenticalAcrossRestart) {
  ScratchPath store_file("vacd_restart_store.jsonl");
  ScratchPath sock("vacd_restart.sock");
  const std::string pull_json = RequestToJson(Request{PullRequest{}});

  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 2;

  std::string first_bytes;
  {
    auto store = vacstore::VaccineStore::Open(store_file.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    VacdServer server(std::move(*store), options);
    ASSERT_TRUE(server.Start().ok());
    VacdClient client(sock.path());
    auto first = client.Push(
        {MakeVaccine(os::ResourceType::kMutex, "evil-restart-m"),
         MakeVaccine(os::ResourceType::kFile, "c:\\evil\\restart.bin")});
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_EQ(first->epoch, 1u);
    auto second = client.Push(
        {MakeVaccine(os::ResourceType::kRegistry, "hklm\\run\\evil", false)});
    ASSERT_TRUE(second.ok());
    ASSERT_EQ(second->epoch, 2u);
    auto raw = client.RoundTripRaw(pull_json);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    first_bytes = *raw;
    server.Stop();
  }

  {
    auto store = vacstore::VaccineStore::Open(store_file.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_FALSE(store->repaired_torn_tail());
    EXPECT_EQ(store->epoch(), 2u);
    VacdServer server(std::move(*store), options);
    ASSERT_TRUE(server.Start().ok());
    auto raw = VacdClient(sock.path()).RoundTripRaw(pull_json);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    EXPECT_EQ(*raw, first_bytes);
    server.Stop();
  }

  EXPECT_NE(first_bytes.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(first_bytes.find("\"epoch\":2"), std::string::npos);
}

}  // namespace
}  // namespace autovac::net
