// Epoch delta-sync coverage: `pull --since` edge cases (since beyond
// the current epoch, epoch gaps after checkpoint rotation, a vaccine
// quarantined between pulls), tombstone semantics, FeedMirror
// convergence — repeated delta pulls reach a store state byte-identical
// to one full pull, including across a server restart and under a
// seeded wire-fault plan — plus the compact binary encoding (same
// answers as JSON) and the endpoint/frame plumbing the TCP tier rides
// on.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "net/binary.h"
#include "net/client.h"
#include "net/endpoint.h"
#include "net/faultwire.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/sync.h"
#include "support/metrics.h"
#include "vacstore/store.h"

namespace autovac::net {
namespace {

class ScratchPath {
 public:
  explicit ScratchPath(std::string path) : path_(std::move(path)) {
    Remove();
  }
  ~ScratchPath() { Remove(); }
  const std::string& path() const { return path_; }

 private:
  void Remove() {
    for (const char* suffix : {"", ".compact", ".ckpt", ".ckpt.tmp",
                               ".rotate"}) {
      std::remove((path_ + suffix).c_str());
    }
  }
  std::string path_;
};

class InstalledPlan {
 public:
  explicit InstalledPlan(const NetFaultPlan* plan) {
    InstallWireFaults(plan);
  }
  ~InstalledPlan() { InstallWireFaults(nullptr); }
};

vaccine::Vaccine MakeVaccine(os::ResourceType type,
                             const std::string& identifier) {
  vaccine::Vaccine v;
  v.malware_name = "sample-" + identifier;
  v.malware_digest = "d-" + identifier;
  v.resource_type = type;
  v.identifier = identifier;
  v.simulate_presence = true;
  v.identifier_kind = analysis::IdentifierClass::kStatic;
  v.immunization = analysis::ImmunizationType::kFull;
  v.delivery = vaccine::DeliveryMethod::kDirectInjection;
  return v;
}

VacdOptions Options(const std::string& socket_path) {
  VacdOptions options;
  options.socket_path = socket_path;
  options.threads = 2;
  // The conflict index is not installed in these tests; quarantines come
  // from the explicit QUARANTINE op.
  return options;
}

// Pushes `count` vaccines one batch per call, so each lands in its own
// feed epoch.
void PushEpochs(const VacdClient& client, os::ResourceType type,
                const std::string& prefix, int count) {
  for (int i = 0; i < count; ++i) {
    auto pushed = client.Push(
        {MakeVaccine(type, prefix + std::to_string(i))});
    ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
    ASSERT_EQ(pushed->added, 1u);
  }
}

std::string FullPullBytes(const VacdClient& client) {
  auto raw = client.RoundTripRaw(RequestToJson(Request(PullRequest{0, 0})));
  EXPECT_TRUE(raw.ok()) << raw.status().ToString();
  return raw.ok() ? *raw : std::string();
}

// ---------------------------------------------------------------------
// --since edge cases at the protocol level
// ---------------------------------------------------------------------

TEST(DeltaSync, SinceBeyondCurrentEpochIsEmpty) {
  ScratchPath socket("delta_sync_beyond.sock");
  VacdServer server(vacstore::VaccineStore(), Options(socket.path()));
  ASSERT_TRUE(server.Start().ok());
  VacdClient client(socket.path());
  PushEpochs(client, os::ResourceType::kMutex, "m", 3);

  auto now = client.Stats();
  ASSERT_TRUE(now.ok());
  auto page = client.Pull(now->epoch + 5);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_TRUE(page->items.empty());
  EXPECT_FALSE(page->more);
  // The reply's epoch still reports the server's real epoch, so a
  // confused client can notice its cursor is from the future.
  EXPECT_EQ(page->epoch, now->epoch);
}

TEST(DeltaSync, QuarantineBetweenPullsServesTombstone) {
  ScratchPath socket("delta_sync_tombstone.sock");
  VacdServer server(vacstore::VaccineStore(), Options(socket.path()));
  ASSERT_TRUE(server.Start().ok());
  VacdClient client(socket.path());
  PushEpochs(client, os::ResourceType::kMutex, "m", 2);

  auto first = client.Pull(0);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->items.size(), 2u);
  const uint64_t cursor = first->epoch;
  const std::string victim = first->items[0].digest;

  auto quarantined = client.Quarantine(victim, "test retraction");
  ASSERT_TRUE(quarantined.ok()) << quarantined.status().ToString();
  EXPECT_FALSE(quarantined->already);
  EXPECT_GT(quarantined->epoch, cursor);  // the retraction bumped the feed

  // The delta since the first pull is exactly one tombstone.
  auto delta = client.Pull(cursor);
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta->items.size(), 1u);
  EXPECT_TRUE(delta->items[0].quarantined);
  EXPECT_EQ(delta->items[0].digest, victim);
  EXPECT_EQ(delta->items[0].epoch, quarantined->epoch);

  // A full pull never carries tombstones — its bytes stay identical to
  // the pre-tombstone protocol.
  auto full = client.Pull(0);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->items.size(), 1u);
  EXPECT_FALSE(full->items[0].quarantined);

  // Idempotent: a second quarantine reports 'already', no epoch bump.
  auto again = client.Quarantine(victim, "again");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->already);
  EXPECT_EQ(again->epoch, quarantined->epoch);
}

TEST(DeltaSync, QuarantinedVaccineNoLongerMatchesQueries) {
  ScratchPath socket("delta_sync_query.sock");
  VacdServer server(vacstore::VaccineStore(), Options(socket.path()));
  ASSERT_TRUE(server.Start().ok());
  VacdClient client(socket.path());
  PushEpochs(client, os::ResourceType::kMutex, "Bad", 1);

  auto hit = client.Query(os::ResourceType::kMutex, "Bad0");
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->matches.size(), 1u);

  auto full = client.Pull(0);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(client.Quarantine(full->items[0].digest, "bad").ok());

  auto miss = client.Query(os::ResourceType::kMutex, "Bad0");
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->matches.empty());
}

// ---------------------------------------------------------------------
// FeedMirror convergence
// ---------------------------------------------------------------------

TEST(DeltaSync, MirrorConvergesByteIdenticalAfterQuarantine) {
  ScratchPath socket("delta_sync_mirror.sock");
  VacdServer server(vacstore::VaccineStore(), Options(socket.path()));
  ASSERT_TRUE(server.Start().ok());
  VacdClient client(socket.path());
  PushEpochs(client, os::ResourceType::kFile, "f", 4);

  FeedMirror mirror;
  ASSERT_TRUE(mirror.SyncFrom(client).ok());
  EXPECT_EQ(mirror.size(), 4u);
  EXPECT_EQ(mirror.CanonicalJson(), FullPullBytes(client));

  // Quarantine one vaccine the mirror already holds; the next delta
  // sync costs O(1) items and still converges to full-pull bytes.
  auto full = client.Pull(0);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(client.Quarantine(full->items[1].digest, "recalled").ok());
  PushEpochs(client, os::ResourceType::kFile, "g", 2);

  const uint64_t cursor_before = mirror.cursor();
  ASSERT_TRUE(mirror.SyncFrom(client).ok());
  EXPECT_GT(mirror.cursor(), cursor_before);
  EXPECT_EQ(mirror.size(), 5u);  // 4 - 1 quarantined + 2 new
  EXPECT_EQ(mirror.CanonicalJson(), FullPullBytes(client));
}

TEST(DeltaSync, MirrorConvergesUnderPagedPulls) {
  ScratchPath socket("delta_sync_paged.sock");
  VacdServer server(vacstore::VaccineStore(), Options(socket.path()));
  ASSERT_TRUE(server.Start().ok());
  VacdClient client(socket.path());
  PushEpochs(client, os::ResourceType::kProcess, "p", 6);
  auto full = client.Pull(0);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(client.Quarantine(full->items[2].digest, "paged").ok());

  // Page size 1 forces one round trip per epoch — the worst case for
  // cursor handling — and must converge to the same bytes.
  FeedMirror mirror;
  ASSERT_TRUE(mirror.SyncFrom(client, /*page_limit=*/1).ok());
  EXPECT_EQ(mirror.size(), 5u);
  EXPECT_EQ(mirror.CanonicalJson(), FullPullBytes(client));

  // Re-applying an already-synced page is a no-op (retried page).
  auto page = client.Pull(0, 1);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(mirror.Apply(*page).ok());
  EXPECT_EQ(mirror.CanonicalJson(), FullPullBytes(client));
}

TEST(DeltaSync, RestartThenDeltaIsByteIdentical) {
  ScratchPath socket("delta_sync_restart.sock");
  ScratchPath store_file("delta_sync_restart.jsonl");
  FeedMirror mirror;
  std::string wave1_digest;
  {
    auto store = vacstore::VaccineStore::Open(store_file.path());
    ASSERT_TRUE(store.ok());
    VacdServer server(std::move(store).value(), Options(socket.path()));
    ASSERT_TRUE(server.Start().ok());
    VacdClient client(socket.path());
    PushEpochs(client, os::ResourceType::kRegistry, "r", 3);
    ASSERT_TRUE(mirror.SyncFrom(client).ok());
    auto full = client.Pull(0);
    ASSERT_TRUE(full.ok());
    wave1_digest = full->items[0].digest;
    server.Stop();
  }
  {
    // Restart from the journal; the mirror's cursor survives the
    // restart because epochs are durable.
    auto store = vacstore::VaccineStore::Open(store_file.path());
    ASSERT_TRUE(store.ok());
    VacdServer server(std::move(store).value(), Options(socket.path()));
    ASSERT_TRUE(server.Start().ok());
    VacdClient client(socket.path());
    PushEpochs(client, os::ResourceType::kRegistry, "s", 2);
    ASSERT_TRUE(client.Quarantine(wave1_digest, "post-restart").ok());

    ASSERT_TRUE(mirror.SyncFrom(client).ok());
    EXPECT_EQ(mirror.size(), 4u);  // 3 - 1 + 2
    EXPECT_EQ(mirror.CanonicalJson(), FullPullBytes(client));
  }
}

TEST(DeltaSync, CheckpointRotationPreservesDeltaCursors) {
  ScratchPath socket("delta_sync_ckpt.sock");
  ScratchPath store_file("delta_sync_ckpt.jsonl");
  uint64_t cursor = 0;
  std::string victim;
  {
    auto store = vacstore::VaccineStore::Open(store_file.path());
    ASSERT_TRUE(store.ok());
    VacdServer server(std::move(store).value(), Options(socket.path()));
    ASSERT_TRUE(server.Start().ok());
    VacdClient client(socket.path());
    PushEpochs(client, os::ResourceType::kService, "svc", 3);
    auto first = client.Pull(0);
    ASSERT_TRUE(first.ok());
    cursor = first->epoch;
    victim = first->items[0].digest;
    // Quarantine after the client's sync, then checkpoint: the journal
    // tail before the checkpoint is folded into the image, leaving an
    // "epoch gap" in the raw journal.
    ASSERT_TRUE(client.Quarantine(victim, "pre-checkpoint").ok());
    ASSERT_TRUE(server.CheckpointNow().ok());
    server.Stop();
  }
  {
    auto store = vacstore::VaccineStore::Open(store_file.path());
    ASSERT_TRUE(store.ok());
    VacdServer server(std::move(store).value(), Options(socket.path()));
    ASSERT_TRUE(server.Start().ok());
    VacdClient client(socket.path());
    // The pre-checkpoint cursor still yields the tombstone: change
    // epochs survive checkpoint rotation.
    auto delta = client.Pull(cursor);
    ASSERT_TRUE(delta.ok());
    ASSERT_EQ(delta->items.size(), 1u);
    EXPECT_TRUE(delta->items[0].quarantined);
    EXPECT_EQ(delta->items[0].digest, victim);
    // And a cursor beyond the checkpointed epoch is still empty.
    auto empty = client.Pull(delta->epoch);
    ASSERT_TRUE(empty.ok());
    EXPECT_TRUE(empty->items.empty());
  }
}

TEST(DeltaSync, MirrorConvergesUnderWireFaults) {
  ScratchPath socket("delta_sync_faults.sock");
  VacdServer server(vacstore::VaccineStore(), Options(socket.path()));
  ASSERT_TRUE(server.Start().ok());

  // Build the reference bytes fault-free first.
  VacdClient clean(socket.path());
  PushEpochs(clean, os::ResourceType::kWindow, "w", 5);
  auto full = clean.Pull(0);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(clean.Quarantine(full->items[3].digest, "faulty").ok());
  const std::string reference = FullPullBytes(clean);

  // A hostile wire: refused connects, cut frames, stalls — the retrying
  // mirror must still converge to the same bytes.
  const NetFaultPlan plan = NetFaultPlan::Randomized(/*seed=*/29, 0.3);
  InstalledPlan installed(&plan);
  RetryPolicy retry = RetryPolicy::Retrying();
  retry.max_attempts = 10;
  retry.initial_backoff_ms = 1;
  retry.max_backoff_ms = 20;
  retry.seed = 29;
  VacdClient flaky(socket.path(), /*deadline_ms=*/2000, retry);
  FeedMirror mirror;
  ASSERT_TRUE(mirror.SyncFrom(flaky, /*page_limit=*/2).ok());
  EXPECT_EQ(mirror.CanonicalJson(), reference);
}

// ---------------------------------------------------------------------
// Binary protocol
// ---------------------------------------------------------------------

TEST(BinaryProtocol, RequestsRoundTrip) {
  bool ok = false;
  const std::string query = EncodeBinaryRequest(
      Request(QueryRequest{os::ResourceType::kMutex, "BadMutex"}), &ok);
  ASSERT_TRUE(ok);
  EXPECT_TRUE(IsBinaryPayload(query));
  auto parsed = ParseBinaryRequest(query);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto* q = std::get_if<QueryRequest>(&parsed.value());
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->resource_type, os::ResourceType::kMutex);
  EXPECT_EQ(q->identifier, "BadMutex");

  const std::string pull =
      EncodeBinaryRequest(Request(PullRequest{42, 7}), &ok);
  ASSERT_TRUE(ok);
  auto parsed_pull = ParseBinaryRequest(pull);
  ASSERT_TRUE(parsed_pull.ok());
  const auto* p = std::get_if<PullRequest>(&parsed_pull.value());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->since, 42u);
  EXPECT_EQ(p->limit, 7u);

  // Mutations have no binary form.
  (void)EncodeBinaryRequest(Request(PushRequest{}), &ok);
  EXPECT_FALSE(ok);
  (void)EncodeBinaryRequest(Request(QuarantineRequest{"d", "r"}), &ok);
  EXPECT_FALSE(ok);

  // Trailing bytes are rejected, not ignored.
  auto trailing = ParseBinaryRequest(pull + "x");
  EXPECT_FALSE(trailing.ok());
}

TEST(BinaryProtocol, BinaryAnswersMatchJsonAnswers) {
  ScratchPath socket("delta_sync_binary.sock");
  VacdServer server(vacstore::VaccineStore(), Options(socket.path()));
  ASSERT_TRUE(server.Start().ok());
  VacdClient json_client(socket.path());
  PushEpochs(json_client, os::ResourceType::kLibrary, "lib", 3);
  auto full = json_client.Pull(0);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(json_client.Quarantine(full->items[0].digest, "bin").ok());

  VacdClient binary_client(socket.path());
  binary_client.set_binary(true);

  auto jp = json_client.Pull(0);
  auto bp = binary_client.Pull(0);
  ASSERT_TRUE(jp.ok());
  ASSERT_TRUE(bp.ok());
  EXPECT_EQ(ReplyToJson(Reply(*jp)), ReplyToJson(Reply(*bp)));

  auto jq = json_client.Query(os::ResourceType::kLibrary, "lib1");
  auto bq = binary_client.Query(os::ResourceType::kLibrary, "lib1");
  ASSERT_TRUE(jq.ok());
  ASSERT_TRUE(bq.ok());
  EXPECT_EQ(ReplyToJson(Reply(*jq)), ReplyToJson(Reply(*bq)));

  auto bs = binary_client.Stats();
  ASSERT_TRUE(bs.ok());
  EXPECT_EQ(bs->served, 2u);
  EXPECT_EQ(bs->quarantined, 1u);

  // A binary mirror converges to the same canonical JSON.
  FeedMirror mirror;
  ASSERT_TRUE(mirror.SyncFrom(binary_client, 1).ok());
  EXPECT_EQ(mirror.CanonicalJson(), FullPullBytes(json_client));
}

// ---------------------------------------------------------------------
// Endpoint specs and the incremental frame decoder
// ---------------------------------------------------------------------

TEST(Endpoint, ParsesSpecs) {
  auto unix_ep = ParseEndpoint("/tmp/vacd.sock");
  ASSERT_TRUE(unix_ep.ok());
  EXPECT_FALSE(unix_ep->tcp);
  EXPECT_EQ(unix_ep->path, "/tmp/vacd.sock");
  EXPECT_EQ(unix_ep->Spec(), "/tmp/vacd.sock");

  auto full = ParseEndpoint("tcp:10.0.0.8:8787");
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->tcp);
  EXPECT_EQ(full->host, "10.0.0.8");
  EXPECT_EQ(full->port, 8787);
  EXPECT_EQ(full->Spec(), "tcp:10.0.0.8:8787");

  auto shorthand = ParseEndpoint("tcp:9000");
  ASSERT_TRUE(shorthand.ok());
  EXPECT_TRUE(shorthand->tcp);
  EXPECT_EQ(shorthand->host, "127.0.0.1");  // loopback shorthand
  EXPECT_EQ(shorthand->port, 9000);

  EXPECT_FALSE(ParseEndpoint("").ok());
  EXPECT_FALSE(ParseEndpoint("tcp:").ok());
  EXPECT_FALSE(ParseEndpoint("tcp:host:notaport").ok());
  EXPECT_FALSE(ParseEndpoint("tcp:host:70000").ok());
}

TEST(FrameDecoder, ReassemblesSplitAndPipelinedFrames) {
  const std::string one = EncodeNetFrame("{\"op\":\"status\"}");
  const std::string two = EncodeNetFrame("payload-two");

  FrameDecoder decoder;
  std::string payload;
  // Byte-at-a-time delivery: no frame until the last byte arrives.
  for (size_t i = 0; i + 1 < one.size(); ++i) {
    decoder.Append(std::string_view(one).substr(i, 1));
    auto got = decoder.Next(&payload);
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(*got) << "frame complete too early at byte " << i;
  }
  decoder.Append(std::string_view(one).substr(one.size() - 1));
  auto got = decoder.Next(&payload);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(*got);
  EXPECT_EQ(payload, "{\"op\":\"status\"}");

  // Two pipelined frames in one append come out one at a time.
  decoder.Append(one + two);
  ASSERT_TRUE(*decoder.Next(&payload));
  EXPECT_EQ(payload, "{\"op\":\"status\"}");
  ASSERT_TRUE(*decoder.Next(&payload));
  EXPECT_EQ(payload, "payload-two");
  ASSERT_FALSE(*decoder.Next(&payload));
  EXPECT_EQ(decoder.buffered(), 0u);
}

// ---------------------------------------------------------------------
// The event-loop core: end to end, flow control and idle sweep on both
// listeners, drain, TCP_NODELAY
// ---------------------------------------------------------------------

VacdOptions TcpOptions(const std::string& socket_path) {
  VacdOptions options = Options(socket_path);
  options.tcp_host = "127.0.0.1";
  options.tcp_port = 0;  // ephemeral; read back via server.tcp_port()
  return options;
}

std::string TcpSpec(const VacdServer& server) {
  return "tcp:127.0.0.1:" + std::to_string(server.tcp_port());
}

// The client endpoint spec of one of the server's two listeners.
std::string ListenerSpec(const VacdServer& server,
                         const std::string& socket_path, bool tcp) {
  return tcp ? TcpSpec(server) : socket_path;
}

// A raw blocking connection to one of the server's two listeners, with a
// receive timeout so a misbehaving server fails the test, not hangs it.
int ConnectListener(const VacdServer& server, const std::string& socket_path,
                    bool tcp) {
  auto endpoint = ParseEndpoint(ListenerSpec(server, socket_path, tcp));
  EXPECT_TRUE(endpoint.ok());
  auto fd = DialEndpoint(*endpoint, /*deadline_ms=*/5000);
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  return fd.ok() ? *fd : -1;
}

const char* ListenerName(bool tcp) { return tcp ? "tcp" : "unix"; }

TEST(TcpServing, EndToEndOverEventLoop) {
  ScratchPath socket("delta_sync_tcp.sock");
  VacdServer server(vacstore::VaccineStore(), TcpOptions(socket.path()));
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.tcp_port(), 0);

  VacdClient tcp_client(TcpSpec(server));
  tcp_client.set_binary(true);
  // Push (a mutation: JSON, worker pool) then read back over the same
  // TCP endpoint in binary.
  PushEpochs(tcp_client, os::ResourceType::kMutex, "tcp", 3);
  auto query = tcp_client.Query(os::ResourceType::kMutex, "tcp1");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->matches.size(), 1u);
  auto pull = tcp_client.Pull(0);
  ASSERT_TRUE(pull.ok());
  EXPECT_EQ(pull->items.size(), 3u);

  // Quarantine over TCP (second mutation path), then confirm both
  // listeners serve the same bytes for a full pull.
  ASSERT_TRUE(tcp_client.Quarantine(pull->items[0].digest, "tcp").ok());
  VacdClient unix_client(socket.path());
  EXPECT_EQ(FullPullBytes(tcp_client), FullPullBytes(unix_client));

  // A delta-syncing mirror over TCP converges too.
  FeedMirror mirror;
  ASSERT_TRUE(mirror.SyncFrom(tcp_client, 1).ok());
  EXPECT_EQ(mirror.CanonicalJson(), FullPullBytes(unix_client));
}

TEST(TcpServing, PipelinedRequestsOnOneConnection) {
  ScratchPath socket("delta_sync_pipeline.sock");
  VacdServer server(vacstore::VaccineStore(), TcpOptions(socket.path()));
  ASSERT_TRUE(server.Start().ok());
  VacdClient unix_client(socket.path());
  PushEpochs(unix_client, os::ResourceType::kFile, "pipe", 2);

  for (const bool tcp : {true, false}) {
    SCOPED_TRACE(ListenerName(tcp));
    const int fd = ConnectListener(server, socket.path(), tcp);
    // Two status requests in one write: the decoder must split them and
    // both replies must come back in order.
    const std::string frame =
        EncodeNetFrame(RequestToJson(Request(StatusRequest{})));
    const std::string both = frame + frame;
    ASSERT_EQ(::send(fd, both.data(), both.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(both.size()));
    for (int i = 0; i < 2; ++i) {
      auto raw = ReadNetFrame(fd);
      ASSERT_TRUE(raw.ok()) << raw.status().ToString();
      auto reply = ParseReply(*raw);
      ASSERT_TRUE(reply.ok());
      const auto* status = std::get_if<StatusReply>(&reply.value());
      ASSERT_NE(status, nullptr);
      EXPECT_EQ(status->served, 2u);
    }
    ::close(fd);
  }
}

TEST(TcpServing, RateLimitShedsWithBusyOnOneConnection) {
  ScratchPath socket("delta_sync_rate.sock");
  VacdOptions options = TcpOptions(socket.path());
  options.rate_limit_rps = 0.001;  // effectively no refill in-test
  options.rate_limit_burst = 1.0;
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());

  for (const bool tcp : {true, false}) {
    SCOPED_TRACE(ListenerName(tcp));
    const int fd = ConnectListener(server, socket.path(), tcp);
    const std::string frame =
        EncodeNetFrame(RequestToJson(Request(StatusRequest{})));
    const std::string both = frame + frame;
    ASSERT_EQ(::send(fd, both.data(), both.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(both.size()));
    // First request spends the single token and succeeds...
    auto first = ReadNetFrame(fd);
    ASSERT_TRUE(first.ok());
    auto first_reply = ParseReply(*first);
    ASSERT_TRUE(first_reply.ok());
    EXPECT_NE(std::get_if<StatusReply>(&first_reply.value()), nullptr);
    // ...the second is shed with BUSY, and the connection stays usable.
    auto second = ReadNetFrame(fd);
    ASSERT_TRUE(second.ok());
    auto second_reply = ParseReply(*second);
    ASSERT_TRUE(second_reply.ok());
    const auto* error = std::get_if<ErrorReply>(&second_reply.value());
    ASSERT_NE(error, nullptr);
    EXPECT_TRUE(error->busy);
    ::close(fd);

    // A fresh connection gets a fresh bucket: limits are per client.
    VacdClient client(ListenerSpec(server, socket.path(), tcp));
    EXPECT_TRUE(client.Stats().ok());
  }
}

TEST(TcpServing, MaxConnectionsShedsAtAccept) {
  for (const bool tcp : {true, false}) {
    SCOPED_TRACE(ListenerName(tcp));
    ScratchPath socket("delta_sync_maxconn.sock");
    VacdOptions options = TcpOptions(socket.path());
    options.max_connections = 1;
    VacdServer server(vacstore::VaccineStore(), options);
    ASSERT_TRUE(server.Start().ok());

    // Occupy the only slot, and prove it is registered by completing a
    // round trip on it.
    const int held = ConnectListener(server, socket.path(), tcp);
    ASSERT_TRUE(
        WriteNetFrame(held, RequestToJson(Request(StatusRequest{}))).ok());
    ASSERT_TRUE(ReadNetFrame(held).ok());

    // The second connection is shed at accept with a best-effort BUSY
    // frame before close.
    const int shed = ConnectListener(server, socket.path(), tcp);
    auto raw = ReadNetFrame(shed);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    auto reply = ParseReply(*raw);
    ASSERT_TRUE(reply.ok());
    const auto* error = std::get_if<ErrorReply>(&reply.value());
    ASSERT_NE(error, nullptr);
    EXPECT_TRUE(error->busy);
    ::close(shed);
    ::close(held);
  }
}

TEST(TcpServing, IdleConnectionsAreSwept) {
  ScratchPath socket("delta_sync_idle.sock");
  VacdOptions options = TcpOptions(socket.path());
  options.idle_timeout_ms = 50;
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());

  int fds[2];
  for (const bool tcp : {true, false}) {
    const int fd = ConnectListener(server, socket.path(), tcp);
    ASSERT_TRUE(
        WriteNetFrame(fd, RequestToJson(Request(StatusRequest{}))).ok());
    ASSERT_TRUE(ReadNetFrame(fd).ok());
    fds[tcp ? 0 : 1] = fd;
  }
  // The sweep runs on the 500ms loop tick; well past one tick the
  // server must have closed both idle connections (clean EOF).
  std::this_thread::sleep_for(std::chrono::milliseconds(1300));
  for (const bool tcp : {true, false}) {
    SCOPED_TRACE(ListenerName(tcp));
    const int fd = fds[tcp ? 0 : 1];
    auto eof = ReadNetFrame(fd);
    EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
    ::close(fd);
  }
}

TEST(TcpServing, StopAnswersPushesAlreadyAtThePool) {
  // One push large enough that it is still parsing or applying when
  // Stop() runs: Stop() must keep the loop alive until its reply is out.
  std::vector<vaccine::Vaccine> batch;
  for (int i = 0; i < 5000; ++i) {
    batch.push_back(
        MakeVaccine(os::ResourceType::kMutex, "drain" + std::to_string(i)));
  }
  Counter* requests = GlobalMetrics().GetCounter("vacd.requests");
  for (const bool tcp : {true, false}) {
    SCOPED_TRACE(ListenerName(tcp));
    ScratchPath socket("delta_sync_drain.sock");
    VacdServer server(vacstore::VaccineStore(), TcpOptions(socket.path()));
    ASSERT_TRUE(server.Start().ok());
    const VacdClient client(ListenerSpec(server, socket.path(), tcp),
                            /*deadline_ms=*/30000);

    const uint64_t before = requests->value();
    Result<PushReply> pushed = Status::Internal("push never ran");
    std::thread pusher([&] { pushed = client.Push(batch); });
    // The frame has been decoded, so the push is at the pool (or about
    // to be) when Stop() begins.
    while (requests->value() == before) std::this_thread::yield();
    server.Stop();
    pusher.join();
    ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
    EXPECT_EQ(pushed->added, batch.size());
    EXPECT_EQ(server.store().served_count(), batch.size());
  }
}

TEST(TcpServing, PipelinedBurstsAreNotHeldByNagle) {
  ScratchPath socket("delta_sync_nagle.sock");
  VacdServer server(vacstore::VaccineStore(), TcpOptions(socket.path()));
  ASSERT_TRUE(server.Start().ok());
  const int fd = ConnectListener(server, socket.path(), /*tcp=*/true);

  bool encoded = false;
  const std::string frame = EncodeNetFrame(EncodeBinaryRequest(
      Request(QueryRequest{os::ResourceType::kMutex, "absent"}), &encoded));
  ASSERT_TRUE(encoded);
  std::string burst;
  for (int i = 0; i < 4; ++i) burst += frame;

  // Each reply is its own send; without TCP_NODELAY every reply after the
  // first waits for the client's delayed ACK (~40 ms per burst).
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < 50; ++round) {
    ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(burst.size()));
    for (int i = 0; i < 4; ++i) {
      auto raw = ReadNetFrame(fd);
      ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    }
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  ::close(fd);
}

TEST(FrameDecoder, RejectsBadMagic) {
  FrameDecoder decoder;
  decoder.Append("XXXXXXXXXXXX");
  std::string payload;
  auto got = decoder.Next(&payload);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace autovac::net
