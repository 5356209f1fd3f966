// The network front door's determinism proof: replaying a scenario corpus
// over loopback TCP — framed with the full event envelope, written with
// adversarial byte splits — or over loopback UDP, one line per datagram,
// must produce BYTE-IDENTICAL detected-event streams and dead-letter
// ledgers to in-process `IngestBatch`, for the sequential pipeline and for
// every shard count. The wire is then just a transport; it can never
// change what the system computes.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/sharded_pipeline.h"
#include "net/tcp_ingest_server.h"
#include "net/udp_ingest_server.h"
#include "sim/scenario.h"
#include "sim/world.h"
#include "stream/frame.h"

namespace marlin {
namespace {

const World& SharedWorld() {
  static World world = World::Basin();
  return world;
}

ScenarioOutput MakeScenario(uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.duration = 45 * kMillisPerMinute;
  config.transit_vessels = 10;
  config.fishing_vessels = 3;
  config.loiter_vessels = 2;
  config.rendezvous_pairs = 2;
  config.dark_vessels = 1;
  config.spoof_identity_vessels = 1;
  config.perfect_reception = false;  // multi-receiver, garbled lines included
  return GenerateScenario(SharedWorld(), config);
}

PipelineConfig TestConfig() {
  PipelineConfig pc;
  pc.window_lines = 512;
  return pc;
}

auto EventKey(const DetectedEvent& ev) {
  return std::make_tuple(ev.detected_at, ev.vessel_a, ev.vessel_b,
                         static_cast<int>(ev.type), ev.start, ev.end,
                         ev.zone_id, ev.severity, ev.where.lat, ev.where.lon);
}

void ExpectIdenticalEvents(const std::vector<DetectedEvent>& reference,
                           const std::vector<DetectedEvent>& via_net) {
  ASSERT_EQ(reference.size(), via_net.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(EventKey(reference[i]), EventKey(via_net[i]))
        << "event mismatch at index " << i;
  }
}

void ExpectIdenticalLedgers(const std::vector<DeadLetter>& reference,
                            const std::vector<DeadLetter>& via_net) {
  ASSERT_EQ(reference.size(), via_net.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].reason, via_net[i].reason) << "index " << i;
    EXPECT_EQ(reference[i].payload, via_net[i].payload) << "index " << i;
    EXPECT_EQ(reference[i].ingest_time, via_net[i].ingest_time)
        << "index " << i;
  }
}

// Replays the corpus through a loopback TCP connection in kFrames mode
// with adversarial write-chunk splits, returning the events the server
// reassembled, in arrival order.
std::vector<Event<std::string>> ReplayOverLoopback(
    const std::vector<Event<std::string>>& corpus, uint64_t split_seed) {
  TcpIngestOptions options;
  options.mode = WireMode::kFrames;
  TcpIngestServer server(options);
  EXPECT_TRUE(server.Start().ok());

  std::string wire;
  for (const Event<std::string>& ev : corpus) AppendLineFrame(ev, &wire);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Adversarial chunking: xorshift-driven sizes biased tiny, so frames
  // straddle every kind of boundary (mid-magic, mid-length, mid-CRC).
  uint64_t rng = split_seed ? split_seed : 1;
  size_t off = 0;
  while (off < wire.size()) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    const size_t n = std::min<size_t>(1 + rng % 37, wire.size() - off);
    size_t sent = 0;
    while (sent < n) {
      const ssize_t w = ::send(fd, wire.data() + off + sent, n - sent, 0);
      EXPECT_GT(w, 0);
      sent += static_cast<size_t>(w);
    }
    off += n;
  }
  ::close(fd);
  EXPECT_TRUE(server.WaitForConnectionsClosed(1, 30000));
  server.Stop();

  std::vector<Event<std::string>> received;
  server.DrainLines(&received);
  // The transport itself must be fault-free on a clean corpus.
  EXPECT_EQ(server.dead_letters().stats().total(), 0u);
  EXPECT_EQ(server.stats().bad_frames, 0u);
  return received;
}

// The envelope-carrying frame makes loopback replay a faithful identity:
// the received event sequence IS the corpus, byte for byte.
TEST(NetEquivalenceTest, LoopbackReplayReconstructsCorpusExactly) {
  const ScenarioOutput scenario = MakeScenario(7001);
  ASSERT_GT(scenario.nmea.size(), 0u);
  const auto received = ReplayOverLoopback(scenario.nmea, 0xFEED);
  ASSERT_EQ(received.size(), scenario.nmea.size());
  for (size_t i = 0; i < received.size(); ++i) {
    EXPECT_EQ(received[i].event_time, scenario.nmea[i].event_time)
        << "index " << i;
    EXPECT_EQ(received[i].ingest_time, scenario.nmea[i].ingest_time)
        << "index " << i;
    EXPECT_EQ(received[i].source_id, scenario.nmea[i].source_id)
        << "index " << i;
    EXPECT_EQ(received[i].payload, scenario.nmea[i].payload) << "index " << i;
  }
}

// Garbles a deterministic sample of lines (checksum-breaking byte flips)
// so the corpus exercises the dead-letter path on both arms.
void GarbleSomeLines(std::vector<Event<std::string>>* corpus) {
  for (size_t i = 7; i < corpus->size(); i += 97) {
    std::string& line = (*corpus)[i].payload;
    if (!line.empty()) line[line.size() / 2] ^= 0x15;
  }
}

// Three scenario worlds, each replayed over the wire and fed to the
// sequential pipeline: events and dead-letter ledgers must match the
// in-process arm exactly.
TEST(NetEquivalenceTest, SequentialPipelineMatchesInProcessIngest) {
  const uint64_t seeds[] = {7101, 7102, 7103};
  uint64_t split_seed = 0xA11CE;
  for (uint64_t seed : seeds) {
    ScenarioOutput scenario = MakeScenario(seed);
    GarbleSomeLines(&scenario.nmea);
    const PipelineConfig pc = TestConfig();

    MaritimePipeline in_process(pc, &SharedWorld().zones(), nullptr, nullptr,
                                nullptr);
    auto ref_events = in_process.IngestBatch(scenario.nmea);
    const auto ref_tail = in_process.Finish();
    ref_events.insert(ref_events.end(), ref_tail.begin(), ref_tail.end());
    std::vector<DeadLetter> ref_ledger;
    in_process.DrainDeadLetters(&ref_ledger);

    const auto received = ReplayOverLoopback(scenario.nmea, split_seed++);
    MaritimePipeline via_net(pc, &SharedWorld().zones(), nullptr, nullptr,
                             nullptr);
    auto net_events = via_net.IngestBatch(received);
    const auto net_tail = via_net.Finish();
    net_events.insert(net_events.end(), net_tail.begin(), net_tail.end());
    std::vector<DeadLetter> net_ledger;
    via_net.DrainDeadLetters(&net_ledger);

    ASSERT_GT(ref_events.size(), 0u) << "seed " << seed;
    ExpectIdenticalEvents(ref_events, net_events);
    ASSERT_GT(ref_ledger.size(), 0u)
        << "imperfect-reception corpus should reject some lines";
    ExpectIdenticalLedgers(ref_ledger, net_ledger);
    EXPECT_EQ(in_process.metrics().decoder.messages_out,
              via_net.metrics().decoder.messages_out);
    EXPECT_EQ(in_process.metrics().alerts, via_net.metrics().alerts);
  }
}

// Same proof across shard counts: the wire transport composes with
// parallelism — N shards fed from the network match N shards fed
// in-process, which in turn match the sequential reference.
TEST(NetEquivalenceTest, ShardedPipelineMatchesAcrossShardCounts) {
  ScenarioOutput scenario = MakeScenario(7201);
  GarbleSomeLines(&scenario.nmea);
  const PipelineConfig pc = TestConfig();
  const auto received = ReplayOverLoopback(scenario.nmea, 0xB0B);

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    ShardedPipeline::Options opts;
    opts.num_shards = shards;

    ShardedPipeline in_process(pc, opts, &SharedWorld().zones(), nullptr,
                               nullptr, nullptr);
    auto ref_events = in_process.IngestBatch(scenario.nmea);
    const auto ref_tail = in_process.Finish();
    ref_events.insert(ref_events.end(), ref_tail.begin(), ref_tail.end());
    std::vector<DeadLetter> ref_ledger;
    in_process.DrainDeadLetters(&ref_ledger);

    ShardedPipeline via_net(pc, opts, &SharedWorld().zones(), nullptr,
                            nullptr, nullptr);
    auto net_events = via_net.IngestBatch(received);
    const auto net_tail = via_net.Finish();
    net_events.insert(net_events.end(), net_tail.begin(), net_tail.end());
    std::vector<DeadLetter> net_ledger;
    via_net.DrainDeadLetters(&net_ledger);

    ASSERT_GT(ref_events.size(), 0u) << "shards " << shards;
    ExpectIdenticalEvents(ref_events, net_events);
    ExpectIdenticalLedgers(ref_ledger, net_ledger);
  }
}

// Replays the corpus over loopback UDP, one line per datagram, returning
// the lines the server received, in arrival order. A datagram carries no
// envelope, so the server's clock replays the corpus's arrival clock: it
// is read once per datagram, on the server thread, in arrival order. The
// sender waits for every burst to be received before it sends the next,
// so the socket buffer never overflows and no datagram is lost.
std::vector<Event<std::string>> ReplayOverUdp(
    const std::vector<Event<std::string>>& corpus) {
  constexpr size_t kBurst = 32;
  size_t stamped = 0;  // server thread only, until Stop() joins it
  UdpIngestOptions options;
  options.clock = [&corpus, &stamped] {
    return stamped < corpus.size() ? corpus[stamped++].ingest_time
                                   : kInvalidTimestamp;
  };
  UdpIngestServer server(options);
  EXPECT_TRUE(server.Start().ok());

  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::string gram;
  for (size_t i = 0; i < corpus.size(); ++i) {
    gram = corpus[i].payload + "\r\n";
    EXPECT_EQ(::sendto(fd, gram.data(), gram.size(), 0,
                       reinterpret_cast<struct sockaddr*>(&addr),
                       sizeof(addr)),
              static_cast<ssize_t>(gram.size()));
    if ((i + 1) % kBurst == 0 || i + 1 == corpus.size()) {
      EXPECT_TRUE(server.WaitForDatagrams(i + 1, 30000)) << "datagram " << i;
    }
  }
  ::close(fd);
  server.Stop();

  EXPECT_EQ(stamped, corpus.size());
  std::vector<Event<std::string>> received;
  server.DrainLines(&received);
  std::vector<DeadLetter> transport_rejects;
  EXPECT_EQ(server.DrainDeadLetters(&transport_rejects), 0u);
  EXPECT_EQ(server.stats().datagrams, corpus.size());
  return received;
}

// Ingests `lines` as one batch, finishes, and drains the dead-letter
// ledger: the events and ledger one arm of an equivalence proof compares.
template <typename Pipeline>
std::pair<std::vector<DetectedEvent>, std::vector<DeadLetter>> IngestAll(
    Pipeline* pipeline, const std::vector<Event<std::string>>& lines) {
  auto events = pipeline->IngestBatch(lines);
  const auto tail = pipeline->Finish();
  events.insert(events.end(), tail.begin(), tail.end());
  std::vector<DeadLetter> ledger;
  pipeline->DrainDeadLetters(&ledger);
  return {std::move(events), std::move(ledger)};
}

// The UDP front door (one line per datagram) against in-process ingest:
// the received lines are the corpus's payloads at its arrival times, and
// the sequential pipeline and every shard count see identical events and
// dead-letter ledgers. All datagrams come from one peer, so every line
// carries one source id; TestConfig leaves `fragment_group_by_source` off,
// so the corpus's receiver ids do not enter the decode.
TEST(NetEquivalenceTest, UdpDatagramsMatchInProcessIngest) {
  ScenarioOutput scenario = MakeScenario(7301);
  GarbleSomeLines(&scenario.nmea);
  const PipelineConfig pc = TestConfig();
  ASSERT_FALSE(pc.fragment_group_by_source);
  const auto received = ReplayOverUdp(scenario.nmea);
  ASSERT_EQ(received.size(), scenario.nmea.size());
  for (size_t i = 0; i < received.size(); ++i) {
    EXPECT_EQ(received[i].payload, scenario.nmea[i].payload) << "index " << i;
    EXPECT_EQ(received[i].ingest_time, scenario.nmea[i].ingest_time)
        << "index " << i;
  }

  MaritimePipeline in_process(pc, &SharedWorld().zones(), nullptr, nullptr,
                              nullptr);
  MaritimePipeline via_net(pc, &SharedWorld().zones(), nullptr, nullptr,
                           nullptr);
  const auto [ref_events, ref_ledger] = IngestAll(&in_process, scenario.nmea);
  const auto [net_events, net_ledger] = IngestAll(&via_net, received);
  ASSERT_GT(ref_events.size(), 0u);
  ASSERT_GT(ref_ledger.size(), 0u)
      << "imperfect-reception corpus should reject some lines";
  ExpectIdenticalEvents(ref_events, net_events);
  ExpectIdenticalLedgers(ref_ledger, net_ledger);

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "shards " << shards);
    ShardedPipeline::Options opts;
    opts.num_shards = shards;
    ShardedPipeline shard_in_process(pc, opts, &SharedWorld().zones(),
                                     nullptr, nullptr, nullptr);
    ShardedPipeline shard_via_net(pc, opts, &SharedWorld().zones(), nullptr,
                                  nullptr, nullptr);
    const auto [shard_events, shard_ledger] =
        IngestAll(&shard_in_process, scenario.nmea);
    const auto [shard_net_events, shard_net_ledger] =
        IngestAll(&shard_via_net, received);
    ASSERT_GT(shard_events.size(), 0u);
    ExpectIdenticalEvents(shard_events, shard_net_events);
    ExpectIdenticalLedgers(shard_ledger, shard_net_ledger);
  }
}

}  // namespace
}  // namespace marlin
