// marlin_bench — one workload of the end-to-end MARLIN benchmark, run in
// its own process so that its peak RSS is its own.
//
//   marlin_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// With --trace 0 it measures the production `ShardedPipeline` from outside
// (end-to-end metrics); with --trace 1 it runs the traced decomposition of
// decomposition.h plus one untraced pass for the layer counters (per-layer
// metrics). Human-readable lines come first; the last stdout line is one
// JSON object that run.py checks and reformats. README.md defines every
// metric and says why each workload exists.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "context/weather.h"
#include "core/pipeline.h"
#include "core/query_engine.h"
#include "core/sharded_pipeline.h"
#include "corpus.h"
#include "decomposition.h"
#include "e2e.h"
#include "net/tcp_ingest_server.h"
#include "sim/world.h"
#include "stream/frame.h"

namespace marlin::e2e {
namespace {

struct Args {
  const char* self = nullptr;  ///< argv[0], to start the generator child
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 2;
  double seconds = 18.0;
  bool trace = false;
  bool generate = false;  ///< be the generator child (corpus.h)
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  args->self = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (value == w.name) args->spec = &w;
      }
      if (args->spec == nullptr) {
        *error = "unknown workload " + value;
        return false;
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0.0)) end = nullptr;
    } else if (flag == "--trace") {
      args->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (flag == "--generate") {
      args->generate = std::strtol(value.c_str(), &end, 10) != 0;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (flag != "--workload" && (end == nullptr || *end != '\0')) {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->spec == nullptr) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

double Ms(SteadyClock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// ---------------------------------------------------------------------------
// Result reporting.

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class Report {
 public:
  /// Value = median of the samples; quartiles and count alongside.
  void Samples(const std::string& name, const std::string& unit,
               const std::vector<double>& samples) {
    Add(name, unit, Summarize(samples));
  }
  /// Value = `value`; quartiles over per-pass figures (`per_pass`).
  void Pooled(const std::string& name, const std::string& unit, double value,
              size_t n, const std::vector<double>& per_pass) {
    Summary s = Summarize(per_pass);
    s.median = value;
    s.n = n;
    Add(name, unit, s);
  }
  void Value(const std::string& name, const std::string& unit, double value) {
    Add(name, unit, Summary{value, value, value, 1});
  }
  void Problem(const std::string& what) {
    problems_.push_back(what);
    std::printf("PROBLEM: %s\n", what.c_str());
  }
  bool correct() const { return problems_.empty(); }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool complete = true;  ///< the whole corpus was fed (digest comparable)
  uint64_t digest = 0;
  std::array<uint64_t, 4> query_rows{};

  void Print(const Args& args) const {
    std::string json = "{\"workload\": " + JsonString(args.spec->name) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"correct\": " + (correct() ? "true" : "false") +
                       ", \"complete\": " + (complete ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"digest\": " + JsonString(Hex(digest)) +
                       ", \"query_rows\": [";
    for (size_t i = 0; i < query_rows.size(); ++i) {
      json += (i ? ", " : "") + std::to_string(query_rows[i]);
    }
    json += "], \"problems\": [";
    for (size_t i = 0; i < problems_.size(); ++i) {
      json += (i ? ", " : "") + JsonString(problems_[i]);
    }
    json += "], \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, unit, s] = metrics_[i];
      json += (i ? ", " : "") + JsonString(name) +
              ": {\"value\": " + JsonNumber(s.median) +
              ", \"unit\": " + JsonString(unit) +
              ", \"q1\": " + JsonNumber(s.q1) +
              ", \"q3\": " + JsonNumber(s.q3) +
              ", \"n\": " + std::to_string(s.n) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    std::string unit;
    Summary s;
  };
  void Add(const std::string& name, const std::string& unit, Summary s) {
    std::printf("  %-40s %14.6g %-8s [q1 %.6g, q3 %.6g, n %zu]\n",
                name.c_str(), s.median, unit.c_str(), s.q1, s.q3, s.n);
    metrics_.push_back({name, unit, s});
  }
  std::vector<Entry> metrics_;
  std::vector<std::string> problems_;
};

// ---------------------------------------------------------------------------
// Query batteries. Four shapes, cycled: full scan, middle-half time range,
// region (world bounds shrunk by 20%), every third MMSI. The archive form
// runs through `QueryEngine`; workloads without an archive serve the same
// shapes from the live trajectory store.

struct Battery {
  std::array<QuerySpec, 4> archive;
  BoundingBox everywhere{-90.0, -180.0, 90.0, 180.0};
  BoundingBox region;
  Timestamp mid_t0 = 0;
  Timestamp mid_t1 = 0;
};

Battery MakeBattery(const World& world, const Corpus& corpus) {
  Battery b;
  const BoundingBox bounds = world.Bounds();
  const double lat_pad = (bounds.max_lat - bounds.min_lat) * 0.1;
  const double lon_pad = (bounds.max_lon - bounds.min_lon) * 0.1;
  b.region = BoundingBox(bounds.min_lat + lat_pad, bounds.min_lon + lon_pad,
                         bounds.max_lat - lat_pad, bounds.max_lon - lon_pad);
  const DurationMs span = corpus.end - corpus.start;
  b.mid_t0 = corpus.start + span / 4;
  b.mid_t1 = corpus.start + 3 * span / 4;
  b.archive[1].t0 = b.mid_t0;
  b.archive[1].t1 = b.mid_t1;
  b.archive[2].region = b.region;
  for (size_t i = 0; i < corpus.fleet.size(); i += 3) {
    b.archive[3].vessels.push_back(corpus.fleet[i]);
  }
  return b;
}

/// One live-store query of shape `which`; returns rows (points) and mixes
/// them into `h`. `Store` is `TrajectoryStore` or its partitioned view.
template <typename Store>
uint64_t LiveQuery(const Store& store, const Battery& b, size_t which,
                   Fnv1a* h) {
  uint64_t rows = 0;
  const auto mix = [&](const Trajectory& traj) {
    for (const TrajectoryPoint& p : traj.points) MixPoint(traj.mmsi, p, h);
    rows += traj.points.size();
  };
  switch (which) {
    case 0:
      for (const Trajectory& t :
           store.QueryWindow(b.everywhere, kInvalidTimestamp, kMaxTimestamp)) {
        mix(t);
      }
      break;
    case 1:
      for (const Trajectory& t :
           store.QueryWindow(b.everywhere, b.mid_t0, b.mid_t1)) {
        mix(t);
      }
      break;
    case 2:
      for (const Trajectory& t :
           store.QueryWindow(b.region, kInvalidTimestamp, kMaxTimestamp)) {
        mix(t);
      }
      break;
    default:
      for (const Mmsi m : b.archive[3].vessels) {
        const auto slice =
            store.GetTrajectorySlice(m, kInvalidTimestamp, kMaxTimestamp);
        if (slice.ok()) mix(*slice);
      }
      break;
  }
  return rows;
}

uint64_t ArchiveQuery(const QueryEngine& engine, const Battery& b,
                      size_t which, Fnv1a* h, QueryStats* stats) {
  const QueryResult result = engine.Execute(b.archive[which]);
  for (const QueryRow& r : result.rows) MixRow(r, h);
  if (stats != nullptr) stats->Merge(result.stats);
  return result.rows.size();
}

/// The battery's four row counts and one digest over all returned rows.
struct BatteryOutcome {
  std::array<uint64_t, 4> rows{};
  uint64_t digest = 0;
  bool operator==(const BatteryOutcome&) const = default;
};

template <typename Query>
BatteryOutcome RunBattery(Query&& query) {
  BatteryOutcome out;
  Fnv1a h;
  for (size_t i = 0; i < out.rows.size(); ++i) out.rows[i] = query(i, &h);
  out.digest = h.value();
  return out;
}

/// archive_soak's reader: query k waits until ingest has passed k/96 of the
/// corpus, so every run queries the same archive sizes whatever the ingest
/// rate; a slow reader just runs behind.
class ArchiveReader {
 public:
  ArchiveReader(const ShardedPipeline& pipeline, const Battery& battery,
                size_t total_lines)
      : engine_(pipeline.archive_view()),
        battery_(battery),
        total_(total_lines),
        thread_([this] { Loop(); }) {}
  ~ArchiveReader() { Join(); }

  ArchiveReader(const ArchiveReader&) = delete;
  ArchiveReader& operator=(const ArchiveReader&) = delete;

  void Advance(size_t ingested) {
    ingested_.store(ingested, std::memory_order_release);
    ingested_.notify_one();
  }
  void Join() {
    Advance(total_);
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  const QueryStats& stats() const { return stats_; }

 private:
  void Loop() {
    for (size_t k = 1; k <= kQueriesPerPass; ++k) {
      const size_t need = k * total_ / kQueriesPerPass;
      size_t seen = ingested_.load(std::memory_order_acquire);
      while (seen < need) {
        ingested_.wait(seen, std::memory_order_acquire);
        seen = ingested_.load(std::memory_order_acquire);
      }
      Fnv1a sink;
      const auto t0 = SteadyClock::now();
      ArchiveQuery(engine_, battery_, (k - 1) % 4, &sink, &stats_);
      latencies_ms_.push_back(Ms(SteadyClock::now() - t0));
    }
  }

  QueryEngine engine_;
  const Battery& battery_;
  const size_t total_;
  std::atomic<size_t> ingested_{0};
  std::vector<double> latencies_ms_;
  QueryStats stats_;
  std::thread thread_;  // last: starts once the members above exist
};

// ---------------------------------------------------------------------------
// Setup: world, corpus (generator child), wire image, pipeline.

struct Inputs {
  std::unique_ptr<World> world;
  Corpus corpus;
  size_t lines = 0;  ///< lines fed per pass (a prefix when the feed is short)
  std::string wire;  ///< kLine frames, open loop only
  std::vector<size_t> frame_end;
  std::vector<uint32_t> closing;  ///< indices of lines that close a window
  Battery battery;
};

std::vector<uint32_t> ClosingLines(const PipelineConfig& config,
                                   std::span<const Event<std::string>> lines) {
  std::vector<uint32_t> out;
  size_t count = 0;
  Timestamp first = kInvalidTimestamp;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (count == 0) first = lines[i].ingest_time;
    ++count;
    if (WindowMustClose(config, count, first, lines[i].ingest_time)) {
      out.push_back(static_cast<uint32_t>(i));
      count = 0;
    }
  }
  return out;
}

ShardedPipeline::Options ShardOptions(size_t shards) {
  ShardedPipeline::Options options;
  options.num_shards = shards;
  return options;
}

/// Builds everything a pass needs and constructs (then discards) one
/// pipeline; returns the elapsed seconds, or a negative value on failure.
double Setup(const Args& args, const WeatherProvider& weather, Inputs* in,
             std::string* error) {
  const WorkloadSpec& spec = *args.spec;
  const auto t0 = SteadyClock::now();
  in->world = std::make_unique<World>(World::Basin());
  // The zone index is built lazily by the first lookup, and the shard and
  // enrichment workers would race to build it: build it before any starts.
  in->world->zones().Build();
  if (!GenerateCorpus(args.self,
                      {"--workload", spec.name, "--seed",
                       std::to_string(args.seed)},
                      &in->corpus, error)) {
    return -1.0;
  }
  in->lines = in->corpus.lines.size();
  if (spec.open_loop) {
    in->lines = std::min(in->lines, static_cast<size_t>(args.seconds * kLiveRate));
    in->wire.clear();
    in->frame_end.clear();
    for (size_t i = 0; i < in->lines; ++i) {
      AppendLineFrame(in->corpus.lines[i], &in->wire);
      in->frame_end.push_back(in->wire.size());
    }
  }
  const PipelineConfig config = MakePipelineConfig(spec);
  in->closing = ClosingLines(
      config, std::span(in->corpus.lines).subspan(0, in->lines));
  in->battery = MakeBattery(*in->world, in->corpus);
  {
    ShardedPipeline pipeline(config, ShardOptions(spec.shards),
                             &in->world->zones(), &weather, nullptr, nullptr);
  }
  return SecondsBetween(t0, SteadyClock::now());
}

// ---------------------------------------------------------------------------
// One pass of the production pipeline over the corpus.

struct Pass {
  double wall_s = 0.0;  ///< first IngestBatch → Finish returned
  double cpu_s = 0.0;   ///< process CPU over the same interval
  size_t lines = 0;     ///< lines the pipeline ingested
  uint64_t digest = 0;
  BatteryOutcome battery;  ///< the query battery once more after Finish
  std::vector<double> emit_ms;
  std::vector<double> query_ms;
  QueryStats query_stats;
  PipelineMetrics metrics;
  // Closed loop only: the pass cut at the return of each IngestBatch and of
  // Finish, as wall and process CPU seconds; the pieces sum to wall_s and
  // cpu_s.
  std::vector<double> call_s;
  std::vector<double> call_cpu_s;
  // Open loop only.
  NetIngestStats net;
  double drain_s = 0.0;
  std::vector<double> late_ms;
  size_t backlog_max = 0;
};

/// Live-store queries timed after each non-archive pass: with five or more
/// passes a run pools at least 200 samples (p95 with ten beyond it).
constexpr size_t kLiveQueriesPerPass = 40;

void AfterFinish(const WorkloadSpec& spec, const ShardedPipeline& pipeline,
                 const Battery& battery, bool timed_queries, Pass* pass) {
  pass->metrics = pipeline.metrics();
  if (spec.archive) {
    QueryEngine engine(pipeline.archive_view());
    pass->battery = RunBattery([&](size_t i, Fnv1a* h) {
      return ArchiveQuery(engine, battery, i, h, nullptr);
    });
    return;
  }
  const PartitionedTrajectoryView view = pipeline.store_view();
  pass->battery = RunBattery(
      [&](size_t i, Fnv1a* h) { return LiveQuery(view, battery, i, h); });
  if (!timed_queries) return;
  for (size_t q = 0; q < kLiveQueriesPerPass; ++q) {
    Fnv1a sink;
    const auto t0 = SteadyClock::now();
    LiveQuery(view, battery, q % 4, &sink);
    pass->query_ms.push_back(Ms(SteadyClock::now() - t0));
  }
}

/// Stands in for the consumer of the enriched stream. Without one the
/// pipeline buffers enriched points for a drain nobody calls and evicts
/// them, and the evictions would read as enrichment drops.
EnrichedSink CountingSink(std::atomic<uint64_t>* delivered) {
  return [delivered](const EnrichedPoint&) {
    delivered->fetch_add(1, std::memory_order_relaxed);
  };
}

Pass ClosedLoopPass(const WorkloadSpec& spec, size_t shards,
                    const PipelineConfig& config, const Inputs& in,
                    const WeatherProvider& weather, bool timed_queries) {
  Pass pass;
  std::atomic<uint64_t> enriched{0};
  ShardedPipeline pipeline(config, ShardOptions(shards), &in.world->zones(),
                           &weather, nullptr, nullptr);
  pipeline.SetEnrichedSink(CountingSink(&enriched));
  std::optional<ArchiveReader> reader;
  if (spec.archive && timed_queries) {
    reader.emplace(pipeline, in.battery, in.lines);
  }
  const std::span<const Event<std::string>> all =
      std::span(in.corpus.lines).subspan(0, in.lines);
  Fnv1a digest;
  size_t next_close = 0;
  const double cpu0 = ProcessCpuSeconds();
  const auto t0 = SteadyClock::now();
  auto mark = t0;
  double cpu_mark = cpu0;
  const auto cut = [&] {
    const auto now = SteadyClock::now();
    const double cpu = ProcessCpuSeconds();
    pass.call_s.push_back(SecondsBetween(mark, now));
    pass.call_cpu_s.push_back(cpu - cpu_mark);
    mark = now;
    cpu_mark = cpu;
    return now;
  };
  for (size_t i = 0; i < all.size(); i += kBatchLines) {
    const size_t n = std::min(kBatchLines, all.size() - i);
    const auto start = SteadyClock::now();
    const std::vector<DetectedEvent> events =
        pipeline.IngestBatch(all.subspan(i, n));
    const auto ret = cut();
    for (; next_close < in.closing.size() && in.closing[next_close] < i + n;
         ++next_close) {
      pass.emit_ms.push_back(Ms(ret - start));
    }
    MixEvents(events, &digest);
    if (reader) reader->Advance(i + n);
  }
  MixEvents(pipeline.Finish(), &digest);
  cut();
  pass.wall_s = SecondsBetween(t0, mark);
  pass.cpu_s = cpu_mark - cpu0;
  pass.lines = all.size();
  pass.digest = digest.value();
  if (reader) {
    reader->Join();
    pass.query_ms = reader->latencies_ms();
    pass.query_stats = reader->stats();
  }
  AfterFinish(spec, pipeline, in.battery, timed_queries, &pass);
  return pass;
}

/// Sends the wire image over one loopback connection on a fixed schedule:
/// line i is due at t0 + i / kLiveRate. Records how late each line left.
void SendOnSchedule(uint16_t port, const Inputs& in,
                    SteadyClock::time_point t0, SteadyClock::duration period,
                    std::vector<double>* late_ms, std::atomic<bool>* ok) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd >= 0) ::close(fd);
    ok->store(false);
    return;
  }
  const size_t n = in.lines;
  size_t sent = 0;
  while (sent < n) {
    const auto now = SteadyClock::now();
    if (now < t0 + period * sent) {
      std::this_thread::sleep_until(t0 + period * sent);
      continue;
    }
    const size_t upto =
        std::min(n, static_cast<size_t>((now - t0) / period) + 1);
    size_t off = sent == 0 ? 0 : in.frame_end[sent - 1];
    const size_t stop = in.frame_end[upto - 1];
    while (off < stop) {
      const ssize_t w = ::send(fd, in.wire.data() + off, stop - off, 0);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) {
        ok->store(false);
        ::close(fd);
        return;
      }
      off += static_cast<size_t>(w);
    }
    const auto after = SteadyClock::now();
    for (size_t i = sent; i < upto; ++i) {
      (*late_ms)[i] = Ms(after - (t0 + period * i));
    }
    sent = upto;
  }
  ::close(fd);
}

Pass OpenLoopPass(const WorkloadSpec& spec, const PipelineConfig& config,
                  const Inputs& in, const WeatherProvider& weather,
                  Report* report) {
  Pass pass;
  TcpIngestOptions options;
  options.mode = WireMode::kFrames;
  TcpIngestServer server(options);
  const Status started = server.Start();
  if (!started.ok()) {
    report->Problem("ingest server failed to start: " + started.ToString());
    return pass;
  }
  std::atomic<uint64_t> enriched{0};
  ShardedPipeline pipeline(config, ShardOptions(spec.shards),
                           &in.world->zones(), &weather, nullptr, nullptr);
  pipeline.SetEnrichedSink(CountingSink(&enriched));
  const size_t n = in.lines;
  const auto period = std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double>(1.0 / kLiveRate));
  const auto t0 = SteadyClock::now() + std::chrono::milliseconds(20);
  pass.late_ms.assign(n, 0.0);
  std::atomic<bool> sender_ok{true};
  // jthread: joined on every way out of this function, before the data it
  // writes (`pass.late_ms`, `sender_ok`) goes away.
  std::jthread sender(SendOnSchedule, server.port(), std::cref(in), t0,
                      period, &pass.late_ms, &sender_ok);

  Fnv1a digest;
  std::vector<Event<std::string>> batch;
  size_t ingested = 0;
  size_t next_close = 0;
  bool began = false;
  double cpu0 = 0.0;
  auto first_call = SteadyClock::now();
  auto last_progress = SteadyClock::now();
  auto next_poll = SteadyClock::now();
  while (ingested < n) {
    batch.clear();
    const auto poll = SteadyClock::now();
    const size_t got = server.DrainLines(&batch);
    const auto drained = SteadyClock::now();
    pass.drain_s += SecondsBetween(poll, drained);
    if (got > 0) {
      if (!began) {
        began = true;
        first_call = drained;
        cpu0 = ProcessCpuSeconds();
      }
      const std::vector<DetectedEvent> events = pipeline.IngestBatch(batch);
      const auto ret = SteadyClock::now();
      for (; next_close < in.closing.size() &&
             in.closing[next_close] < ingested + got;
           ++next_close) {
        pass.emit_ms.push_back(Ms(ret - (t0 + period * in.closing[next_close])));
      }
      MixEvents(events, &digest);
      ingested += got;
      last_progress = ret;
    } else if (!sender_ok.load() ||
               drained - last_progress > std::chrono::seconds(10)) {
      break;
    }
    const auto now = SteadyClock::now();
    if (now > t0) {
      const size_t due = std::min(n, static_cast<size_t>((now - t0) / period) + 1);
      pass.backlog_max = std::max(pass.backlog_max, due - std::min(due, ingested));
    }
    next_poll += kPollPeriod;
    if (next_poll > now) {
      std::this_thread::sleep_until(next_poll);
    } else {
      next_poll = now;
    }
  }
  MixEvents(pipeline.Finish(), &digest);
  pass.wall_s = SecondsBetween(first_call, SteadyClock::now());
  pass.cpu_s = ProcessCpuSeconds() - cpu0;
  sender.join();
  pass.net = server.stats();
  server.Stop();
  pass.lines = ingested;
  pass.digest = digest.value();
  if (!sender_ok.load()) report->Problem("loopback sender failed");
  if (ingested != n) {
    report->Problem("open loop delivered " + std::to_string(ingested) +
                    " of " + std::to_string(n) + " lines");
  }
  AfterFinish(spec, pipeline, in.battery, /*timed_queries=*/true, &pass);
  return pass;
}

Pass WorkloadPass(const Args& args, const PipelineConfig& config,
                  const Inputs& in, const WeatherProvider& weather,
                  Report* report) {
  return args.spec->open_loop
             ? OpenLoopPass(*args.spec, config, in, weather, report)
             : ClosedLoopPass(*args.spec, args.spec->shards, config, in,
                              weather, /*timed_queries=*/true);
}

// ---------------------------------------------------------------------------
// Output checks.

/// The sequential reference (`MaritimePipeline`) over the same lines: its
/// event digest and query battery are what every pass must reproduce.
struct Reference {
  uint64_t digest = 0;
  BatteryOutcome battery;
};

Reference RunReference(const WorkloadSpec& spec, const PipelineConfig& config,
                       const Inputs& in, const WeatherProvider& weather) {
  MaritimePipeline pipeline(config, &in.world->zones(), &weather, nullptr,
                            nullptr);
  Fnv1a digest;
  MixEvents(pipeline.IngestBatch(
                std::span(in.corpus.lines).subspan(0, in.lines)),
            &digest);
  MixEvents(pipeline.Finish(), &digest);
  Reference ref;
  ref.digest = digest.value();
  if (spec.archive) {
    QueryEngine engine({pipeline.archive()});
    ref.battery = RunBattery([&](size_t i, Fnv1a* h) {
      return ArchiveQuery(engine, in.battery, i, h, nullptr);
    });
  } else {
    ref.battery = RunBattery([&](size_t i, Fnv1a* h) {
      return LiveQuery(pipeline.store(), in.battery, i, h);
    });
  }
  return ref;
}

/// Lines lost inside the pipeline or on the wire, plus battery queries
/// whose rows differ from the reference.
uint64_t FailedOperations(const Pass& pass, const Reference& ref) {
  uint64_t failed = pass.metrics.health.supervisor.degraded_dropped_messages +
                    pass.net.bad_frames;
  for (size_t i = 0; i < ref.battery.rows.size(); ++i) {
    failed += pass.battery.rows[i] != ref.battery.rows[i];
  }
  return failed;
}

void CheckPass(const char* label, size_t index, const Pass& pass,
               const Reference& ref, Report* report) {
  const std::string where =
      std::string(label) + " pass " + std::to_string(index);
  if (pass.digest != ref.digest) {
    report->Problem(where + " event digest " + Hex(pass.digest) +
                    " != reference " + Hex(ref.digest));
  }
  if (!(pass.battery == ref.battery)) {
    report->Problem(where + " query battery differs from the reference");
  }
  report->failed += FailedOperations(pass, ref);
}

void PrintThreads(const WorkloadSpec& spec) {
  const PipelineConfig config = MakePipelineConfig(spec);
  std::string mine = "main (driver; runs the pipeline coordinator)";
  size_t own = 1;
  if (spec.archive) {
    mine += ", query reader";
    ++own;
  }
  if (spec.open_loop) {
    mine += ", loopback sender";
    ++own;
  }
  std::string system = std::to_string(spec.shards) + " shard worker(s)";
  size_t sys = spec.shards;
  if (config.enable_enrichment) {
    system += ", " + std::to_string(spec.shards) + " enrichment worker(s)";
    sys += spec.shards;
  }
  if (spec.archive) {
    system += ", " + std::to_string(spec.shards) + " archive compactor(s)";
    sys += spec.shards;
  }
  if (spec.open_loop) {
    system += ", 1 epoll loop";
    ++sys;
  }
  std::printf("threads: benchmark-owned %zu [%s]; system-owned %zu [%s]\n",
              own, mine.c_str(), sys, system.c_str());
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.

/// Mean over the four battery shapes of each shape's median latency. Query
/// `i` of a pass has shape `i % 4`. The shapes' costs differ several-fold,
/// so the pooled median would sit in the gap between two shapes' clusters
/// and jump between them from run to run; per-shape medians do not.
double ShapeMedianMs(const std::vector<std::vector<double>>& per_pass) {
  double sum = 0.0;
  for (size_t shape = 0; shape < 4; ++shape) {
    std::vector<double> v;
    for (const std::vector<double>& pass : per_pass) {
      for (size_t i = shape; i < pass.size(); i += 4) v.push_back(pass[i]);
    }
    sum += Summarize(v).median;
  }
  return sum / 4.0;
}

void MeasuredRun(const Args& args, Report* report) {
  const WorkloadSpec& spec = *args.spec;
  const PipelineConfig config = MakePipelineConfig(spec);
  const WeatherProvider weather(7);
  const SpeedProbe probe;
  std::string error;
  // Time-based figures are scaled to the reference host speed by the probe
  // times bracketing them (SpeedProbe).
  std::vector<double> setup_s;
  const auto scaled_setup = [&](Inputs* in) {
    const double before = probe.Measure();
    const double s = Setup(args, weather, in, &error);
    const double slowdown =
        (before + probe.Measure()) / 2.0 / kProbeReferenceSeconds;
    if (s < 0) {
      report->Problem("setup failed: " + error);
      return false;
    }
    setup_s.push_back(s / slowdown);
    return true;
  };
  Inputs in;
  if (!scaled_setup(&in)) return;
  report->complete = in.lines == in.corpus.lines.size();
  std::printf("workload %s: seed %llu, %zu lines (%s), %zu windows\n",
              spec.name, static_cast<unsigned long long>(args.seed), in.lines,
              report->complete ? "whole corpus" : "prefix", in.closing.size());
  PrintThreads(spec);

  // Passes until the time budget is spent. Peak RSS is read after the first
  // pass: later passes only add allocator fragmentation, and their number
  // follows the host's speed.
  std::vector<Pass> passes;
  std::vector<double> slowdown;  // per pass: probe time / reference time
  double peak_rss = 0.0;
  double probe_before = probe.Measure();
  const auto begin = SteadyClock::now();
  while (true) {
    passes.push_back(WorkloadPass(args, config, in, weather, report));
    if (passes.size() == 1) peak_rss = PeakRssMb();
    const double probe_after = probe.Measure();
    slowdown.push_back((probe_before + probe_after) / 2.0 /
                       kProbeReferenceSeconds);
    probe_before = probe_after;
    const double elapsed = SecondsBetween(begin, SteadyClock::now());
    const double mean = elapsed / static_cast<double>(passes.size());
    if (elapsed + 0.5 * mean > args.seconds) break;
  }

  const Reference ref = RunReference(spec, config, in, weather);
  for (size_t i = 0; i < passes.size(); ++i) {
    CheckPass("measured", i, passes[i], ref, report);
    report->attempted += passes[i].lines + passes[i].query_ms.size() +
                         passes[i].battery.rows.size();
  }
  report->digest = ref.digest;
  report->query_rows = ref.battery.rows;

  // More set-ups for a median set-up time: three in all, or up to nine
  // while they total under 2 s, since a short set-up is the noisiest. The
  // corpus must come out identical (the generator is deterministic per
  // seed).
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  while (setup_s.size() < 3 || (setup_s.size() < 9 && sum(setup_s) < 2.0)) {
    Inputs again;
    if (!scaled_setup(&again)) return;
    if (again.corpus.digest != in.corpus.digest) {
      report->Problem("corpus differs between set-ups of one seed");
    }
  }

  // The open loop's line rate is set by its schedule, not by the host, and
  // stays as measured.
  const auto scaled = [](const std::vector<double>& v, double s) {
    std::vector<double> out;
    for (const double x : v) out.push_back(x / s);
    return out;
  };
  std::vector<double> rate, raw_rate, cpu, query_all, emit50, emit95, q50,
      q95, late_all;
  std::vector<std::vector<double>> emit_by_pass, query_by_pass, call_by_pass,
      call_cpu_by_pass;
  size_t backlog_max = 0;
  for (size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    const double s = slowdown[i];
    const double lines = static_cast<double>(p.lines);
    raw_rate.push_back(lines / p.wall_s);
    rate.push_back(spec.open_loop ? raw_rate.back() : raw_rate.back() * s);
    cpu.push_back(p.cpu_s * 1e6 / lines / s);
    std::vector<double> emit = scaled(p.emit_ms, s);
    std::vector<double> query = scaled(p.query_ms, s);
    query_all.insert(query_all.end(), query.begin(), query.end());
    emit50.push_back(Percentile(emit, 0.50));
    emit95.push_back(Percentile(emit, 0.95));
    q50.push_back(ShapeMedianMs({query}));
    q95.push_back(Percentile(query, 0.95));
    emit_by_pass.push_back(std::move(emit));
    query_by_pass.push_back(std::move(query));
    call_by_pass.push_back(scaled(p.call_s, s));
    call_cpu_by_pass.push_back(scaled(p.call_cpu_s, s));
    late_all.insert(late_all.end(), p.late_ms.begin(), p.late_ms.end());
    backlog_max = std::max(backlog_max, p.backlog_max);
  }
  // Every pass feeds the same windows, and a closed loop the same batches,
  // so each window's emit latency, and each call's share of a closed-loop
  // pass, is taken as its median over the passes. A stall of the shared
  // host hits a few windows of one pass and would otherwise decide the tail
  // and the rate of the whole run. The open loop's drains differ between
  // passes, so its rate and CPU stay per-pass medians.
  const std::vector<double> emit = MedianOverPasses(emit_by_pass);
  double lines_per_s = Summarize(rate).median;
  double cpu_us_per_line = Summarize(cpu).median;
  if (!spec.open_loop) {
    const double lines = static_cast<double>(passes[0].lines);
    lines_per_s = lines / sum(MedianOverPasses(call_by_pass));
    cpu_us_per_line = sum(MedianOverPasses(call_cpu_by_pass)) * 1e6 / lines;
  }
  const Summary host = Summarize(slowdown);
  std::printf("%zu passes; host slowdown vs reference %.3f [q1 %.3f, q3 "
              "%.3f]; unscaled lines/s %.6g\n",
              passes.size(), host.median, host.q1, host.q3,
              Summarize(raw_rate).median);
  std::printf("end-to-end metrics (value from medians over passes; "
              "quartiles over per-pass figures; times scaled to the "
              "reference host speed):\n");
  report->Pooled("lines_per_s", "lines/s", lines_per_s, passes.size(), rate);
  report->Pooled("cpu_us_per_line", "us", cpu_us_per_line, passes.size(),
                 cpu);
  report->Pooled("emit_p50_ms", "ms", Percentile(emit, 0.50), emit.size(),
                 emit50);
  report->Pooled("emit_p95_ms", "ms", Percentile(emit, 0.95), emit.size(),
                 emit95);
  report->Pooled("query_p50_ms", "ms", ShapeMedianMs(query_by_pass),
                 query_all.size(), q50);
  report->Pooled("query_p95_ms", "ms", Percentile(query_all, 0.95),
                 query_all.size(), q95);
  report->Value("peak_rss_mb", "MB", peak_rss);
  report->Samples("setup_s", "s", setup_s);
  std::printf("informational:\n  emit_p99_ms %.4f (n %zu windows)\n",
              Percentile(emit, 0.99), emit.size());
  if (spec.open_loop) {
    std::printf("  gen.late_p99_ms %.4f  gen.backlog_max_lines %zu\n",
                Percentile(late_all, 0.99), backlog_max);
  }
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics.

struct TracedRound {
  double untimed_s = 0.0;
  double timed_s = 0.0;
  std::array<double, kLayerCount> layer_s{};
  double growth = 0.0;
};

double Growth(const std::vector<double>& close_s) {
  const size_t decile = close_s.size() / 10;
  if (decile == 0) return 0.0;
  double first = 0.0, last = 0.0;
  for (size_t i = 0; i < decile; ++i) {
    first += close_s[i];
    last += close_s[close_s.size() - 1 - i];
  }
  return first > 0.0 ? last / first : 0.0;
}

void TracedRun(const Args& args, Report* report) {
  const WorkloadSpec& spec = *args.spec;
  const PipelineConfig config = MakePipelineConfig(spec);
  const WeatherProvider weather(7);
  Inputs in;
  std::string error;
  if (Setup(args, weather, &in, &error) < 0) {
    report->Problem("setup failed: " + error);
    return;
  }
  report->complete = in.lines == in.corpus.lines.size();
  const std::span<const Event<std::string>> lines =
      std::span(in.corpus.lines).subspan(0, in.lines);
  std::printf("traced workload %s: seed %llu, %zu lines\n", spec.name,
              static_cast<unsigned long long>(args.seed), in.lines);
  PrintThreads(spec);

  // Rounds alternate the untimed and the timed decomposition; later rounds
  // run only while they fit in half the time budget.
  std::vector<TracedRound> rounds;
  const auto begin = SteadyClock::now();
  uint64_t digest = 0;
  while (true) {
    TracedRound r;
    {
      Decomposition<false> d(config, &in.world->zones(), &weather);
      const auto t0 = SteadyClock::now();
      d.Ingest(lines);
      d.Finish();
      r.untimed_s = SecondsBetween(t0, SteadyClock::now());
      digest = d.digest();
    }
    {
      Decomposition<true> d(config, &in.world->zones(), &weather);
      const auto t0 = SteadyClock::now();
      d.Ingest(lines);
      d.Finish();
      r.timed_s = SecondsBetween(t0, SteadyClock::now());
      r.layer_s = d.layer_seconds();
      r.growth = Growth(d.close_epoch_seconds());
      if (d.digest() != digest) {
        report->Problem("timed and untimed decompositions disagree");
      }
    }
    rounds.push_back(r);
    const double elapsed = SecondsBetween(begin, SteadyClock::now());
    if (rounds.size() >= 5 ||
        elapsed * (1.0 + 1.0 / static_cast<double>(rounds.size())) >
            args.seconds / 2) {
      break;
    }
  }

  // The production pipeline: one shard (for the coordinator's overhead)
  // and the workload's own arrangement (for the layer counters).
  const Pass one_shard = ClosedLoopPass(spec, 1, config, in, weather,
                                        /*timed_queries=*/false);
  const Pass own = WorkloadPass(args, config, in, weather, report);
  Reference ref;
  ref.digest = digest;
  ref.battery = one_shard.battery;
  CheckPass("one-shard", 0, one_shard, ref, report);
  CheckPass("workload", 0, own, ref, report);
  report->attempted =
      own.lines + own.query_ms.size() + own.battery.rows.size();
  report->digest = digest;
  report->query_rows = one_shard.battery.rows;

  std::vector<double> untimed, coverage, overhead, growth;
  std::array<std::vector<double>, kLayerCount> layers;
  for (const TracedRound& r : rounds) {
    untimed.push_back(r.untimed_s);
    double sum = 0.0;
    for (size_t l = 0; l < kLayerCount; ++l) {
      layers[l].push_back(r.layer_s[l]);
      sum += r.layer_s[l];
    }
    coverage.push_back(sum / r.timed_s);
    overhead.push_back(r.timed_s / r.untimed_s - 1.0);
    growth.push_back(r.growth);
  }
  std::printf("%zu traced rounds; per-layer metrics (seconds are per pass "
              "over the corpus):\n",
              rounds.size());
  for (size_t l = 0; l < kLayerCount; ++l) {
    report->Samples(kLayerMetric[l], "s", layers[l]);
  }
  report->Samples("storage.archive.close_epoch.growth", "ratio", growth);
  report->Value("core.coordinator.overhead_s", "s",
                one_shard.wall_s - Summarize(untimed).median);
  const PipelineMetrics& m = own.metrics;
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  report->Value("ais.decode_yield", "ratio",
                ratio(static_cast<double>(m.decoder.messages_out),
                      static_cast<double>(m.decoder.lines_in)));
  report->Value("stream.shard_hop.push_waits", "count",
                static_cast<double>(m.shard_hop.push_waits));
  report->Value("stream.shard_hop.pop_waits", "count",
                static_cast<double>(m.shard_hop.pop_waits));
  report->Value("stream.shard_hop.notifies", "count",
                static_cast<double>(m.shard_hop.notifies));
  report->Value("stream.shard_hop.depth_high_water", "count",
                static_cast<double>(m.shard_hop.depth_high_water));
  report->Value("core.query.blocks_scanned_ratio", "ratio",
                ratio(static_cast<double>(own.query_stats.blocks_scanned),
                      static_cast<double>(own.query_stats.blocks_total)));
  report->Value("core.query.points_decoded_per_row", "ratio",
                ratio(static_cast<double>(own.query_stats.points_decoded),
                      static_cast<double>(own.query_stats.rows)));
  report->Value("storage.archive.blocks", "count",
                static_cast<double>(m.archive.blocks));
  report->Value("storage.archive.epochs", "count",
                static_cast<double>(m.archive.epochs));
  report->Value("net.drain.share", "ratio", ratio(own.drain_s, own.wall_s));
  report->Value("net.bytes_in", "count", static_cast<double>(own.net.bytes_in));
  report->Value("net.frames", "count", static_cast<double>(own.net.frames));
  report->Value("net.bad_frames", "count",
                static_cast<double>(own.net.bad_frames));
  report->Value("core.anomaly.detector_calls", "count",
                static_cast<double>(m.anomaly.integrity.reports_checked +
                                    m.anomaly.points_in));
  report->Value("core.reconstruction.clean_ratio", "ratio",
                ratio(static_cast<double>(m.reconstruction.points_out),
                      static_cast<double>(m.reconstruction.reports_in)));
  report->Value("core.synopses.compression", "ratio",
                m.synopses.CompressionRatio());
  report->Value("stream.enrichment.dropped", "count",
                static_cast<double>(m.enrichment_stage.dropped()));
  report->Value("health.restarts", "count",
                static_cast<double>(m.health.supervisor.restarts));
  report->Value("health.dead_letters", "count",
                static_cast<double>(m.health.dead_letter.total()));
  report->Value("gen.backlog_max_lines", "count",
                static_cast<double>(own.backlog_max));
  report->Value("emit_p99_ms", "ms", Percentile(own.emit_ms, 0.99));
  report->Samples("trace.coverage", "ratio", coverage);
  report->Samples("trace.overhead", "ratio", overhead);
  if (Summarize(coverage).median < 0.90) {
    report->Problem("trace.coverage below 0.90");
  }
  if (spec.open_loop) {
    std::printf("informational:\n  gen.late_p99_ms %.4f  net.drain.self_s "
                "%.6f\n",
                Percentile(own.late_ms, 0.99), own.drain_s);
  }
}

}  // namespace
}  // namespace marlin::e2e

int main(int argc, char** argv) {
  using namespace marlin::e2e;
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "marlin_bench: %s\n", error.c_str());
    return 2;
  }
  if (args.generate) {
    return WriteCorpus(marlin::World::Basin(), CorpusConfig(*args.spec, args.seed),
                       args.spec->max_lines, STDOUT_FILENO);
  }
  Report report;
  if (args.trace) {
    TracedRun(args, &report);
  } else {
    MeasuredRun(args, &report);
  }
  report.Print(args);
  return report.correct() ? 0 : 1;
}
