#include "corpus.h"

#include <errno.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "e2e.h"

namespace marlin::e2e {
namespace {

/// Payload lines longer than this mean the stream is corrupt.
constexpr uint32_t kMaxLineBytes = 1 << 16;

class PipeWriter {
 public:
  explicit PipeWriter(int fd) : fd_(fd) {}
  template <typename T>
  void Put(const T& value) {
    char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    Append(raw, sizeof(T));
  }
  void Append(const char* data, size_t size) {
    buffer_.append(data, size);
    if (buffer_.size() >= (1 << 16)) Flush();
  }
  bool Flush() {
    size_t off = 0;
    while (ok_ && off < buffer_.size()) {
      const ssize_t w = ::write(fd_, buffer_.data() + off, buffer_.size() - off);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) ok_ = false;
      else off += static_cast<size_t>(w);
    }
    buffer_.clear();
    return ok_;
  }

 private:
  int fd_;
  bool ok_ = true;
  std::string buffer_;
};

class PipeReader {
 public:
  explicit PipeReader(int fd) : fd_(fd) {}
  template <typename T>
  bool Get(T* value) {
    char raw[sizeof(T)];
    if (!Read(raw, sizeof(T))) return false;
    std::memcpy(value, raw, sizeof(T));
    return true;
  }
  bool Read(char* dst, size_t size) {
    while (size > 0) {
      if (pos_ == len_ && !Fill()) return false;
      const size_t n = std::min(size, len_ - pos_);
      std::memcpy(dst, buffer_ + pos_, n);
      pos_ += n;
      dst += n;
      size -= n;
    }
    return true;
  }

 private:
  bool Fill() {
    while (true) {
      const ssize_t r = ::read(fd_, buffer_, sizeof(buffer_));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      pos_ = 0;
      len_ = static_cast<size_t>(r);
      return true;
    }
  }

  int fd_;
  char buffer_[1 << 16];
  size_t pos_ = 0;
  size_t len_ = 0;
};

bool ReadCorpus(int fd, Corpus* out) {
  PipeReader in(fd);
  uint64_t line_count = 0, fleet_count = 0;
  if (!in.Get(&line_count) || !in.Get(&fleet_count) || !in.Get(&out->start) ||
      !in.Get(&out->end) || fleet_count > (1u << 20)) {
    return false;
  }
  out->fleet.resize(fleet_count);
  for (Mmsi& m : out->fleet) {
    if (!in.Get(&m)) return false;
  }
  std::sort(out->fleet.begin(), out->fleet.end());
  Fnv1a digest;
  out->lines.clear();
  out->lines.reserve(line_count);
  for (uint64_t i = 0; i < line_count; ++i) {
    Event<std::string> ev;
    uint32_t size = 0;
    if (!in.Get(&ev.event_time) || !in.Get(&ev.ingest_time) ||
        !in.Get(&ev.source_id) || !in.Get(&size) || size > kMaxLineBytes) {
      return false;
    }
    ev.payload.resize(size);
    if (!in.Read(ev.payload.data(), size)) return false;
    digest.Field(ev.event_time);
    digest.Field(ev.ingest_time);
    digest.Field(ev.source_id);
    digest.Bytes(ev.payload.data(), ev.payload.size());
    out->lines.push_back(std::move(ev));
  }
  char extra = 0;
  if (in.Read(&extra, 1)) return false;  // trailing bytes: corrupt stream
  out->digest = digest.value();
  return true;
}

}  // namespace

int WriteCorpus(const World& world, const ScenarioConfig& config,
                size_t max_lines, int fd) {
  const ScenarioOutput scenario = GenerateScenario(world, config);
  const size_t lines = std::min(max_lines, scenario.nmea.size());
  PipeWriter out(fd);
  out.Put<uint64_t>(lines);
  out.Put<uint64_t>(scenario.fleet.size());
  out.Put<int64_t>(config.start_time);
  out.Put<int64_t>(config.start_time + config.duration);
  for (const VesselSpec& v : scenario.fleet) out.Put<uint32_t>(v.mmsi);
  for (size_t i = 0; i < lines; ++i) {
    const Event<std::string>& ev = scenario.nmea[i];
    out.Put<int64_t>(ev.event_time);
    out.Put<int64_t>(ev.ingest_time);
    out.Put<uint64_t>(ev.source_id);
    out.Put<uint32_t>(static_cast<uint32_t>(ev.payload.size()));
    out.Append(ev.payload.data(), ev.payload.size());
  }
  return out.Flush() ? 0 : 1;
}

bool GenerateCorpus(const char* self, const std::vector<std::string>& child_args,
                    Corpus* out, std::string* error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<std::string> args = {self, "--generate", "1"};
  args.insert(args.end(), child_args.begin(), child_args.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  pid_t pid = 0;
  const int rc =
      ::posix_spawnp(&pid, self, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    *error = std::string("spawn: ") + std::strerror(rc);
    return false;
  }
  const bool read_ok = ReadCorpus(fds[0], out);
  ::close(fds[0]);  // a child still writing gets EPIPE and exits
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "corpus generator child failed";
    return false;
  }
  if (!read_ok) {
    *error = "corpus stream from the generator child is malformed";
    return false;
  }
  return true;
}

}  // namespace marlin::e2e
