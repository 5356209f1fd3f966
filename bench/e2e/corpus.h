#ifndef MARLIN_BENCH_E2E_CORPUS_H_
#define MARLIN_BENCH_E2E_CORPUS_H_

/// \file corpus.h
/// \brief The benchmark's load generator. The scenario generator runs in a
/// child process (this program, started with `--generate 1`) and streams the
/// corpus back over a pipe, so its transient memory (ground truth, fleet
/// state) never counts toward the measuring process's peak RSS: the
/// generator is not the system under test.

#include <string>
#include <vector>

#include "sim/scenario.h"
#include "sim/world.h"
#include "stream/event.h"

namespace marlin::e2e {

struct Corpus {
  std::vector<Event<std::string>> lines;  ///< arrival order
  std::vector<Mmsi> fleet;                ///< every scenario MMSI, sorted
  Timestamp start = 0;                    ///< scenario event-time span
  Timestamp end = 0;
  uint64_t digest = 0;  ///< FNV-1a over every line's envelope and payload
};

/// \brief Child side: generates `config`'s scenario and writes its first
/// `max_lines` lines to `fd`. Returns the process exit code.
int WriteCorpus(const World& world, const ScenarioConfig& config,
                size_t max_lines, int fd);

/// \brief Parent side: runs `self` (this program) with `--generate 1` and
/// `child_args`, and reads the corpus it writes to its stdout. Returns false
/// and fills `error` when the child fails or its stream is malformed.
bool GenerateCorpus(const char* self, const std::vector<std::string>& child_args,
                    Corpus* out, std::string* error);

}  // namespace marlin::e2e

#endif  // MARLIN_BENCH_E2E_CORPUS_H_
