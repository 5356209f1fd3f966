#ifndef MARLIN_COMMON_FAULT_H_
#define MARLIN_COMMON_FAULT_H_

/// \file fault.h
/// \brief Deterministic fault injection: named sites, seeded plans.
///
/// Production code marks the places where the outside world can fail —
/// a WAL append, a run-file rename, a worker's per-message step — with a
/// *fault point*:
///
///     MARLIN_FAULT_POINT("archive.close_epoch");             // may throw
///     if (auto a = FaultInjector::HitIo("lsm.wal.append")) …  // IO result
///
/// With no plan armed a site costs one relaxed atomic load (the bench gate
/// `BM_DecodeMicro` proves the hooks are free). Tests arm a
/// `FaultPlan` — a set of fire-on-Nth-hit rules — and the Nth execution of
/// the named site throws `FaultInjectedError`, reports an IO error / short
/// write to its caller, or sleeps. Hit counting is global and
/// mutex-serialized, so a plan fires exactly once (or on every matching
/// hit with `repeat`) no matter how many threads race through the site;
/// under a fixed thread interleaving the whole failure schedule is a pure
/// function of the plan, which is what lets the torture suites in
/// tests/fault_test.cc and tests/robustness_test.cc sweep "crash at every
/// site" deterministically.
///
/// The injector is process-global by design: the sites live deep inside
/// `LsmStore` / `ShardArchive` / the pipeline worker loops and threading a
/// handle through every constructor would bloat each hot-path signature
/// for a test-only facility. Tests arm/disarm through `ScopedFaultPlan`
/// so a failing assertion can never leak an armed plan into the next test.

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace marlin {

/// \brief What a fault site does when its rule fires.
enum class FaultAction : uint8_t {
  kThrow,       ///< throw FaultInjectedError (worker-crash simulation)
  kIoError,     ///< IO sites: report failure, write nothing
  kShortWrite,  ///< IO sites: leave a torn partial write, then report failure
  kDelay,       ///< sleep delay_ms (slow-IO / stall simulation)
};

/// \brief One rule: the `hit`-th execution of `site` performs `action`
/// (and, with `repeat`, every execution from then on).
struct FaultRule {
  std::string site;
  uint64_t hit = 1;  ///< 1-based hit index that triggers the rule
  bool repeat = false;
  FaultAction action = FaultAction::kThrow;
  uint32_t delay_ms = 0;  ///< kDelay only
};

/// \brief A set of rules, built fluently: `FaultPlan().Fail("lsm.wal.append",
/// 3, FaultAction::kIoError)`.
class FaultPlan {
 public:
  FaultPlan& Fail(std::string site, uint64_t hit = 1,
                  FaultAction action = FaultAction::kThrow) {
    rules_.push_back(FaultRule{std::move(site), hit, false, action, 0});
    return *this;
  }

  FaultPlan& FailRepeatedly(std::string site, uint64_t first_hit = 1,
                            FaultAction action = FaultAction::kThrow) {
    rules_.push_back(FaultRule{std::move(site), first_hit, true, action, 0});
    return *this;
  }

  FaultPlan& Delay(std::string site, uint64_t hit, uint32_t delay_ms) {
    rules_.push_back(
        FaultRule{std::move(site), hit, false, FaultAction::kDelay, delay_ms});
    return *this;
  }

  /// \brief Seeded single-fault plan: picks one of `sites` and a hit index
  /// in [1, max_hit] deterministically from `seed` (splitmix64). Sweeping
  /// seeds sweeps (site, timing) pairs reproducibly.
  static FaultPlan Seeded(uint64_t seed,
                          const std::vector<std::string>& sites,
                          FaultAction action, uint64_t max_hit);

  const std::vector<FaultRule>& rules() const { return rules_; }
  bool empty() const { return rules_.empty(); }

 private:
  std::vector<FaultRule> rules_;
};

/// \brief Thrown by `kThrow` rules; carries the site so supervisors can
/// attribute the failure (`WorkerFailure{site, count}`).
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(std::string site)
      : std::runtime_error("injected fault: " + site),
        site_(std::move(site)) {}

  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// \brief The process-global injector. All methods are thread-safe.
class FaultInjector {
 public:
  /// \brief Fast-path guard: false (one relaxed load) when no plan is armed.
  static bool armed() { return armed_.load(std::memory_order_relaxed); }

  /// \brief Installs `plan` and resets all hit counters.
  static void Arm(FaultPlan plan);

  /// \brief Removes the plan; sites return to no-ops.
  static void Disarm();

  /// \brief Executes the site for non-IO code: counts the hit, then throws
  /// `FaultInjectedError` or sleeps if a rule fires. kIoError/kShortWrite
  /// rules on a non-IO site also throw — the closest thing to a crash the
  /// site can express. Call only when `armed()` (the macro does).
  static void Hit(std::string_view site);

  /// \brief Executes the site for IO code: counts the hit and returns the
  /// firing rule's action — kIoError / kShortWrite for the caller to turn
  /// into a Status (and, for short writes, a deliberately torn write).
  /// kThrow rules throw; kDelay sleeps and returns nullopt like a miss.
  static std::optional<FaultAction> HitIo(std::string_view site);

  /// \brief How often `site` has executed since the last Arm.
  static uint64_t HitCount(std::string_view site);

  /// \brief Total rules fired since the last Arm.
  static uint64_t FiredCount();

 private:
  static std::atomic<bool> armed_;
};

/// \brief `MARLIN_FAULT_POINT("name")` — a throw/delay site. Zero-cost when
/// nothing is armed.
#define MARLIN_FAULT_POINT(site)                        \
  do {                                                  \
    if (::marlin::FaultInjector::armed()) {             \
      ::marlin::FaultInjector::Hit(site);               \
    }                                                   \
  } while (false)

/// \brief RAII arm/disarm, so a throwing test body can't leak a plan.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan plan) { FaultInjector::Arm(std::move(plan)); }
  ~ScopedFaultPlan() { FaultInjector::Disarm(); }

  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace marlin

#endif  // MARLIN_COMMON_FAULT_H_
