#include "fault/verdict.hpp"

#include <numeric>

namespace steins {

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kRecovered:
      return "recovered";
    case Verdict::kRecoveredAfterRetry:
      return "recovered-after-retry";
    case Verdict::kSalvaged:
      return "salvaged";
    case Verdict::kDetected:
      return "detected";
    case Verdict::kSilent:
      return "silent-corruption";
    case Verdict::kUnrecoverable:
      return "recovery-crash-unrecoverable";
  }
  return "?";
}

Verdict CrashVerdict::verdict(Scheme scheme) const {
  if (recovery_gave_up) return Verdict::kUnrecoverable;
  if (scheme == Scheme::kWriteBack) {
    return recovery_supported ? Verdict::kSilent : Verdict::kDetected;
  }
  if (recovery_ok && verified) {
    return recovery_attempts > 1 ? Verdict::kRecoveredAfterRetry : Verdict::kRecovered;
  }
  if (salvaged && degraded_verified) return Verdict::kSalvaged;
  if (faulted && fault_detected) return Verdict::kDetected;
  return Verdict::kSilent;
}

bool CrashVerdict::pass(Scheme scheme) const {
  const Verdict v = verdict(scheme);
  return v != Verdict::kSilent && v != Verdict::kUnrecoverable;
}

bool classify_recovery(const RecoveryResult& r, CrashVerdict* v) {
  v->recovery_supported = r.supported;
  v->recovery_ok = r.ok();
  v->recovery_seconds = r.seconds;
  v->recovery_attempts = r.attempt_count();
  v->recovery_gave_up = r.recovery_gave_up;
  if (r.recovery_gave_up) {
    v->detail = "recovery retry budget exhausted: " + r.status.message();
    return true;
  }
  if (!r.supported) {
    v->detail = "scheme reports recovery unsupported";
    return true;
  }
  if (!r.status.ok()) {
    v->detail = "recovery internal error: " + r.status.to_string();
    return true;
  }
  if (r.attack_detected) {
    v->fault_detected = v->faulted;
    v->detail = "recovery flagged: " + r.attack_detail;
    return true;
  }
  v->salvaged = r.degraded();
  return false;
}

std::uint64_t VerdictCounts::total() const {
  return std::accumulate(n.begin(), n.end(), std::uint64_t{0});
}

}  // namespace steins
