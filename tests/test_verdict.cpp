// The shared crash-verdict classifier (fault/verdict.hpp): one row per
// precedence edge of classify_recovery + CrashVerdict::verdict, run for
// write-back and a recoverable scheme, faulted and clean. Every row also
// pins pass() == "neither silent nor unrecoverable".
#include <gtest/gtest.h>

#include <string>

#include "fault/verdict.hpp"

namespace steins {
namespace {

enum Flag : unsigned {
  kGaveUp = 1,
  kUnsupported = 2,
  kInternalError = 4,
  kAttack = 8,
  kDegraded = 16,
  kRetried = 32,
};

RecoveryResult make_result(unsigned flags) {
  RecoveryResult r;
  r.supported = (flags & kUnsupported) == 0;
  r.recovery_gave_up = (flags & kGaveUp) != 0;
  if ((flags & (kGaveUp | kInternalError)) != 0) {
    r.status = Status(ErrorCode::kInternal, "boom");
  }
  if ((flags & kAttack) != 0) {
    r.attack_detected = true;
    r.attack_detail = "LInc mismatch at level 2";
  }
  if ((flags & kDegraded) != 0) r.lines_quarantined = 1;
  r.attempts.resize((flags & kRetried) != 0 ? 2 : 1);
  r.seconds = 0.25;
  return r;
}

struct Row {
  const char* edge;
  unsigned flags;
  bool wb;                  // score as write-back (else Steins)
  bool faulted;
  bool settled;             // classify_recovery decided without an audit
  const char* detail;       // expected detail prefix when settled
  Verdict verdict;          // after a clean audit when not settled
};

// Unsettled rows model a clean audit: the image verified (or, when the
// recovery degraded, every readable key verified).
const Row kRows[] = {
    // 1. A give-up beats everything.
    {"gave-up beats all, WB", kGaveUp | kUnsupported | kInternalError | kAttack, true,
     true, true, "recovery retry budget exhausted: ", Verdict::kUnrecoverable},
    {"gave-up beats all, Steins", kGaveUp | kUnsupported | kInternalError | kAttack, false,
     false, true, "recovery retry budget exhausted: ", Verdict::kUnrecoverable},
    {"gave-up beats a clean audit", kGaveUp | kRetried, false, true, true,
     "recovery retry budget exhausted: ", Verdict::kUnrecoverable},
    // 2. Unsupported: WB's only legal answer, silent for anyone else.
    {"WB unsupported is detected", kUnsupported, true, false, true,
     "scheme reports recovery unsupported", Verdict::kDetected},
    {"unsupported beats internal error", kUnsupported | kInternalError | kAttack, true, true,
     true, "scheme reports recovery unsupported", Verdict::kDetected},
    {"non-WB unsupported is silent", kUnsupported, false, true, true,
     "scheme reports recovery unsupported", Verdict::kSilent},
    // WB claiming a recovery is silent whatever the audit says.
    {"WB supported is silent", 0, true, false, false, "", Verdict::kSilent},
    {"WB supported + attack is silent", kAttack, true, true, true, "recovery flagged: ",
     Verdict::kSilent},
    // 3. An internal Status is silent, even with an attack flagged.
    {"internal error is silent", kInternalError, false, false, true,
     "recovery internal error: ", Verdict::kSilent},
    {"internal error beats attack", kInternalError | kAttack, false, true, true,
     "recovery internal error: ", Verdict::kSilent},
    // 4. attack_detected is detection only when a fault was armed.
    {"attack when faulted is detected", kAttack, false, true, true, "recovery flagged: ",
     Verdict::kDetected},
    {"attack when clean is silent", kAttack, false, false, true, "recovery flagged: ",
     Verdict::kSilent},
    // 5. Otherwise the audit decides.
    {"clean recovery", 0, false, false, false, "", Verdict::kRecovered},
    {"retried recovery", kRetried, false, true, false, "", Verdict::kRecoveredAfterRetry},
    {"degraded recovery salvages", kDegraded, false, true, false, "", Verdict::kSalvaged},
};

TEST(CrashVerdict, ClassifierPrecedenceTable) {
  for (const Row& row : kRows) {
    SCOPED_TRACE(row.edge);
    const Scheme scheme = row.wb ? Scheme::kWriteBack : Scheme::kSteins;
    const RecoveryResult r = make_result(row.flags);
    CrashVerdict v;
    v.faulted = row.faulted;
    ASSERT_EQ(classify_recovery(r, &v), row.settled);
    EXPECT_EQ(v.recovery_supported, r.supported);
    EXPECT_EQ(v.recovery_gave_up, r.recovery_gave_up);
    EXPECT_EQ(v.recovery_attempts, r.attempt_count());
    EXPECT_DOUBLE_EQ(v.recovery_seconds, 0.25);
    EXPECT_FALSE(v.fault_detected && !row.faulted) << "a detection with nothing armed";
    if (row.settled) {
      EXPECT_EQ(v.detail.rfind(row.detail, 0), 0u) << v.detail;
    } else {
      EXPECT_EQ(v.salvaged, r.degraded());
      v.verified = !v.salvaged;
      v.degraded_verified = v.salvaged;
    }
    EXPECT_EQ(v.verdict(scheme), row.verdict) << verdict_name(v.verdict(scheme));
    EXPECT_EQ(v.pass(scheme),
              row.verdict != Verdict::kSilent && row.verdict != Verdict::kUnrecoverable);
  }
}

// The same pass/verdict agreement over every flag combination, both
// scheme kinds, faulted and clean, with and without a clean audit.
TEST(CrashVerdict, PassAgreesWithVerdictEverywhere) {
  for (unsigned flags = 0; flags < 64; ++flags) {
    for (const Scheme scheme : {Scheme::kWriteBack, Scheme::kSteins}) {
      for (const bool faulted : {false, true}) {
        for (const bool audit_clean : {false, true}) {
          CrashVerdict v;
          v.faulted = faulted;
          if (!classify_recovery(make_result(flags), &v) && audit_clean) {
            v.verified = !v.salvaged;
            v.degraded_verified = v.salvaged;
          }
          const Verdict got = v.verdict(scheme);
          EXPECT_EQ(v.pass(scheme), got != Verdict::kSilent && got != Verdict::kUnrecoverable)
              << "flags " << flags;
          if ((flags & kGaveUp) != 0) {
            EXPECT_EQ(got, Verdict::kUnrecoverable);
          }
          if (got == Verdict::kDetected && scheme == Scheme::kSteins) {
            EXPECT_TRUE(faulted);
          }
        }
      }
    }
  }
}

TEST(CrashVerdict, CountsTallyFoldAndGate) {
  VerdictCounts c;
  EXPECT_EQ(c.total(), 0u);
  EXPECT_TRUE(c.clean());
  c.add(Verdict::kRecovered);
  c.add(Verdict::kRecoveredAfterRetry);
  c.add(Verdict::kSalvaged);
  c.add(Verdict::kDetected);
  EXPECT_EQ(c.total(), 4u);
  EXPECT_EQ(c.converged(), 2u);
  EXPECT_TRUE(c.clean());
  VerdictCounts bad;
  bad.add(Verdict::kUnrecoverable);
  c += bad;
  EXPECT_EQ(c.total(), 5u);
  EXPECT_EQ(c[Verdict::kUnrecoverable], 1u);
  EXPECT_EQ(c.failed(), 1u);
  EXPECT_FALSE(c.clean());
}

TEST(CrashVerdict, NamesAreTheArtifactSpellings) {
  EXPECT_STREQ(verdict_name(Verdict::kRecovered), "recovered");
  EXPECT_STREQ(verdict_name(Verdict::kRecoveredAfterRetry), "recovered-after-retry");
  EXPECT_STREQ(verdict_name(Verdict::kSalvaged), "salvaged");
  EXPECT_STREQ(verdict_name(Verdict::kDetected), "detected");
  EXPECT_STREQ(verdict_name(Verdict::kSilent), "silent-corruption");
  EXPECT_STREQ(verdict_name(Verdict::kUnrecoverable), "recovery-crash-unrecoverable");
}

}  // namespace
}  // namespace steins
