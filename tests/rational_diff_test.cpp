// Differential tests for the machine-word Rational fast path.
//
// Every arithmetic operation is executed twice — once with the fast path
// enabled (inline int64 pairs, __int128 intermediates) and once with it
// disabled via the HV_NO_FAST_RATIONAL escape hatch (everything forced
// through the BigInt representation) — and the results are pinned against
// each other. Operand generation deliberately straddles the int64/int128
// overflow boundary: INT64_MIN/MAX edges, powers of two around 2^31, 2^62,
// and near-sqrt(2^63) values whose products sit just on either side of the
// promotion threshold. A final end-to-end section checks that verdicts and
// certificates are bit-identical with the fast path off, and that the
// auditor (running fast) accepts certificates produced slow — the
// "certificates produced before the change still audit" guarantee.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "hv/cert/audit.h"
#include "hv/cert/certificate.h"
#include "hv/cert/emit.h"
#include "hv/checker/parameterized.h"
#include "hv/models/bv_broadcast.h"
#include "hv/models/registry.h"
#include "hv/util/error.h"
#include "hv/util/rational.h"

namespace hv {
namespace {

/// Scoped override of the fast-path switch; restores the previous state so
/// test order never leaks representation modes across cases.
class FastPathGuard {
 public:
  explicit FastPathGuard(bool enabled) : previous_(Rational::fast_path_enabled()) {
    Rational::set_fast_path_enabled(enabled);
  }
  ~FastPathGuard() { Rational::set_fast_path_enabled(previous_); }
  FastPathGuard(const FastPathGuard&) = delete;
  FastPathGuard& operator=(const FastPathGuard&) = delete;

 private:
  bool previous_;
};

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
// floor(sqrt(2^63)): products of two values near here straddle int64.
constexpr std::int64_t kSqrtBoundary = 3037000499;

std::vector<std::int64_t> adversarial_values() {
  std::vector<std::int64_t> values = {
      0,
      1,
      -1,
      2,
      -2,
      7,
      -7,
      kMax,
      kMax - 1,
      kMin,
      kMin + 1,
      kMax / 2,
      kMin / 2,
      (std::int64_t{1} << 62),
      -(std::int64_t{1} << 62),
      (std::int64_t{1} << 62) - 1,
      (std::int64_t{1} << 31),
      (std::int64_t{1} << 31) - 1,
      kSqrtBoundary,
      kSqrtBoundary + 1,
      -kSqrtBoundary,
      -(kSqrtBoundary + 1),
  };
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<std::int64_t> full(kMin, kMax);
  std::uniform_int_distribution<std::int64_t> small(-1000, 1000);
  for (int i = 0; i < 12; ++i) values.push_back(full(rng));
  for (int i = 0; i < 12; ++i) values.push_back(small(rng));
  return values;
}

Rational make_rational(std::int64_t num, std::int64_t den) {
  return Rational(BigInt(num), BigInt(den));
}

/// Requires the two results — computed under different representation modes
/// — to agree as exact values (numerator/denominator are canonical in both).
void expect_same_value(const Rational& fast, const Rational& slow, const std::string& what) {
  EXPECT_EQ(fast.numerator(), slow.numerator()) << what;
  EXPECT_EQ(fast.denominator(), slow.denominator()) << what;
  EXPECT_EQ(fast, slow) << what;  // mixed-representation operator==
}

std::string label(const char* op, std::int64_t an, std::int64_t ad, std::int64_t bn,
                  std::int64_t bd) {
  return std::string(op) + " (" + std::to_string(an) + "/" + std::to_string(ad) + ", " +
         std::to_string(bn) + "/" + std::to_string(bd) + ")";
}

TEST(RationalDiffTest, AllBinaryOpsAgreeAcrossRepresentations) {
  const std::vector<std::int64_t> values = adversarial_values();
  // Denominators: nonzero adversarial values (sign exercises normalization).
  std::vector<std::int64_t> dens;
  for (std::int64_t v : values) {
    if (v != 0) dens.push_back(v);
  }
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::size_t> pick_value(0, values.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_den(0, dens.size() - 1);

  for (int round = 0; round < 4000; ++round) {
    const std::int64_t an = values[pick_value(rng)];
    const std::int64_t ad = dens[pick_den(rng)];
    const std::int64_t bn = values[pick_value(rng)];
    const std::int64_t bd = dens[pick_den(rng)];

    Rational fa, fb, fsum, fdiff, fprod, ffused;
    std::strong_ordering forder = std::strong_ordering::equal;
    {
      const FastPathGuard fast_mode(true);
      fa = make_rational(an, ad);
      fb = make_rational(bn, bd);
      fsum = fa + fb;
      fdiff = fa - fb;
      fprod = fa * fb;
      ffused = fsum;
      ffused.add_mul(fa, fb);
      forder = fa <=> fb;
    }
    Rational sa, sb, ssum, sdiff, sprod, sfused;
    std::strong_ordering sorder = std::strong_ordering::equal;
    {
      const FastPathGuard slow_mode(false);
      sa = make_rational(an, ad);
      sb = make_rational(bn, bd);
      EXPECT_FALSE(sa.is_small());
      ssum = sa + sb;
      sdiff = sa - sb;
      sprod = sa * sb;
      sfused = ssum;
      sfused.add_mul(sa, sb);
      sorder = sa <=> sb;
    }
    expect_same_value(fsum, ssum, label("+", an, ad, bn, bd));
    expect_same_value(fdiff, sdiff, label("-", an, ad, bn, bd));
    expect_same_value(fprod, sprod, label("*", an, ad, bn, bd));
    expect_same_value(ffused, sfused, label("add_mul", an, ad, bn, bd));
    EXPECT_TRUE(forder == sorder) << label("<=>", an, ad, bn, bd);

    if (bn != 0) {
      Rational fquot, frecip;
      {
        const FastPathGuard fast_mode(true);
        fquot = fa / fb;
        frecip = fb.reciprocal();
      }
      Rational squot, srecip;
      {
        const FastPathGuard slow_mode(false);
        squot = sa / sb;
        srecip = sb.reciprocal();
      }
      expect_same_value(fquot, squot, label("/", an, ad, bn, bd));
      expect_same_value(frecip, srecip, label("reciprocal", bn, bd, 0, 1));
    }

    EXPECT_EQ(fa.floor(), sa.floor()) << label("floor", an, ad, 0, 1);
    EXPECT_EQ(fa.ceil(), sa.ceil()) << label("ceil", an, ad, 0, 1);
    EXPECT_EQ(fa.sign(), sa.sign()) << label("sign", an, ad, 0, 1);
    EXPECT_EQ(fa.is_integer(), sa.is_integer()) << label("is_integer", an, ad, 0, 1);
    EXPECT_EQ(fa.to_string(), sa.to_string()) << label("to_string", an, ad, 0, 1);
  }
}

TEST(RationalDiffTest, BigIntOpsAgreeWithInt128Reference) {
  // BigInt is the fallback arithmetic under the fast path; pin its small-value
  // behaviour against plain __int128 on the same adversarial operands.
  const std::vector<std::int64_t> values = adversarial_values();
  for (std::int64_t a : values) {
    for (std::int64_t b : values) {
      const BigInt ba(a), bb(b);
      EXPECT_EQ(ba + bb, BigInt::from_int128(static_cast<__int128>(a) + b));
      EXPECT_EQ(ba - bb, BigInt::from_int128(static_cast<__int128>(a) - b));
      EXPECT_EQ(ba * bb, BigInt::from_int128(static_cast<__int128>(a) * b));
      if (b != 0 && !(a == kMin && b == -1)) {
        EXPECT_EQ(ba / bb, BigInt(a / b));
        EXPECT_EQ(ba % bb, BigInt(a % b));
      }
      EXPECT_EQ((ba <=> bb) == std::strong_ordering::less, a < b);
    }
  }
  // In-place += / -= aliasing (x += x, x -= x) on boundary values.
  for (std::int64_t a : values) {
    BigInt doubled(a);
    doubled += doubled;
    EXPECT_EQ(doubled, BigInt::from_int128(static_cast<__int128>(a) * 2));
    BigInt zeroed(a);
    zeroed -= zeroed;
    EXPECT_TRUE(zeroed.is_zero());
  }
}

TEST(RationalDiffTest, ChainedPivotLikeAccumulationAgrees) {
  // Mimics the simplex inner loop: long add_mul chains whose intermediates
  // drift across the promotion boundary and back.
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<std::int64_t> coeff(-5, 5);
  std::uniform_int_distribution<std::int64_t> shift(0, 61);
  const auto run_chain = [&](bool fast, std::uint64_t seed) {
    const FastPathGuard mode(fast);
    std::mt19937_64 local(seed);
    Rational acc;
    for (int i = 0; i < 300; ++i) {
      std::int64_t c = coeff(local);
      if (c == 0) c = 3;
      const std::int64_t magnitude = std::int64_t{1} << shift(local);
      // c * 2^61 overflows int64, so the product is formed in BigInt.
      const Rational factor(BigInt(c) * BigInt(magnitude), BigInt(c < 0 ? 3 : 7));
      const Rational value(BigInt(coeff(local)), BigInt(magnitude));
      acc.add_mul(factor, value);
      if (i % 37 == 0 && !acc.is_zero()) acc = acc.reciprocal();
    }
    return acc;
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Rational fast = run_chain(true, seed);
    const Rational slow = run_chain(false, seed);
    expect_same_value(fast, slow, "chain seed " + std::to_string(seed));
  }
}

// --- end-to-end: verdicts and certificates are representation-independent ---

checker::PropertyResult check_with_mode(bool fast, const ta::ThresholdAutomaton& ta,
                                        const spec::Property& property, bool certify,
                                        cert::Certificate* certificate) {
  const FastPathGuard mode(fast);
  checker::CheckOptions options;
  options.certify = certify;
  checker::PropertyResult result = checker::check_property(ta, property, options);
  if (certificate != nullptr) {
    certificate->components.push_back(cert::make_component_cert(
        cert::builtin_model_source("bv_broadcast"), {property}, {result}, "bundled"));
  }
  return result;
}

TEST(RationalDiffTest, EndToEndVerdictsAndCertificatesIdentical) {
  const ta::ThresholdAutomaton bv = models::bv_broadcast();
  const std::vector<spec::Property> properties = models::bundled_properties(bv);
  ASSERT_FALSE(properties.empty());
  for (const spec::Property& property : properties) {
    cert::Certificate fast_cert, slow_cert;
    const checker::PropertyResult fast =
        check_with_mode(true, bv, property, /*certify=*/true, &fast_cert);
    const checker::PropertyResult slow =
        check_with_mode(false, bv, property, /*certify=*/true, &slow_cert);
    EXPECT_EQ(fast.verdict, slow.verdict) << property.name;
    EXPECT_EQ(fast.schemas_checked, slow.schemas_checked) << property.name;
    EXPECT_EQ(fast.schemas_pruned, slow.schemas_pruned) << property.name;
    EXPECT_EQ(fast.simplex_pivots, slow.simplex_pivots) << property.name;
    // The wire form carries no timing: byte-identical certificates.
    EXPECT_EQ(cert::to_json_text(fast_cert), cert::to_json_text(slow_cert)) << property.name;
    // The forced-BigInt run must report zero fast-path arithmetic; the fast
    // run must report some whenever any schema actually reached the solver
    // (fully cone-pruned properties never touch the tableau).
    EXPECT_EQ(slow.rational_fast_ops, 0) << property.name;
    if (fast.schemas_checked > 0) {
      EXPECT_GT(fast.rational_fast_ops, 0) << property.name;
      EXPECT_GT(slow.rational_big_ops, 0) << property.name;
    }
  }
}

TEST(RationalDiffTest, AuditAcceptsCertificateProducedWithoutFastPath) {
  // A certificate written by a pre-fast-path (or escape-hatched) binary must
  // still audit green on a fast-path auditor, and vice versa.
  const ta::ThresholdAutomaton bv = models::bv_broadcast();
  const std::vector<spec::Property> properties = models::bundled_properties(bv);
  cert::Certificate slow_cert;
  for (const spec::Property& property : properties) {
    check_with_mode(false, bv, property, /*certify=*/true, &slow_cert);
  }
  const cert::Certificate parsed =
      cert::parse_certificate(cert::to_json_text(slow_cert));
  {
    const FastPathGuard fast_auditor(true);
    const cert::AuditReport report = cert::audit_certificate(parsed);
    EXPECT_TRUE(report.ok) << report.to_string();
  }
  {
    const FastPathGuard slow_auditor(false);
    const cert::AuditReport report = cert::audit_certificate(parsed);
    EXPECT_TRUE(report.ok) << report.to_string();
  }
}

}  // namespace
}  // namespace hv
