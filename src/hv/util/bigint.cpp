#include "hv/util/bigint.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <ostream>
#include <utility>

#include "hv/util/error.h"

namespace hv {

namespace {
constexpr std::uint64_t kLimbBase = std::uint64_t{1} << 32;
}  // namespace

std::vector<std::uint32_t> BigInt::small_magnitude(std::int64_t value) {
  std::uint64_t magnitude =
      value < 0 ? ~static_cast<std::uint64_t>(value) + 1 : static_cast<std::uint64_t>(value);
  std::vector<std::uint32_t> limbs;
  while (magnitude != 0) {
    limbs.push_back(static_cast<std::uint32_t>(magnitude & 0xffffffffu));
    magnitude >>= 32;
  }
  return limbs;
}

BigInt::BigInt(std::int64_t value) {
  if (fits_small(value)) {
    small_ = value;
  } else {
    negative_ = value < 0;
    limbs_ = small_magnitude(value);
  }
}

void BigInt::promote() {
  if (!limbs_.empty()) return;
  negative_ = small_ < 0;
  limbs_ = small_magnitude(small_);
  small_ = 0;
}

void BigInt::trim() noexcept {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) {
    small_ = 0;
    negative_ = false;
    return;
  }
  if (limbs_.size() <= 2) {
    std::uint64_t magnitude = limbs_[0];
    if (limbs_.size() == 2) magnitude |= static_cast<std::uint64_t>(limbs_[1]) << 32;
    if (magnitude <= static_cast<std::uint64_t>(kSmallMax)) {
      small_ = negative_ ? -static_cast<std::int64_t>(magnitude)
                         : static_cast<std::int64_t>(magnitude);
      negative_ = false;
      limbs_.clear();
    }
  }
}

BigInt BigInt::from_string(std::string_view text) {
  if (text.empty()) throw InvalidArgument("BigInt::from_string: empty input");
  bool negative = false;
  std::size_t pos = 0;
  if (text[0] == '+' || text[0] == '-') {
    negative = text[0] == '-';
    pos = 1;
  }
  if (pos == text.size()) throw InvalidArgument("BigInt::from_string: sign without digits");
  BigInt result;
  for (; pos < text.size(); ++pos) {
    const char c = text[pos];
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      throw InvalidArgument("BigInt::from_string: bad digit in '" + std::string(text) + "'");
    }
    result *= 10;
    result += c - '0';
  }
  if (negative) result = -result;
  return result;
}

bool BigInt::fits_int64() const noexcept {
  if (is_small()) return true;
  if (limbs_.size() > 2) return false;
  std::uint64_t magnitude = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) magnitude = (magnitude << 32) | limbs_[i];
  const std::uint64_t limit =
      negative_ ? (std::uint64_t{1} << 63) : (std::uint64_t{1} << 63) - 1;
  return magnitude <= limit;
}

std::int64_t BigInt::to_int64() const {
  if (is_small()) return small_;
  if (!fits_int64()) throw InvalidArgument("BigInt::to_int64: value out of range");
  std::uint64_t magnitude = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) magnitude = (magnitude << 32) | limbs_[i];
  // Negate in unsigned arithmetic: 2^63 has no int64 counterpart to negate.
  return static_cast<std::int64_t>(negative_ ? 0 - magnitude : magnitude);
}

std::string BigInt::to_string() const {
  if (is_small()) return std::to_string(small_);
  // Repeatedly divide the magnitude by 10^9 and emit 9-digit groups.
  std::vector<std::uint32_t> digits = limbs_;
  std::string out;
  while (!digits.empty()) {
    std::uint64_t remainder = 0;
    for (std::size_t i = digits.size(); i-- > 0;) {
      const std::uint64_t cur = (remainder << 32) | digits[i];
      digits[i] = static_cast<std::uint32_t>(cur / 1000000000u);
      remainder = cur % 1000000000u;
    }
    while (!digits.empty() && digits.back() == 0) digits.pop_back();
    for (int i = 0; i < 9; ++i) {
      out.push_back(static_cast<char>('0' + remainder % 10));
      remainder /= 10;
    }
  }
  while (out.size() > 1 && out.back() == '0') out.pop_back();
  if (negative_) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

BigInt BigInt::operator-() const {
  BigInt result = *this;
  if (result.is_small()) {
    result.small_ = -result.small_;
  } else {
    result.negative_ = !result.negative_;
  }
  return result;
}

void BigInt::negate() noexcept {
  if (is_small()) {
    // |small_| <= kSmallMax < 2^62, so negation cannot overflow.
    small_ = -small_;
  } else {
    negative_ = !negative_;
  }
}

BigInt BigInt::abs() const { return is_negative() ? -*this : *this; }

BigInt BigInt::from_int128(__int128 value) {
  if (value >= static_cast<__int128>(std::numeric_limits<std::int64_t>::min()) &&
      value <= static_cast<__int128>(std::numeric_limits<std::int64_t>::max())) {
    return BigInt(static_cast<std::int64_t>(value));
  }
  BigInt result;
  result.negative_ = value < 0;
  unsigned __int128 magnitude = value < 0 ? -static_cast<unsigned __int128>(value)
                                          : static_cast<unsigned __int128>(value);
  while (magnitude != 0) {
    result.limbs_.push_back(static_cast<std::uint32_t>(magnitude & 0xffffffffu));
    magnitude >>= 32;
  }
  return result;
}

int BigInt::compare_magnitudes(const std::vector<std::uint32_t>& a,
                               const std::vector<std::uint32_t>& b) noexcept {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

void BigInt::add_magnitudes(std::vector<std::uint32_t>& acc,
                            const std::vector<std::uint32_t>& addend) {
  if (acc.size() < addend.size()) acc.resize(addend.size(), 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    std::uint64_t sum = carry + acc[i];
    if (i < addend.size()) sum += addend[i];
    acc[i] = static_cast<std::uint32_t>(sum & 0xffffffffu);
    carry = sum >> 32;
    if (carry == 0 && i >= addend.size()) break;
  }
  if (carry != 0) acc.push_back(static_cast<std::uint32_t>(carry));
}

void BigInt::subtract_magnitudes(std::vector<std::uint32_t>& acc,
                                 const std::vector<std::uint32_t>& subtrahend) {
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(acc[i]) - borrow;
    if (i < subtrahend.size()) diff -= subtrahend[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kLimbBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    acc[i] = static_cast<std::uint32_t>(diff);
    if (borrow == 0 && i >= subtrahend.size()) break;
  }
  HV_REQUIRE(borrow == 0);
}

std::vector<std::uint32_t> BigInt::multiply_magnitudes(const std::vector<std::uint32_t>& a,
                                                       const std::vector<std::uint32_t>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<std::uint32_t> result(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      const std::uint64_t cur = result[i + j] + ai * b[j] + carry;
      result[i + j] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    std::size_t k = i + b.size();
    while (carry != 0) {
      const std::uint64_t cur = result[k] + carry;
      result[k] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  while (!result.empty() && result.back() == 0) result.pop_back();
  return result;
}

void BigInt::divide_magnitudes(const std::vector<std::uint32_t>& numerator,
                               const std::vector<std::uint32_t>& denominator,
                               std::vector<std::uint32_t>& quotient,
                               std::vector<std::uint32_t>& remainder) {
  HV_REQUIRE(!denominator.empty());
  quotient.clear();
  remainder.clear();
  if (compare_magnitudes(numerator, denominator) < 0) {
    remainder = numerator;
    return;
  }
  if (denominator.size() == 1) {
    const std::uint64_t d = denominator[0];
    quotient.assign(numerator.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = numerator.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | numerator[i];
      quotient[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    while (!quotient.empty() && quotient.back() == 0) quotient.pop_back();
    if (rem != 0) remainder.push_back(static_cast<std::uint32_t>(rem));
    return;
  }
  // Knuth algorithm D with normalization so the top denominator limb has its
  // high bit set; quotient digits are then off by at most two and corrected.
  int shift = 0;
  for (std::uint32_t top = denominator.back(); (top & 0x80000000u) == 0; top <<= 1) ++shift;
  auto shift_left = [shift](const std::vector<std::uint32_t>& in) {
    std::vector<std::uint32_t> out(in.size() + 1, 0);
    for (std::size_t i = 0; i < in.size(); ++i) {
      out[i] |= in[i] << shift;
      if (shift != 0) out[i + 1] = in[i] >> (32 - shift);
    }
    while (!out.empty() && out.back() == 0) out.pop_back();
    return out;
  };
  std::vector<std::uint32_t> u = shift_left(numerator);
  const std::vector<std::uint32_t> v = shift_left(denominator);
  const std::size_t n = v.size();
  const std::size_t m = u.size() - n;
  u.resize(u.size() + 1, 0);
  quotient.assign(m + 1, 0);
  const std::uint64_t v_top = v[n - 1];
  const std::uint64_t v_next = v[n - 2];
  for (std::size_t j = m + 1; j-- > 0;) {
    const std::uint64_t numerator_top = (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t q_hat = numerator_top / v_top;
    std::uint64_t r_hat = numerator_top % v_top;
    while (q_hat >= kLimbBase ||
           q_hat * v_next > ((r_hat << 32) | u[j + n - 2])) {
      --q_hat;
      r_hat += v_top;
      if (r_hat >= kLimbBase) break;
    }
    // u[j .. j+n] -= q_hat * v
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t product = q_hat * v[i] + carry;
      carry = product >> 32;
      std::int64_t diff =
          static_cast<std::int64_t>(u[i + j]) - static_cast<std::int64_t>(product & 0xffffffffu) -
          borrow;
      if (diff < 0) {
        diff += static_cast<std::int64_t>(kLimbBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<std::uint32_t>(diff);
    }
    std::int64_t diff = static_cast<std::int64_t>(u[j + n]) - static_cast<std::int64_t>(carry) -
                        borrow;
    if (diff < 0) {
      // q_hat was one too large: add v back once; the carry out of the
      // addition cancels the borrow (discarded by the uint32 truncation).
      diff += static_cast<std::int64_t>(kLimbBase);
      --q_hat;
      std::uint64_t add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t sum = static_cast<std::uint64_t>(u[i + j]) + v[i] + add_carry;
        u[i + j] = static_cast<std::uint32_t>(sum & 0xffffffffu);
        add_carry = sum >> 32;
      }
      diff += static_cast<std::int64_t>(add_carry);
    }
    u[j + n] = static_cast<std::uint32_t>(static_cast<std::uint64_t>(diff) & 0xffffffffu);
    quotient[j] = static_cast<std::uint32_t>(q_hat);
  }
  while (!quotient.empty() && quotient.back() == 0) quotient.pop_back();
  // Denormalize the remainder (shift right).
  u.resize(n);
  remainder.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    remainder[i] = u[i] >> shift;
    if (shift != 0 && i + 1 < n) remainder[i] |= u[i + 1] << (32 - shift);
  }
  while (!remainder.empty() && remainder.back() == 0) remainder.pop_back();
}

BigInt& BigInt::add_signed(const BigInt& rhs, bool negate_rhs) {
  if (is_small() && rhs.is_small()) {
    // Cannot overflow: both magnitudes are at most 2^62 - 1.
    const std::int64_t sum = negate_rhs ? small_ - rhs.small_ : small_ + rhs.small_;
    if (fits_small(sum)) {
      small_ = sum;
    } else {
      *this = BigInt(sum);
    }
    return *this;
  }
  promote();
  // Borrow rhs's magnitude without copying it; a small rhs loads its limbs
  // into a scratch vector. Aliasing (x += x) is safe: once *this is big,
  // rhs_limbs just points at limbs_ and the magnitude helpers tolerate
  // acc == addend element-wise.
  std::vector<std::uint32_t> scratch;
  const std::vector<std::uint32_t>* rhs_limbs = nullptr;
  bool rhs_negative = false;
  if (rhs.is_small()) {
    scratch = small_magnitude(rhs.small_);
    rhs_limbs = &scratch;
    rhs_negative = rhs.small_ < 0;
  } else {
    rhs_limbs = &rhs.limbs_;
    rhs_negative = rhs.negative_;
  }
  if (negate_rhs) rhs_negative = !rhs_negative;
  if (negative_ == rhs_negative) {
    add_magnitudes(limbs_, *rhs_limbs);
  } else if (compare_magnitudes(limbs_, *rhs_limbs) >= 0) {
    subtract_magnitudes(limbs_, *rhs_limbs);
  } else {
    std::vector<std::uint32_t> magnitude = *rhs_limbs;
    subtract_magnitudes(magnitude, limbs_);
    limbs_ = std::move(magnitude);
    negative_ = rhs_negative;
  }
  trim();
  return *this;
}

BigInt& BigInt::operator+=(const BigInt& rhs) { return add_signed(rhs, false); }

BigInt& BigInt::operator-=(const BigInt& rhs) { return add_signed(rhs, true); }

BigInt& BigInt::operator*=(const BigInt& rhs) {
  if (is_small() && rhs.is_small()) {
    std::int64_t product = 0;
    if (!__builtin_mul_overflow(small_, rhs.small_, &product)) {
      if (fits_small(product)) {
        small_ = product;
      } else {
        *this = BigInt(product);
      }
      return *this;
    }
  }
  promote();
  BigInt big_rhs = rhs;
  big_rhs.promote();
  limbs_ = multiply_magnitudes(limbs_, big_rhs.limbs_);
  negative_ = !limbs_.empty() && negative_ != big_rhs.negative_;
  trim();
  return *this;
}

void BigInt::div_mod(const BigInt& numerator, const BigInt& denominator, BigInt& quotient,
                     BigInt& remainder) {
  if (denominator.is_zero()) throw InvalidArgument("BigInt: division by zero");
  if (numerator.is_small() && denominator.is_small()) {
    quotient = BigInt(numerator.small_ / denominator.small_);
    remainder = BigInt(numerator.small_ % denominator.small_);
    return;
  }
  BigInt big_numerator = numerator;
  big_numerator.promote();
  BigInt big_denominator = denominator;
  big_denominator.promote();
  std::vector<std::uint32_t> q;
  std::vector<std::uint32_t> r;
  divide_magnitudes(big_numerator.limbs_, big_denominator.limbs_, q, r);
  quotient.small_ = 0;
  quotient.limbs_ = std::move(q);
  quotient.negative_ =
      !quotient.limbs_.empty() && big_numerator.negative_ != big_denominator.negative_;
  quotient.trim();
  remainder.small_ = 0;
  remainder.limbs_ = std::move(r);
  remainder.negative_ = !remainder.limbs_.empty() && big_numerator.negative_;
  remainder.trim();
}

BigInt& BigInt::operator/=(const BigInt& rhs) {
  BigInt quotient;
  BigInt remainder;
  div_mod(*this, rhs, quotient, remainder);
  *this = std::move(quotient);
  return *this;
}

BigInt& BigInt::operator%=(const BigInt& rhs) {
  BigInt quotient;
  BigInt remainder;
  div_mod(*this, rhs, quotient, remainder);
  *this = std::move(remainder);
  return *this;
}

std::strong_ordering operator<=>(const BigInt& lhs, const BigInt& rhs) noexcept {
  if (lhs.is_small() && rhs.is_small()) return lhs.small_ <=> rhs.small_;
  // A big value's magnitude always exceeds kSmallMax, hence any small value.
  if (lhs.is_small()) {
    return rhs.negative_ ? std::strong_ordering::greater : std::strong_ordering::less;
  }
  if (rhs.is_small()) {
    return lhs.negative_ ? std::strong_ordering::less : std::strong_ordering::greater;
  }
  if (lhs.negative_ != rhs.negative_) {
    return lhs.negative_ ? std::strong_ordering::less : std::strong_ordering::greater;
  }
  const int magnitude_order = BigInt::compare_magnitudes(lhs.limbs_, rhs.limbs_);
  const int order = lhs.negative_ ? -magnitude_order : magnitude_order;
  if (order < 0) return std::strong_ordering::less;
  if (order > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

BigInt BigInt::floor_div(const BigInt& numerator, const BigInt& denominator) {
  BigInt quotient;
  BigInt remainder;
  div_mod(numerator, denominator, quotient, remainder);
  if (!remainder.is_zero() && (numerator.is_negative() != denominator.is_negative())) {
    quotient -= 1;
  }
  return quotient;
}

BigInt BigInt::ceil_div(const BigInt& numerator, const BigInt& denominator) {
  BigInt quotient;
  BigInt remainder;
  div_mod(numerator, denominator, quotient, remainder);
  if (!remainder.is_zero() && (numerator.is_negative() == denominator.is_negative())) {
    quotient += 1;
  }
  return quotient;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  if (a.is_small() && b.is_small()) {
    std::int64_t x = a.small_ < 0 ? -a.small_ : a.small_;
    std::int64_t y = b.small_ < 0 ? -b.small_ : b.small_;
    while (y != 0) {
      const std::int64_t r = x % y;
      x = y;
      y = r;
    }
    return BigInt(x);
  }
  if (a.is_negative()) a = -a;
  if (b.is_negative()) b = -b;
  while (!b.is_zero()) {
    BigInt quotient;
    BigInt remainder;
    div_mod(a, b, quotient, remainder);
    a = std::move(b);
    b = std::move(remainder);
  }
  return a;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.to_string();
}

}  // namespace hv
