#include "pmlp/core/record.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <locale>
#include <stdexcept>
#include <streambuf>

namespace pmlp::core {

// ------------------------------------------------------------------ writer

void RecordWriter::append_hexfloat(std::string& out, double v) {
  char buf[32];
  // For normal values and zero, to_chars' hex form is "%a" without the
  // sign and the 0x prefix. Subnormals are not: glibc prints them as
  // 0x0.<digits>p-1022, while to_chars may normalize them (1p-1074).
  if (!std::isnormal(v) && v != 0) {
    out.append(buf, static_cast<std::size_t>(
                        std::snprintf(buf, sizeof buf, "%a", v)));
    return;
  }
  const auto r = std::to_chars(buf, buf + sizeof buf, std::fabs(v),
                               std::chars_format::hex);
  out += std::signbit(v) ? "-0x" : "0x";
  out.append(buf, static_cast<std::size_t>(r.ptr - buf));
}

void RecordWriter::hexfloat(std::ostream& os, double v) {
  std::string token;
  append_hexfloat(token, v);
  os << token;
}

void RecordWriter::text(const char* tag, std::string value) {
  std::replace(value.begin(), value.end(), '\n', ' ');
  std::replace(value.begin(), value.end(), '\r', ' ');
  line(tag, value);
}

void RecordWriter::check() const {
  if (!os_) throw std::runtime_error(std::string(what_) + ": stream failure");
}

// ------------------------------------------------------------------ reader

namespace {

/// std::streambuf shows its get area (the buffered, not yet consumed
/// bytes) only to derived classes; a pointer to member formed through a
/// derived class applies to any streambuf.
struct GetArea : std::streambuf {
  static const char* begin(std::streambuf& sb) {
    return (sb.*&GetArea::gptr)();
  }
  static const char* end(std::streambuf& sb) {
    return (sb.*&GetArea::egptr)();
  }
  static void consume(std::streambuf& sb, std::size_t n) {
    for (; n > std::size_t{INT_MAX}; n -= INT_MAX) {  // gbump takes an int
      (sb.*&GetArea::gbump)(INT_MAX);
    }
    (sb.*&GetArea::gbump)(static_cast<int>(n));
  }
};

/// The classic locale's whitespace, which `>>` skips and stops at.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// The end of a hexfloat token of the writer's shape at the start of `b`
/// (`-?0x`, one digit 0 or 1, at most 13 fraction digits, the exponent),
/// converted by from_chars into `v`; nullptr for any other token. Only
/// exact results are taken: a normal one (at most 53 significant bits
/// need no rounding) or a zero spelled with zero digits. strtod flags an
/// inexact subnormal with ERANGE, which the reader rejects, so subnormals
/// take the strtod path.
const char* canonical_hexfloat(std::string_view b, double& v) {
  const char* p = b.data();
  const char* const end = p + b.size();
  const bool negative = p != end && *p == '-';
  if (negative) ++p;
  if (end - p < 3 || p[0] != '0' || p[1] != 'x') return nullptr;
  const char* const mantissa = p + 2;
  if (*mantissa != '0' && *mantissa != '1') return nullptr;
  double parsed = 0;
  const auto r =
      std::from_chars(mantissa, end, parsed, std::chars_format::hex);
  if (r.ec != std::errc()) return nullptr;
  const char* exponent = mantissa + 1;
  while (exponent != r.ptr && *exponent != 'p' && *exponent != 'P') {
    ++exponent;
  }
  // "1", or "1." and up to 13 fraction digits.
  const auto digits = exponent - mantissa;
  if (digits != 1 && (mantissa[1] != '.' || digits > 15)) return nullptr;
  if (parsed == 0) {
    if (std::any_of(mantissa, exponent,
                    [](char c) { return c != '0' && c != '.'; })) {
      return nullptr;
    }
  } else if (!std::isnormal(parsed)) {
    return nullptr;
  }
  v = negative ? -parsed : parsed;
  return r.ptr;
}

}  // namespace

RecordReader::RecordReader(std::istream& is, const char* what)
    : is_(is),
      what_(what),
      fast_(is.getloc() == std::locale::classic() &&
            (is.flags() & (std::ios::skipws | std::ios::basefield)) ==
                (std::ios::skipws | std::ios::dec) &&
            is.width() == 0) {}

std::string_view RecordReader::buffered() {
  if (!fast_ || !is_.good()) return {};
  std::streambuf& sb = *is_.rdbuf();
  const char* const begin = GetArea::begin(sb);
  const char* const end = GetArea::end(sb);
  const char* first = begin;
  while (first != end && is_space(*first)) ++first;
  GetArea::consume(sb, static_cast<std::size_t>(first - begin));
  return {first, static_cast<std::size_t>(end - first)};
}

bool RecordReader::take(std::string_view buffered, const char* last) {
  // A token that reaches the end of the buffered bytes may go on past it:
  // `>>` reads that one, refilling the buffer as it goes.
  if (last == nullptr || last == buffered.data() + buffered.size() ||
      !is_space(*last)) {
    return false;
  }
  GetArea::consume(*is_.rdbuf(),
                   static_cast<std::size_t>(last - buffered.data()));
  return true;
}

bool RecordReader::token(std::string& out) {
  const std::string_view b = buffered();
  const char* const last =
      std::find_if(b.data(), b.data() + b.size(), is_space);
  if (last == b.data() || last == b.data() + b.size()) {
    return static_cast<bool>(is_ >> out);
  }
  out.assign(b.data(), static_cast<std::size_t>(last - b.data()));
  return take(b, last);
}

void RecordReader::fail(std::string_view why) const {
  throw std::invalid_argument(std::string(what_) + ": " + std::string(why));
}

void RecordReader::unknown(std::string_view tag) const {
  fail("unknown tag " + std::string(tag));
}

void RecordReader::header(const char* magic) {
  if (!token(tag_) || tag_ != magic || !token(tag_) || tag_ != "v1") {
    fail("bad header");
  }
}

void RecordReader::expect(const char* tag) {
  tag_.clear();
  if (!token(tag_) || tag_ != tag) {
    fail(std::string("expected '") + tag + "'" +
         (tag_.empty() ? "" : ", got '" + tag_ + "'"));
  }
}

double RecordReader::hex() {
  const std::string_view b = buffered();
  if (double v = 0; take(b, canonical_hexfloat(b, v))) return v;
  if (!(is_ >> token_)) fail("missing value");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token_.c_str(), &end);
  if (end != token_.c_str() + token_.size() || errno == ERANGE) {
    fail("bad value '" + token_ + "'");
  }
  return v;
}

std::string RecordReader::rest() {
  while (is_.peek() == ' ' || is_.peek() == '\t') is_.get();
  std::string value;
  std::getline(is_, value);
  while (!value.empty() && (value.back() == '\r' || value.back() == ' ')) {
    value.pop_back();
  }
  return value;
}

std::string RecordReader::name() {
  std::string value = rest();
  if (value.empty()) fail("missing name");
  if (value == "-") value.clear();
  return value;
}

bool RecordReader::peek(char c) {
  is_ >> std::ws;
  return is_.peek() == c;
}

bool RecordReader::next(std::string_view& tag, const char* terminator) {
  if (!token(tag_)) {
    if (terminator == nullptr) return false;
    fail(std::string("missing ") + terminator);
  }
  tag = tag_;
  return terminator == nullptr || tag_ != terminator;
}

// ---------------------------------------------------------------- coverage

void LayerCoverage::add_layer(std::size_t slots) {
  offset_.push_back(seen_.size());
  seen_.resize(seen_.size() + slots, 0);
}

bool LayerCoverage::complete() const {
  return std::all_of(seen_.begin(), seen_.end(), [](char s) { return s; });
}

}  // namespace pmlp::core
